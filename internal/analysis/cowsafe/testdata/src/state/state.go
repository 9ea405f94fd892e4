// Package state is a cowsafe fixture mirroring the real COW shapes:
// live Group state captured into Transfer and Checkpointed views that alias
// its buffers.
package state

type Event struct {
	Seq      uint64
	ObjectID string
	Data     []byte
}

type Group struct {
	objects map[string][]byte //corona:cow
	history []Event           //corona:cow
	nextSeq uint64            // unmarked: free to mutate
}

type Transfer struct {
	objects map[string][]byte //corona:cow-view
	events  []Event           //corona:cow-view
}

// --- conforming live-side code ------------------------------------------

func newGroup() *Group {
	return &Group{objects: make(map[string][]byte)}
}

func (g *Group) applyState(ev Event) {
	g.objects[ev.ObjectID] = cloneBytes(ev.Data) // fresh clone: fine
	g.nextSeq++
}

func (g *Group) applyUpdate(ev Event) {
	// Append-to-self: lands past every captured length. Fine.
	g.objects[ev.ObjectID] = append(g.objects[ev.ObjectID], ev.Data...)
	g.history = append(g.history, ev)
}

func (g *Group) reduce(idx int) {
	// Fresh backing array for the retained tail: fine.
	g.history = append([]Event(nil), g.history[idx:]...)
}

func (g *Group) reset() {
	g.objects = make(map[string][]byte) // fresh map: fine
	g.history = nil                     // nil install: fine
	delete(g.objects, "x")              // delete never writes into a buffer: fine
}

func (g *Group) capture() *Transfer {
	t := &Transfer{objects: make(map[string][]byte)}
	for id, data := range g.objects {
		t.objects[id] = data // sharing INTO a view is the point: fine
	}
	t.events = g.history[2:] // view field may alias live history: fine
	return t
}

// --- violations ----------------------------------------------------------

func (g *Group) patchInPlace(id string, b byte) {
	g.objects[id][0] = b // want `write into COW-shared buffer`
}

func (g *Group) patchViaLocal(id string, b byte) {
	buf := g.objects[id]
	buf[0] = b // want `write into COW-shared buffer`
}

func (g *Group) patchHistory(ev Event) {
	g.history[0] = ev // want `write into COW-shared buffer`
}

func (g *Group) patchRangeValue(b byte) {
	for _, data := range g.objects {
		data[0] = b // want `write into COW-shared buffer`
	}
}

func (g *Group) patchEventData(b byte) {
	for _, ev := range g.history {
		ev.Data[0] = b // want `write into COW-shared buffer`
	}
}

func (g *Group) copyOver(id string, src []byte) {
	copy(g.objects[id], src) // want `copy into COW-shared buffer`
}

func (g *Group) installShared(id string, data []byte) {
	g.objects[id] = data // want `install into COW field g\.objects must be a fresh buffer`
}

func (g *Group) reSlice(idx int) {
	g.history = g.history[idx:] // want `install into COW field g\.history must be a fresh buffer`
}

func (g *Group) escapingAppend(id string, b byte) []byte {
	return append(g.objects[id], b) // want `append to COW-shared buffer g\.objects\[id\] escapes`
}

func (t *Transfer) mutateView(b byte, src []byte) {
	t.events[0] = Event{}     // want `write into captured COW view buffer`
	t.objects["x"][0] = b     // want `write into captured COW view buffer`
	copy(t.objects["x"], src) // want `copy into captured COW view buffer`
}

// --- the checkpoint image (the one view every whole-group reader takes) ---

type Object struct {
	ID   string
	Data []byte
}

// Checkpointed mirrors state.Checkpointed: exported slices whose elements'
// Data alias the live group's buffers.
type Checkpointed struct {
	Objects []Object //corona:cow-view
	History []Event  //corona:cow-view
	NextSeq uint64   // plain metadata: free to mutate
}

func (g *Group) checkpoint() Checkpointed {
	objs := make([]Object, 0, len(g.objects))
	for id, data := range g.objects {
		objs = append(objs, Object{ID: id, Data: data}) // sharing INTO the image is the point: fine
	}
	return Checkpointed{NextSeq: g.nextSeq, Objects: objs, History: g.history[:len(g.history):len(g.history)]}
}

// encode is a reader of the image (a WAL record, a replica transfer, a
// migration stream): it may read and re-slice the shared buffers freely —
// only writes are forbidden.
func (cp Checkpointed) encode(send func([]byte)) {
	for _, o := range cp.Objects {
		for data := o.Data; len(data) > 0; data = data[min(len(data), 4):] {
			send(data[:min(len(data), 4)])
		}
	}
}

func (cp *Checkpointed) redactInPlace(i int, src []byte) {
	cp.Objects[i].Data[0] = 0 // want `write into captured COW view buffer`
	cp.History[i].Data[0] = 0 // want `write into captured COW view buffer`
	for _, o := range cp.Objects {
		buf := o.Data
		buf[0] = 0 // want `write into captured COW view buffer`
	}
	copy(cp.History[0].Data, src) // want `copy into captured COW view buffer`
	cp.NextSeq++                  // unmarked metadata: fine
}

func cloneBytes(b []byte) []byte {
	if b == nil {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// --- shapes the shared taint walk closes ----------------------------------

func (g *Group) patchCommaOk(id string) {
	if buf, ok := g.objects[id]; ok {
		buf[0] = 1 // want `write into COW-shared buffer buf\[0\]`
	}
}

func (g *Group) patchVar(id string) {
	var buf = g.objects[id]
	buf[0] = 1 // want `write into COW-shared buffer buf\[0\]`
}

func (g *Group) renumberCopies() {
	for _, ev := range g.history {
		ev.Seq++ // a field of the range variable's copy: fine
		ev.Seq = 0
	}
}

func (g *Group) renumberInPlace() {
	for i := range g.history {
		p := &g.history[i]
		p.Seq++   // want `in-place mutation of COW-shared buffer p\.Seq`
		p.Seq = 0 // want `write into COW-shared buffer p\.Seq`
	}
}
