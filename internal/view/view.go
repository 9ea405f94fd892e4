// Package view provides the client-side half of the paper's shared-object
// model: "a shared object should be able to write its internal state to a
// stream as well as to set its state to the data encoded in a stream upon
// request" (§3.1). A View materializes a group's object set at the client
// by applying the join-time state transfer and then the live delivery
// stream, using exactly the server's semantics (bcastState replaces an
// object, bcastUpdate appends), so the client's copy and the service's
// copy evolve in lockstep.
//
// Typical wiring:
//
//	v := view.New()
//	c, _ := client.Dial(client.Config{
//	        Addr:    addr,
//	        OnEvent: func(group string, ev wire.Event) { v.ApplyEvent(ev) },
//	})
//	res, _ := c.Join("pad", client.JoinOptions{})
//	v.ApplyJoin(res)
//
// View is safe for concurrent use: the read side (Get, Objects) may be a
// UI thread while the client's read loop applies deliveries.
package view

import (
	"errors"
	"fmt"
	"sort"
	"sync"

	"corona/internal/client"
	"corona/internal/wire"
)

// ErrGap is returned by ApplyEvent when a delivery skips ahead of the
// view's expected sequence number, meaning events were missed (e.g. the
// connection dropped); the application should resynchronize with a resume
// join and ApplyJoin the result.
var ErrGap = errors.New("view: missed events; resynchronize")

// Watcher observes object changes. It runs synchronously under the apply
// path and must not block.
type Watcher func(objectID string, data []byte, ev wire.Event)

// View is a client-side materialized group state.
type View struct {
	mu       sync.RWMutex
	objects  map[string][]byte
	lastSeq  uint64
	primed   bool
	watchers []Watcher
}

// New returns an empty view.
func New() *View {
	return &View{objects: make(map[string][]byte)}
}

// ApplyJoin installs a join-time state transfer: snapshot objects first,
// then the event suffix. It accepts the result of any transfer policy,
// including the resume results of client.Reconnect.
//
// The view takes ownership of res.Objects' Data buffers instead of copying
// them (a JoinResult's buffers are the caller's, see client.JoinResult): the
// caller must not touch them afterwards. Each adopted buffer is capped at
// its length, so the first update to an object reallocates it and can never
// write into a neighbour that shares its backing array. The cost is
// retention: a streamed join's objects share one payload buffer, and a
// replaced object keeps its region of it alive until every object adopted
// from that payload has been replaced.
func (v *View) ApplyJoin(res *client.JoinResult) error {
	if res == nil {
		return errors.New("view: nil join result")
	}
	v.mu.Lock()
	defer v.mu.Unlock()
	if len(res.Objects) > 0 || !v.primed {
		// A snapshot resets the view to the service's materialized
		// objects as of BaseSeq.
		if len(res.Objects) > 0 {
			v.objects = make(map[string][]byte, len(res.Objects))
			for _, o := range res.Objects {
				v.objects[o.ID] = o.Data[:len(o.Data):len(o.Data)]
			}
		}
		v.lastSeq = res.BaseSeq
	}
	v.primed = true
	for _, ev := range res.Events {
		if err := v.applyLocked(ev, true); err != nil {
			return err
		}
	}
	// The join ack promises deliveries from NextSeq on; fast-forward the
	// cursor past any reduced-away gap.
	if res.NextSeq > 0 && res.NextSeq-1 > v.lastSeq {
		v.lastSeq = res.NextSeq - 1
	}
	return nil
}

// ApplyEvent folds one live delivery in. Duplicate deliveries (at or below
// the cursor) are ignored; a gap returns ErrGap without changing state.
func (v *View) ApplyEvent(ev wire.Event) error {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.applyLocked(ev, false)
}

func (v *View) applyLocked(ev wire.Event, fromJoin bool) error {
	switch {
	case ev.Seq <= v.lastSeq:
		return nil // duplicate
	case ev.Seq != v.lastSeq+1 && !fromJoin:
		return fmt.Errorf("%w: got seq %d, have %d", ErrGap, ev.Seq, v.lastSeq)
	case fromJoin && ev.Seq != v.lastSeq+1:
		// Join transfers may legitimately start above the cursor when
		// the service reduced its log (TransferLastN): adopt the
		// suffix's base.
		v.lastSeq = ev.Seq - 1
	}
	switch ev.Kind {
	case wire.EventState:
		v.objects[ev.ObjectID] = append([]byte(nil), ev.Data...)
	case wire.EventUpdate:
		v.objects[ev.ObjectID] = append(v.objects[ev.ObjectID], ev.Data...)
	default:
		return fmt.Errorf("view: invalid event kind %d", ev.Kind)
	}
	v.lastSeq = ev.Seq
	for _, w := range v.watchers {
		w(ev.ObjectID, v.objects[ev.ObjectID], ev)
	}
	return nil
}

// Get returns a copy of one object's current state.
func (v *View) Get(objectID string) ([]byte, bool) {
	v.mu.RLock()
	defer v.mu.RUnlock()
	data, ok := v.objects[objectID]
	if !ok {
		return nil, false
	}
	return append([]byte(nil), data...), true
}

// Objects returns a copy of the whole object set, sorted by ID.
func (v *View) Objects() []wire.Object {
	v.mu.RLock()
	defer v.mu.RUnlock()
	out := make([]wire.Object, 0, len(v.objects))
	for id, data := range v.objects {
		out = append(out, wire.Object{ID: id, Data: append([]byte(nil), data...)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// LastSeq returns the sequence number of the last applied event — the
// FromSeq-1 to use in a resume transfer.
func (v *View) LastSeq() uint64 {
	v.mu.RLock()
	defer v.mu.RUnlock()
	return v.lastSeq
}

// Watch registers a change observer.
func (v *View) Watch(w Watcher) {
	v.mu.Lock()
	v.watchers = append(v.watchers, w)
	v.mu.Unlock()
}

// Reset clears the view (e.g. before re-joining from scratch).
func (v *View) Reset() {
	v.mu.Lock()
	v.objects = make(map[string][]byte)
	v.lastSeq = 0
	v.primed = false
	v.mu.Unlock()
}
