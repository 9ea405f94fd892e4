// Package state implements Corona's shared-state model (paper §3.1): a
// group's shared state is a set S = {(O1,S1) … (On,Sn)} of uniquely
// identified objects whose states are opaque byte streams. The server never
// interprets object contents; members update the server's copy through the
// multicast service, and joining members receive the state under one of the
// customizable transfer policies.
//
// Two multicast primitives mutate the state (paper §3.2):
//
//   - bcastState: the message carries a new state for an object and
//     overrides the present state.
//   - bcastUpdate: the message carries an incremental change, appended to
//     the existing state, preserving the history of updates.
//
// The update history supports incremental state transfer (TransferLastN,
// TransferResume) and is trimmed by log reduction: the history up to a
// point is replaced by the consistent state at that point, which is
// equivalent to the initial state plus the discarded updates.
package state

import (
	"errors"
	"fmt"
	"slices"
	"sort"

	"corona/internal/wire"
)

// Package errors.
var (
	// ErrStaleSeq is returned by Apply and ApplyRun when an event's
	// sequence number is not the next expected one.
	ErrStaleSeq = errors.New("state: event sequence out of order")
	// ErrSeqGap is returned by a TransferResume capture when the requested
	// suffix predates the group's checkpoint and can no longer be served
	// incrementally.
	ErrSeqGap = errors.New("state: requested sequence precedes checkpoint")
)

// Group holds one group's shared state: the materialized objects, the
// retained update history, and the checkpoint base. Group is not
// self-synchronizing; the owning server serializes access.
type Group struct {
	// objects maps object IDs to their materialized states. Captured
	// transfers alias the value buffers, so in-place mutation is
	// forbidden: install fresh buffers or append-to-self only.
	objects map[string][]byte //corona:cow
	// history holds events with Seq in (baseSeq, nextSeq), oldest first.
	// Captured transfers alias its tail under the same COW contract. Each
	// event's Data is the slice ApplyRun adopted, or RestoreMaterialized's
	// clone: read-only.
	history []wire.Event //corona:cow
	// baseSeq is the sequence number of the last checkpoint: every event
	// with Seq <= baseSeq has been folded into objects and discarded.
	baseSeq uint64
	// nextSeq is the sequence number the next event must carry (assigned
	// by the sequencer).
	nextSeq uint64
	// digest chains a hash over every applied event. Two replicas that
	// applied the same event sequence have the same digest; after a
	// network partition, differing digests at the same sequence number
	// expose divergence (paper §4.2: the last globally consistent state
	// is identified from checkpoints and sequence numbers).
	digest uint64
}

// New returns an empty group state expecting its first event at sequence 1.
func New() *Group {
	return &Group{objects: make(map[string][]byte), nextSeq: 1}
}

// NewInitial returns a group state seeded with the given initial objects
// (paper §3.2: when creating a group, a client specifies the initial state).
func NewInitial(initial []wire.Object) *Group {
	g := New()
	for _, o := range initial {
		g.objects[o.ID] = cloneBytes(o.Data)
	}
	return g
}

// NextSeq returns the sequence number the next event must carry.
func (g *Group) NextSeq() uint64 { return g.nextSeq }

// BaseSeq returns the checkpoint base: the highest sequence number whose
// event has been folded into the materialized objects and discarded.
func (g *Group) BaseSeq() uint64 { return g.baseSeq }

// HistoryLen returns the number of retained history events.
func (g *Group) HistoryLen() int { return len(g.history) }

// ObjectCount returns the number of objects in the shared state.
func (g *Group) ObjectCount() int { return len(g.objects) }

// Apply folds one sequenced event into the state and retains it in the
// history: it is ApplyRun of a run of one, except that Apply does not take
// ownership of ev.Data. It retains a copy, so the caller may reuse its
// buffer. The event must carry the next expected sequence number.
func (g *Group) Apply(ev wire.Event) error {
	ev.Data = cloneBytes(ev.Data)
	_, err := g.ApplyRun([]wire.Event{ev})
	return err
}

// ApplyRun folds a run of sequenced events into the state and retains them
// in the history, with the result Apply gives applied one at a time. It
// applies the run up to the first event that does not carry the next
// expected sequence number or has an invalid kind, reports how many events
// it applied, and returns that event's error.
//
// Each object the run touches is written once (see applyToObjects): an
// update a later bcastState of the run replaces is never copied into the
// object. Every applied event is retained in the history and folded into
// the digest, in order.
//
// ApplyRun takes ownership of each applied event's Data: the history keeps
// the caller's slice, not a copy, and captured views and checkpoints share
// it. The caller must not write through Data afterwards; the state never
// writes through an adopted slice nor appends to it (objects copy from it).
// A decode's fresh copy (wire.DecodeEvent, Bcast.Decode) qualifies, and so
// does a slice aliasing a buffer nothing writes again, such as a log
// segment read; a reused buffer does not — use Apply.
func (g *Group) ApplyRun(evs []wire.Event) (int, error) {
	n, err := g.runLength(evs)
	evs = evs[:n]
	g.applyToObjects(evs)
	if n > cap(g.history)-len(g.history) {
		// The history grows once per run, into a fresh array: captured
		// views keep the old one.
		g.history = cloneGrowEvents(g.history, n)
	}
	for i := range evs {
		ev := evs[i]
		if len(ev.Data) == 0 {
			// Kept as nil, as a copy or a decode keeps it.
			ev.Data = nil
		}
		g.history = append(g.history, ev)
		g.digest = DigestEvent(g.digest, ev)
	}
	g.nextSeq += uint64(n)
	return n, err
}

// runLength reports how many of evs, from the first, carry consecutive
// sequence numbers from nextSeq and valid kinds, and the error of the event
// that stops them, if one does.
func (g *Group) runLength(evs []wire.Event) (int, error) {
	for i := range evs {
		if want := g.nextSeq + uint64(i); evs[i].Seq != want {
			return i, fmt.Errorf("%w: got %d, want %d", ErrStaleSeq, evs[i].Seq, want)
		}
		if !evs[i].Kind.Valid() {
			return i, fmt.Errorf("state: invalid event kind %d", evs[i].Kind)
		}
	}
	return len(evs), nil
}

// Digest returns the running history digest (see DigestEvent).
func (g *Group) Digest() uint64 { return g.digest }

// applyToObjects folds a run of valid events into the materialized objects,
// writing each object the run touches once. It must preserve the
// copy-on-write invariants documented on Transfer: a state event installs a
// fresh buffer (never writes into the old one), and an update only appends —
// bytes below any previously captured length are never rewritten, so
// captured views stay stable without cloning.
//
// An object ends the run as its last bcastState of the run followed by the
// updates after it, or, without one, as its old bytes followed by the run's
// updates. Events before that bcastState are superseded and never copied. An
// object the run resets gets one fresh buffer of its final length. An object
// the run only appends to takes the run's bytes for it in place when they fit
// its capacity; otherwise it first moves once to a fresh buffer of capacity
// 2·len + the run's bytes for it (cloneGrow). An object built by n runs of
// appends is therefore copied O(log n) times, and its capacity never exceeds
// 2·len + the last run's bytes for it plus the allocator's size-class
// rounding.
func (g *Group) applyToObjects(evs []wire.Event) {
	// What the run does to each object it touches, in order of first
	// touch: reset is the index in the run of the object's last bcastState
	// (-1: none), and size the bytes the run leaves in it from there, or
	// without a reset the bytes it appends. Both stay on the stack while
	// the run touches few objects; the map is written only on an object's
	// first touch, since a full small map grows on any write.
	type runObject struct {
		id          string
		reset, size int
	}
	index := make(map[string]int)
	objs := make([]runObject, 0, 8)
	resets := false
	for i := range evs {
		id := evs[i].ObjectID
		k, ok := index[id]
		if !ok {
			k = len(objs)
			index[id] = k
			objs = append(objs, runObject{id: id, reset: -1})
		}
		o := &objs[k]
		if evs[i].Kind == wire.EventState {
			o.reset, o.size, resets = i, 0, true
		}
		o.size += len(evs[i].Data)
	}
	for _, o := range objs {
		switch {
		case o.reset >= 0 && o.size == 0:
			g.objects[o.id] = nil
		case o.reset >= 0:
			g.objects[o.id] = make([]byte, 0, o.size)
		default:
			if obj := g.objects[o.id]; o.size > cap(obj)-len(obj) {
				g.objects[o.id] = cloneGrow(obj, o.size)
			}
		}
	}
	// Every object now has room for what the run leaves in it, so no
	// append below moves a buffer. Without a reset every event is live.
	for i := range evs {
		if id := evs[i].ObjectID; !resets || i >= objs[index[id]].reset {
			g.objects[id] = append(g.objects[id], evs[i].Data...)
		}
	}
}

// Object returns a copy of one object's current state and whether the
// object exists.
func (g *Group) Object(id string) ([]byte, bool) {
	data, ok := g.objects[id]
	if !ok {
		return nil, false
	}
	return cloneBytes(data), true
}

// Objects returns a copy of the full object set, sorted by ID for
// deterministic wire encoding and tests.
func (g *Group) Objects() []wire.Object {
	out := sortedView(g.objects)
	for i := range out {
		out[i].Data = cloneBytes(out[i].Data)
	}
	return out
}

// sortedView lists m's objects by ID. The Data slices are m's own buffers,
// shared, not copied.
func sortedView(m map[string][]byte) []wire.Object {
	out := make([]wire.Object, 0, len(m))
	for id, data := range m {
		out = append(out, wire.Object{ID: id, Data: data})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// Transfer is a captured state transfer: an immutable view of the objects
// and history events a joining member must receive under one policy.
//
// Capture is O(1) in state bytes — the view shares the group's live object
// buffers and history backing array instead of cloning them — which is what
// lets the engine capture a transfer inside a short lock-held critical
// section and stream the payload afterwards, concurrently with new updates
// to the same group. Sharing is safe because the store is copy-on-write:
//
//   - bcastState installs a fresh buffer; the buffer a capture holds is
//     never written again.
//   - bcastUpdate appends, writing only at indexes at or beyond the
//     buffer's length at capture time; a capture reads only below it.
//   - history is append-only, and Reduce replaces the slice rather than
//     mutating the retained prefix, so a captured subslice stays stable.
//     An event's Data is the slice ApplyRun adopted, which neither the
//     state nor its caller writes again.
//
// Anyone changing applyToObjects or Reduce must preserve these invariants.
type Transfer struct {
	// objects maps object IDs to shared live buffers (nil for event-only
	// transfers). The map itself is a private copy; the values are not.
	objects map[string][]byte //corona:cow-view
	// events is a shared subslice of the group's history.
	events  []wire.Event //corona:cow-view
	baseSeq uint64
	nextSeq uint64
	bytes   uint64
}

// BaseSeq is the sequence number the captured objects incorporate.
func (t Transfer) BaseSeq() uint64 { return t.baseSeq }

// NextSeq is the sequence number the first post-capture delivery carries.
func (t Transfer) NextSeq() uint64 { return t.nextSeq }

// PayloadBytes approximates the transfer payload (object and event IDs plus
// data, without codec framing). It sizes progress reporting and the
// inline-vs-streaming decision.
func (t Transfer) PayloadBytes() uint64 { return t.bytes }

// Objects returns the captured objects sorted by ID. The Data slices are
// shared with the live state (see the COW invariants) and must be treated
// as read-only.
func (t Transfer) Objects() []wire.Object {
	if len(t.objects) == 0 {
		return nil
	}
	return sortedView(t.objects)
}

// Events returns the captured event suffix, shared with the live history;
// read-only.
func (t Transfer) Events() []wire.Event { return t.events }

// Capture takes an O(1)-in-bytes transfer view under the given policy
// (paper §3.2, customized state transfer). The caller must hold whatever
// lock serializes Apply; the returned view may then be read without it.
//
// For TransferResume, ErrSeqGap means the requested suffix has been reduced
// away; the caller should fall back to a full transfer.
func (g *Group) Capture(policy wire.TransferPolicy) (Transfer, error) {
	t := Transfer{nextSeq: g.nextSeq}
	switch policy.Mode {
	case wire.TransferFull:
		t.baseSeq = g.nextSeq - 1
		t.objects = make(map[string][]byte, len(g.objects))
		for id, data := range g.objects {
			t.objects[id] = data
			t.bytes += uint64(len(id) + len(data))
		}
	case wire.TransferLastN:
		n := int(policy.LastN)
		if n > len(g.history) {
			n = len(g.history)
		}
		t.events = g.history[len(g.history)-n:]
		t.baseSeq = g.baseSeq
		if len(g.history) > n {
			t.baseSeq = g.history[len(g.history)-n-1].Seq
		}
	case wire.TransferObjects:
		t.baseSeq = g.nextSeq - 1
		t.objects = make(map[string][]byte, len(policy.Objects))
		for _, id := range policy.Objects {
			if data, ok := g.objects[id]; ok {
				t.objects[id] = data
				t.bytes += uint64(len(id) + len(data))
			}
		}
	case wire.TransferNone:
		t.baseSeq = g.nextSeq - 1
	case wire.TransferResume:
		if policy.FromSeq > g.nextSeq {
			// A cursor past the sequencer is a malformed policy (a
			// confused or corrupt client), not a reduced-away suffix;
			// no fallback applies.
			return Transfer{}, fmt.Errorf("state: resume from %d beyond next seq %d", policy.FromSeq, g.nextSeq)
		}
		if policy.FromSeq <= g.baseSeq {
			return Transfer{}, fmt.Errorf("%w: from %d, checkpoint %d", ErrSeqGap, policy.FromSeq, g.baseSeq)
		}
		idx := sort.Search(len(g.history), func(i int) bool { return g.history[i].Seq >= policy.FromSeq })
		t.events = g.history[idx:]
		t.baseSeq = policy.FromSeq - 1
	default:
		return Transfer{}, fmt.Errorf("state: invalid transfer mode %d", policy.Mode)
	}
	for _, ev := range t.events {
		t.bytes += uint64(len(ev.ObjectID) + len(ev.Data))
	}
	return t, nil
}

// Reduce performs state-log reduction: every history event with
// Seq <= upToSeq is discarded and the checkpoint base advances to upToSeq.
// The materialized objects are untouched — they already incorporate the
// discarded events, so "the new state is equivalent with the initial state
// plus the history of state updates" (paper §3.2). upToSeq of 0 reduces up
// to the latest applied event. It returns the number of events discarded.
func (g *Group) Reduce(upToSeq uint64) (trimmed int) {
	if upToSeq == 0 || upToSeq >= g.nextSeq {
		upToSeq = g.nextSeq - 1
	}
	if upToSeq <= g.baseSeq {
		return 0
	}
	idx := sort.Search(len(g.history), func(i int) bool { return g.history[i].Seq > upToSeq })
	trimmed = idx
	g.history = append([]wire.Event(nil), g.history[idx:]...)
	g.baseSeq = upToSeq
	return trimmed
}

// Checkpoint takes the group's image at its current sequence number: the
// materialized objects (which incorporate every applied event), the whole
// retained history, and the running digest. It is the one image of a group —
// what stable storage records at a log reduction, what a replica installs,
// and what a migration streams. Like Capture it is a view, O(#objects) and
// independent of state bytes: Objects[i].Data and History share the live
// buffers under the COW contract documented on Transfer, so the caller must
// hold whatever lock serializes Apply while taking it and may read it, but
// never write through it, afterwards. RestoreMaterialized clones on install,
// so checkpoint → restore yields an isolated group.
func (g *Group) Checkpoint() Checkpointed {
	return Checkpointed{
		BaseSeq: g.baseSeq,
		NextSeq: g.nextSeq,
		Digest:  g.digest,
		Objects: sortedView(g.objects),
		// Capacity clamped: an append to the view must not land in the
		// live backing array.
		History: g.history[:len(g.history):len(g.history)],
	}
}

// Checkpointed is the image of a Group produced by Checkpoint, or decoded
// from a checkpoint record or a replica transfer for RestoreMaterialized.
type Checkpointed struct {
	BaseSeq uint64
	NextSeq uint64
	Digest  uint64
	// Objects is sorted by ID; the Data slices may be shared live buffers.
	Objects []wire.Object //corona:cow-view
	// History holds the events in (BaseSeq, NextSeq), oldest first; it may
	// be the group's own history slice.
	History []wire.Event //corona:cow-view
}

// RestoreMaterialized rebuilds a group from a Checkpoint image, cloning
// every buffer. The history events are NOT re-applied to the objects — the
// objects already incorporate them.
func RestoreMaterialized(cp Checkpointed) (*Group, error) {
	g := &Group{
		objects: make(map[string][]byte, len(cp.Objects)),
		baseSeq: cp.BaseSeq,
		nextSeq: cp.NextSeq,
		digest:  cp.Digest,
		history: cloneEvents(cp.History),
	}
	if cp.NextSeq == 0 {
		g.nextSeq = 1
	}
	for _, o := range cp.Objects {
		g.objects[o.ID] = cloneBytes(o.Data)
	}
	// Sanity: the history must be a contiguous run ending at nextSeq-1.
	for i, ev := range g.history {
		want := cp.NextSeq - uint64(len(g.history)-i)
		if ev.Seq != want {
			return nil, fmt.Errorf("%w: checkpoint history seq %d, want %d", ErrStaleSeq, ev.Seq, want)
		}
	}
	return g, nil
}

func cloneBytes(b []byte) []byte {
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// cloneGrow returns a copy of b in a fresh buffer of capacity 2·len(b) + n,
// rounded up to the allocator's size class.
func cloneGrow(b []byte, n int) []byte {
	// Clipped, so Grow must reallocate and sizes the buffer from len alone.
	return slices.Grow(slices.Clip(b), len(b)+n)
}

// cloneGrowEvents returns a copy of h in a fresh array with room for n > 0
// more events, sized as append sizes a full slice.
func cloneGrowEvents(h []wire.Event, n int) []wire.Event {
	// Clipped, so Grow must reallocate.
	return slices.Grow(slices.Clip(h), n)
}

func cloneEvents(evs []wire.Event) []wire.Event {
	if len(evs) == 0 {
		return nil
	}
	out := slices.Clone(evs)
	for i := range out {
		out[i].Data = cloneBytes(out[i].Data)
	}
	return out
}
