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
	// ErrStaleSeq is returned by Apply when an event's sequence number is
	// not the next expected one.
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
	// Captured transfers alias its tail under the same COW contract.
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
// history. The event must carry the next expected sequence number.
func (g *Group) Apply(ev wire.Event) error {
	if ev.Seq != g.nextSeq {
		return fmt.Errorf("%w: got %d, want %d", ErrStaleSeq, ev.Seq, g.nextSeq)
	}
	if !ev.Kind.Valid() {
		return fmt.Errorf("state: invalid event kind %d", ev.Kind)
	}
	g.applyToObjects(ev)
	g.history = append(g.history, cloneEvent(ev))
	g.nextSeq++
	g.digest = DigestEvent(g.digest, ev)
	return nil
}

// Digest returns the running history digest (see DigestEvent).
func (g *Group) Digest() uint64 { return g.digest }

// applyToObjects folds one event into the materialized objects. It must
// preserve the copy-on-write invariants documented on Transfer: a state
// event installs a fresh buffer (never writes into the old one), and an
// update only appends — bytes below any previously captured length are
// never rewritten, so captured views stay stable without cloning.
//
// An update that does not fit the object's capacity first moves the object
// to a fresh buffer of capacity 2·len + len(update) (cloneGrow). An object
// built by n appends is therefore copied O(log n) times, and its capacity
// never exceeds 2·len + len(last update) plus the allocator's size-class
// rounding.
func (g *Group) applyToObjects(ev wire.Event) {
	switch ev.Kind {
	case wire.EventState:
		g.objects[ev.ObjectID] = cloneBytes(ev.Data)
	case wire.EventUpdate:
		if obj := g.objects[ev.ObjectID]; len(ev.Data) > cap(obj)-len(obj) {
			g.objects[ev.ObjectID] = cloneGrow(obj, len(ev.Data))
		}
		g.objects[ev.ObjectID] = append(g.objects[ev.ObjectID], ev.Data...)
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

func cloneEvent(ev wire.Event) wire.Event {
	ev.Data = cloneBytes(ev.Data)
	return ev
}

func cloneEvents(evs []wire.Event) []wire.Event {
	if len(evs) == 0 {
		return nil
	}
	out := make([]wire.Event, len(evs))
	for i := range evs {
		out[i] = cloneEvent(evs[i])
	}
	return out
}
