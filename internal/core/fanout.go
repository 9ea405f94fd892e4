package core

import (
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/transport"
	"corona/internal/wire"
)

// This file implements the off-lock delivery pipeline: the group critical
// section shrinks to sequence+apply+persist-enqueue, and fanout — the
// O(members) half of a multicast — moves to a pool of fanout workers that
// drain per-group rings off-lock.
//
// Ordering survives the move because of three structural facts:
//
//  1. Entries of one group are pushed while its group mutex (and e.mu in
//     read mode) is held, so shards observe them in sequence order.
//  2. The receiver set is sharded by session ID: a given receiver is always
//     served by the same shard, and each shard consumes its queue FIFO —
//     per-receiver FIFO and per-group total order follow.
//  3. Control frames that must order against deliveries (LeaveAck,
//     membership notifies) are pushed under the engine write lock, which
//     excludes every multicast, so they land in the shard queues strictly
//     after all earlier deliveries and strictly before all later ones.
//
// Wide groups fan one event across multiple shards in parallel: the COW
// receiver snapshot is pre-partitioned into one bucket per shard, and the
// entry is enqueued on every shard whose bucket is non-empty.
//
// Backpressure: each group carries a fanout ring — a credit semaphore
// bounding its sequenced-but-undelivered entries. The hot path takes a
// credit non-blockingly under the engine locks; when the ring is full the
// sender releases the locks, blocks off-lock until the pipeline catches up
// (or the group dies, or the engine stops), and revalidates. Senders
// therefore cannot outrun delivery.

// fanoutRingCap bounds each group's in-flight fanout entries (an entry is
// one run of events). A var, not a const, so tests can shrink
// it to drive the backpressure path deterministically.
var fanoutRingCap = 256

// maxFanoutShards caps the worker pool; shard membership masks are a
// uint64, and delivery parallelism past the core count buys nothing.
const maxFanoutShards = 32

// groupRuntime is one group's concurrency state: the ordering mutex
// serializing sequence+apply+persist-enqueue, the fanout ring bounding its
// undelivered entries, and the COW receiver snapshot.
//
// snap is read under e.mu (any mode) and replaced — never mutated — under
// e.mu in write mode; shard workers only ever see it through an entry
// pointer, and the pointed-to snapshot is immutable.
type groupRuntime struct {
	mu   sync.Mutex
	ring *fanoutRing
	snap *fanoutSnap
	// applyRun's and fanoutRun's scratch, guarded by mu: the run's
	// sequenced (then applied) events and where applyRun found each in the
	// run, the senders it excludes, and one excluded sender's filtered view.
	evs  []wire.Event
	at   []int
	excl []uint64
	own  []wire.Event
	// floorPending dedupes the floor checkpoint a failed commit schedules
	// to re-establish the group's durability floor (degraded.go).
	floorPending bool
}

// fanoutRing is a group's delivery credit semaphore. credits starts full;
// one token is held from hot-path admission until the entry's last shard
// finishes. closed wakes blocked senders when the group is deleted.
type fanoutRing struct {
	credits chan struct{}
	closed  chan struct{}
}

func newFanoutRing() *fanoutRing {
	r := &fanoutRing{
		credits: make(chan struct{}, fanoutRingCap),
		closed:  make(chan struct{}),
	}
	// Prefill the semaphore. The select-default shape keeps the send legal
	// under the engine locks (groups are created with e.mu held); the
	// default branch is unreachable — the loop sends exactly cap tokens.
	for i := 0; i < cap(r.credits); i++ {
		select {
		case r.credits <- struct{}{}:
		default:
		}
	}
	return r
}

// tryAcquire takes one credit without blocking; safe under the engine locks.
func (r *fanoutRing) tryAcquire() bool {
	select {
	case <-r.credits:
		return true
	default:
		return false
	}
}

// release returns one credit. The select-default shape keeps the call legal
// under the engine locks; the default branch is unreachable while tokens
// are conserved (release only ever returns what tryAcquire took).
func (r *fanoutRing) release() {
	select {
	case r.credits <- struct{}{}:
	default:
	}
}

// close wakes every sender blocked on the ring; called when the group is
// deleted (under e.mu in write mode).
func (r *fanoutRing) close() { close(r.closed) }

// fanoutSnap is a group's copy-on-write receiver snapshot: the local
// members intersected with live sessions, pre-partitioned by session ID
// into one bucket per fanout shard. Caching the *Session here is what lets
// delivery skip the e.sessions map lookup per receiver per event. Rebuilt
// (never mutated) on every membership or session change, under e.mu in
// write mode.
type fanoutSnap struct {
	buckets [][]fanoutTarget
	mask    uint64 // bit w set when buckets[w] is non-empty
	size    int    // total receivers across buckets
}

// fanoutTarget is one receiver: its client ID and its cached session.
type fanoutTarget struct {
	id   uint64
	sess *Session
}

// has reports whether the snapshot contains the session: a binary search
// of the one bucket the ID hashes to (rebuildFanoutLocked keeps buckets
// sorted). This runs under the group lock once per excluded sender per
// event, so it must not scale with the bucket's population.
func (sn *fanoutSnap) has(id uint64) bool {
	if sn.size == 0 {
		return false
	}
	b := sn.buckets[int(id%uint64(len(sn.buckets)))]
	i := sort.Search(len(b), func(i int) bool { return b[i].id >= id })
	return i < len(b) && b[i].id == id
}

// specialFrame is a per-receiver replacement frame inside an entry: a
// receiver that sent sender-exclusive events of the run gets its filtered
// frame instead of the shared one (nil frame: it gets nothing).
type specialFrame struct {
	id     uint64
	frame  *transport.SharedFrame
	events uint32
}

// fanoutEntry is one unit of off-lock delivery work: a pre-encoded shared
// frame plus the COW receiver snapshot it goes to (the frame is encoded
// under the group mutex, where the entry is pushed in sequence order; the
// event payloads are decoded copies, not the sender's read buffer). refs
// counts the shards still holding the entry; the last one to finish
// finalizes it: latency recorded, frames released, ring credit returned,
// entry pooled.
type fanoutEntry struct {
	snap *fanoutSnap
	ring *fanoutRing // credit returned at finalize; nil for control entries

	frame   *transport.SharedFrame // nil when every receiver has a special
	events  uint32                 // events per shared frame, for the delivered counter
	special []specialFrame

	// targets, when non-nil, routes a control frame (LeaveAck, membership
	// notify) to an explicit receiver list instead of the snapshot.
	// Control entries bypass ring credits: they are rare, bounded by the
	// rate of membership operations, and must never be dropped.
	targets []fanoutTarget

	high     bool
	pushedNs int64
	refs     atomic.Int32
}

// frameFor picks the frame the receiver gets from a deliver entry, nil for
// none.
func (ent *fanoutEntry) frameFor(id uint64) (*transport.SharedFrame, uint32) {
	for i := range ent.special {
		if ent.special[i].id == id {
			return ent.special[i].frame, ent.special[i].events
		}
	}
	return ent.frame, ent.events
}

var fanoutEntryPool = sync.Pool{New: func() any { return new(fanoutEntry) }}

func newFanoutEntry() *fanoutEntry { return fanoutEntryPool.Get().(*fanoutEntry) }

// fanoutPool is the engine's delivery worker pool: one shard per worker,
// receivers assigned by session ID modulo the pool width.
type fanoutPool struct {
	e      *Engine
	shards []*fanoutShard
	wg     sync.WaitGroup
}

func newFanoutPool(e *Engine, width int) *fanoutPool {
	p := &fanoutPool{e: e}
	for i := 0; i < width; i++ {
		sh := &fanoutShard{pool: p, idx: i, wake: make(chan struct{}, 1)}
		p.shards = append(p.shards, sh)
	}
	p.wg.Add(width)
	for _, sh := range p.shards {
		go sh.run()
	}
	return p
}

func (p *fanoutPool) width() int { return len(p.shards) }

// push hands an entry to every shard that has work for it. Called under
// the engine locks — every step is non-blocking. It returns false (and
// queues nothing) when the entry has no recipients or the pool is closing;
// the caller then still owns the entry's frames and credit.
func (p *fanoutPool) push(ent *fanoutEntry) bool {
	var mask uint64
	if ent.targets != nil {
		w := uint64(len(p.shards))
		for _, t := range ent.targets {
			mask |= 1 << (t.id % w)
		}
	} else {
		mask = ent.snap.mask
	}
	if mask == 0 {
		return false
	}
	want := int32(bits.OnesCount64(mask))
	ent.pushedNs = time.Now().UnixNano()
	ent.refs.Store(want)
	p.e.gRingDepth.Add(1)
	var pushed int32
	for w := 0; mask != 0; w++ {
		if mask&1 != 0 && p.shards[w].enqueue(ent) {
			pushed++
		}
		mask >>= 1
	}
	if pushed == want {
		return true
	}
	if pushed == 0 {
		// Nothing queued (pool closing): undo and hand back to the caller.
		p.e.gRingDepth.Add(-1)
		return false
	}
	// Some shards were already closed; drop their references. If the
	// queued shards finished in the meantime this decrement finalizes.
	if ent.refs.Add(pushed-want) == 0 {
		p.finalize(ent)
	}
	return true
}

// complete drops one shard's reference; the last one finalizes the entry.
func (p *fanoutPool) complete(ent *fanoutEntry) {
	if ent.refs.Add(-1) == 0 {
		p.finalize(ent)
	}
}

// finalize records the off-lock delivery latency, releases the entry's
// frames and ring credit, and returns it to the pool. Non-blocking: it can
// run under the engine locks when push raced a closing shard.
func (p *fanoutPool) finalize(ent *fanoutEntry) {
	p.e.hOfflock.Record(time.Now().UnixNano() - ent.pushedNs)
	p.e.gRingDepth.Add(-1)
	if ent.ring != nil {
		ent.ring.release()
	}
	recycleFanoutEntry(ent)
}

// recycleFanoutEntry releases the entry's frames, clears it, and pools it.
func recycleFanoutEntry(ent *fanoutEntry) {
	if ent.frame != nil {
		ent.frame.Release()
	}
	for i := range ent.special {
		if ent.special[i].frame != nil {
			ent.special[i].frame.Release()
		}
		ent.special[i] = specialFrame{}
	}
	for i := range ent.targets {
		ent.targets[i] = fanoutTarget{}
	}
	ent.snap, ent.ring, ent.frame = nil, nil, nil
	ent.events = 0
	ent.special = ent.special[:0]
	ent.targets = nil
	ent.high = false
	ent.refs.Store(0)
	fanoutEntryPool.Put(ent)
}

// close stops the pool: shards finish draining their queues (pumps are
// closing too, so residual deliveries degrade to no-ops) and the workers
// exit. Producers racing close observe the closed flag and keep ownership
// of their entries.
func (p *fanoutPool) close() {
	for _, sh := range p.shards {
		sh.mu.Lock()
		sh.closed = true
		sh.mu.Unlock()
		select {
		case sh.wake <- struct{}{}:
		default:
		}
	}
	p.wg.Wait()
}

// fanoutShard is one delivery worker: a mutex-guarded intake deque (two
// alternating backing arrays, so steady state allocates nothing) drained
// by a dedicated goroutine. Producers enqueue under the engine locks, so
// the intake is strictly non-blocking: append plus a select-default wake.
type fanoutShard struct {
	pool *fanoutPool
	idx  int

	mu     sync.Mutex
	q      []*fanoutEntry
	spare  []*fanoutEntry
	closed bool
	wake   chan struct{} // cap 1; signaled with a non-blocking send

	// Worker-owned delivery scratch, reused across drains.
	frames []*transport.SharedFrame
	counts []uint32
}

// enqueue appends an entry; false when the shard is closed. Safe under the
// engine locks.
func (sh *fanoutShard) enqueue(ent *fanoutEntry) bool {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return false
	}
	sh.q = append(sh.q, ent)
	sh.mu.Unlock()
	select {
	case sh.wake <- struct{}{}:
	default:
	}
	return true
}

// next returns the queued batch, blocking until there is one; nil when the
// shard is closed and drained.
func (sh *fanoutShard) next() []*fanoutEntry {
	for {
		sh.mu.Lock()
		if len(sh.q) > 0 {
			batch := sh.q
			sh.q = sh.spare[:0]
			sh.spare = batch
			sh.mu.Unlock()
			return batch
		}
		closed := sh.closed
		sh.mu.Unlock()
		if closed {
			return nil
		}
		<-sh.wake
	}
}

func (sh *fanoutShard) run() {
	defer sh.pool.wg.Done()
	e := sh.pool.e
	for {
		batch := sh.next()
		if batch == nil {
			return
		}
		start := time.Now()
		e.hShardBatch.Record(int64(len(batch)))
		for i := 0; i < len(batch); {
			ent := batch[i]
			if ent.targets != nil {
				sh.deliverControl(ent)
				i++
				continue
			}
			// Coalesce a run of deliver entries that share the receiver
			// snapshot and lane: the run is delivered with one pump
			// admission per receiver instead of one per entry.
			j := i + 1
			for j < len(batch) && batch[j].targets == nil &&
				batch[j].snap == ent.snap && batch[j].high == ent.high {
				j++
			}
			sh.deliverRun(batch[i:j])
			i = j
		}
		for i := range batch {
			batch[i] = nil
		}
		e.mShardBusy.Add(uint64(time.Since(start).Nanoseconds()))
	}
}

// deliverRun delivers a run of same-snapshot entries to this shard's
// bucket: per receiver, the run's frames are collected (honouring
// sender-exclusive filters) and admitted to the pump in one call. A pump
// that cannot take the whole run keeps the admitted prefix — order intact —
// and the receiver is failed as over quota; a closed pump is a quiet no-op
// (the session is already going down).
func (sh *fanoutShard) deliverRun(run []*fanoutEntry) {
	e := sh.pool.e
	bucket := run[0].snap.buckets[sh.idx]
	high := run[0].high
	for _, t := range bucket {
		frames, counts := sh.frames[:0], sh.counts[:0]
		for _, ent := range run {
			if f, n := ent.frameFor(t.id); f != nil {
				f.Retain()
				frames = append(frames, f)
				counts = append(counts, n)
			}
		}
		sh.frames, sh.counts = frames, counts
		if len(frames) == 0 {
			continue
		}
		admitted := t.sess.sendSharedRun(frames, high)
		var delivered uint64
		for k := 0; k < admitted; k++ {
			delivered += uint64(counts[k])
			e.hDeliveryBatch.Record(int64(counts[k]))
		}
		e.mDelivered.Add(delivered)
	}
	for _, ent := range run {
		sh.pool.complete(ent)
	}
}

// deliverControl delivers a control entry to its explicit targets that
// belong to this shard.
func (sh *fanoutShard) deliverControl(ent *fanoutEntry) {
	w := uint64(len(sh.pool.shards))
	for _, t := range ent.targets {
		if t.id%w != uint64(sh.idx) {
			continue
		}
		ent.frame.Retain()
		t.sess.sendShared(ent.frame, ent.high)
	}
	sh.pool.complete(ent)
}
