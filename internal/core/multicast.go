package core

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"corona/internal/membership"
	"corona/internal/transport"
	"corona/internal/wal"
	"corona/internal/wire"
)

// This file is the multicast path: every event that enters a group — a
// client's Bcast sequenced here, a coordinator-sequenced event distributed
// to this replica, a caught-up suffix — travels it as a run of n ≥ 1
// same-group events. A run costs one engine-RLock hold, one fanout-ring
// credit, one group-mutex hold, one fanout entry and n WAL records. A run
// of one is a batch of one: there is no second path beside this one.

// maxIngestBatch caps the events of one run: a session's read loop
// coalesces at most this many Bcasts into one engine call, and a replica
// applies coordinator-numbered events in chunks of it. The cap bounds the
// group-mutex hold and the size of a DeliverBatch frame.
const maxIngestBatch = 64

// ErrSeqGap reports that a distributed event skipped ahead of the replica's
// expected sequence number; the replicated frontend reacts by fetching the
// missing suffix from a peer (the paper's crash-recovery retrieval of lost
// updates).
var ErrSeqGap = errors.New("core: distributed event leaves a sequence gap")

// runEvent is one event of a run, tracked through sequencing, apply, fanout
// and persistence.
type runEvent struct {
	ev    wire.Event
	incl  bool
	reqID uint64
	// applied is set once the event is folded into the group state; only
	// applied events are delivered and persisted. A replica's duplicate and
	// an event state.ApplyRun rejected stay unapplied — and are still
	// acknowledged, so a sender never waits on either.
	applied bool
	// deferred reports that the ack was handed to the WAL group-commit
	// writer instead of being sent with the run's other acks.
	deferred bool
}

// run is n ≥ 1 events bound for one group.
type run struct {
	group  string
	events []runEvent
	// sess is the ingesting session of a run this server sequences itself.
	// It is nil for a run the coordinator already sequenced: those events
	// arrive numbered and are observed, not numbered again, and their
	// senders were admitted by the server they are connected to.
	sess *Session
	// acks is ackRunLocked's frame scratch.
	acks []*transport.SharedFrame
}

// dispatchBcasts feeds a drained stretch of Bcasts from one session into
// the engine as consecutive same-group runs. The global arrival order is
// never reordered, so FIFO per sender is exactly what message-by-message
// handling produces.
func (e *Engine) dispatchBcasts(s *Session, msgs []*wire.Bcast) {
	// The intercept hook sees every request, coalesced or not, before the
	// engine — same contract as HandleMessage (no engine lock, may block).
	if e.cfg.Hooks.Intercept != nil {
		kept := msgs[:0]
		for _, m := range msgs {
			if !e.cfg.Hooks.Intercept(s, m) {
				kept = append(kept, m)
			}
		}
		msgs = kept
	}
	for start := 0; start < len(msgs); {
		end := start + 1
		for end < len(msgs) && msgs[end].Group == msgs[start].Group {
			end++
		}
		e.bcastRun(s, msgs[start:end])
		start = end
	}
}

// bcastRun is the client-facing entrance to the multicast path: one
// session's same-group Bcasts become one run. Malformed requests are turned
// away here, before the retry loop, so each is answered exactly once; a
// run the group refuses as a whole is answered request by request. The
// group's history adopts each applied Bcast's Data (state.ApplyRun), as
// Bcast.Decode's own copy: nothing may write it afterwards. Runs on the
// session's read goroutine, which owns s.run.
func (e *Engine) bcastRun(s *Session, msgs []*wire.Bcast) {
	r := s.run
	r.group, r.sess = msgs[0].Group, s
	r.events = r.events[:0]
	for _, m := range msgs {
		if !m.EvKind.Valid() {
			s.sendErr(m.RequestID, wire.CodeBadRequest, "invalid event kind")
			continue
		}
		r.events = append(r.events, runEvent{
			ev:    wire.Event{Kind: m.EvKind, ObjectID: m.ObjectID, Data: m.Data, Sender: s.ID},
			incl:  m.SenderInclusive,
			reqID: m.RequestID,
		})
	}
	if len(r.events) == 0 {
		return
	}
	if _, err := e.multicast(r); err != nil {
		code, text := wire.CodeInternal, "server shutting down"
		switch {
		case errors.Is(err, membership.ErrNoSuchGroup):
			code, text = wire.CodeNoSuchGroup, "no such group"
		case errors.Is(err, membership.ErrNotMember):
			code, text = wire.CodeNotMember, "only members may multicast"
		case errors.Is(err, membership.ErrDenied):
			code, text = wire.CodeDenied, "observers may not modify shared state"
		}
		for i := range r.events {
			s.sendErr(r.events[i].reqID, code, text)
		}
	}
}

// DistEvent is one coordinator-sequenced event of a distributed run. An
// event of a caught-up suffix is SenderInclusive with a zero ReqID.
type DistEvent struct {
	Event           wire.Event
	SenderInclusive bool
	// ReqID is the local sender's pending request, zero when the sender
	// is remote (or used BcastUpdateNoWait).
	ReqID uint64
}

// distRuns recycles the scratch of distributed runs — the run's events and
// its ack frames — so a replica's run allocates neither.
var distRuns = sync.Pool{New: func() any { return &run{events: make([]runEvent, 0, maxIngestBatch)} }}

// ApplyDistributed is the replica's one entrance for coordinator-numbered
// events: the live stream and a caught-up suffix alike, as one run per
// maxIngestBatch events. The events are applied and fanned out to local
// members, and a local sender's pending BcastAck (non-zero ReqID) completes
// here. Events at or below the replica's high-water mark are duplicates:
// acknowledged and skipped. The first sequence gap stops the run with
// ErrSeqGap; consumed counts the events before it, leaving the rest to the
// caller's catch-up. The group's history adopts each applied event's Data
// (state.ApplyRun): the caller must not write it afterwards.
func (e *Engine) ApplyDistributed(group string, items []DistEvent) (consumed int, err error) {
	r := distRuns.Get().(*run)
	r.group = group
	for consumed < len(items) && err == nil {
		r.events = r.events[:0]
		for _, it := range items[consumed:min(len(items), consumed+maxIngestBatch)] {
			r.events = append(r.events, runEvent{ev: it.Event, incl: it.SenderInclusive, reqID: it.ReqID})
		}
		var n int
		n, err = e.multicast(r)
		consumed += n
	}
	// Drop the payload references before the scratch goes back.
	clear(r.events[:min(len(items), maxIngestBatch)])
	distRuns.Put(r)
	return consumed, err
}

// multicast drives one run through its group and reports how many of its
// events were consumed. Each attempt validates and proceeds under the
// engine read lock; when the group's fanout ring has no free slot the lock
// is dropped, the sender waits off-lock for the delivery pipeline to catch
// up (so deliveries and unrelated groups proceed), and the attempt repeats
// from validation — the group may have changed or died in the meantime.
func (e *Engine) multicast(r *run) (int, error) {
	var credit *fanoutRing
	for {
		e.mu.RLock()
		full, consumed, err := e.multicastLocked(r, credit)
		e.mu.RUnlock()
		if full == nil {
			return consumed, err
		}
		credit = nil
		switch e.waitFanoutSpace(full) {
		case waitGot:
			credit = full
		case waitRetry:
			// Ring closed (group deleted or migrated mid-wait); revalidate.
		case waitStopped:
			return 0, ErrEngineClosed
		}
	}
}

// multicastLocked is one attempt of multicast under e.mu (read mode), and
// the only place a multicast takes a group's mutex. credit, when non-nil,
// is a ring slot the caller already holds; it is used if it belongs to the
// group's current ring and returned otherwise. A non-nil first result is
// the full ring to wait on: nothing was consumed and nothing answered, so
// the attempt can repeat. Every other outcome is final.
func (e *Engine) multicastLocked(r *run, credit *fanoutRing) (full *fanoutRing, consumed int, err error) {
	g, err := e.admitLocked(r)
	if err != nil {
		e.releaseCredit(credit)
		return nil, 0, err
	}
	if r.sess != nil && e.cfg.Hooks.Forward != nil {
		// Replicated service: the coordinator sequences, and each ack is
		// sent when the event returns via ApplyDistributed.
		e.releaseCredit(credit)
		for i := range r.events {
			re := &r.events[i]
			if ferr := e.cfg.Hooks.Forward(r.group, re.ev, re.incl, re.reqID); ferr != nil {
				r.sess.sendErr(re.reqID, wire.CodeInternal, ferr.Error())
			}
		}
		return nil, len(r.events), nil
	}

	// Reserve the delivery slot before entering the critical section so a
	// full ring never blocks while the group mutex is held.
	grt := e.groups[r.group]
	if credit != grt.ring {
		e.releaseCredit(credit)
		if !grt.ring.tryAcquire() {
			return grt.ring, 0, nil
		}
	}

	// Sequence, apply, and enqueue the fanout under the group's own mutex:
	// runs into disjoint groups proceed in parallel, while this group's
	// total order stays serialized. Delivery itself runs off-lock.
	waitStart := time.Now()
	grt.mu.Lock()
	holdStart := time.Now()
	e.hLockWait.Record(holdStart.Sub(waitStart).Nanoseconds())
	consumed, sequenced := e.applyRun(r, g, grt)
	var want uint64
	if consumed < len(r.events) {
		// Read the high-water mark while the group mutex is held; after the
		// Unlock a concurrent apply would race it.
		want = grt.nextSeq()
	}
	grt.mu.Unlock()
	e.recordLockHold(time.Since(holdStart).Nanoseconds(), sequenced)
	if sequenced > 0 {
		e.mBcasts.Add(uint64(sequenced))
		e.hIngestBatch.Record(int64(sequenced))
	}

	e.ackRunLocked(r, consumed)
	if consumed < len(r.events) {
		err = fmt.Errorf("%w: got %d, want %d", ErrSeqGap, r.events[consumed].ev.Seq, want)
	}
	return nil, consumed, err
}

// admitLocked validates a run against the registry, where the engine write
// lock already serializes changes: the group must exist, and the sender of
// a locally ingested run must be a member allowed to modify shared state.
// Caller holds e.mu (read mode suffices).
func (e *Engine) admitLocked(r *run) (*membership.Group, error) {
	g, ok := e.reg.Get(r.group)
	if !ok {
		return nil, fmt.Errorf("%w: %q", membership.ErrNoSuchGroup, r.group)
	}
	if r.sess != nil {
		mi, member := g.Member(r.sess.ID)
		if !member {
			return nil, membership.ErrNotMember
		}
		if mi.Role == wire.RoleObserver {
			return nil, membership.ErrDenied
		}
	}
	return g, nil
}

// applyRun is the group critical section: it numbers the run's events from
// the group's next sequence number, stamped with one server time (or, for a
// coordinator-sequenced run, finds the window of them that continues the
// replica's high-water mark), folds them into the group state with one
// state.ApplyRun, hands the applied ones to the delivery pipeline as one
// fanout entry, and queues their records for group commit in sequence order.
// It reports how many events were consumed — all of them unless a sequence
// gap stopped a distributed run — and how many of those were new to the
// group.
//
// The fanout runs in parallel with disk logging (paper §6): receivers may
// see an event whose record a crash then loses — the paper accepts losing
// the latest unflushed updates. Under SyncAlways a locally sequenced event's
// ack is handed to the WAL group-commit writer instead, which acknowledges
// once the record is durable or nacks honestly when it is not.
//
// An event state.ApplyRun rejects is a sequencing bug; the engine keeps
// serving. It is counted, traced and logged off-lock (blocking log I/O is
// forbidden here — lockhold), acknowledged, and neither delivered nor
// persisted. The events after it are applied as a run of their own, unless
// the failure left the state short of them: a distributed run then ends
// there, as at a gap.
//
// Caller holds e.mu (read mode suffices) and the group's mutex, and has
// acquired one credit of grt.ring; applyRun owns it from here — the pushed
// entry carries it to the fanout worker's finalize, and every non-push
// outcome releases it.
func (e *Engine) applyRun(r *run, g *membership.Group, grt *groupRuntime) (consumed, sequenced int) {
	start := time.Now()
	st := grt.st
	// The window: the sequenced events, and where each sits in r.events.
	// A distributed window continues the replica's state: duplicates are
	// consumed and skipped, and a gap ends it. A stateless replica takes
	// every distributed event and only follows its number.
	evs, at := grt.evs[:0], grt.at[:0]
	next := grt.nextSeq()
	var now int64
	if r.sess != nil {
		now = time.Now().UnixNano()
	}
	for i := range r.events {
		re := &r.events[i]
		if r.sess != nil {
			re.ev.Seq, re.ev.Time = next, now
			next++
		} else if st == nil {
			next = max(next, re.ev.Seq+1)
		} else {
			if re.ev.Seq > next {
				break
			}
			if re.ev.Seq < next {
				consumed++
				continue
			}
			next++
		}
		consumed++
		evs = append(evs, re.ev)
		at = append(at, i)
	}
	if st == nil {
		grt.next = next
	}
	failed := false
	for k := 0; k < len(evs); {
		n := len(evs) - k
		var err error
		if st != nil {
			n, err = st.ApplyRun(evs[k:])
		}
		for _, i := range at[k : k+n] {
			r.events[i].applied = true
		}
		if k += n; err == nil {
			break
		}
		failed = true
		e.mApplyErrors.Inc()
		e.metrics.Event("core", fmt.Sprintf("apply failed: group=%s seq=%d: %v", r.group, evs[k].Seq, err))
		e.reporter.report("apply failed", r.group, evs[k].Seq, err)
		if k++; r.sess == nil && k < len(evs) && evs[k].Seq != st.NextSeq() {
			// The rest of the window no longer continues the state: it
			// ends at the gap the failure left, as at any gap.
			clear(evs[k:])
			consumed, evs, at = at[k], evs[:k], at[:k]
		}
	}
	sequenced = len(evs)
	if failed {
		// Only the applied events are delivered.
		kept := evs[:0]
		for j := range evs {
			if r.events[at[j]].applied {
				kept = append(kept, evs[j])
			}
		}
		clear(evs[len(kept):])
		evs = kept
	}
	if sequenced == 0 {
		grt.ring.release()
		return consumed, 0
	}
	e.fanoutRun(r, grt, evs)
	// The frames copied the events; drop the scratch's payload references.
	clear(evs)
	grt.evs, grt.at = evs[:0], at[:0]

	if st != nil {
		deferAcks := r.sess != nil && e.wal != nil && g.Persistent && e.cfg.Sync == wal.SyncAlways
		for i := range r.events[:consumed] {
			re := &r.events[i]
			if !re.applied {
				continue
			}
			var onCommit func(error)
			if deferAcks {
				onCommit = e.commitAck(r.sess, re.reqID, re.ev.Seq)
			}
			re.deferred = e.persistEvent(r.group, g.Persistent, re.ev, onCommit)
		}
		// The checkpoint record a reduction appends enters the commit
		// queue after the event records above, preserving log order.
		if t := e.cfg.AutoReduceThreshold; t > 0 && st.HistoryLen() > t {
			e.reduceLocked(r.group, g, st, 0)
		}
	}
	e.hFanout.Record(time.Since(start).Nanoseconds())
	return consumed, sequenced
}

// commitAck builds the WAL commit callback that completes a SyncAlways
// multicast: a BcastAck once the record is durable, an honest
// CodeNotDurable nack when the commit failed.
func (e *Engine) commitAck(s *Session, reqID, seq uint64) func(error) {
	return func(err error) {
		if err != nil {
			e.mBcastNacks.Inc()
			s.sendErr(reqID, wire.CodeNotDurable, "multicast delivered but not durable: "+err.Error())
			return
		}
		s.Send(&wire.BcastAck{RequestID: reqID, Seq: seq})
	}
}

// fanoutRun hands a run's applied events, evs, to the delivery pipeline as
// one entry: members owed the whole run share a single pooled frame encoded
// once, while a local member that sent sender-exclusive events of the run
// (almost always exactly the ingesting session) gets its own filtered frame
// — or nothing, when the filter empties. When no local member is owed
// anything (a lone sender-exclusive sender, a group with no local members)
// nothing is encoded or pushed.
//
// All frames are encoded here, under the group mutex, from the group's
// scratch, which the mutex guards, and the entry is pushed under it, which
// keeps the ring in sequence order. The payloads do not tie the encode to
// the lock: they are the decoder's own copies (Bcast.Decode and
// SDistribute.Decode copy Data), not the sender's read buffer. Caller holds
// e.mu (read) and the group's mutex and owns one ring credit, which leaves
// with the pushed entry or is released.
func (e *Engine) fanoutRun(r *run, grt *groupRuntime, evs []wire.Event) {
	excl := grt.excl[:0]
	for i := range r.events {
		if re := &r.events[i]; re.applied && !re.incl && !containsID(excl, re.ev.Sender) {
			excl = append(excl, re.ev.Sender)
		}
	}
	snap := grt.snap
	ent := newFanoutEntry()
	owed := false
	if len(evs) > 0 {
		sharing := snap.size
		for _, id := range excl {
			if !snap.has(id) {
				continue
			}
			sharing--
			sp := specialFrame{id: id}
			own := grt.own[:0]
			for i := range r.events {
				if re := &r.events[i]; re.applied && (re.incl || re.ev.Sender != id) {
					own = append(own, re.ev)
				}
			}
			if len(own) > 0 {
				sp.frame, sp.events = transport.NewSharedFrame(deliverMsg(r.group, own)), uint32(len(own))
				owed = true
			}
			clear(own)
			grt.own = own[:0]
			ent.special = append(ent.special, sp)
		}
		if sharing > 0 {
			ent.frame, ent.events = transport.NewSharedFrame(deliverMsg(r.group, evs)), uint32(len(evs))
			owed = true
		}
	}
	grt.excl = excl[:0]

	if owed {
		ent.snap, ent.ring = snap, grt.ring
		ent.high = e.cfg.PriorityOf != nil && e.cfg.PriorityOf(r.group) == PriorityHigh
		if e.fanout.push(ent) {
			return
		}
		// Pool shutting down: nothing to deliver to anyway.
	}
	recycleFanoutEntry(ent)
	grt.ring.release()
}

// ackRunLocked sends the BcastAcks the run's consumed events still owe —
// everything the WAL writer did not take over — as one pump enqueue per
// stretch of acks to the same session. A locally sequenced run answers its
// own session; a distributed run answers whichever local sessions have a
// request pending (non-zero reqID). Caller holds e.mu (read mode suffices);
// the enqueue never blocks.
func (e *Engine) ackRunLocked(r *run, consumed int) {
	acks := r.acks[:0]
	var to *Session
	for i := range r.events[:consumed] {
		re := &r.events[i]
		if re.deferred {
			continue
		}
		s := r.sess
		if s == nil {
			if re.reqID == 0 {
				continue
			}
			if s = e.sessions[re.ev.Sender]; s == nil {
				continue
			}
		}
		if s != to && len(acks) > 0 {
			to.sendSharedRun(acks, false)
			acks = acks[:0]
		}
		to = s
		acks = append(acks, transport.NewSharedFrame(&wire.BcastAck{RequestID: re.reqID, Seq: re.ev.Seq}))
	}
	if len(acks) > 0 {
		to.sendSharedRun(acks, false)
	}
	r.acks = acks[:0]
}

// deliverMsg picks the wire shape for a delivery run: a run of one stays a
// plain Deliver (a wire-size choice — same path, smaller frame).
func deliverMsg(group string, evs []wire.Event) wire.Message {
	if len(evs) == 1 {
		return &wire.Deliver{Group: group, Event: evs[0]}
	}
	return &wire.DeliverBatch{Group: group, Events: evs}
}

func containsID(ids []uint64, id uint64) bool {
	for _, v := range ids {
		if v == id {
			return true
		}
	}
	return false
}
