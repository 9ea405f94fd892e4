package core

// Degraded mode: the engine's reaction to storage failure.
//
// A failed WAL commit means the records of that batch may not survive a
// restart. Two responses, by severity:
//
//   - Transient failure (the log sealed the dirty segment and rolled to a
//     fresh one): the failed events were nacked, but their sequence
//     numbers are burned — later events of the group can no longer apply
//     over the gap at recovery. noteWALCommitError therefore enqueues a
//     fresh checkpoint of the group (the "floor checkpoint"). It runs on
//     the WAL committer goroutine, before the committer takes its next
//     batch, so any event record that commits after the failure is in the
//     same batch as the checkpoint or a later one — either the checkpoint
//     covering it is durable, or the event was nacked. Acked events stay
//     recoverable.
//
//   - Terminal failure (wal.ErrLogFailed): the engine enters degraded
//     mode. It keeps serving from memory — the paper accepts bounded loss
//     under relaxed policies, but must *say so* — every SyncAlways ack
//     becomes a CodeNotDurable nack, the engine.degraded gauge flips, and
//     /healthz fails its probe. A backoff-governed reopen loop replaces
//     the log; recovery writes fresh checkpoints of every persistent
//     group and waits for them to be durable (the durability floor)
//     before degraded clears and honest acks resume.
//
// Locking: enterDegraded is a CAS plus a goroutine spawn and is safe under
// e.mu and the group mutexes. The reopen loop does its blocking work —
// closing the failed log, wal.Open, Barrier — with no engine lock held;
// only the swap of e.wal and the checkpoint enqueues happen under e.mu
// (write mode), and AppendAsync is a non-blocking enqueue (lockhold-clean;
// see the degraded fixture in internal/analysis/lockhold).

import (
	"errors"
	"fmt"
	"math/rand"
	"time"

	"corona/internal/wal"
)

// DefaultReopenBackoff is the initial delay between degraded-mode reopen
// attempts; it doubles (with jitter) up to 32×.
const DefaultReopenBackoff = 100 * time.Millisecond

// Degraded reports whether the engine is serving memory-only after a
// terminal WAL failure.
func (e *Engine) Degraded() bool { return e.degraded.Load() }

// noteWALCommitError handles a failed commit of one of a group's records.
// Runs on the WAL committer goroutine (commit callbacks), off the engine
// locks.
func (e *Engine) noteWALCommitError(group, record string, err error) {
	e.mWALErrors.Inc()
	e.metrics.Event("wal", fmt.Sprintf("%s commit failed: group=%s: %v", record, group, err))
	e.reporter.report("wal commit failed: "+record, group, 0, err)
	if errors.Is(err, wal.ErrLogFailed) || errors.Is(err, wal.ErrClosed) {
		// Terminal (or racing shutdown): no floor to rebuild on this log.
		if errors.Is(err, wal.ErrLogFailed) {
			e.enterDegraded(err)
		}
		return
	}
	e.scheduleFloorCheckpoint(group)
}

// scheduleFloorCheckpoint enqueues a fresh checkpoint of the group to
// re-establish its durability floor after a lost record. Deduplicated per
// group while one is in flight.
func (e *Engine) scheduleFloorCheckpoint(group string) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if e.closed || e.wal == nil {
		return
	}
	g, ok := e.reg.Get(group)
	if !ok || !g.Persistent {
		return // deleted since; nothing to re-floor
	}
	grt := e.groups[group]
	if grt == nil || grt.st == nil {
		return
	}
	grt.mu.Lock()
	defer grt.mu.Unlock()
	if !grt.floorPending.CompareAndSwap(false, true) {
		return
	}
	e.mFloorCheckpoints.Inc()
	// The callback acts on the record it was issued for: a group deleted
	// and re-created meanwhile has a record of its own.
	err := e.wal.AppendAsync(encodeCheckpointRecord(group, grt.st.Checkpoint()), func(lsn uint64, err error) {
		grt.floorPending.Store(false)
		if err != nil {
			// A repeated failure without an intervening success is
			// terminal at the log layer, so this recursion is bounded.
			e.noteWALCommitError(group, "floor checkpoint", err)
			return
		}
		grt.lowLSN.Store(lsn)
		e.gcWAL()
	})
	if err != nil {
		grt.floorPending.Store(false)
		e.walAppendFailed(group, "floor checkpoint", err)
	}
}

// enterDegraded flips the engine into degraded mode and starts the reopen
// loop. Idempotent; safe under the engine locks (CAS + goroutine spawn).
func (e *Engine) enterDegraded(cause error) {
	// Config is immutable: a log exists iff one was opened at construction.
	// (e.wal itself cannot be read here — callers may hold e.mu either way.)
	if e.cfg.Dir == "" || e.cfg.Stateless {
		return
	}
	if !e.degraded.CompareAndSwap(false, true) {
		return
	}
	e.gDegraded.Set(1)
	e.mDegradedEntries.Inc()
	e.metrics.Event("core", "wal failed; engine degraded (memory-only): "+cause.Error())
	e.reporter.report("wal failed; engine degraded, serving memory-only", "", 0, cause)
	e.bg.Add(1)
	go e.reopenLoop()
}

// reopenLoop retries tryReopen under jittered exponential backoff until
// the log is healthy again or the engine shuts down.
func (e *Engine) reopenLoop() {
	defer e.bg.Done()
	backoff := e.cfg.ReopenBackoff
	if backoff <= 0 {
		backoff = DefaultReopenBackoff
	}
	max := 32 * backoff
	rng := rand.New(rand.NewSource(time.Now().UnixNano()))
	for {
		// Equal jitter: [backoff/2, backoff). Reopen attempts hit the
		// same sick disk; spreading them avoids a metronome.
		d := backoff/2 + time.Duration(rng.Int63n(int64(backoff/2)+1))
		select {
		case <-e.stopped:
			return
		case <-time.After(d):
		}
		if e.tryReopen() {
			return
		}
		if backoff < max {
			backoff *= 2
		}
	}
}

// tryReopen replaces the failed log with a fresh one and re-establishes
// the durability floor. Returns true when the engine left degraded mode
// (or is shutting down).
func (e *Engine) tryReopen() bool {
	e.mu.RLock()
	old := e.wal
	closed := e.closed
	e.mu.RUnlock()
	if closed {
		return true
	}
	if old != nil {
		// Drain and close the failed log off-lock so the directory is
		// quiescent before reopening it. Its callbacks deliver their
		// errors (nacks) during the drain.
		_ = old.Close()
	}
	newLog, err := wal.Open(wal.Options{
		Dir: e.cfg.Dir, Sync: e.cfg.Sync,
		SyncEvery: e.cfg.SyncEvery, SegmentSize: e.cfg.SegmentSize,
		FS: e.cfg.WALFS,
	})
	if err != nil {
		e.reporter.report("wal reopen failed", "", 0, err)
		return false
	}

	// Swap the log and enqueue a fresh checkpoint of every persistent
	// group inside one write-lock critical section: the write lock
	// excludes every multicast, so any event sequenced after the swap
	// lands behind its group's checkpoint in the commit queue — an event
	// can only become durable together with or after a floor that covers
	// its group. The enqueues are non-blocking; the Barrier below waits
	// with no lock held.
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		newLog.Close()
		return true
	}
	e.wal = newLog
	for name, grt := range e.groups {
		// Any in-flight floor died with the old log.
		grt.floorPending.Store(false)
		grt.lowLSN.Store(noFloor)
		g, ok := e.reg.Get(name)
		if grt.st == nil || !ok || !g.Persistent {
			continue
		}
		// Pin garbage collection until every group's floor is durable: a
		// zero low-water mark keeps gcWAL from truncating segments the
		// pending checkpoints have not yet superseded.
		grt.lowLSN.Store(0)
		e.persistCheckpoint(grt, name)
	}
	e.mu.Unlock()

	if err := newLog.Barrier(); err != nil {
		// The floor never became durable; stay degraded. The next
		// attempt closes newLog (now e.wal) and starts over.
		e.reporter.report("wal reopen: floor checkpoints failed", "", 0, err)
		return false
	}
	e.degraded.Store(false)
	e.gDegraded.Set(0)
	e.mDegradedRecovers.Inc()
	e.metrics.Event("core", "wal reopened; degraded cleared")
	e.log.Info("wal reopened, durability floor restored; degraded cleared")
	return true
}
