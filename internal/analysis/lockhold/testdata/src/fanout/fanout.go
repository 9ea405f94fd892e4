// Fixture "fanout": the multicast path's lock shapes. A run of events is
// sequenced, applied and pushed under one engine read-lock + group-mutex
// hold; the push takes a ring credit and wakes a shard worker, and the
// run's acks enter the sender's pump, all as select-with-default, so they
// are legal under the locks. Blocking for ring space (backpressure)
// happens only after both locks are released. The seeded violations
// (// want) are the shapes the path must never regress to: waiting for a
// credit, handing work to a shard, acknowledging, or feeding the error
// reporter with a blocking channel op while a lock is held.
// The package is named core because lockhold scopes itself to the engine
// packages by name.
package core

import "sync"

type ring struct {
	credits chan struct{}
	closed  chan struct{}
}

type shard struct {
	wake chan struct{}
}

type Engine struct {
	mu      sync.RWMutex
	gmu     sync.Mutex
	r       *ring
	s       *shard
	reports chan string
	stopped chan struct{}
	pump    chan uint64
}

// tryAcquire is the hot-path credit take: select-with-default, legal under
// any lock.
func (e *Engine) tryAcquire() bool {
	select {
	case <-e.r.credits:
		return true
	default:
		return false
	}
}

// push hands an entry to a shard worker, select-with-default: a full wake
// channel means the worker is already scheduled, so dropping the token is
// correct and non-blocking.
func (e *Engine) push() {
	select {
	case e.s.wake <- struct{}{}:
	default:
	}
}

// ackRun enqueues a run's acks on the sender's pump, admitting the prefix
// that fits: select-with-default, legal under the engine read lock.
func (e *Engine) ackRun(reqIDs []uint64) {
	for _, id := range reqIDs {
		select {
		case e.pump <- id:
		default:
			return
		}
	}
}

// runConforming is the path's critical section: credit, sequence the run,
// push, acknowledge — nothing that blocks — then the backpressure wait
// strictly after both locks are released.
func (e *Engine) runConforming(reqIDs []uint64) {
	e.mu.RLock()
	ok := e.tryAcquire()
	if ok {
		e.gmu.Lock()
		e.push()
		e.gmu.Unlock()
		e.ackRun(reqIDs)
	}
	e.mu.RUnlock()
	if !ok {
		// Off-lock backpressure wait: blocking is fine here.
		select {
		case <-e.r.credits:
		case <-e.r.closed:
		case <-e.stopped:
		}
	}
}

// reportConforming feeds the coalescing error reporter without blocking:
// a full queue degrades to a counted drop, never a stalled critical
// section.
func (e *Engine) reportConforming(msg string) {
	e.gmu.Lock()
	defer e.gmu.Unlock()
	select {
	case e.reports <- msg:
	default:
	}
}

// waitUnderLock blocks for a ring credit inside the group critical
// section — the deadlock shape backpressure exists to avoid: the shard
// workers that would free the credit can be stuck behind this very lock.
func (e *Engine) waitUnderLock() {
	e.mu.RLock()
	e.gmu.Lock()
	<-e.r.credits // want `channel receive while "e\.gmu" is held`
	e.gmu.Unlock()
	e.mu.RUnlock()
}

// selectUnderLock is the same mistake with the full wait shape.
func (e *Engine) selectUnderLock() {
	e.gmu.Lock()
	defer e.gmu.Unlock()
	select { // want `select without default while "e\.gmu" is held`
	case <-e.r.credits:
	case <-e.r.closed:
	}
}

// blockingWake hands work to a shard with a bare send: blocks when the
// worker is busy, serializing delivery back into the critical section.
func (e *Engine) blockingWake() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	e.s.wake <- struct{}{} // want `channel send while "e\.mu" is held`
}

// blockingAcks acknowledges a run with bare sends while the group mutex is
// held: one slow sender connection would stall the whole group.
func (e *Engine) blockingAcks(reqIDs []uint64) {
	e.gmu.Lock()
	for _, id := range reqIDs {
		e.pump <- id // want `channel send while "e\.gmu" is held`
	}
	e.gmu.Unlock()
}

// blockingReport feeds the error reporter with a bare send under the
// engine lock: a flooded reporter queue would stall every multicast.
func (e *Engine) blockingReport(msg string) {
	e.mu.Lock()
	e.reports <- msg // want `channel send while "e\.mu" is held`
	e.mu.Unlock()
}
