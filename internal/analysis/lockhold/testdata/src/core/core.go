// Package core is a lockhold fixture: an engine with the same lock
// shapes as the real one, seeded with violations (// want) and with
// conforming code that must stay silent.
package core

import (
	"fmt"
	"sync"
	"time"

	"wal"
)

type Engine struct {
	mu  sync.RWMutex
	gmu sync.Mutex
	log *wal.Log
	cm  wal.Committer
	ch  chan int
}

// --- direct blocking operations inside explicit spans -------------------

func (e *Engine) direct() {
	e.mu.Lock()
	time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while "e\.mu" is held`
	e.mu.Unlock()
	time.Sleep(time.Millisecond) // after release: fine
}

func (e *Engine) chanOps() {
	e.gmu.Lock()
	e.ch <- 1 // want `channel send while "e\.gmu" is held`
	<-e.ch    // want `channel receive while "e\.gmu" is held`
	select {  // want `select without default while "e\.gmu" is held`
	case v := <-e.ch:
		_ = v
	}
	select { // non-blocking: has a default clause
	case e.ch <- 2:
	default:
	}
	for range e.ch { // want `range over channel while "e\.gmu" is held`
	}
	e.gmu.Unlock()
}

// --- defer-released spans ----------------------------------------------

func (e *Engine) deferred() {
	e.mu.Lock()
	defer e.mu.Unlock()
	fmt.Println("held") // want `fmt\.Println \[I/O\] while "e\.mu" is held`
}

func (e *Engine) deferredAfterUnlock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	defer fmt.Println("bye") // want `fmt\.Println \[I/O\] deferred while "e\.mu" is held`
}

// --- propagation through the call graph ---------------------------------

func (e *Engine) viaCall() {
	e.mu.RLock()
	e.helper() // want `channel receive \(via \(\*Engine\)\.helper\) while "e\.mu" is held`
	e.mu.RUnlock()
}

func (e *Engine) helper() {
	<-e.ch
}

func (e *Engine) viaWAL() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.Append(nil) // want `\(\*File\)\.Write \[file I/O\] \(via \(\*Log\)\.Append\) while "e\.mu" is held`
}

func (e *Engine) asyncWAL() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.log.AppendAsync(nil) // non-blocking enqueue: fine
}

// viaInterface calls the committer through the wal.Committer interface;
// lockhold must resolve it to the blocking *wal.FileCommitter.
func (e *Engine) viaInterface() {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.cm.Commit(nil) // want `via \(\*FileCommitter\)\.Commit → \(\*Log\)\.Append`
}

// --- exemptions ----------------------------------------------------------

func (e *Engine) goExempt() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go e.helper() // goroutine body runs off this stack: fine
}

func (e *Engine) litExempt() {
	e.mu.Lock()
	defer e.mu.Unlock()
	f := func() { <-e.ch } // not invoked under the lock: fine
	go f()
}

func (e *Engine) litInvoked() {
	e.mu.Lock()
	defer e.mu.Unlock()
	func() {
		<-e.ch // want `channel receive while "e\.mu" is held`
	}()
}

func (e *Engine) deferredSleep() {
	e.mu.Lock()
	defer e.mu.Unlock()
	time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while "e\.mu" is held`
}

// branch spans: the lock released in one branch stays held in the other.
func (e *Engine) branches(drop bool) {
	e.mu.Lock()
	if drop {
		e.mu.Unlock()
		time.Sleep(time.Millisecond) // released here: fine
		return
	}
	time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while "e\.mu" is held`
	e.mu.Unlock()
}
