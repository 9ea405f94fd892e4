// The walk's shapes: statements that run on this stack under the held set
// (an init statement, a deferred literal), and function literals that are
// roots of their own (a goroutine body, a returned callback), walked from
// an empty held set for the locks they take themselves.
package core

import "time"

// An init statement runs under the lock like any other statement.
func (e *Engine) initUnderLock() {
	e.mu.Lock()
	defer e.mu.Unlock()
	if v := <-e.ch; v > 0 { // want `channel receive while "e\.mu" is held`
		return
	}
	switch v := <-e.ch; v { // want `channel receive while "e\.mu" is held`
	case 0:
	}
}

// An invoked literal runs here, and the lock it takes itself is held for
// the rest of its body.
func (e *Engine) invokedLocks() {
	func() {
		e.mu.Lock()
		time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while "e\.mu" is held`
		e.mu.Unlock()
	}()
}

// A literal deferred before the lock is released by a plain Unlock runs
// after that release: fine.
func (e *Engine) deferredBeforeUnlock() {
	e.mu.Lock()
	defer func() {
		<-e.ch
	}()
	e.mu.Unlock()
}

// A goroutine literal is its own root: the lock it takes covers its sleep.
func (e *Engine) spawnLocked() {
	go func() {
		e.mu.Lock()
		time.Sleep(time.Millisecond) // want `time\.Sleep \[sleep\] while "e\.mu" is held`
		e.mu.Unlock()
	}()
}

// A returned literal runs later, on its caller's stack, and is its own
// root too.
func (e *Engine) lockedCallback() func() {
	return func() {
		e.mu.Lock()
		defer e.mu.Unlock()
		<-e.ch // want `channel receive while "e\.mu" is held`
	}
}

// A goroutine literal that takes no lock of its own blocks off every lock.
func (e *Engine) spawnBare() {
	e.mu.Lock()
	defer e.mu.Unlock()
	go func() {
		<-e.ch
	}()
}
