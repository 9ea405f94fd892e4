// The walk's shapes: statements that run on this stack under the held set
// (an init statement, invoked and deferred literals), and function
// literals that are roots of their own (a goroutine body, a stored
// callback), walked from an empty held set.
package core

// An init statement runs under the held set.
func (e *Engine) initReenter() {
	e.mu.RLock()
	defer e.mu.RUnlock()
	if n := e.snapshot(); n > 0 { // want `core\.Engine\.mu \(via \(\*Engine\)\.snapshot\) re-enters "core\.Engine\.mu", already held`
		return
	}
}

// An invoked literal runs under the caller's locks; its own acquisition
// nests inside them.
func (s *fanoutShard) invokedInversion(g *groupRuntime) {
	s.mu.Lock()
	func() {
		g.mu.Lock() // want `core\.groupRuntime\.mu acquired while "core\.fanoutShard\.mu" is held: inverts the sanctioned order \(rank 30 ≤ 40\)`
		g.mu.Unlock()
	}()
	s.mu.Unlock()
}

// A literal deferred while the group mutex is held runs after the plain
// unlock below: it is not under the group mutex, and its acquisition of
// the registry lock inverts nothing.
func (g *groupRuntime) deferredBeforeUnlock(e *Engine) {
	g.mu.Lock()
	defer func() {
		e.registry()
	}()
	g.mu.Unlock()
}

// A goroutine literal is its own root: its inversion is its own.
func (e *Engine) spawnInversion(g *groupRuntime, s *fanoutShard) {
	go func() {
		s.mu.Lock()
		g.mu.Lock() // want `core\.groupRuntime\.mu acquired while "core\.fanoutShard\.mu" is held`
		g.mu.Unlock()
		s.mu.Unlock()
	}()
}

// A stored literal is a root too, walked once from an empty held set.
func (e *Engine) storedInversion(g *groupRuntime, s *fanoutShard) func() {
	f := func() {
		s.mu.Lock()
		g.mu.Lock() // want `core\.groupRuntime\.mu acquired while "core\.fanoutShard\.mu" is held`
		g.mu.Unlock()
		s.mu.Unlock()
	}
	return f
}
