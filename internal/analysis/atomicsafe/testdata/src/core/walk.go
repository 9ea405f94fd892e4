// The walk's shapes for guarded fields: statements that run on this stack
// under the held set (an init statement, invoked and deferred literals),
// function literals that are roots of their own (a stored callback), and
// the constructor exemption, which covers what the constructor runs itself.
package core

import "sync"

type Registry struct {
	mu      sync.Mutex
	names   map[string]bool
	count   int
	onCount func() int
}

// NewRegistry runs its invoked literal before publication: exempt. The
// callback it stores runs later, after publication, from its own root.
func NewRegistry() *Registry {
	r := &Registry{names: map[string]bool{}}
	func() {
		r.count = 0
	}()
	r.onCount = func() int {
		return len(r.names) // want `read of "core\.Registry\.names" without "core\.Registry\.mu", which guards every write to it`
	}
	return r
}

// Add pins both fields to r.mu from inside an invoked literal.
func (r *Registry) Add(name string) {
	func() {
		r.mu.Lock()
		r.names[name] = true
		r.count++
		r.mu.Unlock()
	}()
}

// Drop writes under the guard from a literal deferred after the deferred
// unlock, which runs before it.
func (r *Registry) Drop(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	defer func() {
		delete(r.names, name)
		r.count--
	}()
}

// Reset writes in a literal deferred under the guard, but the plain unlock
// below releases the guard before the literal runs.
func (r *Registry) Reset() {
	r.mu.Lock()
	defer func() {
		r.count = 0 // want `write to "core\.Registry\.count" without "core\.Registry\.mu", which guards every other write`
	}()
	r.mu.Unlock()
}

// Has reads in an init statement under the guard: conforming.
func (r *Registry) Has(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	if ok := r.names[name]; ok {
		return true
	}
	return false
}

// Count reads in an init statement with no lock.
func (r *Registry) Count() int {
	if n := len(r.names); n > 0 { // want `read of "core\.Registry\.names" without "core\.Registry\.mu", which guards every write to it`
		return n
	}
	return 0
}

// Counter returns a literal that reads the guarded set on its own stack.
func (r *Registry) Counter() func() int {
	return func() int {
		return len(r.names) // want `read of "core\.Registry\.names" without "core\.Registry\.mu", which guards every write to it`
	}
}
