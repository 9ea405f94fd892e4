// Package core is the atomicsafe fixture: one struct whose counters are
// atomics, one whose fields are guarded by its mutex, each exercised with
// the discipline (silent) and against it (reported).
package core

import (
	"sync"
	"sync/atomic"
)

// --- sync/atomic functions -----------------------------------------------

type Stats struct {
	hits   int64
	misses int64
	total  atomic.Int64
}

// bump counts with a sync/atomic function on a plain field.
func (s *Stats) bump() {
	atomic.AddInt64(&s.hits, 1) // want `sync/atomic\.AddInt64 on a plain value: use a typed atomic`
}

// get reads it the same way.
func (s *Stats) get() int64 {
	return atomic.LoadInt64(&s.hits) // want `sync/atomic\.LoadInt64 on a plain value: use a typed atomic`
}

// peek and reset access the same field plainly: the calls above are the
// findings, and hits has no mutex guard to check.
func (s *Stats) peek() int64 {
	return s.hits
}

func (s *Stats) reset() {
	s.hits = 0
}

// count uses a typed atomic, whose methods are the discipline: silent.
func (s *Stats) count() int64 {
	s.total.Add(1)
	return s.total.Load()
}

// missed never touches atomics and has no mutex guard either: silent.
func (s *Stats) missed() int64 {
	s.misses++
	return s.misses
}

// --- mutex-guarded fields --------------------------------------------------

type Group struct {
	mu      sync.Mutex
	members map[string]bool
	size    int
}

// NewGroup writes pre-publication: constructors carry no discipline.
func NewGroup() *Group {
	g := &Group{members: map[string]bool{}}
	g.size = 0
	return g
}

// Add pins both fields to g.mu: element writes count as field writes.
func (g *Group) Add(m string) {
	g.mu.Lock()
	g.members[m] = true
	g.size++
	g.mu.Unlock()
}

// Remove deletes under the same guard.
func (g *Group) Remove(m string) {
	g.mu.Lock()
	defer g.mu.Unlock()
	delete(g.members, m)
	g.size--
}

// Size reads under the guard: conforming.
func (g *Group) Size() int {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.size
}

// hasLocked relies on the naming contract: the caller holds g.mu.
func (g *Group) hasLocked(m string) bool {
	return g.members[m]
}

// snapshot documents the contract instead. Caller holds g.mu.
func (g *Group) snapshot() []string {
	out := make([]string, 0, len(g.members))
	for m := range g.members {
		out = append(out, m)
	}
	return out
}

// Peek reads the guarded member set with no lock and no contract.
func (g *Group) Peek() int {
	return len(g.members) // want `read of "core\.Group\.members" without "core\.Group\.mu", which guards every write to it`
}

// bg spawns a goroutine under the lock: the spawned body runs on its own
// stack without it, so its read is bare.
func (g *Group) bg(sink chan<- int) {
	g.mu.Lock()
	defer g.mu.Unlock()
	go func() {
		sink <- len(g.members) // want `read of "core\.Group\.members" without "core\.Group\.mu", which guards every write to it`
	}()
}

// racyReset writes size on a path that skips the guard every other write
// uses.
func (g *Group) racyReset() {
	g.size = 0 // want `write to "core\.Group\.size" without "core\.Group\.mu", which guards every other write`
}
