// Package seq numbers events per group: the first event of a group gets
// sequence 1, and each later one the next number (paper §4.1).
//
// The engine and the coordinator no longer use it: each keeps a group's
// next number in that group's own record, so disjoint groups share nothing
// on the path that orders them. Its one caller is the benchmark's layer
// replay (benchmark/seam.go's sequencer), and the package goes with that
// wrapper in a later change to the benchmark.
package seq

import (
	"sync"
	"time"
)

// Sequencer assigns sequence numbers and server timestamps per group.
type Sequencer struct {
	mu   sync.Mutex
	next map[string]uint64
	now  func() time.Time
}

// New returns a Sequencer using now for timestamps (nil means time.Now).
func New(now func() time.Time) *Sequencer {
	if now == nil {
		now = time.Now
	}
	return &Sequencer{next: make(map[string]uint64), now: now}
}

// Next assigns the next sequence number for group and a server timestamp
// (Unix nanoseconds). The first event of a group gets sequence 1.
func (s *Sequencer) Next(group string) (seqNo uint64, timestamp int64) {
	s.mu.Lock()
	s.next[group]++
	seqNo = s.next[group]
	s.mu.Unlock()
	return seqNo, s.now().UnixNano()
}
