package seq

import (
	"testing"
	"testing/quick"
	"time"
)

func fixedNow() time.Time { return time.Unix(100, 42) }

func TestNextMonotonicPerGroup(t *testing.T) {
	s := New(fixedNow)
	for want := uint64(1); want <= 5; want++ {
		got, ts := s.Next("g")
		if got != want {
			t.Fatalf("Next = %d, want %d", got, want)
		}
		if ts != fixedNow().UnixNano() {
			t.Fatalf("timestamp = %d", ts)
		}
	}
	// Independent counter per group.
	if got, _ := s.Next("h"); got != 1 {
		t.Fatalf("Next(h) = %d, want 1", got)
	}
}

// TestQuickMonotonic property-tests the core guarantee: across any
// interleaving of two groups' Next calls, each group's numbers are 1, 2, 3…
// with no gap.
func TestQuickMonotonic(t *testing.T) {
	f := func(ops []bool) bool {
		s := New(nil)
		last := map[string]uint64{}
		for _, second := range ops {
			g := "a"
			if second {
				g = "b"
			}
			n, ts := s.Next(g)
			if n != last[g]+1 || ts == 0 {
				return false
			}
			last[g] = n
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
