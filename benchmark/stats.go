package main

import (
	"fmt"
	"math"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// quantile returns the nearest-rank q-quantile of an ascending slice, 0 when
// it is empty.
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	rank := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[min(max(rank, 0), len(sorted)-1)]
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

func median(xs []float64) float64 { return quantile(sortedCopy(xs), 0.5) }

// tailLadder is the percentiles a timing may be reported at, each with the
// share of samples that lies beyond it (one in so many).
var tailLadder = []struct {
	q     float64
	oneIn int
}{{0.5, 2}, {0.9, 10}, {0.99, 100}, {0.999, 1000}, {0.9999, 10000}}

// tailQuantile picks the highest ladder percentile that still has at least
// ten of the n samples beyond it; below twenty samples only the median is
// left, and it is reported with its count so the reader can discount it.
func tailQuantile(n int) float64 {
	q := tailLadder[0].q
	for _, c := range tailLadder {
		if n/c.oneIn >= 10 {
			q = c.q
		}
	}
	return q
}

// timing summarizes latency samples the way every timing is printed: median,
// the highest trustworthy percentile, and the sample count.
type timing struct {
	N     int
	P50   float64
	TailQ float64
	Tail  float64
	// P90 and P99 back the fixed-name ungated metrics; each falls back to
	// the tail when it has fewer than ten samples beyond it.
	P90, P99 float64
}

func summarize(samples []float64) timing {
	s := sortedCopy(samples)
	t := timing{N: len(s), P50: quantile(s, 0.5), TailQ: tailQuantile(len(s))}
	t.Tail = quantile(s, t.TailQ)
	t.P90, t.P99 = quantile(s, min(0.9, t.TailQ)), quantile(s, min(0.99, t.TailQ))
	return t
}

func (t timing) String() string {
	return fmt.Sprintf("p50=%.4f p%g=%.4f n=%d", t.P50, t.TailQ*100, t.Tail, t.N)
}

// ---- failure accounting -------------------------------------------------

// ledger counts what was attempted and what failed; failed_frac is their
// ratio. Any correctness problem makes every attempt count as failed.
type ledger struct {
	attempted   atomic.Int64
	refused     atomic.Int64
	nacked      atomic.Int64
	timedOut    atomic.Int64
	errored     atomic.Int64
	undelivered atomic.Int64

	mu       sync.Mutex
	problems []string
}

// add folds another round's counts and problems in.
func (l *ledger) add(o *ledger) {
	l.attempted.Add(o.attempted.Load())
	l.refused.Add(o.refused.Load())
	l.nacked.Add(o.nacked.Load())
	l.timedOut.Add(o.timedOut.Load())
	l.errored.Add(o.errored.Load())
	l.undelivered.Add(o.undelivered.Load())
	l.mu.Lock()
	defer l.mu.Unlock()
	l.problems = append(l.problems, o.problems...)
}

// op records one attempted operation and classifies its outcome.
func (l *ledger) op(err error) {
	l.attempted.Add(1)
	switch classify(err) {
	case failRefused:
		l.refused.Add(1)
	case failNacked:
		l.nacked.Add(1)
	case failTimedOut:
		l.timedOut.Add(1)
	case failErrored:
		l.errored.Add(1)
	}
}

// expectDeliveries records n deliveries the workload was owed, missing of
// which never arrived by quiesce.
func (l *ledger) expectDeliveries(n, missing int64) {
	l.attempted.Add(n)
	l.undelivered.Add(missing)
}

// problem records a failed correctness check.
func (l *ledger) problem(format string, args ...any) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.problems) < 20 {
		l.problems = append(l.problems, fmt.Sprintf(format, args...))
	}
}

func (l *ledger) correct() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.problems) == 0
}

func (l *ledger) failed() int64 {
	if !l.correct() {
		return l.attempted.Load()
	}
	return l.refused.Load() + l.nacked.Load() + l.timedOut.Load() + l.errored.Load() + l.undelivered.Load()
}

func (l *ledger) failedFrac() float64 {
	if n := l.attempted.Load(); n > 0 {
		return float64(l.failed()) / float64(n)
	}
	return 0
}

// ---- open-loop pacing ---------------------------------------------------

// pacer issues operation i at start + i·period whatever the earlier ones
// took: the schedule never slips, so an operation delayed by a stall is
// timed from the instant it was due, not from when it was finally sent.
type pacer struct {
	start  time.Time
	period time.Duration
	// spin is how long before the due instant the pacer stops sleeping and
	// yields in a loop instead; a timer wake-up is late by tens of
	// microseconds, which would otherwise be charged to every round trip.
	spin  time.Duration
	now   func() time.Time
	sleep func(time.Duration)
	yield func()
}

func (p *pacer) due(i int) time.Time { return p.start.Add(time.Duration(i) * p.period) }

// wait blocks until operation i is due and reports how late the generator
// is running (0 when on time).
func (p *pacer) wait(i int) (due time.Time, late time.Duration) {
	due = p.due(i)
	if d := due.Sub(p.now()) - p.spin; d > 0 {
		p.sleep(d)
	}
	for {
		now := p.now()
		if !now.Before(due) {
			return due, now.Sub(due)
		}
		p.yield()
	}
}

// ---- obs histogram deltas -----------------------------------------------

// histDelta is what a histogram recorded between two snapshots.
func histDelta(before, after histSnap) histSnap {
	d := histSnap{Count: after.Count - before.Count, Sum: after.Sum - before.Sum}
	prev := map[int64]uint64{}
	for _, b := range before.Buckets {
		prev[b.Upper] = b.Count
	}
	for _, b := range after.Buckets {
		if n := b.Count - prev[b.Upper]; n > 0 {
			d.Buckets = append(d.Buckets, histBucket{Upper: b.Upper, Count: n})
		}
	}
	return d
}

func (h histSnap) mean() float64 {
	if h.Count == 0 {
		return 0
	}
	return float64(h.Sum) / float64(h.Count)
}

// p50 interpolates the median inside its power-of-two bucket (Upper/2,
// Upper]; the program's own quantiles stop at the bucket bound.
func (h histSnap) p50() float64 {
	if h.Count == 0 {
		return 0
	}
	rank := float64(h.Count) / 2
	var cum float64
	for _, b := range h.Buckets {
		if cum+float64(b.Count) >= rank {
			lo := float64(b.Upper / 2)
			return lo + (float64(b.Upper)-lo)*(rank-cum)/float64(b.Count)
		}
		cum += float64(b.Count)
	}
	return float64(h.Buckets[len(h.Buckets)-1].Upper)
}
