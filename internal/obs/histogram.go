package obs

import (
	"math"
	"math/bits"
	"sync/atomic"
)

// histBuckets covers every possible bits.Len64 result (0..64); Record
// clamps to int64 inputs so indices 0..63 are the ones actually used.
const histBuckets = 65

// Histogram accumulates non-negative int64 samples (typically
// nanoseconds) into logarithmic buckets: bucket i holds values whose
// bit length is i, i.e. [2^(i-1), 2^i). Recording is a few atomic adds
// and CAS loops — no locks — so it is safe on hot paths and under
// arbitrary concurrency. Quantiles are read from a Snapshot; they are
// exact to within one power-of-two bucket and clamped to the tracked
// exact Min/Max.
type Histogram struct {
	counts [histBuckets]atomic.Uint64
	sum    atomic.Uint64
	sumSq  atomic.Uint64 // math.Float64bits of the running sum of squares
	min    atomic.Int64  // meaningful only once a sample exists
	max    atomic.Int64
}

// NewHistogram returns an empty histogram ready for concurrent use.
func NewHistogram() *Histogram {
	h := &Histogram{}
	h.min.Store(math.MaxInt64)
	return h
}

// Record adds one sample. Negative samples (clock skew) clamp to zero. The
// sample is counted last, so a Snapshot that counts it also sees it in Min
// and Max.
func (h *Histogram) Record(v int64) {
	if v < 0 {
		v = 0
	}
	h.sum.Add(uint64(v))
	for {
		old := h.sumSq.Load()
		next := math.Float64bits(math.Float64frombits(old) + float64(v)*float64(v))
		if h.sumSq.CompareAndSwap(old, next) {
			break
		}
	}
	for {
		old := h.min.Load()
		if v >= old || h.min.CompareAndSwap(old, v) {
			break
		}
	}
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			break
		}
	}
	h.counts[bits.Len64(uint64(v))].Add(1)
}

// BucketCount is one occupied histogram bucket: Count samples were
// ≤ Upper (and above the previous bucket's Upper).
type BucketCount struct {
	Upper int64  `json:"upper"`
	Count uint64 `json:"count"`
}

// HistogramSnapshot is a point-in-time view. Count always equals the
// number of Record calls that completed before the snapshot (no sample
// is ever lost), and P50 ≤ P90 ≤ P99 ≤ Max holds by construction.
type HistogramSnapshot struct {
	Count   uint64        `json:"count"`
	Sum     uint64        `json:"sum"`
	SumSq   float64       `json:"-"`
	Min     int64         `json:"min"`
	Max     int64         `json:"max"`
	P50     int64         `json:"p50"`
	P90     int64         `json:"p90"`
	P99     int64         `json:"p99"`
	Buckets []BucketCount `json:"buckets,omitempty"`
}

func bucketUpper(i int) int64 {
	if i <= 0 {
		return 0
	}
	if i >= 64 {
		return math.MaxInt64
	}
	return int64(1)<<uint(i) - 1
}

// Snapshot captures the current distribution. It is safe to call while
// other goroutines Record; a racing sample is either fully included or
// fully excluded from Count/Buckets.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{
		Sum:   h.sum.Load(),
		SumSq: math.Float64frombits(h.sumSq.Load()),
	}
	for i := 0; i < histBuckets; i++ {
		if n := h.counts[i].Load(); n > 0 {
			s.Buckets = append(s.Buckets, BucketCount{Upper: bucketUpper(i), Count: n})
			s.Count += n
		}
	}
	if s.Count == 0 {
		return s
	}
	s.Min = h.min.Load()
	s.Max = h.max.Load()
	s.P50 = s.Quantile(0.50)
	s.P90 = s.Quantile(0.90)
	s.P99 = s.Quantile(0.99)
	return s
}

// Quantile returns the value at quantile q in [0, 1]: the upper bound
// of the bucket holding the ceil(q·Count)-th sample, clamped to
// [Min, Max]. It is monotone in q.
func (s HistogramSnapshot) Quantile(q float64) int64 {
	if s.Count == 0 {
		return 0
	}
	if q <= 0 {
		return s.Min
	}
	if q >= 1 {
		return s.Max
	}
	rank := uint64(math.Ceil(q * float64(s.Count)))
	if rank < 1 {
		rank = 1
	}
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		if cum >= rank {
			v := b.Upper
			if v < s.Min {
				v = s.Min
			}
			if v > s.Max {
				v = s.Max
			}
			return v
		}
	}
	return s.Max
}

// Mean returns the average sample, 0 when empty.
func (s HistogramSnapshot) Mean() float64 {
	if s.Count == 0 {
		return 0
	}
	return float64(s.Sum) / float64(s.Count)
}

// StdDev returns the population standard deviation, 0 when empty.
func (s HistogramSnapshot) StdDev() float64 {
	if s.Count == 0 {
		return 0
	}
	m := s.Mean()
	v := s.SumSq/float64(s.Count) - m*m
	if v < 0 {
		v = 0 // floating-point noise on near-constant samples
	}
	return math.Sqrt(v)
}
