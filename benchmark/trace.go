package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one timed call into a layer. Start and End are nanoseconds since
// the trace's epoch; spans of one message share Msg; Parent names the span
// (of the same Msg) whose interval this one's work is part of.
type span struct {
	Name   string `json:"name"`
	Parent string `json:"parent,omitempty"`
	Msg    uint64 `json:"msg"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// maxSpans bounds the trace kept in memory; spans past it are counted, not
// kept. The live window may fill only maxLiveSpans of it (a blast records
// tens of thousands of spans a second), which leaves room for the replay's.
const (
	maxSpans     = 200_000
	maxLiveSpans = 150_000
)

// windowSlices is how many equal slices a timed window is cut into. Rates
// are reported as the median over slices, and a traced pass records spans
// in the odd slices only, so the even ones measure the same run untraced.
const windowSlices = 10

// tracer keeps spans in memory until the run ends. A nil tracer records
// nothing, which is how the untraced pass runs.
type tracer struct {
	epoch time.Time

	mu      sync.Mutex
	spans   []span
	limit   int
	dropped int
}

func newTracer(epoch time.Time) *tracer {
	return &tracer{epoch: epoch, spans: make([]span, 0, maxSpans), limit: maxLiveSpans}
}

// endLive lifts the live window's share of the span budget.
func (t *tracer) endLive() {
	t.mu.Lock()
	t.limit = maxSpans
	t.mu.Unlock()
}

func (t *tracer) add(name, parent string, msg uint64, start, end int64) {
	t.mu.Lock()
	if len(t.spans) < t.limit {
		t.spans = append(t.spans, span{Name: name, Parent: parent, Msg: msg, Start: start, End: end})
	} else {
		t.dropped++
	}
	t.mu.Unlock()
}

// window is one timed measurement interval.
type window struct {
	start time.Time
	len   time.Duration
	tr    *tracer
}

// slice is the index of the slice at holds, or -1 outside the window.
func (w window) slice(at time.Time) int {
	d := at.Sub(w.start)
	if d < 0 || d >= w.len {
		return -1
	}
	return int(d * windowSlices / w.len)
}

// traced reports whether a span starting at the instant should be recorded.
func (w window) traced(at time.Time) bool {
	return w.tr != nil && w.slice(at)%2 == 1
}

// selfTimes computes, per span name, the median over messages of the span's
// duration minus the durations of its children for the same message.
func (t *tracer) selfTimes() map[string]float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	type key struct {
		name string
		msg  uint64
	}
	child := map[key]int64{}
	for _, s := range t.spans {
		if s.Parent != "" {
			child[key{s.Parent, s.Msg}] += s.End - s.Start
		}
	}
	self := map[string][]float64{}
	for _, s := range t.spans {
		self[s.Name] = append(self[s.Name], float64(s.End-s.Start-child[key{s.Name, s.Msg}]))
	}
	out := map[string]float64{}
	for name, xs := range self {
		out[name] = median(xs)
	}
	return out
}

// durations returns every duration recorded under a span name.
func (t *tracer) durations(name string) []float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, float64(s.End-s.Start))
		}
	}
	return out
}

// traceFile is what trace_<workload>.json holds.
type traceFile struct {
	Workload string             `json:"workload"`
	Seed     int64              `json:"seed"`
	Host     hostInfo           `json:"host"`
	Dropped  int                `json:"spans_dropped"`
	SelfNs   map[string]float64 `json:"self_ns_median_by_span"`
	Metrics  map[string]float64 `json:"per_layer"`
	Spans    []span             `json:"spans"`
}

func (t *tracer) write(dir, workload string, seed int64, metrics map[string]float64) (string, error) {
	self := t.selfTimes()
	t.mu.Lock()
	defer t.mu.Unlock()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	path := filepath.Join(dir, "trace_"+workload+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	err = json.NewEncoder(f).Encode(traceFile{
		Workload: workload, Seed: seed, Host: host(), Dropped: t.dropped,
		SelfNs: self, Metrics: metrics, Spans: t.spans,
	})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return path, err
}
