package main

import (
	"fmt"
	"os"
	"runtime"
	"time"
)

// metricDef describes one reported metric. Bound is the share of the
// parent's median by which a gated metric may worsen; per-layer metrics
// carry none.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound,omitempty"`
}

// endToEnd is what a user of the service feels. Every workload reports all
// three; workloadDef.latency and .throughput say what each measures there.
var endToEnd = []metricDef{
	{Name: "latency_p50_ms", Unit: "ms", Better: "lower", Bound: 0.25},
	{Name: "throughput_per_s", Unit: "ops/s", Better: "higher", Bound: 0.15},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
}

// perLayer is the outside-in ledger, one row per layer metric. A workload
// that does not exercise a layer reports 0 for it.
var perLayer = []metricDef{
	{Name: "wire.codec_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "wire.allocs_per_msg", Unit: "allocs/msg", Better: "lower"},
	{Name: "transport.write_read_ns_per_frame", Unit: "ns/frame", Better: "lower"},
	{Name: "transport.pump_enqueue_ns_per_frame", Unit: "ns/frame", Better: "lower"},
	{Name: "transport.pump_stalls", Unit: "count", Better: "lower"},
	{Name: "transport.bytes_out_per_msg", Unit: "B/msg", Better: "lower"},
	{Name: "transport.coalesced_frames_per_read", Unit: "frames/msg", Better: "higher"},
	{Name: "core.handle_ns_per_msg", Unit: "ns/msg", Better: "lower"},
	{Name: "core.lock_wait_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.lock_hold_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.fanout_offlock_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.ingest_batch_mean", Unit: "msgs/batch", Better: "higher"},
	{Name: "core.delivery_batch_mean", Unit: "events/frame", Better: "higher"},
	{Name: "core.dropped", Unit: "count", Better: "lower"},
	{Name: "core.backpressure_waits", Unit: "count", Better: "lower"},
	{Name: "core.fanout_spread_us", Unit: "us", Better: "lower"},
	{Name: "core.join_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "core.join_hold_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "state.apply_ns_per_event", Unit: "ns/event", Better: "lower"},
	{Name: "state.capture_full_ns", Unit: "ns", Better: "lower"},
	{Name: "state.restore_ns_per_mb", Unit: "ns/MB", Better: "lower"},
	{Name: "seq.next_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.records_per_fsync", Unit: "records/fsync", Better: "higher"},
	{Name: "wal.fsyncs_per_msg", Unit: "fsyncs/msg", Better: "lower"},
	{Name: "wal.append_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "wal.replay_mb_per_s", Unit: "MB/s", Better: "higher"},
	{Name: "view.apply_join_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.hop_us", Unit: "us", Better: "lower"},
	{Name: "cluster.distribute_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "cluster.forwarded_per_msg", Unit: "ratio", Better: "lower"},
	{Name: "proc.allocs_per_msg", Unit: "allocs/msg", Better: "lower"},
	{Name: "proc.cpu_us_per_msg", Unit: "us/msg", Better: "lower"},
	{Name: "proc.peak_rss_mb", Unit: "MB", Better: "lower"},
	{Name: "self.wire_ns", Unit: "ns", Better: "lower"},
	{Name: "self.transport_ns", Unit: "ns", Better: "lower"},
	{Name: "self.core_ns", Unit: "ns", Better: "lower"},
	{Name: "self.state_ns", Unit: "ns", Better: "lower"},
	{Name: "self.seq_ns", Unit: "ns", Better: "lower"},
	{Name: "ledger.attributed_us", Unit: "us", Better: "higher"},
	{Name: "ledger.unattributed_frac", Unit: "ratio", Better: "lower"},
	{Name: "trace.overhead_frac", Unit: "ratio", Better: "lower"},
	{Name: "client.rtt_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rtt_p99_ms", Unit: "ms", Better: "lower"},
	{Name: "client.rtt_overlap_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.join_p50_ms", Unit: "ms", Better: "lower"},
	{Name: "client.join_p90_ms", Unit: "ms", Better: "lower"},
	{Name: "gen.late_p99_ms", Unit: "ms", Better: "lower"},
}

// sizing scales the fixed amounts of work; the tests shrink them.
type sizing struct {
	// rounds is how many times an untraced run sets the workload up afresh;
	// each round measures an equal share of the window, and every gated
	// metric is the median over rounds, so one unlucky set-up (which threads
	// and sockets the members landed on) cannot move the result.
	rounds         int
	warmup         int // warm-up multicasts per sender before timing
	staticObjBytes int // join_under_load: bytes in each of the 8 static objects
	// logEvents is how many events recover_cold logs per group: 4 MB, kept
	// below autoReduceThreshold so that no checkpoint lets the program drop
	// log segments — the restart just before a reduction, recovery's worst case.
	logEvents  int
	replayMsgs int // messages the traced layer replay pushes through each layer
	minReopens int // recover_cold: fewest timed re-opens
}

var fullSizing = sizing{rounds: 5, warmup: 1000, staticObjBytes: 512 << 10, logEvents: 4000, replayMsgs: 2000, minReopens: 5}

// runConfig is one invocation of one workload.
type runConfig struct {
	seed   int64
	window time.Duration
	trace  bool
	size   sizing
	outDir string // trace files and scratch data live here
}

// scratch makes a fresh data directory under outDir.
func (rc runConfig) scratch(prefix string) (string, error) {
	if err := os.MkdirAll(rc.outDir, 0o755); err != nil {
		return "", err
	}
	return os.MkdirTemp(rc.outDir, prefix+"-")
}

// outcome is what one run of one workload measured.
type outcome struct {
	e2e     map[string]float64
	layer   map[string]float64
	led     *ledger
	timings []samples            // raw timings, summarized when printed
	rounds  map[string][]float64 // each end-to-end metric's value per round
	checks  []string             // the correctness checks that ran
	tr      *tracer
}

func newOutcome(rc runConfig, epoch time.Time) *outcome {
	o := &outcome{e2e: map[string]float64{}, layer: map[string]float64{}, led: &ledger{}}
	if rc.trace {
		o.tr = newTracer(epoch)
	}
	return o
}

// samples is one named set of timings.
type samples struct {
	name, unit string
	xs         []float64
}

func (o *outcome) timing(name, unit string, xs []float64) timing {
	o.timings = append(o.timings, samples{name, unit, xs})
	return summarize(xs)
}

// mergeRounds folds the rounds of one run into one outcome: each end-to-end
// metric is the median over rounds, counts add up, timings pool. Per-layer
// metrics, checks and the trace are the last round's (a traced run has one).
func mergeRounds(rounds []*outcome) *outcome {
	o := rounds[len(rounds)-1]
	o.rounds = map[string][]float64{}
	for _, m := range endToEnd {
		for _, r := range rounds {
			o.rounds[m.Name] = append(o.rounds[m.Name], r.e2e[m.Name])
		}
		o.e2e[m.Name] = median(o.rounds[m.Name])
	}
	for _, r := range rounds[:len(rounds)-1] {
		o.led.add(r.led)
		for k, t := range r.timings {
			o.timings[k].xs = append(o.timings[k].xs, t.xs...)
		}
	}
	return o
}

// workloadDef is one named workload.
type workloadDef struct {
	name string
	why  string
	// shape, loop and the two meanings go into the printed header and the
	// README glossary.
	shape      string
	loop       string
	loadConns  int // load-generating connections; refused above nproc
	latency    string
	throughput string
	run        func(rc runConfig) (*outcome, error)
}

var workloads = []workloadDef{
	{
		name:  "fanout_rtt",
		why:   "Fig. 3: one multicast at a time to 17 members; fanout does the work, WAL and ingest batching are idle",
		shape: "1 memory-only group; 16 passive receivers + 1 probe sender joined last",
		loop:  "open, 1 connection, 1000 msg/s, 1000 B", loadConns: 1,
		latency:    "multicast due -> sender's own delivery (rtt_p50_ms)",
		throughput: "deliveries completed per second over all 17 members (goodput; falls if a backlog grows)",
		run:        func(rc runConfig) (*outcome, error) { return runRTT(rc, rttShape{receivers: 16, rate: 1000}) },
	},
	{
		name:  "blast_mem",
		why:   "Table 1 memory-only row: closed-loop ingest; decode, locks, sequencing and state.Apply do the work, WAL is idle",
		shape: "group = the 2 blasters, sender-exclusive, memory-only",
		loop:  "closed, 2 connections x 8 outstanding, 1000 B", loadConns: 2,
		latency:    "multicast issued -> positive ack, at 8 outstanding per connection",
		throughput: "multicasts positively acked per second (ingest_msgs_per_s)",
		run:        func(rc runConfig) (*outcome, error) { return runBlast(rc, false) },
	},
	{
		name:  "blast_durable",
		why:   "Table 1 always-sync row: same ingest with acks deferred to the WAL group commit, on a modelled 500 us fsync",
		shape: "as blast_mem, persistent group, SyncAlways, modelled 500 us fsync",
		loop:  "closed, 2 connections x 8 outstanding, 1000 B", loadConns: 2,
		latency:    "multicast issued -> durable ack, at 8 outstanding per connection",
		throughput: "multicasts durably acked per second (ingest_msgs_per_s; only durable acks count)",
		run:        func(rc runConfig) (*outcome, error) { return runBlast(rc, true) },
	},
	{
		name:  "join_under_load",
		why:   "A6: full 4 MiB joins beside live multicast on the same group; COW capture, chunk streaming and view do the work",
		shape: "1 memory-only group pre-loaded with 8 static 512 KiB objects + 1 hot object; 4 receivers",
		loop:  "open: sender 500 msg/s on one connection beside a joiner doing 20 Join(full)+Leave per second on another", loadConns: 2,
		latency:    "join due -> Join(full) streamed and View.ApplyJoin done (join_p50_ms)",
		throughput: "deliveries completed per second over the sender and the 4 receivers (goodput; falls if joins stall multicast into a backlog)",
		run:        runJoin,
	},
	{
		name:  "cluster_rtt",
		why:   "Table 2: forward -> coordinator -> distribute; the only workload where the cluster layer works; zero injected delay",
		shape: "coordinator + 2 member servers; 8 receivers split 4/4; probe on the server that does not host the first receiver",
		loop:  "open, 1 connection, 500 msg/s, 1000 B", loadConns: 1,
		latency:    "multicast due -> sender's own delivery through the coordinator (rtt_p50_ms; processor time only)",
		throughput: "deliveries completed per second over all 9 members (goodput; falls if a backlog grows)",
		run: func(rc runConfig) (*outcome, error) {
			return runRTT(rc, rttShape{cluster: true, receivers: 8, rate: 500})
		},
	},
	{
		name:  "recover_cold",
		why:   "persistence claim: cold re-open of a fixed 32 MB log; wal.Replay, record decode and state restore do all the work",
		shape: "fixed log of 8 persistent groups x 4000 seeded events x 1000 B, written at set-up and cleanly closed",
		loop:  "batch: re-open the log over and over for the window, one at a time", loadConns: 1,
		latency:    "one cold core.NewServer over the log until it returns (recover_s, in ms)",
		throughput: "logged events recovered per second",
		run:        runRecover,
	},
}

func findWorkload(name string) (workloadDef, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workloadDef{}, false
}

// liveDelta is what the program's instruments and the process recorded over
// a timed window.
type liveDelta struct {
	before, after metricsSnap
	use0, use1    procUsage
}

func beginLive() (*liveDelta, error) {
	runtime.GC() // start every window from a collected heap
	snap, err := snapshotMetrics()
	return &liveDelta{before: snap, use0: usage()}, err
}

func (d *liveDelta) end() error {
	d.use1 = usage()
	var err error
	d.after, err = snapshotMetrics()
	return err
}

func (d *liveDelta) counter(name string) float64 {
	return float64(d.after.Counters[name] - d.before.Counters[name])
}

func (d *liveDelta) hist(name string) histSnap {
	return histDelta(d.before.Histograms[name], d.after.Histograms[name])
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// liveLayers fills the per-layer metrics read from the program's always-on
// instruments and from the process, over msgs operations.
func (d *liveDelta) liveLayers(layer map[string]float64, msgs float64) {
	layer["transport.pump_stalls"] = d.counter(obsPumpStalls)
	layer["transport.bytes_out_per_msg"] = ratio(d.counter(obsBytesOut), msgs)
	layer["transport.coalesced_frames_per_read"] = ratio(d.counter(obsReadCoalesced), msgs)
	layer["core.lock_wait_p50_ns"] = d.hist(obsLockWait).p50()
	layer["core.lock_hold_p50_ns"] = d.hist(obsLockHold).p50()
	layer["core.fanout_offlock_p50_ns"] = d.hist(obsFanoutOfflock).p50()
	layer["core.ingest_batch_mean"] = d.hist(obsIngestBatch).mean()
	layer["core.delivery_batch_mean"] = d.hist(obsDeliveryBatch).mean()
	layer["core.dropped"] = d.counter(obsDropped)
	layer["core.backpressure_waits"] = d.counter(obsBackpressure)
	layer["core.join_p50_ns"] = d.hist(obsJoin).p50()
	layer["core.join_hold_p50_ns"] = d.hist(obsJoinLockHold).p50()
	layer["wal.records_per_fsync"] = d.hist(obsWALBatchRecords).mean()
	layer["wal.fsyncs_per_msg"] = ratio(d.counter(obsWALFsyncs), msgs)
	layer["wal.append_p50_ns"] = d.hist(obsWALAppendNs).p50()
	layer["cluster.distribute_p50_ns"] = d.hist(obsClusterDistNs).p50()
	layer["cluster.forwarded_per_msg"] = ratio(d.counter(obsClusterForwarded), msgs)
	layer["proc.allocs_per_msg"] = ratio(float64(d.use1.Mallocs-d.use0.Mallocs), msgs)
	layer["proc.cpu_us_per_msg"] = ratio(d.use1.CPUus-d.use0.CPUus, msgs)
	layer["proc.peak_rss_mb"] = d.use1.PeakMB
}

// sliceRates turns per-slice operation counts into the median rate per
// second, and — in a traced pass — the share by which the traced (odd)
// slices ran slower than the untraced (even) ones.
func sliceRates(counts [windowSlices]float64, w window) (rate, overhead float64) {
	per := w.len.Seconds() / windowSlices
	var all, even, odd []float64
	for k, c := range counts {
		all = append(all, c/per)
		if k%2 == 0 {
			even = append(even, c/per)
		} else {
			odd = append(odd, c/per)
		}
	}
	return median(all), 1 - ratio(median(odd), median(even))
}

// removeAll deletes scratch data, reporting a failure as a problem of the
// run's environment rather than hiding it.
func removeAll(dir string) {
	if err := os.RemoveAll(dir); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark: leaving scratch behind:", err)
	}
}
