// Top-level benchmarks: one per table and figure of the paper's evaluation
// (§5), driven by the same harness as cmd/corona-bench so `go test -bench`
// and the CLI agree. Latency benchmarks report one probe round trip per
// iteration; throughput benchmarks report KB/s via b.ReportMetric.
//
//	go test -bench=. -benchmem
package corona_test

import (
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"corona/internal/bench"
	"corona/internal/wal"
)

// benchProbeRTT runs one probe round trip per iteration against addrs.
func benchProbeRTT(b *testing.B, addrs []string, clients, msgSize int, stateful bool) {
	b.Helper()
	p, err := bench.NewProbe(addrs, clients, msgSize, stateful)
	if err != nil {
		b.Fatal(err)
	}
	defer p.Close()
	// One untimed warmup round trip settles connections and buffers.
	if _, err := p.RoundTrip(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := p.RoundTrip(); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig3RoundTrip reproduces Figure 3: round-trip delay vs. number
// of clients for 1000-byte messages at a single server, stateful vs. the
// stateless (sequencer-only) baseline. Expect both series to grow linearly
// with the client count and to track each other closely.
func BenchmarkFig3RoundTrip(b *testing.B) {
	for _, n := range []int{5, 10, 20, 40, 60} {
		for _, stateful := range []bool{true, false} {
			mode := "stateless"
			dir := ""
			if stateful {
				mode = "stateful"
				dir = b.TempDir()
			}
			b.Run(fmt.Sprintf("clients=%d/%s", n, mode), func(b *testing.B) {
				addr, shutdown, err := bench.StartSingle(stateful, dir, wal.SyncNever)
				if err != nil {
					b.Fatal(err)
				}
				defer shutdown()
				benchProbeRTT(b, []string{addr}, n, 1000, stateful)
			})
		}
	}
}

// BenchmarkSizeSweep reproduces the §5.2 message-size observation: sizes
// up to a few hundred bytes make little difference; 1000 bytes and above
// matter, and 10000 bytes steepen the slope.
func BenchmarkSizeSweep(b *testing.B) {
	for _, size := range []int{100, 400, 1000, 4000, 10000} {
		b.Run(fmt.Sprintf("size=%d", size), func(b *testing.B) {
			addr, shutdown, err := bench.StartSingle(true, "", wal.SyncNever)
			if err != nil {
				b.Fatal(err)
			}
			defer shutdown()
			b.SetBytes(int64(size))
			benchProbeRTT(b, []string{addr}, 20, size, true)
		})
	}
}

// benchWindow is how long each throughput run blasts: 500 ms, or 50 ms
// under -short, where a run only shows that the harness works end to end.
func benchWindow() time.Duration {
	if testing.Short() {
		return 50 * time.Millisecond
	}
	return 500 * time.Millisecond
}

// BenchmarkTable1Throughput reproduces Table 1: server throughput with 6
// blasting clients at 1000- and 10000-byte messages. The paper's two rows
// (two server hosts) map to the logging-policy axis available here:
// memory-only vs. disk logging.
func BenchmarkTable1Throughput(b *testing.B) {
	cases := []struct {
		name string
		disk bool
		sync wal.SyncPolicy
	}{
		{"memory", false, wal.SyncNever},
		{"disk", true, wal.SyncInterval},
	}
	for _, size := range []int{1000, 10000} {
		for _, c := range cases {
			b.Run(fmt.Sprintf("size=%d/%s", size, c.name), func(b *testing.B) {
				dir := ""
				if c.disk {
					dir = b.TempDir()
				}
				b.ReportAllocs()
				var kbps float64
				for i := 0; i < b.N; i++ {
					res, err := bench.RunThroughput(bench.ThroughputConfig{
						Clients: 6, MsgSize: size,
						Duration: benchWindow(),
						Dir:      dir, Sync: c.sync,
					})
					if err != nil {
						b.Fatal(err)
					}
					kbps = res.IngestedKBps
				}
				b.ReportMetric(kbps, "KB/s")
			})
		}
	}
}

// BenchmarkMultigroupScaling measures aggregate throughput as a blasting
// load is spread over disjoint groups — the sharded engine's parallel
// multicast path. On a multicore machine the KB/s metric should rise with
// the group count; allocs/op guards the pooled fanout frames.
func BenchmarkMultigroupScaling(b *testing.B) {
	for _, groups := range []int{1, 4} {
		b.Run(fmt.Sprintf("groups=%d", groups), func(b *testing.B) {
			b.ReportAllocs()
			var kbps float64
			for i := 0; i < b.N; i++ {
				points, err := bench.RunMultigroup(bench.MultigroupConfig{
					GroupCounts: []int{groups},
					Duration:    benchWindow(),
				})
				if err != nil {
					b.Fatal(err)
				}
				kbps = points[0].IngestedKBps
			}
			b.ReportMetric(kbps, "KB/s")
		})
	}
}

// BenchmarkTable2Replicated reproduces Table 2: round-trip delay for a
// 1000-byte multicast at rising client counts, single server vs. a
// replicated service (coordinator + 6 servers, clients spread evenly).
// Expect the replicated service to win, with the gap growing with the
// client count.
func BenchmarkTable2Replicated(b *testing.B) {
	for _, n := range []int{50, 100, 150} {
		b.Run(fmt.Sprintf("clients=%d/single", n), func(b *testing.B) {
			addr, shutdown, err := bench.StartSingle(true, "", wal.SyncNever)
			if err != nil {
				b.Fatal(err)
			}
			defer shutdown()
			benchProbeRTT(b, []string{addr}, n, 1000, true)
		})
		b.Run(fmt.Sprintf("clients=%d/replicated", n), func(b *testing.B) {
			addrs, shutdown, err := bench.StartReplicated(6)
			if err != nil {
				b.Fatal(err)
			}
			defer shutdown()
			benchProbeRTT(b, addrs, n, 1000, true)
		})
	}
}

// BenchmarkJoinStateTransfer is ablation A1: join latency under each
// state-transfer policy against a group with a long update history.
func BenchmarkJoinStateTransfer(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		rows, err := bench.RunJoinTransfer(bench.JoinTransferConfig{
			History: 1000, UpdateSize: 500, Objects: 8, LastN: 20, Joins: 10,
		})
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			for _, r := range rows {
				unit := strings.ReplaceAll(r.Policy, " ", "-") + "-ms"
				b.ReportMetric(float64(r.Stats.Mean)/1e6, unit)
			}
		}
	}
}

// BenchmarkLogReduction is ablation A2: the effect of state-log reduction
// on join latency and retained history.
func BenchmarkLogReduction(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		// A fresh directory per iteration: the persistent group must
		// not be recovered from the previous iteration's log.
		dir, err := os.MkdirTemp(b.TempDir(), "logred")
		if err != nil {
			b.Fatal(err)
		}
		res, err := bench.RunLogReduction(1000, 500, 10, dir)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.JoinFullBefore.Mean)/1e6, "join-before-ms")
			b.ReportMetric(float64(res.JoinFullAfter.Mean)/1e6, "join-after-ms")
		}
	}
}

// BenchmarkRelaxedDelivery is ablation A3: the coordinator-sequenced data
// path vs. a membership change, ordered by the coordinator too, reaching a
// subscriber on the joiner's server, on a two-server cluster.
func BenchmarkRelaxedDelivery(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunRelaxed(50)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.StrictData.Mean)/1e6, "strict-ms")
			b.ReportMetric(float64(res.MemberNotify.Mean)/1e6, "notify-ms")
		}
	}
}

// BenchmarkQoSPriority is ablation A4: control-group delivery latency at a
// receiver flooded by a bulk group, with and without priority scheduling.
func BenchmarkQoSPriority(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		res, err := bench.RunQoS(30)
		if err != nil {
			b.Fatal(err)
		}
		if i == b.N-1 {
			b.ReportMetric(float64(res.WithoutPriority.P50)/1e6, "noprio-p50-ms")
			b.ReportMetric(float64(res.WithPriority.P50)/1e6, "prio-p50-ms")
		}
	}
}
