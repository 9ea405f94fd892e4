package bench

import (
	"errors"
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/wal"
	"corona/internal/wire"
)

// ThroughputConfig parameterizes the Table 1 experiment: a fixed set of
// clients multicasting as fast as possible through one Corona server.
//
// The paper's two table rows are two server hosts (UltraSparc vs. quad
// Pentium II). This reproduction substitutes the axis available on one
// machine: the stable-storage policy (memory-only vs. disk logging), which
// probes the same question — does state logging limit throughput?
type ThroughputConfig struct {
	// Clients is the number of blasting members (paper: 6).
	Clients int
	// MsgSize is the multicast payload size (paper: 1000 and 10000).
	MsgSize int
	// Duration is how long the blast runs.
	Duration time.Duration
	// Pipeline is the number of in-flight multicasts per client.
	Pipeline int
	// Dir enables disk logging ("" = memory only).
	Dir string
	// Sync is the log durability policy when Dir is set.
	Sync wal.SyncPolicy
}

// ThroughputResult reports the measured server throughput.
type ThroughputResult struct {
	// Ingested is the multicast submission rate in KB/s (what the
	// paper's table reports: data through the server).
	IngestedKBps float64
	// Delivered is the aggregate fanout rate in KB/s across all
	// members.
	DeliveredKBps float64
	// Messages is the number of multicasts sequenced.
	Messages uint64
	// AllocsPerMsg is the process-wide heap allocations per sequenced
	// multicast during the blast. Clients run in-process, so this counts
	// both sides of the protocol; it is a regression tripwire for the
	// pooled fanout path, not a pure server number.
	AllocsPerMsg float64
	// AvgIngestBatch is the mean number of Bcasts the server's read loops
	// coalesced per engine call during the blast (1.0 = no coalescing).
	AvgIngestBatch float64
	// AvgDeliveryBatch is the mean number of events per fanout frame.
	AvgDeliveryBatch float64
}

// batchMeans computes the mean ingest and delivery batch sizes between two
// metric snapshots.
func batchMeans(before, after obs.Snapshot) (ingest, delivery float64) {
	return histMeanDelta(before.Histograms["engine.ingest_batch_size"], after.Histograms["engine.ingest_batch_size"]),
		histMeanDelta(before.Histograms["engine.delivery_batch_size"], after.Histograms["engine.delivery_batch_size"])
}

func histMeanDelta(before, after obs.HistogramSnapshot) float64 {
	count := after.Count - before.Count
	if count == 0 {
		return 0
	}
	return float64(after.Sum-before.Sum) / float64(count)
}

// RunThroughput measures one Table 1 cell.
func RunThroughput(cfg ThroughputConfig) (ThroughputResult, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 6
	}
	if cfg.MsgSize <= 0 {
		cfg.MsgSize = 1000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Pipeline <= 0 {
		cfg.Pipeline = 8
	}

	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Dir:    cfg.Dir,
		Sync:   cfg.Sync,
		Logger: quietLogger(),
		// Blasting workloads grow the history fast; reduce the way a
		// production deployment would.
		AutoReduceThreshold: 4096,
	}})
	if err != nil {
		return ThroughputResult{}, err
	}
	defer srv.Close()
	srv.Start()
	addr := srv.Addr().String()

	const group = "blast"
	clients := make([]*client.Client, 0, cfg.Clients)
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	for i := 0; i < cfg.Clients; i++ {
		c, err := client.Dial(client.Config{Addr: addr, Name: fmt.Sprintf("blaster-%d", i)})
		if err != nil {
			return ThroughputResult{}, err
		}
		clients = append(clients, c)
		if i == 0 {
			// Persistent, so the disk-logging configuration actually
			// logs every multicast. A recovered group from a reused
			// data directory is fine.
			if err := c.CreateGroup(group, true, nil); err != nil {
				var se *client.ServerError
				if !errors.As(err, &se) || se.Code != wire.CodeGroupExists {
					return ThroughputResult{}, err
				}
			}
		}
		if _, err := c.Join(group, client.JoinOptions{}); err != nil {
			return ThroughputResult{}, err
		}
	}

	payload := make([]byte, cfg.MsgSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	metricsBefore := srv.Engine().Metrics().Snapshot()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for _, c := range clients {
		for p := 0; p < cfg.Pipeline; p++ {
			wg.Add(1)
			go func(c *client.Client) {
				defer wg.Done()
				for {
					select {
					case <-stop:
						return
					default:
					}
					// bcastState, so the measured workload is a pure
					// message stream (updates would grow one object
					// without bound, which measures memory growth
					// rather than the multicast path).
					if _, err := c.BcastState(group, "o", payload, false); err != nil {
						return
					}
				}
			}(c)
		}
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	metricsAfter := srv.Engine().Metrics().Snapshot()
	var memAfter runtime.MemStats
	runtime.ReadMemStats(&memAfter)

	msgs := metricsAfter.Counters["engine.bcasts"] - metricsBefore.Counters["engine.bcasts"]
	delivered := metricsAfter.Counters["engine.delivered"] - metricsBefore.Counters["engine.delivered"]
	secs := elapsed.Seconds()
	res := ThroughputResult{
		IngestedKBps:  float64(msgs) * float64(cfg.MsgSize) / 1024 / secs,
		DeliveredKBps: float64(delivered) * float64(cfg.MsgSize) / 1024 / secs,
		Messages:      msgs,
	}
	res.AvgIngestBatch, res.AvgDeliveryBatch = batchMeans(metricsBefore, metricsAfter)
	if msgs > 0 {
		res.AllocsPerMsg = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(msgs)
	}
	return res, nil
}

// Table1Row is one row of the reproduced Table 1. Allocs1K/Allocs10K are
// process-wide heap allocations per multicast (see
// ThroughputResult.AllocsPerMsg).
type Table1Row struct {
	Config    string
	KBps1K    float64
	KBps10K   float64
	Allocs1K  float64
	Allocs10K float64
	// Batch1K/Batch10K are the mean ingest batch sizes at each message
	// size (AvgIngestBatch): how much of the blast the adaptive drain
	// actually coalesced.
	Batch1K  float64
	Batch10K float64
}

// RunTable1 measures every logging policy at both message sizes. The
// always-sync row is the group-commit stress case: each client pipeline
// blocks on durability, so throughput there measures how many appends one
// fsync amortizes.
func RunTable1(clients int, duration time.Duration, dir string) ([]Table1Row, error) {
	rows := []struct {
		name string
		dir  string
		sync wal.SyncPolicy
	}{
		{"memory-only logging", "", wal.SyncNever},
		{"disk logging (interval sync)", dir, wal.SyncInterval},
		{"disk logging (always sync)", dir, wal.SyncAlways},
	}
	var out []Table1Row
	for i, r := range rows {
		row := Table1Row{Config: r.name}
		for _, size := range []int{1000, 10000} {
			benchDir := r.dir
			if benchDir != "" {
				benchDir = fmt.Sprintf("%s/t1-%d-%d", r.dir, i, size)
			}
			res, err := RunThroughput(ThroughputConfig{
				Clients: clients, MsgSize: size, Duration: duration,
				Dir: benchDir, Sync: r.sync,
			})
			if err != nil {
				return out, fmt.Errorf("%s size %d: %w", r.name, size, err)
			}
			if size == 1000 {
				row.KBps1K = res.IngestedKBps
				row.Allocs1K = res.AllocsPerMsg
				row.Batch1K = res.AvgIngestBatch
			} else {
				row.KBps10K = res.IngestedKBps
				row.Allocs10K = res.AllocsPerMsg
				row.Batch10K = res.AvgIngestBatch
			}
		}
		out = append(out, row)
	}
	return out, nil
}

// PrintTable1 renders the reproduced Table 1.
func PrintTable1(w io.Writer, rows []Table1Row, clients int) {
	fmt.Fprintf(w, "Table 1: server throughput (KB/s), %d blasting clients\n", clients)
	fmt.Fprintf(w, "(paper rows: UltraSparc vs quad Pentium II; reproduced axis: logging policy)\n")
	fmt.Fprintf(w, "%-32s %-10s %-10s %-12s %-12s %-10s %-10s\n", "server configuration", "1000 B", "10000 B", "allocs/msg", "allocs/msg", "batch", "batch")
	for _, r := range rows {
		fmt.Fprintf(w, "%-32s %-10.0f %-10.0f %-12.1f %-12.1f %-10.1f %-10.1f\n",
			r.Config, r.KBps1K, r.KBps10K, r.Allocs1K, r.Allocs10K, r.Batch1K, r.Batch10K)
	}
}
