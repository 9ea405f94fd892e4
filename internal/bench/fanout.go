package bench

import (
	"fmt"
	"io"
	"runtime"
	"sync"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/obs"
)

// FanoutConfig parameterizes the wide-group fanout sweep: one sender
// blasting into a single group whose membership grows 8 → 1024. The
// experiment checks what the off-lock sharded pipeline promises: the group
// critical section stays flat as the receiver set grows, because delivery
// runs off-lock. (The inline fanout-under-lock baseline it was first
// measured against is gone; its rows are recorded in EXPERIMENTS.md A8.)
type FanoutConfig struct {
	// Members are the group sizes to measure (default 8, 64, 256, 1024).
	// One member is the blasting sender (excluded from delivery); the
	// rest are receivers.
	Members []int
	// MsgSize is the multicast payload size (default 1000).
	MsgSize int
	// Duration is the blast length per point.
	Duration time.Duration
	// Pipeline is the number of in-flight multicasts from the sender.
	Pipeline int
	// PumpDepth overrides the per-receiver outbound queue depth (default
	// 8192: wide fanout into a single-core receiver pool needs headroom,
	// and a kicked slow receiver would distort the delivered rate).
	PumpDepth int
}

// FanoutPoint is the measurement at one group size.
type FanoutPoint struct {
	// Members is the group size (sender included).
	Members int
	// MsgsPerSec is the sequencing rate at the sender.
	MsgsPerSec float64
	// DeliveredKBps is the aggregate delivery rate across all receivers.
	DeliveredKBps float64
	// LockHoldP50Ns / LockHoldP99Ns summarize engine.bcast_lock_hold_ns:
	// time inside the group critical section per multicast.
	LockHoldP50Ns int64
	LockHoldP99Ns int64
	// LockWaitP99Ns summarizes engine.bcast_lock_wait_ns: time spent
	// queued for the group lock.
	LockWaitP99Ns int64
	// OfflockP99Ns summarizes engine.fanout_offlock_ns: ring-push to
	// last-shard-drained latency.
	OfflockP99Ns int64
	// RingWaits counts backpressure stalls on a full fanout ring.
	RingWaits uint64
	// AvgShardBatch is the mean entries drained per shard wakeup.
	AvgShardBatch float64
}

// RunFanout measures the sweep, a fresh server per point so one point's
// queue residue cannot bleed into the next.
func RunFanout(cfg FanoutConfig) ([]FanoutPoint, error) {
	if len(cfg.Members) == 0 {
		cfg.Members = []int{8, 64, 256, 1024}
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
	if cfg.PumpDepth <= 0 {
		cfg.PumpDepth = 8192
	}
	var out []FanoutPoint
	for _, members := range cfg.Members {
		pt, err := runFanoutPoint(cfg, members)
		if err != nil {
			return out, fmt.Errorf("members=%d: %w", members, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

func runFanoutPoint(cfg FanoutConfig, members int) (FanoutPoint, error) {
	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Logger:              quietLogger(),
		PumpDepth:           cfg.PumpDepth,
		AutoReduceThreshold: 4096,
	}})
	if err != nil {
		return FanoutPoint{}, err
	}
	defer srv.Close()
	srv.Start()
	addr := srv.Addr().String()

	var mu sync.Mutex
	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()

	sender, err := client.Dial(client.Config{Addr: addr, Name: "fo-sender"})
	if err != nil {
		return FanoutPoint{}, err
	}
	clients = append(clients, sender)
	if err := sender.CreateGroup("wide", true, nil); err != nil {
		return FanoutPoint{}, err
	}
	if _, err := sender.Join("wide", client.JoinOptions{}); err != nil {
		return FanoutPoint{}, err
	}

	// Dial and join the receiver set with bounded concurrency: at 1024
	// members a serial join loop costs more wall clock than the blast.
	receivers := members - 1
	sem := make(chan struct{}, 32)
	errCh := make(chan error, receivers)
	var jwg sync.WaitGroup
	for i := 0; i < receivers; i++ {
		jwg.Add(1)
		sem <- struct{}{}
		go func(i int) {
			defer jwg.Done()
			defer func() { <-sem }()
			c, err := client.Dial(client.Config{Addr: addr, Name: fmt.Sprintf("fo-recv-%d", i)})
			if err != nil {
				errCh <- err
				return
			}
			mu.Lock()
			clients = append(clients, c)
			mu.Unlock()
			if _, err := c.Join("wide", client.JoinOptions{}); err != nil {
				errCh <- err
			}
		}(i)
	}
	jwg.Wait()
	select {
	case err := <-errCh:
		return FanoutPoint{}, err
	default:
	}

	payload := make([]byte, cfg.MsgSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	before := srv.Engine().Metrics().Snapshot()
	start := time.Now()
	for p := 0; p < cfg.Pipeline; p++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if _, err := sender.BcastState("wide", "o", payload, false); err != nil {
					return
				}
			}
		}()
	}
	time.Sleep(cfg.Duration)
	close(stop)
	wg.Wait()
	elapsed := time.Since(start)
	metrics := srv.Engine().Metrics().Snapshot()

	msgs := metrics.Counters["engine.bcasts"] - before.Counters["engine.bcasts"]
	delivered := metrics.Counters["engine.delivered"] - before.Counters["engine.delivered"]
	secs := elapsed.Seconds()
	pt := FanoutPoint{
		Members:       members,
		MsgsPerSec:    float64(msgs) / secs,
		DeliveredKBps: float64(delivered) * float64(cfg.MsgSize) / 1024 / secs,
		RingWaits:     metrics.Counters["engine.fanout_backpressure_waits"],
	}
	// Fresh server per point: the cumulative histograms hold only this
	// blast, so the snapshot quantiles need no delta.
	pt.LockHoldP50Ns = metrics.Histograms["engine.bcast_lock_hold_ns"].P50
	pt.LockHoldP99Ns = metrics.Histograms["engine.bcast_lock_hold_ns"].P99
	pt.LockWaitP99Ns = metrics.Histograms["engine.bcast_lock_wait_ns"].P99
	pt.OfflockP99Ns = metrics.Histograms["engine.fanout_offlock_ns"].P99
	pt.AvgShardBatch = histMeanDelta(obs.HistogramSnapshot{}, metrics.Histograms["engine.fanout_shard_batch"])
	return pt, nil
}

// PrintFanout renders the wide-group sweep table.
func PrintFanout(w io.Writer, points []FanoutPoint, cfg FanoutConfig) {
	fmt.Fprintf(w, "Wide-group fanout: 1 sender, %d B messages, pipeline %d, GOMAXPROCS=%d\n",
		cfg.MsgSize, cfg.Pipeline, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-8s %-10s %-12s %-11s %-11s %-11s %-11s %-9s %-8s\n",
		"members", "msgs/s", "delivKB/s", "hold p50", "hold p99", "wait p99", "offlck p99", "ringwait", "shbatch")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %-10.0f %-12.0f %-11s %-11s %-11s %-11s %-9d %-8.1f\n",
			p.Members, p.MsgsPerSec, p.DeliveredKBps,
			nsCell(p.LockHoldP50Ns), nsCell(p.LockHoldP99Ns),
			nsCell(p.LockWaitP99Ns), nsCell(p.OfflockP99Ns),
			p.RingWaits, p.AvgShardBatch)
	}
}

// nsCell renders a nanosecond quantile compactly (µs above 10 µs).
func nsCell(ns int64) string {
	if ns >= 10_000 {
		return fmt.Sprintf("%.0fus", float64(ns)/1e3)
	}
	return fmt.Sprintf("%dns", ns)
}
