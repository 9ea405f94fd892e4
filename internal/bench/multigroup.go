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
	"corona/internal/wal"
	"corona/internal/wire"
)

// MultigroupConfig parameterizes the multi-group scaling experiment: the
// same aggregate number of blasting pipelines, spread over a growing number
// of disjoint groups. Groups are independent ordering domains, so with the
// sharded engine the points should scale with available cores until
// another resource (network stack, disk, allocator) saturates; under the
// old coarse engine mutex the curve was flat by construction.
type MultigroupConfig struct {
	// GroupCounts are the points to measure (default 1, 2, 4, 8).
	GroupCounts []int
	// ClientsPerGroup is the number of members blasting into each group
	// (default 2).
	ClientsPerGroup int
	// MsgSize is the multicast payload size (default 1000).
	MsgSize int
	// Duration is the blast length per point.
	Duration time.Duration
	// Pipeline is the number of in-flight multicasts per client.
	Pipeline int
	// Dir enables disk logging ("" = memory only, the pure
	// lock-contention probe).
	Dir string
	// Sync is the log durability policy when Dir is set.
	Sync wal.SyncPolicy
}

// MultigroupPoint is one measured group count.
type MultigroupPoint struct {
	// Groups is the number of disjoint groups blasted concurrently.
	Groups int
	// IngestedKBps is the aggregate multicast submission rate across all
	// groups.
	IngestedKBps float64
	// MsgsPerSec is the aggregate sequencing rate.
	MsgsPerSec float64
	// Scaling is IngestedKBps relative to the first measured point.
	Scaling float64
	// AllocsPerMsg is process-wide heap allocations per multicast (see
	// ThroughputResult.AllocsPerMsg).
	AllocsPerMsg float64
	// AvgIngestBatch / AvgDeliveryBatch are the mean ingest and fanout
	// batch sizes (see ThroughputResult).
	AvgIngestBatch   float64
	AvgDeliveryBatch float64
}

// RunMultigroup measures aggregate throughput at each group count, each on
// a fresh server.
func RunMultigroup(cfg MultigroupConfig) ([]MultigroupPoint, error) {
	if len(cfg.GroupCounts) == 0 {
		cfg.GroupCounts = []int{1, 2, 4, 8}
	}
	if cfg.ClientsPerGroup <= 0 {
		cfg.ClientsPerGroup = 2
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
	var out []MultigroupPoint
	for i, n := range cfg.GroupCounts {
		dir := cfg.Dir
		if dir != "" {
			dir = fmt.Sprintf("%s/mg-%d", cfg.Dir, n)
		}
		p, err := runMultigroupPoint(cfg, n, dir)
		if err != nil {
			return out, fmt.Errorf("groups=%d: %w", n, err)
		}
		if i == 0 {
			p.Scaling = 1
		} else if out[0].IngestedKBps > 0 {
			p.Scaling = p.IngestedKBps / out[0].IngestedKBps
		}
		out = append(out, p)
	}
	return out, nil
}

func runMultigroupPoint(cfg MultigroupConfig, groups int, dir string) (MultigroupPoint, error) {
	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Dir:                 dir,
		Sync:                cfg.Sync,
		Logger:              quietLogger(),
		AutoReduceThreshold: 4096,
	}})
	if err != nil {
		return MultigroupPoint{}, err
	}
	defer srv.Close()
	srv.Start()
	addr := srv.Addr().String()

	var clients []*client.Client
	defer func() {
		for _, c := range clients {
			c.Close()
		}
	}()
	// groupClients[g] are the members of group g; each group is disjoint.
	groupClients := make([][]*client.Client, groups)
	for g := 0; g < groups; g++ {
		group := fmt.Sprintf("mg-%d", g)
		for i := 0; i < cfg.ClientsPerGroup; i++ {
			c, err := client.Dial(client.Config{Addr: addr, Name: fmt.Sprintf("mg-%d-%d", g, i)})
			if err != nil {
				return MultigroupPoint{}, err
			}
			clients = append(clients, c)
			groupClients[g] = append(groupClients[g], c)
			if i == 0 {
				if err := c.CreateGroup(group, true, nil); err != nil {
					var se *client.ServerError
					if !errors.As(err, &se) || se.Code != wire.CodeGroupExists {
						return MultigroupPoint{}, err
					}
				}
			}
			if _, err := c.Join(group, client.JoinOptions{}); err != nil {
				return MultigroupPoint{}, err
			}
		}
	}

	payload := make([]byte, cfg.MsgSize)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	metricsBefore := srv.Engine().Metrics().Snapshot()
	var memBefore runtime.MemStats
	runtime.ReadMemStats(&memBefore)
	start := time.Now()
	for g := 0; g < groups; g++ {
		group := fmt.Sprintf("mg-%d", g)
		for _, c := range groupClients[g] {
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
						if _, err := c.BcastState(group, "o", payload, false); err != nil {
							return
						}
					}
				}(c)
			}
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
	secs := elapsed.Seconds()
	p := MultigroupPoint{
		Groups:       groups,
		IngestedKBps: float64(msgs) * float64(cfg.MsgSize) / 1024 / secs,
		MsgsPerSec:   float64(msgs) / secs,
	}
	p.AvgIngestBatch, p.AvgDeliveryBatch = batchMeans(metricsBefore, metricsAfter)
	if msgs > 0 {
		p.AllocsPerMsg = float64(memAfter.Mallocs-memBefore.Mallocs) / float64(msgs)
	}
	return p, nil
}

// PrintMultigroup renders the multi-group scaling table.
func PrintMultigroup(w io.Writer, points []MultigroupPoint, cfg MultigroupConfig) {
	policy := "memory-only"
	if cfg.Dir != "" {
		policy = "disk logging (" + cfg.Sync.String() + " sync)"
	}
	fmt.Fprintf(w, "Multi-group scaling: %d blasters per group, %d B messages, %s, GOMAXPROCS=%d\n",
		cfg.ClientsPerGroup, cfg.MsgSize, policy, runtime.GOMAXPROCS(0))
	fmt.Fprintf(w, "%-8s %-14s %-12s %-9s %-12s %-8s %-8s\n", "groups", "KB/s", "msgs/s", "scaling", "allocs/msg", "ingest", "deliver")
	for _, p := range points {
		fmt.Fprintf(w, "%-8d %-14.0f %-12.0f %-9.2f %-12.1f %-8.1f %-8.1f\n",
			p.Groups, p.IngestedKBps, p.MsgsPerSec, p.Scaling, p.AllocsPerMsg, p.AvgIngestBatch, p.AvgDeliveryBatch)
	}
}
