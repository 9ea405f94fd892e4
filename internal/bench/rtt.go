package bench

import (
	"errors"
	"fmt"
	"io"
	"log/slog"
	"sync/atomic"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/wal"
	"corona/internal/wire"
)

// quietLogger drops benchmark-time operational logs.
func quietLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// RTTConfig parameterizes the round-trip-delay experiment (paper Fig. 3).
// N clients join one group at a single server; N−1 are pure receivers; one
// extra client — the last to join, therefore the last in the delivery
// fanout, the paper's worst case — is both sender and receiver and measures
// the delay from sending a sender-inclusive multicast to receiving its own
// delivery.
type RTTConfig struct {
	// Clients is the number of pure receivers; the sender/receiver probe
	// client is added on top, mirroring the paper's setup.
	Clients int
	// MsgSize is the multicast payload size in bytes (paper: 1000).
	MsgSize int
	// Messages is the number of timed round trips (paper: 600).
	Messages int
	// Warmup round trips are discarded.
	Warmup int
	// Interval is the gap between successive sends (paper: 100 ms; the
	// harness defaults to a smaller gap to keep wall-clock reasonable).
	Interval time.Duration
	// Stateful selects the real Corona service; false selects the
	// sequencer-only baseline the paper compares against.
	Stateful bool
	// Dir is the stable-storage directory for the stateful service
	// (empty: in-memory state only).
	Dir string
	// Sync is the log durability policy for the stateful service.
	Sync wal.SyncPolicy
}

func (c *RTTConfig) setDefaults() {
	if c.Clients <= 0 {
		c.Clients = 10
	}
	if c.MsgSize <= 0 {
		c.MsgSize = 1000
	}
	if c.Messages <= 0 {
		c.Messages = 200
	}
	if c.Warmup < 0 {
		c.Warmup = 0
	}
	if c.Warmup == 0 {
		c.Warmup = c.Messages / 10
	}
}

// startSingle boots a standalone server for benchmarking: stateful or the
// sequencer-only baseline, with optional disk logging. It returns the
// client address and a shutdown func.
func startSingle(stateful bool, dir string, sync wal.SyncPolicy) (addr string, shutdown func(), err error) {
	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Stateless: !stateful,
		Dir:       dir,
		Sync:      sync,
		Logger:    quietLogger(),
	}})
	if err != nil {
		return "", nil, err
	}
	srv.Start()
	return srv.Addr().String(), func() { srv.Close() }, nil
}

// RunSingleServerRTT runs the Fig. 3 experiment for one configuration and
// returns the latency statistics of the probe client.
func RunSingleServerRTT(cfg RTTConfig) (LatencyStats, error) {
	cfg.setDefaults()
	addr, shutdown, err := startSingle(cfg.Stateful, cfg.Dir, cfg.Sync)
	if err != nil {
		return LatencyStats{}, err
	}
	defer shutdown()
	return runRTTProbe(addr, cfg, nil)
}

// Probe is a reusable instance of the paper's RTT methodology: N receivers
// plus one sender/receiver probe client that joined last (worst case in the
// fanout order). Both the experiment drivers and the top-level testing.B
// benchmarks run round trips through it.
type Probe struct {
	group     string
	setup     *client.Client
	receivers []*client.Client
	probe     *client.Client
	echo      chan struct{}
	payload   []byte
	received  atomic.Uint64
}

// newProbe joins clients receivers (spread over addrs round-robin) and the
// probe client (on the last address) to a fresh group. stateful controls
// whether the benchmark group is persistent at a stateful server.
func newProbe(addrs []string, clients, msgSize int, stateful bool) (*Probe, error) {
	if len(addrs) == 0 {
		return nil, fmt.Errorf("bench: no server addresses")
	}
	p := &Probe{
		group:   "bench",
		echo:    make(chan struct{}, 1),
		payload: make([]byte, msgSize),
	}
	ok := false
	defer func() {
		if !ok {
			p.Close()
		}
	}()

	setup, err := client.Dial(client.Config{Addr: addrs[0], Name: "setup"})
	if err != nil {
		return nil, err
	}
	p.setup = setup
	if err := setup.CreateGroup(p.group, stateful, nil); err != nil {
		// A persistent benchmark group recovered from a reused data
		// directory (testing.B re-runs the same function during
		// calibration) is fine: keep multicasting into it.
		var se *client.ServerError
		if !errors.As(err, &se) || se.Code != wire.CodeGroupExists {
			return nil, err
		}
	}
	for i := 0; i < clients; i++ {
		r, err := client.Dial(client.Config{
			Addr: addrs[i%len(addrs)],
			Name: fmt.Sprintf("recv-%d", i),
			OnEvent: func(string, wire.Event) {
				p.received.Add(1)
			},
		})
		if err != nil {
			return nil, err
		}
		p.receivers = append(p.receivers, r)
		if _, err := r.Join(p.group, client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferNone}}); err != nil {
			return nil, err
		}
	}

	// The probe client joins LAST, so its delivery is enqueued last.
	probe, err := client.Dial(client.Config{
		Addr: addrs[len(addrs)-1],
		Name: "probe",
		OnEvent: func(string, wire.Event) {
			select {
			case p.echo <- struct{}{}:
			default:
			}
		},
	})
	if err != nil {
		return nil, err
	}
	p.probe = probe
	if _, err := probe.Join(p.group, client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferNone}}); err != nil {
		return nil, err
	}
	ok = true
	return p, nil
}

// RoundTrip sends one sender-inclusive multicast and waits for the probe's
// own delivery, returning the elapsed time.
func (p *Probe) RoundTrip() (time.Duration, error) {
	start := time.Now()
	if _, err := p.probe.BcastUpdate(p.group, "o", p.payload, true); err != nil {
		return 0, err
	}
	select {
	case <-p.echo:
		return time.Since(start), nil
	case <-time.After(30 * time.Second):
		return 0, fmt.Errorf("bench: echo timed out")
	}
}

// Received returns the total deliveries observed by the receivers.
func (p *Probe) Received() uint64 { return p.received.Load() }

// Close disconnects every client of the probe.
func (p *Probe) Close() {
	if p.probe != nil {
		p.probe.Close()
	}
	for _, r := range p.receivers {
		r.Close()
	}
	if p.setup != nil {
		p.setup.Close()
	}
}

// runRTTProbe joins cfg.Clients receivers plus the probe client at addr
// (receivers spread over addrs when provided, probe on the last address)
// and measures round trips.
func runRTTProbe(addr string, cfg RTTConfig, addrs []string) (LatencyStats, error) {
	if len(addrs) == 0 {
		addrs = []string{addr}
	}
	p, err := newProbe(addrs, cfg.Clients, cfg.MsgSize, cfg.Stateful)
	if err != nil {
		return LatencyStats{}, err
	}
	defer p.Close()

	rec := NewRecorder()
	total := cfg.Warmup + cfg.Messages
	for i := 0; i < total; i++ {
		rtt, err := p.RoundTrip()
		if err != nil {
			return LatencyStats{}, fmt.Errorf("round trip %d: %w", i, err)
		}
		if i >= cfg.Warmup {
			rec.Record(rtt)
		}
		if cfg.Interval > 0 {
			time.Sleep(cfg.Interval)
		}
	}
	return rec.Stats(), nil
}

// Fig3Point is one measured point of the Figure 3 series.
type Fig3Point struct {
	Clients   int
	Stateful  LatencyStats
	Stateless LatencyStats
}

// Fig3Config parameterizes the full Figure 3 sweep.
type Fig3Config struct {
	// ClientCounts is the x-axis (paper: 5..60).
	ClientCounts []int
	MsgSize      int
	Messages     int
	Interval     time.Duration
	// Dir enables disk logging for the stateful series, matching the
	// paper ("both in memory and on the disk"). Empty keeps state in
	// memory only.
	Dir string
}

// RunFig3 measures the stateful and stateless series across client counts.
func RunFig3(cfg Fig3Config) ([]Fig3Point, error) {
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = []int{5, 10, 20, 30, 40, 50, 60}
	}
	points := make([]Fig3Point, 0, len(cfg.ClientCounts))
	for _, n := range cfg.ClientCounts {
		base := RTTConfig{
			Clients: n, MsgSize: cfg.MsgSize,
			Messages: cfg.Messages, Interval: cfg.Interval,
		}
		stateful := base
		stateful.Stateful = true
		if cfg.Dir != "" {
			// A fresh directory per point: the persistent benchmark
			// group must not leak across runs through recovery.
			stateful.Dir = fmt.Sprintf("%s/n%d", cfg.Dir, n)
		}
		sf, err := RunSingleServerRTT(stateful)
		if err != nil {
			return points, fmt.Errorf("stateful n=%d: %w", n, err)
		}
		stateless := base
		sl, err := RunSingleServerRTT(stateless)
		if err != nil {
			return points, fmt.Errorf("stateless n=%d: %w", n, err)
		}
		points = append(points, Fig3Point{Clients: n, Stateful: sf, Stateless: sl})
	}
	return points, nil
}

// PrintFig3 renders the series the way the paper plots them.
func PrintFig3(w io.Writer, points []Fig3Point, msgSize int) {
	fmt.Fprintf(w, "Figure 3: round-trip delay vs #clients (msg %d bytes), single server\n", msgSize)
	fmt.Fprintf(w, "%-10s %-18s %-18s\n", "#clients", "stateful (ms)", "stateless (ms)")
	for _, p := range points {
		fmt.Fprintf(w, "%-10d %-18s %-18s\n", p.Clients, Millis(p.Stateful.Mean), Millis(p.Stateless.Mean))
	}
}

// SizeSweepPoint is one measured point of the §5.2 message-size sweep.
type SizeSweepPoint struct {
	MsgSize int
	Stats   LatencyStats
}

// RunSizeSweep measures RTT across message sizes at a fixed client count
// (the textual experiment of §5.2: sizes up to a few hundred bytes barely
// matter; 1000+ bytes show, and 10000 bytes steepen the slope).
func RunSizeSweep(clients int, sizes []int, messages int) ([]SizeSweepPoint, error) {
	if len(sizes) == 0 {
		sizes = []int{100, 400, 1000, 4000, 10000}
	}
	out := make([]SizeSweepPoint, 0, len(sizes))
	for _, size := range sizes {
		st, err := RunSingleServerRTT(RTTConfig{
			Clients: clients, MsgSize: size, Messages: messages, Stateful: true,
		})
		if err != nil {
			return out, fmt.Errorf("size %d: %w", size, err)
		}
		out = append(out, SizeSweepPoint{MsgSize: size, Stats: st})
	}
	return out, nil
}

// PrintSizeSweep renders the size sweep.
func PrintSizeSweep(w io.Writer, points []SizeSweepPoint, clients int) {
	fmt.Fprintf(w, "Message-size sweep (§5.2): RTT vs size, %d receivers, stateful single server\n", clients)
	fmt.Fprintf(w, "%-12s %-14s %-14s %-14s\n", "size (B)", "mean (ms)", "p50 (ms)", "p95 (ms)")
	for _, p := range points {
		fmt.Fprintf(w, "%-12d %-14s %-14s %-14s\n", p.MsgSize, Millis(p.Stats.Mean), Millis(p.Stats.P50), Millis(p.Stats.P95))
	}
}
