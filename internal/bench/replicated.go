package bench

import (
	"fmt"
	"io"

	"corona/internal/cluster"
)

// Table2Config parameterizes the single-vs-replicated latency experiment
// (paper Table 2: round-trip delay for a 1000-byte multicast at 100, 200,
// and 300 clients; single server vs. a coordinator with six servers).
type Table2Config struct {
	ClientCounts []int
	Servers      int
	MsgSize      int
	Messages     int
}

// Table2Row is one measured row.
type Table2Row struct {
	Clients    int
	Single     LatencyStats
	Replicated LatencyStats
}

// replicatedCluster boots a coordinator plus n member servers for
// benchmarking and returns the client addresses plus a shutdown func.
func replicatedCluster(n int) (addrs []string, shutdown func(), err error) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{Logger: quietLogger()})
	if err != nil {
		return nil, nil, err
	}
	coord.Start()
	var servers []*cluster.Server
	shutdown = func() {
		for _, s := range servers {
			s.Close()
		}
		coord.Close()
	}
	for i := 0; i < n; i++ {
		s, err := cluster.NewServer(cluster.ServerConfig{
			ID:              uint64(i + 2),
			CoordinatorAddr: coord.Addr(),
			Logger:          quietLogger(),
			DisableElection: true,
		})
		if err != nil {
			shutdown()
			return nil, nil, err
		}
		if err := s.Start(); err != nil {
			shutdown()
			return nil, nil, err
		}
		servers = append(servers, s)
		addrs = append(addrs, s.ClientAddr())
	}
	return addrs, shutdown, nil
}

// RunReplicatedRTT measures the probe round trip against a replicated
// service with the receivers spread evenly over the member servers.
func RunReplicatedRTT(servers int, cfg RTTConfig) (LatencyStats, error) {
	cfg.setDefaults()
	addrs, shutdown, err := replicatedCluster(servers)
	if err != nil {
		return LatencyStats{}, err
	}
	defer shutdown()
	return runRTTProbe(addrs[0], cfg, addrs)
}

// RunTable2 measures both columns across the configured client counts.
func RunTable2(cfg Table2Config) ([]Table2Row, error) {
	if len(cfg.ClientCounts) == 0 {
		cfg.ClientCounts = []int{100, 200, 300}
	}
	if cfg.Servers <= 0 {
		cfg.Servers = 6
	}
	var out []Table2Row
	for _, n := range cfg.ClientCounts {
		base := RTTConfig{
			Clients: n, MsgSize: cfg.MsgSize, Messages: cfg.Messages, Stateful: true,
		}
		single, err := RunSingleServerRTT(base)
		if err != nil {
			return out, fmt.Errorf("single n=%d: %w", n, err)
		}
		repl, err := RunReplicatedRTT(cfg.Servers, base)
		if err != nil {
			return out, fmt.Errorf("replicated n=%d: %w", n, err)
		}
		out = append(out, Table2Row{Clients: n, Single: single, Replicated: repl})
	}
	return out, nil
}

// PrintTable2 renders the reproduced Table 2.
func PrintTable2(w io.Writer, rows []Table2Row, servers, msgSize int) {
	fmt.Fprintf(w, "Table 2: round-trip delay (ms) for a %d-byte multicast,\n", msgSize)
	fmt.Fprintf(w, "single server vs coordinator + %d servers\n", servers)
	fmt.Fprintf(w, "%-12s %-16s %-16s\n", "#clients", "single (ms)", "replicated (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-12d %-16s %-16s\n", r.Clients, Millis(r.Single.Mean), Millis(r.Replicated.Mean))
	}
}

// RelaxedResult reports the A3 ablation: the latency of a data multicast
// through the coordinator vs. a membership change reaching a subscriber on
// the joiner's own server. §4.1 lets membership changes be delivered
// locally first; here they are ordered through the coordinator like a
// multicast, so the second path measures what that ordering costs.
type RelaxedResult struct {
	StrictData   LatencyStats
	MemberNotify LatencyStats
}

// RunRelaxed measures both paths on a two-server cluster.
func RunRelaxed(messages int) (RelaxedResult, error) {
	if messages <= 0 {
		messages = 100
	}
	addrs, shutdown, err := replicatedCluster(2)
	if err != nil {
		return RelaxedResult{}, err
	}
	defer shutdown()

	// Data RTT through the coordinator.
	strict, err := runRTTProbe(addrs[0], RTTConfig{
		Clients: 1, MsgSize: 1000, Messages: messages, Stateful: true,
	}, []string{addrs[0], addrs[0]})
	if err != nil {
		return RelaxedResult{}, err
	}

	// A join notifying a same-server subscriber once it is ordered.
	notify, err := measureLocalNotify(addrs[0], messages)
	if err != nil {
		return RelaxedResult{}, err
	}
	return RelaxedResult{StrictData: strict, MemberNotify: notify}, nil
}

// PrintRelaxed renders the A3 ablation.
func PrintRelaxed(w io.Writer, r RelaxedResult) {
	fmt.Fprintf(w, "Ablation A3: a multicast vs a membership change, both ordered by the coordinator\n")
	fmt.Fprintf(w, "%-40s %-14s\n", "path", "mean (ms)")
	fmt.Fprintf(w, "%-40s %-14s\n", "data multicast (via coordinator)", Millis(r.StrictData.Mean))
	fmt.Fprintf(w, "%-40s %-14s\n", "membership notify (via coordinator)", Millis(r.MemberNotify.Mean))
}
