package bench

import (
	"fmt"
	"io"
	"os"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/wire"
)

// osReadDir is an alias kept for testability of walSize.
var osReadDir = os.ReadDir

// JoinTransferConfig parameterizes ablation A1: join latency under each
// state-transfer policy as the group's history grows. This quantifies the
// paper's "customized state transfer" motivation — a client on a slow link
// asks for the latest N updates or a single object instead of everything.
type JoinTransferConfig struct {
	// History is the number of updates accumulated before measuring.
	History int
	// UpdateSize is each update's payload size.
	UpdateSize int
	// Objects is the number of distinct objects the updates spread over.
	Objects int
	// LastN is the window for the TransferLastN policy.
	LastN uint32
	// Joins is the number of timed join/leave cycles per policy.
	Joins int
}

// JoinTransferRow is one measured policy.
type JoinTransferRow struct {
	Policy string
	// Bytes is the approximate transfer payload (objects + events).
	Bytes int
	Stats LatencyStats
}

// RunJoinTransfer builds a group with the configured history on a single
// stateful server and measures join latency under each policy.
func RunJoinTransfer(cfg JoinTransferConfig) ([]JoinTransferRow, error) {
	if cfg.History <= 0 {
		cfg.History = 2000
	}
	if cfg.UpdateSize <= 0 {
		cfg.UpdateSize = 500
	}
	if cfg.Objects <= 0 {
		cfg.Objects = 8
	}
	if cfg.LastN == 0 {
		cfg.LastN = 20
	}
	if cfg.Joins <= 0 {
		cfg.Joins = 30
	}

	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{Logger: quietLogger()}})
	if err != nil {
		return nil, err
	}
	defer srv.Close()
	srv.Start()
	addr := srv.Addr().String()

	const group = "history"
	writer, err := client.Dial(client.Config{Addr: addr, Name: "writer"})
	if err != nil {
		return nil, err
	}
	defer writer.Close()
	if err := writer.CreateGroup(group, true, nil); err != nil {
		return nil, err
	}
	if _, err := writer.Join(group, client.JoinOptions{}); err != nil {
		return nil, err
	}
	payload := make([]byte, cfg.UpdateSize)
	for i := 0; i < cfg.History; i++ {
		obj := fmt.Sprintf("obj-%d", i%cfg.Objects)
		if _, err := writer.BcastUpdate(group, obj, payload, false); err != nil {
			return nil, err
		}
	}

	policies := []struct {
		name   string
		policy wire.TransferPolicy
	}{
		{"full state", wire.FullTransfer},
		{fmt.Sprintf("last %d updates", cfg.LastN), wire.TransferPolicy{Mode: wire.TransferLastN, LastN: cfg.LastN}},
		{"single object", wire.TransferPolicy{Mode: wire.TransferObjects, Objects: []string{"obj-0"}}},
		{"no transfer", wire.TransferPolicy{Mode: wire.TransferNone}},
	}

	var rows []JoinTransferRow
	for _, p := range policies {
		joiner, err := client.Dial(client.Config{Addr: addr, Name: "joiner"})
		if err != nil {
			return rows, err
		}
		rec := NewRecorder()
		var bytes int
		for i := 0; i < cfg.Joins; i++ {
			start := time.Now()
			res, err := joiner.Join(group, client.JoinOptions{Policy: p.policy})
			if err != nil {
				joiner.Close()
				return rows, fmt.Errorf("%s join %d: %w", p.name, i, err)
			}
			rec.Record(time.Since(start))
			if i == 0 {
				for _, o := range res.Objects {
					bytes += len(o.Data)
				}
				for _, ev := range res.Events {
					bytes += len(ev.Data)
				}
			}
			if err := joiner.Leave(group); err != nil {
				joiner.Close()
				return rows, err
			}
		}
		joiner.Close()
		rows = append(rows, JoinTransferRow{Policy: p.name, Bytes: bytes, Stats: rec.Stats()})
	}
	return rows, nil
}

// PrintJoinTransfer renders ablation A1.
func PrintJoinTransfer(w io.Writer, rows []JoinTransferRow, cfg JoinTransferConfig) {
	fmt.Fprintf(w, "Ablation A1: join latency by state-transfer policy\n")
	fmt.Fprintf(w, "(history: %d updates x %d bytes over %d objects)\n", cfg.History, cfg.UpdateSize, cfg.Objects)
	fmt.Fprintf(w, "%-22s %-16s %-14s %-14s\n", "policy", "transfer bytes", "mean (ms)", "p95 (ms)")
	for _, r := range rows {
		fmt.Fprintf(w, "%-22s %-16d %-14s %-14s\n", r.Policy, r.Bytes, Millis(r.Stats.Mean), Millis(r.Stats.P95))
	}
}

// LogReductionResult reports ablation A2: the effect of state-log
// reduction on the retained history, the join-time transfer, and the
// on-disk log.
type LogReductionResult struct {
	HistoryBefore   int
	HistoryAfter    int
	JoinFullBefore  LatencyStats
	JoinFullAfter   LatencyStats
	JoinLastNBefore LatencyStats
	JoinLastNAfter  LatencyStats
	WALBytesBefore  int64
	WALBytesAfter   int64
}

// RunLogReduction builds a persistent group with a long update history,
// measures joins, reduces the log, and measures again.
func RunLogReduction(history, updateSize, joins int, dir string) (LogReductionResult, error) {
	if history <= 0 {
		history = 2000
	}
	if updateSize <= 0 {
		updateSize = 500
	}
	if joins <= 0 {
		joins = 20
	}
	var res LogReductionResult

	// Small segments so a post-checkpoint truncation visibly reclaims
	// disk (whole segments are the GC unit).
	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Dir: dir, SegmentSize: 128 << 10, Logger: quietLogger(),
	}})
	if err != nil {
		return res, err
	}
	defer srv.Close()
	srv.Start()
	addr := srv.Addr().String()

	const group = "reducible"
	writer, err := client.Dial(client.Config{Addr: addr, Name: "writer"})
	if err != nil {
		return res, err
	}
	defer writer.Close()
	if err := writer.CreateGroup(group, true, nil); err != nil {
		return res, err
	}
	if _, err := writer.Join(group, client.JoinOptions{}); err != nil {
		return res, err
	}
	payload := make([]byte, updateSize)
	for i := 0; i < history; i++ {
		if _, err := writer.BcastUpdate(group, "o", payload, false); err != nil {
			return res, err
		}
	}

	measureJoin := func(policy wire.TransferPolicy) (LatencyStats, error) {
		joiner, err := client.Dial(client.Config{Addr: addr, Name: "joiner"})
		if err != nil {
			return LatencyStats{}, err
		}
		defer joiner.Close()
		rec := NewRecorder()
		for i := 0; i < joins; i++ {
			start := time.Now()
			if _, err := joiner.Join(group, client.JoinOptions{Policy: policy}); err != nil {
				return LatencyStats{}, err
			}
			rec.Record(time.Since(start))
			if err := joiner.Leave(group); err != nil {
				return LatencyStats{}, err
			}
		}
		return rec.Stats(), nil
	}

	lastN := wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 10}
	res.HistoryBefore = history
	if res.JoinFullBefore, err = measureJoin(wire.FullTransfer); err != nil {
		return res, err
	}
	if res.JoinLastNBefore, err = measureJoin(lastN); err != nil {
		return res, err
	}
	res.WALBytesBefore = walSize(dir)

	_, trimmed, err := writer.ReduceLog(group, 0)
	if err != nil {
		return res, err
	}
	res.HistoryAfter = history - int(trimmed)

	if res.JoinFullAfter, err = measureJoin(wire.FullTransfer); err != nil {
		return res, err
	}
	if res.JoinLastNAfter, err = measureJoin(lastN); err != nil {
		return res, err
	}
	res.WALBytesAfter = walSize(dir)
	return res, nil
}

// walSize sums the sizes of the log segments under dir (0 when no dir).
func walSize(dir string) int64 {
	if dir == "" {
		return 0
	}
	var total int64
	entries, err := osReadDir(dir)
	if err != nil {
		return 0
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			total += info.Size()
		}
	}
	return total
}

// PrintLogReduction renders ablation A2.
func PrintLogReduction(w io.Writer, r LogReductionResult) {
	fmt.Fprintf(w, "Ablation A2: state-log reduction\n")
	fmt.Fprintf(w, "%-28s %-16s %-16s\n", "", "before", "after")
	fmt.Fprintf(w, "%-28s %-16d %-16d\n", "retained history (events)", r.HistoryBefore, r.HistoryAfter)
	fmt.Fprintf(w, "%-28s %-16s %-16s\n", "join full (ms)", Millis(r.JoinFullBefore.Mean), Millis(r.JoinFullAfter.Mean))
	fmt.Fprintf(w, "%-28s %-16s %-16s\n", "join last-10 (ms)", Millis(r.JoinLastNBefore.Mean), Millis(r.JoinLastNAfter.Mean))
	if r.WALBytesBefore > 0 {
		fmt.Fprintf(w, "%-28s %-16d %-16d\n", "stable-storage log (bytes)", r.WALBytesBefore, r.WALBytesAfter)
	}
}

// measureLocalNotify times a membership change on a server reaching a
// subscriber on the same server: on a single server at once, in a cluster
// once the coordinator has ordered the change.
func measureLocalNotify(addr string, rounds int) (LatencyStats, error) {
	const group = "relaxed"
	notified := make(chan time.Time, 1)
	watcher, err := client.Dial(client.Config{
		Addr: addr, Name: "watcher",
		OnMembership: func(wire.MembershipNotify) {
			select {
			case notified <- time.Now():
			default:
			}
		},
	})
	if err != nil {
		return LatencyStats{}, err
	}
	defer watcher.Close()
	if err := watcher.CreateGroup(group, false, nil); err != nil {
		return LatencyStats{}, err
	}
	if _, err := watcher.Join(group, client.JoinOptions{Notify: true}); err != nil {
		return LatencyStats{}, err
	}
	churner, err := client.Dial(client.Config{Addr: addr, Name: "churner"})
	if err != nil {
		return LatencyStats{}, err
	}
	defer churner.Close()

	rec := NewRecorder()
	for i := 0; i < rounds; i++ {
		start := time.Now()
		if _, err := churner.Join(group, client.JoinOptions{}); err != nil {
			return LatencyStats{}, err
		}
		select {
		case at := <-notified:
			rec.Record(at.Sub(start))
		case <-time.After(10 * time.Second):
			return LatencyStats{}, fmt.Errorf("notify %d timed out", i)
		}
		if err := churner.Leave(group); err != nil {
			return LatencyStats{}, err
		}
		// Drain the leave notification.
		select {
		case <-notified:
		case <-time.After(10 * time.Second):
			return LatencyStats{}, fmt.Errorf("leave notify %d timed out", i)
		}
	}
	return rec.Stats(), nil
}
