// Command coronad runs a Corona service process in one of three roles:
//
//	coronad -role single -addr :7470 -dir /var/lib/corona
//	    A standalone stateful multicast server.
//
//	coronad -role coordinator -peer-addr :7480
//	    The coordinator of a replicated service.
//
//	coronad -role server -id 2 -addr :7471 -peer-addr :7481 -coordinator host:7480
//	    A member server of a replicated service.
//
// With -debug-addr an HTTP debug server exposes GET /metrics (a JSON
// snapshot of every instrument), GET /healthz, GET /trace, and the
// net/http/pprof profiles under /debug/pprof/. Adding -contention-profile
// turns on the runtime's mutex and blocking samplers, populating
// /debug/pprof/mutex and /debug/pprof/block — the tool for checking that
// multicasts into disjoint groups are not serializing on a shared lock.
//
// The process exits cleanly on SIGINT/SIGTERM, flushing the stable-storage
// log.
package main

import (
	"flag"
	"fmt"
	"log/slog"
	"os"
	"os/signal"
	"runtime"
	"syscall"
	"time"

	"corona/internal/cluster"
	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/wal"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "coronad:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("coronad", flag.ContinueOnError)
	var (
		role        = fs.String("role", "single", "single | coordinator | server")
		id          = fs.Uint64("id", 0, "server identity (replicated roles; must be unique)")
		addr        = fs.String("addr", "127.0.0.1:7470", "client listen address (single, server)")
		peerAddr    = fs.String("peer-addr", "127.0.0.1:7480", "peer listen address (coordinator, server)")
		coordinator = fs.String("coordinator", "", "coordinator peer address (server role)")
		dir         = fs.String("dir", "", "stable-storage directory (empty: in-memory state)")
		syncMode    = fs.String("sync", "interval", "log durability: never | interval | always")
		stateless   = fs.Bool("stateless", false, "run the sequencer-only baseline (no state, no log)")
		autoReduce  = fs.Int("auto-reduce", 8192, "state-log reduction threshold in events (0: disabled)")
		fanout      = fs.Int("fanout-shards", 0, "fanout worker shards for off-lock delivery (0: GOMAXPROCS-derived)")
		debugAddr   = fs.String("debug-addr", "", "HTTP debug listen address serving /metrics, /healthz, /trace, /debug/pprof/ (empty: disabled)")
		contention  = fs.Bool("contention-profile", false, "record mutex and blocking profiles, served at /debug/pprof/mutex and /debug/pprof/block (adds sampling overhead)")
		replicas    = fs.Int("replicas", 0, "replication floor the placement manager maintains per group (replicated roles; 0: default 2)")
		rebalance   = fs.Duration("rebalance-interval", 0, "load-aware rebalance cadence (replicated roles; 0: 4x heartbeat, negative: disabled)")
		verbose     = fs.Bool("v", false, "debug logging")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}

	level := slog.LevelInfo
	if *verbose {
		level = slog.LevelDebug
	}
	logger := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	var sync wal.SyncPolicy
	switch *syncMode {
	case "never":
		sync = wal.SyncNever
	case "interval":
		sync = wal.SyncInterval
	case "always":
		sync = wal.SyncAlways
	default:
		return fmt.Errorf("unknown sync mode %q", *syncMode)
	}

	if *contention {
		// 1-in-1000 mutex contention events and all blocking events of
		// at least 10µs: cheap enough to leave on while chasing lock
		// contention in the multicast path, without -debug-addr the data
		// is still reachable via a later SIGQUIT stack dump or attach.
		runtime.SetMutexProfileFraction(1000)
		runtime.SetBlockProfileRate(int(10 * time.Microsecond / time.Nanosecond))
	}

	sig := make(chan os.Signal, 1)
	signal.Notify(sig, syscall.SIGINT, syscall.SIGTERM)

	if *debugAddr != "" {
		ds, err := obs.ServeDebug(*debugAddr, obs.Default)
		if err != nil {
			return fmt.Errorf("debug server: %w", err)
		}
		defer ds.Close()
		logger.Info("debug server running", "addr", ds.Addr())
	}

	switch *role {
	case "single":
		srv, err := core.NewServer(core.Config{
			Addr: *addr,
			Engine: core.EngineConfig{
				Dir: *dir, Sync: sync, Stateless: *stateless,
				AutoReduceThreshold: *autoReduce, Logger: logger,
				FanoutShards: *fanout,
				Metrics:      obs.Default,
			},
		})
		if err != nil {
			return err
		}
		srv.Start()
		logger.Info("corona server running", "addr", srv.Addr().String(), "stateful", !*stateless, "dir", *dir)
		<-sig
		logger.Info("shutting down")
		return srv.Close()

	case "coordinator":
		coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
			ID: orDefault(*id, 1), PeerAddr: *peerAddr, Logger: logger,
			Placement: cluster.PlacementConfig{
				Replicas: *replicas, RebalanceInterval: *rebalance,
			},
		})
		if err != nil {
			return err
		}
		coord.Start()
		logger.Info("corona coordinator running", "peer-addr", coord.Addr())
		<-sig
		logger.Info("shutting down")
		return coord.Close()

	case "server":
		if *coordinator == "" {
			return fmt.Errorf("-coordinator is required for -role server")
		}
		if *id == 0 {
			return fmt.Errorf("-id is required for -role server")
		}
		srv, err := cluster.NewServer(cluster.ServerConfig{
			ID:              *id,
			ClientAddr:      *addr,
			PeerAddr:        *peerAddr,
			CoordinatorAddr: *coordinator,
			Engine: core.EngineConfig{
				Dir: *dir, Sync: sync,
				AutoReduceThreshold: *autoReduce,
				FanoutShards:        *fanout,
				Metrics:             obs.Default,
			},
			Placement: cluster.PlacementConfig{
				Replicas: *replicas, RebalanceInterval: *rebalance,
			},
			Logger: logger,
		})
		if err != nil {
			return err
		}
		if err := srv.Start(); err != nil {
			// Registration may lag the coordinator's start; the link
			// loop keeps retrying.
			logger.Warn("initial coordinator registration failed; retrying in background", "err", err)
		}
		logger.Info("corona cluster server running",
			"client-addr", srv.ClientAddr(), "peer-addr", srv.PeerAddr(), "coordinator", *coordinator)
		<-sig
		logger.Info("shutting down")
		return srv.Close()

	default:
		return fmt.Errorf("unknown role %q", *role)
	}
}

func orDefault(v, def uint64) uint64 {
	if v == 0 {
		return def
	}
	return v
}
