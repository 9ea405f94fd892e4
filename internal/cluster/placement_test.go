package cluster_test

// Placement subsystem tests: proactive replication, coordinator-directed
// live migration under broadcast load, migration racing a concurrent join,
// and rebalance under churn. These drive the ISSUE 6 acceptance criteria:
// deliveries stay gapless across a cutover, replica images converge
// byte-identically, and every group keeps >=2 live replicas after a crash
// without any client-driven join.

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/wire"
)

// startPlacementCluster is startCluster with an explicit placement config.
func startPlacementCluster(t *testing.T, n int, pc cluster.PlacementConfig) *testCluster {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       250 * time.Millisecond,
		Placement:         pc,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	tc := &testCluster{coord: coord}
	t.Cleanup(func() {
		for _, s := range tc.servers {
			s.Close()
		}
		coord.Close()
	})
	for i := 0; i < n; i++ {
		tc.addServer(t)
	}
	return tc
}

// replicaHolders returns the indexes of servers whose engine holds a live
// replica of the group.
func replicaHolders(tc *testCluster, group string) []int {
	var out []int
	for i, s := range tc.servers {
		if s.Engine().HasGroup(group) {
			out = append(out, i)
		}
	}
	return out
}

// backupAndSpare waits until the coordinator counts two replicas of the
// group in a three-server cluster, the creating server 0's and a backup's,
// and returns the backup's index and that of the server holding none. It asks
// the coordinator, not the engines: a migration's source must be a replica
// the coordinator knows of. Server IDs are indexes plus 2.
func backupAndSpare(t *testing.T, tc *testCluster, group string, timeout time.Duration) (backup, spare int) {
	t.Helper()
	var ids []uint64
	waitFor(t, timeout, func() bool {
		ids = tc.coord.Replicas(group)
		return len(ids) == 2 && ids[0] == 2
	})
	backup = int(ids[1]) - 2
	return backup, 3 - backup
}

// imagesConverged reports whether every live replica of the group carries
// the same digest and next sequence number as the reference server.
func imagesConverged(tc *testCluster, group string, ref int, skip map[int]bool) bool {
	_, want, ok := tc.servers[ref].Engine().GroupImage(group)
	if !ok {
		return false
	}
	for i, s := range tc.servers {
		if i == ref || skip[i] || !s.Engine().HasGroup(group) {
			continue
		}
		_, cp, ok := s.Engine().GroupImage(group)
		if !ok || cp.Digest != want.Digest || cp.NextSeq != want.NextSeq {
			return false
		}
	}
	return true
}

// assertContiguous fails unless the events carry sequence numbers
// from..from+len-1 in order.
func assertContiguous(t *testing.T, events []wire.Event, from uint64) {
	t.Helper()
	for i, ev := range events {
		if ev.Seq != from+uint64(i) {
			t.Fatalf("delivery gap: event %d has seq %d, want %d", i, ev.Seq, from+uint64(i))
		}
	}
}

// TestProactiveReplicationAfterCrash verifies the availability floor without
// client help: when the single server hosting a group's only surplus replica
// crashes, the coordinator must re-establish >=2 live replicas on the
// survivors with no client-driven join.
func TestProactiveReplicationAfterCrash(t *testing.T) {
	tc := startPlacementCluster(t, 3, cluster.PlacementConfig{
		Replicas: 2, RebalanceInterval: 100 * time.Millisecond,
	})
	a := dialTo(t, tc.servers[0], "a", nil)
	if err := a.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastState("g", "o", []byte("payload"), false); err != nil {
		t.Fatal(err)
	}
	// Proactive: a second replica appears although no election-triggering
	// event occurred and no other client joined.
	waitFor(t, 5*time.Second, func() bool { return len(replicaHolders(tc, "g")) >= 2 })

	holders := replicaHolders(tc, "g")
	var backupIdx = -1
	for _, i := range holders {
		if i != 0 {
			backupIdx = i
		}
	}
	if backupIdx < 0 {
		t.Fatalf("no surplus replica beyond the member server, holders = %v", holders)
	}
	// Crash the backup holder; coverage must be restored on the remaining
	// idle server automatically.
	tc.servers[backupIdx].Close()
	waitFor(t, 5*time.Second, func() bool {
		n := 0
		for i, s := range tc.servers {
			if i != backupIdx && s.Engine().HasGroup("g") {
				n++
			}
		}
		return n >= 2
	})
	waitFor(t, 5*time.Second, func() bool {
		return imagesConverged(tc, "g", 0, map[int]bool{backupIdx: true})
	})
}

// TestDoubleCrashRestoresReplicas is the regression test for the backup
// reassignment fix: two member-hosting servers die inside one heartbeat
// window. The old logic elected a backup only when exactly one interested
// server remained, so simultaneous crashes could leave a group
// under-replicated forever. The coordinator must now rebuild coverage on
// the survivors, preserving state and sequence continuity.
func TestDoubleCrashRestoresReplicas(t *testing.T) {
	tc := startPlacementCluster(t, 4, cluster.PlacementConfig{
		Replicas: 3, RebalanceInterval: 100 * time.Millisecond,
	})
	a := dialTo(t, tc.servers[0], "a", nil)
	b := dialTo(t, tc.servers[1], "b", nil)
	if err := a.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.BcastUpdate("g", "o", []byte{byte('0' + i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	// Factor 3: a third replica must appear beyond the two member servers.
	waitFor(t, 5*time.Second, func() bool { return len(replicaHolders(tc, "g")) >= 3 })

	// Both member-hosting servers die in the same heartbeat window.
	tc.servers[0].Close()
	tc.servers[1].Close()

	// Survivors must converge to >=2 live replicas without any join.
	waitFor(t, 10*time.Second, func() bool {
		n := 0
		for i := 2; i < 4; i++ {
			if tc.servers[i].Engine().HasGroup("g") {
				n++
			}
		}
		return n >= 2
	})

	// State and sequencing survived: a fresh client finds the full history
	// and the next broadcast extends it rather than restarting.
	c := dialTo(t, tc.servers[2], "late", nil)
	res, err := c.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "012" {
		t.Fatalf("state after double crash = %+v", res.Objects)
	}
	seq, err := c.BcastUpdate("g", "o", []byte("3"), false)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 4 {
		t.Fatalf("post-crash seq = %d, want 4 (sequencing must continue)", seq)
	}
}

// TestLiveMigrationUnderLoad drives the tentpole acceptance criterion: a
// replica is migrated between servers while the group is under active
// broadcast load. Deliveries must stay gapless (contiguous sequence
// numbers), and the migrated replica must converge to a byte-identical
// image of the group.
func TestLiveMigrationUnderLoad(t *testing.T) {
	tc := startPlacementCluster(t, 3, cluster.PlacementConfig{
		Replicas: 2, RebalanceInterval: -1, // manual migration only
	})
	sk := newSink()
	pub := dialTo(t, tc.servers[0], "pub", nil)
	sub := dialTo(t, tc.servers[0], "sub", sk)
	if err := pub.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := sub.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// Seed enough state that the stream spans multiple chunks.
	big := make([]byte, 700<<10)
	for i := range big {
		big[i] = byte(i)
	}
	if _, err := pub.BcastState("g", "blob", big, false); err != nil {
		t.Fatal(err)
	}
	src, dst := backupAndSpare(t, tc, "g", 5*time.Second)

	const total = 120
	errs := make(chan error, 1)
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < total; i++ {
			if _, err := pub.BcastUpdate("g", "counter", []byte{byte(i)}, true); err != nil {
				errs <- fmt.Errorf("bcast %d: %w", i, err)
				return
			}
			time.Sleep(2 * time.Millisecond)
		}
		errs <- nil
	}()

	// Mid-stream, migrate the backup replica.
	time.Sleep(50 * time.Millisecond)
	srcID := uint64(src + 2) // server IDs start at 2
	dstID := uint64(dst + 2)
	if err := tc.coord.MigrateGroup("g", srcID, dstID); err != nil {
		t.Fatal(err)
	}

	wg.Wait()
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
	// The subscriber saw every event exactly once, in order, no gaps.
	events := sk.wait(t, total+1) // +1 for the blob state event
	assertContiguous(t, events, 1)

	// The replica moved: target holds it, source released it.
	waitFor(t, 10*time.Second, func() bool {
		return tc.servers[dst].Engine().HasGroup("g") && !tc.servers[src].Engine().HasGroup("g")
	})
	// And the migrated replica is byte-identical to the member server's.
	waitFor(t, 10*time.Second, func() bool {
		return imagesConverged(tc, "g", 0, nil)
	})
	_, cp, ok := tc.servers[dst].Engine().GroupImage("g")
	if !ok || cp.NextSeq != uint64(total)+2 {
		t.Fatalf("migrated replica NextSeq = %d, want %d", cp.NextSeq, total+2)
	}
}

// TestMigrationRacesConcurrentJoin overlaps a live migration with a client
// joining through the migration target. Whichever path installs the replica
// first, the engine must never rewind it: the joiner lands on the
// post-cutover replica set and its deliveries are gapless.
func TestMigrationRacesConcurrentJoin(t *testing.T) {
	tc := startPlacementCluster(t, 3, cluster.PlacementConfig{
		Replicas: 2, RebalanceInterval: -1,
	})
	pub := dialTo(t, tc.servers[0], "pub", nil)
	if err := pub.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := pub.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	big := make([]byte, 1<<20)
	if _, err := pub.BcastState("g", "blob", big, false); err != nil {
		t.Fatal(err)
	}
	src, dst := backupAndSpare(t, tc, "g", 5*time.Second)
	// The migration must carry the blob: wait until the backup replica has
	// converged on the member server's image before moving it.
	waitFor(t, 5*time.Second, func() bool { return imagesConverged(tc, "g", 0, nil) })

	// Race: migrate toward dst while a client joins through dst.
	if err := tc.coord.MigrateGroup("g", uint64(src+2), uint64(dst+2)); err != nil {
		t.Fatal(err)
	}
	sk := newSink()
	joiner := dialTo(t, tc.servers[dst], "joiner", sk)
	res, err := joiner.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || len(res.Objects[0].Data) != len(big) {
		t.Fatalf("join transfer lost the blob: %d objects", len(res.Objects))
	}

	// Post-race deliveries reach the joiner gaplessly from seq 2 on.
	const n = 20
	for i := 0; i < n; i++ {
		if _, err := pub.BcastUpdate("g", "counter", []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	events := sk.wait(t, n)
	assertContiguous(t, events, 2)
	waitFor(t, 10*time.Second, func() bool {
		return imagesConverged(tc, "g", 0, nil)
	})
}

// TestRebalanceUnderChurn is the -race churn test: several groups under
// continuous broadcast load while a backup-holding server crashes mid-run.
// Afterwards every group must have >=2 live replicas, every subscriber must
// have seen a gapless event stream, and all replica images must agree.
func TestRebalanceUnderChurn(t *testing.T) {
	tc := startPlacementCluster(t, 4, cluster.PlacementConfig{
		Replicas: 2, RebalanceInterval: 100 * time.Millisecond, MaxMigrations: 4,
	})
	const groups = 3
	const perGroup = 80

	type pair struct {
		pub  *client.Client
		sink *sink
		name string
	}
	var pairs []pair
	for g := 0; g < groups; g++ {
		name := fmt.Sprintf("churn-%d", g)
		sk := newSink()
		// Members only on servers 0 and 1; servers 2 and 3 hold backups.
		pub := dialTo(t, tc.servers[g%2], fmt.Sprintf("pub%d", g), nil)
		sub := dialTo(t, tc.servers[(g+1)%2], fmt.Sprintf("sub%d", g), sk)
		if err := pub.CreateGroup(name, g == 0, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := pub.Join(name, client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
		if _, err := sub.Join(name, client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
		pairs = append(pairs, pair{pub: pub, sink: sk, name: name})
	}

	errs := make(chan error, groups)
	var wg sync.WaitGroup
	for _, p := range pairs {
		wg.Add(1)
		go func(p pair) {
			defer wg.Done()
			for i := 0; i < perGroup; i++ {
				if _, err := p.pub.BcastUpdate(p.name, "o", []byte{byte(i)}, true); err != nil {
					errs <- fmt.Errorf("%s bcast %d: %w", p.name, i, err)
					return
				}
				time.Sleep(2 * time.Millisecond)
			}
			errs <- nil
		}(p)
	}

	// Mid-run churn: crash a server that hosts only backup replicas.
	time.Sleep(60 * time.Millisecond)
	const victim = 3
	tc.servers[victim].Close()

	wg.Wait()
	for range pairs {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}

	skip := map[int]bool{victim: true}
	for g, p := range pairs {
		// Gapless per-group delivery despite the crash and any migrations.
		events := p.sink.wait(t, perGroup)
		assertContiguous(t, events, 1)

		// Coverage restored: >=2 live replicas per group, no client help.
		name := p.name
		waitFor(t, 10*time.Second, func() bool {
			n := 0
			for i, s := range tc.servers {
				if i != victim && s.Engine().HasGroup(name) {
					n++
				}
			}
			return n >= 2
		})
		// All surviving replicas byte-identical.
		ref := g % 2
		waitFor(t, 10*time.Second, func() bool {
			return imagesConverged(tc, name, ref, skip)
		})
	}
}
