package cluster_test

// Replica acquisition tests: a group's state crosses between servers one way
// (locate at the coordinator, pull from a holder), and these pin what that
// one way must get right — a source from the instant a create is ordered, an
// image when the suffix is gone, no size ceiling, and no bulk bytes on the
// sequencing links.

import (
	"fmt"
	"hash/crc32"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/faultnet"
	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// startPatientCluster starts a coordinator whose failure detector outlasts
// injected delays and the stalls of moving tens of megabytes on a loaded
// host; the tests add servers with startServerVia.
func startPatientCluster(t *testing.T, pc cluster.PlacementConfig) *testCluster {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond, PeerTimeout: 5 * time.Second, Placement: pc,
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
	return tc
}

// startServerVia adds an equally patient server that reaches the coordinator
// at addr: the coordinator itself, or a fault proxy in front of it.
func (tc *testCluster) startServerVia(t *testing.T, addr string) *cluster.Server {
	t.Helper()
	s, err := cluster.NewServer(cluster.ServerConfig{
		ID: uint64(len(tc.servers) + 2), CoordinatorAddr: addr,
		HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 5 * time.Second,
		ElectionBackoff: 100 * time.Millisecond, DisableElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Start(); err != nil {
		t.Fatal(err)
	}
	tc.servers = append(tc.servers, s)
	return s
}

func seqMark(t *testing.T, s *cluster.Server, group string) wire.GroupSeq {
	t.Helper()
	for _, g := range s.Engine().SeqReport() {
		if g.Group == group {
			return g
		}
	}
	t.Fatalf("server holds no %q", group)
	return wire.GroupSeq{}
}

// TestJoinRightAfterCreateOverDelayedLink holds server A's coordinator link
// back by 150 ms each way. Alice creates g with doc="v0" through A and is
// acked; bob at once joins through B. B's request reaches the coordinator
// long before A's own interest report does, so the coordinator must already
// know A holds the group — from the create itself — and must never hand B an
// image it made up.
func TestJoinRightAfterCreateOverDelayedLink(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{})
	proxy, err := faultnet.New("127.0.0.1:0", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	a := tc.startServerVia(t, proxy.Addr())
	b := tc.addServer(t)
	proxy.SetDelay(150 * time.Millisecond)

	alice := dialTo(t, a, "alice", nil)
	bob := dialTo(t, b, "bob", nil)
	if err := alice.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	res, err := bob.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "v0" {
		t.Fatalf("cross-server join transfer = %+v, want doc=v0", res.Objects)
	}
	if _, err := bob.BcastUpdate("g", "doc", []byte("+1"), true); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return seqMark(t, a, "g").NextSeq == 2 })
	ma, mb := seqMark(t, a, "g"), seqMark(t, b, "g")
	if ma.NextSeq != mb.NextSeq || ma.Digest != mb.Digest {
		t.Fatalf("replicas diverged: A %+v, B %+v", ma, mb)
	}
	if got := groupObject(t, b, "g", "doc"); got != "v0+1" {
		t.Fatalf("B's doc = %q, want v0+1", got)
	}
}

// TestReplicaHealsAcrossLogReduction: B misses events while its link is cut,
// and the holder reduces its log past B's high-water mark before B is back.
// The suffix B asks for no longer exists, so the catch-up must install the
// holder's image instead.
func TestReplicaHealsAcrossLogReduction(t *testing.T) {
	tc := startCluster(t, 1)
	a := tc.servers[0]
	proxy, err := faultnet.New("127.0.0.1:0", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	b := tc.startServerVia(t, proxy.Addr())

	ca := dialTo(t, a, "a", nil)
	if err := ca.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.BcastUpdate("g", "o", []byte("1"), false); err != nil {
		t.Fatal(err)
	}
	// B is the designated backup and tracks the stream.
	waitFor(t, 5*time.Second, func() bool {
		return b.Engine().HasGroup("g") && b.Engine().NextSeq("g") == 2
	})

	proxy.Cut()
	waitFor(t, 5*time.Second, func() bool { return tc.coord.ServerCount() == 1 })
	for _, d := range []string{"2", "3", "4"} {
		if _, err := ca.BcastUpdate("g", "o", []byte(d), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, _, err := ca.ReduceLog("g", 0); err != nil {
		t.Fatal(err)
	}
	caught := obs.Default.Snapshot().Counters["cluster.catchups"]

	proxy.Heal()
	waitFor(t, 10*time.Second, func() bool {
		ma, mb := seqMark(t, a, "g"), seqMark(t, b, "g")
		return mb.NextSeq == 5 && ma.NextSeq == mb.NextSeq && ma.Digest == mb.Digest
	})
	if got := groupObject(t, b, "g", "o"); got != "1234" {
		t.Fatalf("B's object after healing = %q, want 1234", got)
	}
	if obs.Default.Snapshot().Counters["cluster.catchups"] == caught {
		t.Fatal("replica healed without a counted catch-up")
	}
	// And the healed replica follows the live stream again.
	if _, err := ca.BcastUpdate("g", "o", []byte("5"), false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return groupObject(t, b, "g", "o") == "12345" })
}

// relayDropping relays framed messages between a dialing server and target,
// except coordinator→server messages drop says to lose.
func relayDropping(t *testing.T, target string, drop func(wire.Message) bool) string {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	pipe := func(from, to *transport.Conn, drop func(wire.Message) bool) {
		defer from.Close()
		defer to.Close()
		for {
			msg, err := from.ReadMessage()
			if err != nil {
				return
			}
			if drop != nil && drop(msg) {
				continue
			}
			if to.WriteMessage(msg) != nil {
				return
			}
		}
	}
	go func() {
		for {
			down, err := ln.Accept()
			if err != nil {
				return
			}
			up, err := transport.Dial(target, time.Second)
			if err != nil {
				down.Close()
				continue
			}
			go pipe(down, up, nil)
			go pipe(up, down, drop)
		}
	}()
	return ln.Addr().String()
}

// TestSequenceGapHealed loses one SDistribute on its way to server B. B must
// pull the missing suffix from a holder — at the latest when the next event
// reveals the gap — and deliver every event to its member exactly once, in
// order.
func TestSequenceGapHealed(t *testing.T) {
	tc := startCluster(t, 1)
	var lost atomic.Bool
	addr := relayDropping(t, tc.coord.Addr(), func(m wire.Message) bool {
		if d, ok := m.(*wire.SDistribute); ok && d.Event.Seq == 2 {
			lost.Store(true)
			return true
		}
		return false
	})
	sb := tc.startServerVia(t, addr)

	caught := obs.Default.Snapshot().Counters["cluster.catchups"]
	sinkB := newSink()
	a := dialTo(t, tc.servers[0], "a", nil)
	b := dialTo(t, sb, "b", sinkB)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.BcastUpdate("g", "o", []byte{byte('a' + i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	events := sinkB.wait(t, 3)
	assertContiguous(t, events, 1)
	if !lost.Load() {
		t.Fatal("the relay never dropped seq 2: the gap path did not run")
	}
	// Whichever noticed first — the gap check on seq 3, or a catch-up B
	// already owed as a fresh backup — a pull from a holder filled the hole.
	// (The catch-up is counted once it returns, just after it delivers.)
	waitFor(t, 5*time.Second, func() bool {
		return obs.Default.Snapshot().Counters["cluster.catchups"] > caught
	})
	if got := groupObject(t, sb, "g", "o"); got != "abc" {
		t.Fatalf("B's object = %q, want abc", got)
	}
}

// TestGroupLargerThanAFrameGetsABackup: 72 MiB of group state, more than one
// wire frame (64 MiB) can carry. The group must still get its second replica,
// survive the loss of the server that built it, and serve the whole state to
// a late joiner on a third server.
func TestGroupLargerThanAFrameGetsABackup(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 72 MiB three times")
	}
	const objects, size = 9, 8 << 20
	tc := startPatientCluster(t, cluster.PlacementConfig{Replicas: 2, RebalanceInterval: -1})
	for i := 0; i < 3; i++ {
		tc.startServerVia(t, tc.coord.Addr())
	}
	loader := dialTo(t, tc.servers[0], "loader", nil)
	if err := loader.CreateGroup("big", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Join("big", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	sums := make(map[string]uint32)
	buf := make([]byte, size)
	for i := 0; i < objects; i++ {
		for j := range buf {
			buf[j] = byte(i*31 + j*7 + j>>8)
		}
		id := fmt.Sprintf("blob-%d", i)
		sums[id] = crc32.ChecksumIEEE(buf)
		if _, err := loader.BcastState("big", id, buf, false); err != nil {
			t.Fatal(err)
		}
	}
	if total := objects * size; total <= wire.MaxFrame {
		t.Fatalf("state of %d bytes fits one frame; the test proves nothing", total)
	}

	// A backup appears and holds the whole image.
	backup := -1
	waitFor(t, 60*time.Second, func() bool {
		for i := 1; i < len(tc.servers); i++ {
			if tc.servers[i].Engine().HasGroup("big") {
				backup = i
			}
		}
		return backup > 0 && len(tc.coord.Replicas("big")) >= 2 && imagesConverged(tc, "big", 0, nil)
	})

	// The server that built the state dies; a late joiner on the remaining
	// server without a replica reads all of it.
	tc.servers[0].Close()
	late := 3 - backup
	joiner, err := client.Dial(client.Config{Addr: tc.servers[late].ClientAddr(), Name: "late", Timeout: time.Minute})
	if err != nil {
		t.Fatal(err)
	}
	defer joiner.Close()
	res, err := joiner.Join("big", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != objects {
		t.Fatalf("late joiner got %d objects, want %d", len(res.Objects), objects)
	}
	for _, o := range res.Objects {
		if got := crc32.ChecksumIEEE(o.Data); len(o.Data) != size || got != sums[o.ID] {
			t.Fatalf("object %s: %d bytes crc %08x, want %d bytes crc %08x", o.ID, len(o.Data), got, size, sums[o.ID])
		}
	}
	seq, err := joiner.BcastUpdate("big", "tail", []byte("x"), false)
	if err != nil {
		t.Fatal(err)
	}
	if seq != objects+1 {
		t.Fatalf("post-crash seq = %d, want %d (sequencing must continue)", seq, objects+1)
	}
}

// TestAcquisitionBesideTraffic prints (and gates nothing on) how long group
// b's sequenced events took to reach their replicas while a third server
// acquired a 32 MiB replica of group a: the worst cluster.distribute_ns
// bucket that grew during the acquisition. The image travels a direct peer
// connection, so b's sequencing links carry none of it.
func TestAcquisitionBesideTraffic(t *testing.T) {
	if testing.Short() {
		t.Skip("moves 32 MiB")
	}
	tc := startPlacementCluster(t, 3, cluster.PlacementConfig{Replicas: 2, RebalanceInterval: -1})
	loader := dialTo(t, tc.servers[0], "loader", nil)
	if err := loader.CreateGroup("a", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Join("a", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 1<<20)
	for i := 0; i < 32; i++ {
		if _, err := loader.BcastState("a", fmt.Sprintf("blob-%d", i), blob, false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 30*time.Second, func() bool {
		return len(replicaHolders(tc, "a")) == 2 && imagesConverged(tc, "a", 0, nil)
	})
	third := 3 - replicaHolders(tc, "a")[1]

	sk := newSink()
	pub := dialTo(t, tc.servers[0], "pub", nil)
	sub := dialTo(t, tc.servers[1], "sub", sk)
	if err := pub.CreateGroup("b", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{pub, sub} {
		if _, err := c.Join("b", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	const msgs = 200
	before := obs.Default.Snapshot().Histograms["cluster.distribute_ns"]
	done := make(chan error, 1)
	go func() {
		for i := 0; i < msgs; i++ {
			if _, err := pub.BcastUpdate("b", "o", []byte{byte(i)}, false); err != nil {
				done <- err
				return
			}
			time.Sleep(time.Millisecond)
		}
		done <- nil
	}()
	time.Sleep(20 * time.Millisecond)
	start := time.Now()
	joiner := dialTo(t, tc.servers[third], "joiner", nil)
	if _, err := joiner.Join("a", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferNone}}); err != nil {
		t.Fatal(err)
	}
	acquired := time.Since(start)
	if err := <-done; err != nil {
		t.Fatal(err)
	}
	sk.wait(t, msgs)
	after := obs.Default.Snapshot().Histograms["cluster.distribute_ns"]

	was := make(map[int64]uint64)
	for _, bk := range before.Buckets {
		was[bk.Upper] = bk.Count
	}
	var worst int64
	for _, bk := range after.Buckets {
		if bk.Count > was[bk.Upper] && bk.Upper > worst {
			worst = bk.Upper
		}
	}
	t.Logf("32 MiB replica acquired in %v; group b beside it: %d distributes, worst cluster.distribute_ns bucket <= %v",
		acquired.Round(time.Millisecond), after.Count-before.Count, time.Duration(worst))
}
