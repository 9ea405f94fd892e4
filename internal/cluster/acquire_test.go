package cluster_test

// Replica acquisition tests: a group's state crosses between servers one way
// (locate at the coordinator, pull from a holder), and these pin what that
// one way must get right — a source from the instant a create is ordered, an
// image when the suffix is gone, no size ceiling, and no bulk bytes on the
// sequencing links.

import (
	"fmt"
	"hash/crc32"
	"slices"
	"sync"
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
	return relayEditing(t, target, func(m wire.Message) []wire.Message {
		if drop(m) {
			return nil
		}
		return []wire.Message{m}
	}, nil)
}

// relayEditing relays framed messages between a dialing server and target.
// Each message is replaced by what its direction's edit returns for it —
// down for coordinator→server messages, up for server→coordinator ones, a
// nil edit relaying every message as it is — written back to back in one
// write: nothing drops or holds the message back, several release what was
// held. An edit runs on its direction's pipe, so one that blocks holds back
// what follows. A nil message among those an edit returns closes the
// server's side of the link and leaves the coordinator's side open: the
// server sees its link drop, the coordinator sees nothing.
func relayEditing(t *testing.T, target string, down, up func(wire.Message) []wire.Message) string {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { ln.Close() })
	// The coordinator's side of a cut link is held open until the test ends:
	// a connection nothing references is closed when it is collected, and the
	// coordinator would see the link drop after all.
	var mu sync.Mutex
	var open []*transport.Conn
	t.Cleanup(func() {
		mu.Lock()
		defer mu.Unlock()
		for _, c := range open {
			c.Close()
		}
	})
	relay := func(server, coord *transport.Conn) {
		var cut atomic.Bool
		pipe := func(from, to *transport.Conn, edit func(wire.Message) []wire.Message) {
			defer func() {
				server.Close()
				if !cut.Load() {
					coord.Close()
					return
				}
				mu.Lock()
				open = append(open, coord)
				mu.Unlock()
			}()
			var frames []byte
			for {
				msg, err := from.ReadMessage()
				if err != nil {
					return
				}
				out := []wire.Message{msg}
				if edit != nil {
					out = edit(msg)
				}
				frames = frames[:0]
				for _, m := range out {
					if m == nil {
						cut.Store(true)
						return
					}
					frames = transport.EncodeFrame(frames, m)
				}
				if len(frames) > 0 && to.WriteFrame(frames) != nil {
					return
				}
			}
		}
		go pipe(server, coord, up)
		go pipe(coord, server, down)
	}
	go func() {
		for {
			server, err := ln.Accept()
			if err != nil {
				return
			}
			coord, err := transport.Dial(target, time.Second)
			if err != nil {
				server.Close()
				continue
			}
			relay(server, coord)
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
	// The gap check on seq 3 started a pull from a holder that filled the
	// hole. (The catch-up is counted once it returns, just after it delivers.)
	waitFor(t, 5*time.Second, func() bool {
		return obs.Default.Snapshot().Counters["cluster.catchups"] > caught
	})
	if got := groupObject(t, sb, "g", "o"); got != "abc" {
		t.Fatalf("B's object = %q, want abc", got)
	}
}

// TestOneCatchUpPerGap loses seq 2 of group g on its way to server B and
// holds seqs 3–11 back until seq 12 has been read, then writes 3–12 back to
// back: a burst of ten events behind one gap. B must heal the gap with one
// catch-up, the ten events waiting behind it rather than each starting its
// own, and deliver every event to its member exactly once, in order. Seq 13
// is held until the catch-up's locate answer reaches the relay and written
// just before it, so it arrives while the catch-up is in flight and must
// wait behind it too.
func TestOneCatchUpPerGap(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	// Relay state; only the relay's coordinator→B pipe touches it.
	var (
		burst []wire.Message // seqs 3–11
		tail  []wire.Message // seq 13, then the catch-up's locate answer
		gap   bool           // seqs 3–12 were written to B
	)
	var lost atomic.Bool
	release := func() []wire.Message {
		if len(tail) < 2 {
			return nil
		}
		out := tail
		tail = nil
		return out
	}
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), func(m wire.Message) []wire.Message {
		switch m := m.(type) {
		case *wire.SDistribute:
			switch seq := m.Event.Seq; {
			case m.Group != "g":
			case seq == 2:
				lost.Store(true)
				return nil
			case seq >= 3 && seq <= 11:
				burst = append(burst, m)
				return nil
			case seq == 12:
				gap = true
				return append(burst, m)
			case seq == 13:
				tail = append([]wire.Message{m}, tail...)
				return release()
			}
		case *wire.SStateResponse:
			if m.Group == "g" && gap {
				gap = false
				tail = append(tail, m)
				return release()
			}
		}
		return []wire.Message{m}
	}, nil))
	counter := func(name string) uint64 { return obs.Default.Snapshot().Counters[name] }

	sinkB := newSink()
	ca := dialTo(t, a, "a", nil)
	cb := dialTo(t, b, "b", sinkB)
	if err := ca.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{ca, cb} {
		if _, err := c.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := ca.BcastUpdate("g", "o", []byte{'a'}, false); err != nil {
		t.Fatal(err)
	}
	sinkB.wait(t, 1)
	// Warm-up: B holds the group's second replica once the coordinator lists
	// it, so no acquisition of B's own is still in flight.
	waitFor(t, 10*time.Second, func() bool { return slices.Contains(tc.coord.Replicas("g"), 3) })

	caught, gaps := counter("cluster.catchups"), counter("cluster.seq_gaps")
	for i := 1; i < 13; i++ {
		if _, err := ca.BcastUpdate("g", "o", []byte{byte('a' + i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	assertContiguous(t, sinkB.wait(t, 13), 1)
	if !lost.Load() {
		t.Fatal("the relay never dropped seq 2: the gap path did not run")
	}
	waitFor(t, 5*time.Second, func() bool {
		ma, mb := seqMark(t, a, "g"), seqMark(t, b, "g")
		return mb.NextSeq == 14 && ma.NextSeq == mb.NextSeq && ma.Digest == mb.Digest
	})
	// A catch-up is counted once it returns: let any still in flight land.
	time.Sleep(250 * time.Millisecond)
	if n := counter("cluster.catchups") - caught; n != 1 {
		t.Fatalf("%d catch-ups for one lost event, want 1", n)
	}
	if n := counter("cluster.seq_gaps") - gaps; n != 1 {
		t.Fatalf("%d sequence gaps detected for one lost event, want 1", n)
	}
	if got := len(sinkB.wait(t, 13)); got != 13 {
		t.Fatalf("B's member was delivered %d events, want 13", got)
	}
}

// TestJoinAcquisitionHealsItsWindow: bob's join is server B's first use of g,
// so B acquires the group from A, and B's report that it holds g is held back
// until alice, on A, has an update acked. The update is sequenced after A
// captured B's image but before the coordinator knows B holds g: it is in
// neither the image nor B's stream, and no traffic follows it to expose the
// gap. The acquisition's own catch-up must bring it, so bob's transfer ends
// at the group's next sequence number and includes it.
func TestJoinAcquisitionHealsItsWindow(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	alice := dialTo(t, a, "alice", nil)
	if err := alice.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// B registers after g's create, so no designation makes it g's backup.
	var hold atomic.Bool
	hold.Store(true)
	held, release := make(chan struct{}), make(chan struct{})
	released := sync.OnceFunc(func() { close(release) })
	t.Cleanup(released)
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), nil, func(m wire.Message) []wire.Message {
		if in, ok := m.(*wire.SInterest); ok && in.Group == "g" && in.Interested && hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return []wire.Message{m}
	}))

	bob := dialTo(t, b, "bob", nil)
	type joined struct {
		res *client.JoinResult
		err error
	}
	done := make(chan joined, 1)
	go func() {
		res, err := bob.Join("g", client.JoinOptions{})
		done <- joined{res, err}
	}()
	select {
	case <-held:
	case <-time.After(10 * time.Second):
		t.Fatal("B never reported holding g")
	}
	if _, err := alice.BcastUpdate("g", "doc", []byte("+1"), false); err != nil {
		t.Fatal(err)
	}
	released()
	var j joined
	select {
	case j = <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("bob's join never completed")
	}
	if j.err != nil {
		t.Fatal(j.err)
	}
	if want := tc.coord.GroupSeq("g"); j.res.NextSeq != want {
		t.Fatalf("bob's transfer ends before seq %d, the group's next is %d: the update in B's acquisition window is missing", j.res.NextSeq, want)
	}
	if len(j.res.Objects) != 1 || string(j.res.Objects[0].Data) != "v0+1" {
		t.Fatalf("bob's transfer = %+v, want doc=v0+1", j.res.Objects)
	}
}

// TestDistributesArriveInSequenceOrder has two servers forward one group's
// multicasts concurrently and records the order in which a third server's
// coordinator link carries them. A group's events must arrive in sequence
// order: a replica takes any gap for a lost event and waits for a catch-up.
func TestDistributesArriveInSequenceOrder(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	c := tc.startServerVia(t, tc.coord.Addr())
	var mu sync.Mutex
	var seqs []uint64
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), func(m wire.Message) []wire.Message {
		if d, ok := m.(*wire.SDistribute); ok && d.Group == "g" {
			mu.Lock()
			seqs = append(seqs, d.Event.Seq)
			mu.Unlock()
		}
		return []wire.Message{m}
	}, nil))
	sinkB := newSink()
	senders := []*client.Client{dialTo(t, a, "a1", nil), dialTo(t, a, "a2", nil), dialTo(t, c, "c1", nil), dialTo(t, c, "c2", nil)}
	if err := senders[0].CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, cl := range append(senders, dialTo(t, b, "b", sinkB)) {
		if _, err := cl.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	const per = 300
	var wg sync.WaitGroup
	for _, cl := range senders {
		wg.Add(1)
		go func(cl *client.Client) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := cl.BcastUpdate("g", "o", []byte{byte(i)}, true); err != nil {
					t.Error(err)
					return
				}
			}
		}(cl)
	}
	wg.Wait()
	sinkB.wait(t, len(senders)*per)
	mu.Lock()
	defer mu.Unlock()
	for i := 1; i < len(seqs); i++ {
		if seqs[i] <= seqs[i-1] {
			t.Fatalf("B's link carried seq %d after seq %d", seqs[i], seqs[i-1])
		}
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
	_, third := backupAndSpare(t, tc, "a", 30*time.Second)
	waitFor(t, 30*time.Second, func() bool { return imagesConverged(tc, "a", 0, nil) })

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

// TestReplicaPullIsFlowControlled: a replica pull is answered the way a
// client's join is, so its chunks are counted and held to the join's window.
// A third server pulls an 8 MiB group: the holders' engine.transfer_chunks
// rise by exactly the pull's chunk count, and their
// engine.transfer_inflight_bytes never exceeds the window of four chunks.
func TestReplicaPullIsFlowControlled(t *testing.T) {
	tc := startPlacementCluster(t, 3, cluster.PlacementConfig{Replicas: 2, RebalanceInterval: -1})
	loader := dialTo(t, tc.servers[0], "loader", nil)
	if err := loader.CreateGroup("a", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := loader.Join("a", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	blob := make([]byte, 1<<20)
	for i := 0; i < 8; i++ {
		if _, err := loader.BcastState("a", fmt.Sprintf("blob-%d", i), blob, false); err != nil {
			t.Fatal(err)
		}
	}
	backup, spare := backupAndSpare(t, tc, "a", 10*time.Second)
	waitFor(t, 10*time.Second, func() bool { return imagesConverged(tc, "a", 0, nil) })
	_, img, _ := tc.servers[0].Engine().GroupImage("a")
	size := wire.NewTransferStream(img.Objects, img.History).Total()
	want := (size + wire.TransferChunkSize - 1) / wire.TransferChunkSize

	holders := []*cluster.Server{tc.servers[0], tc.servers[backup]}
	chunks := func() (n uint64) {
		for _, h := range holders {
			n += h.Engine().Metrics().Counter("engine.transfer_chunks").Load()
		}
		return n
	}
	before := chunks()
	var peak atomic.Int64
	stop, sampled := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(sampled)
		for {
			for _, h := range holders {
				if v := h.Engine().Metrics().Gauge("engine.transfer_inflight_bytes").Load(); v > peak.Load() {
					peak.Store(v)
				}
			}
			select {
			case <-stop:
				return
			case <-time.After(100 * time.Microsecond):
			}
		}
	}()
	joiner := dialTo(t, tc.servers[spare], "joiner", nil)
	_, err := joiner.Join("a", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferNone}})
	close(stop)
	<-sampled
	if err != nil {
		t.Fatal(err)
	}
	if got := chunks() - before; got != want {
		t.Fatalf("the holders' engine.transfer_chunks rose by %d for a %d-byte pull, want %d", got, size, want)
	}
	const window = 4 // core's transferWindow
	if p := peak.Load(); p > window*wire.TransferChunkSize {
		t.Fatalf("engine.transfer_inflight_bytes peaked at %d, above the window of %d", p, window*wire.TransferChunkSize)
	}
	t.Logf("%d-byte pull: %d chunks, in flight at most %d bytes", size, want, peak.Load())
}

// TestOneLocatePerAcquisition: bob's join is server B's first use of g. B's
// acquisition joins g's stream at the mark its locate reads, so the join
// costs one locate: no second locate and pull heals a window after it.
func TestOneLocatePerAcquisition(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	alice := dialTo(t, a, "alice", nil)
	if err := alice.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	// B registers after g's create, so no designation makes it g's backup.
	var locates atomic.Int32
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), nil, func(m wire.Message) []wire.Message {
		if r, ok := m.(*wire.SStateRequest); ok && r.Group == "g" {
			locates.Add(1)
		}
		return []wire.Message{m}
	}))

	bob := dialTo(t, b, "bob", nil)
	res, err := bob.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "v0" {
		t.Fatalf("bob's transfer = %+v, want doc=v0", res.Objects)
	}
	waitFor(t, 5*time.Second, func() bool { return slices.Contains(tc.coord.Replicas("g"), 3) })
	if n := locates.Load(); n != 1 {
		t.Fatalf("B located g %d times for its first join, want 1", n)
	}
}

// TestBackupSeesMembersOrderedDuringItsPull: B is g's designated backup, and
// its pull of g is slowed by a fault proxy in front of A's peer listener.
// carol joins g on A after A has answered the pull and before B has the
// image, so the image does not list her. B's stream starts at its locate:
// carol's ordered join reaches B during the pull, waits behind it, and B's
// registry lists her once B holds g.
func TestBackupSeesMembersOrderedDuringItsPull(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	slow, err := faultnet.New("127.0.0.1:0", a.PeerAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { slow.Close() })
	slow.SetDelay(250 * time.Millisecond)
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), func(m wire.Message) []wire.Message {
		if r, ok := m.(*wire.SStateResponse); ok && r.Group == "g" && r.SourceID != 0 {
			r.SourceAddr = slow.Addr()
		}
		return []wire.Message{m}
	}, nil))

	served := func() uint64 { return obs.Default.Snapshot().Histograms["cluster.migrate_out_ns"].Count }
	before := served()
	alice := dialTo(t, a, "alice", nil)
	if err := alice.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	// A has written its answer to B's pull; the proxy holds it back.
	waitFor(t, 10*time.Second, func() bool { return served() > before })
	carol := dialTo(t, a, "carol", nil)
	if _, err := carol.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if b.Engine().HasGroup("g") {
		t.Fatal("B installed g before carol's join was ordered: the pull was not slowed")
	}
	waitFor(t, 10*time.Second, func() bool { return slices.Contains(tc.coord.Replicas("g"), 3) })
	watcher := dialTo(t, b, "watcher", nil)
	ms, err := watcher.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := memberNames(ms); !slices.Equal(got, []string{"carol"}) {
		t.Fatalf("B's members of g = %v, want [carol]", got)
	}
}
