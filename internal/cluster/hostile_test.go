package cluster_test

import (
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// stillServing fails unless the server creates a group, joins two clients and
// delivers a multicast between them.
func stillServing(t *testing.T, srv *cluster.Server, group string) {
	t.Helper()
	sk := newSink()
	a := dialTo(t, srv, "a", nil)
	b := dialTo(t, srv, "b", sk)
	if err := a.CreateGroup(group, false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{a, b} {
		if _, err := c.Join(group, client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.BcastUpdate(group, "o", []byte("still here"), false); err != nil {
		t.Fatal(err)
	}
	if evs := sk.wait(t, 1); string(evs[0].Data) != "still here" {
		t.Fatalf("delivery after hostile peer = %q", evs[0].Data)
	}
}

// TestHostileSourceInstallsNothing: a server pulls a replica from whatever
// address the coordinator names, and every field of the transfer it reads is
// unvalidated input. A fake server registers, creates a group (so the
// coordinator names it as the only source), and answers each pull's Hello and
// Join with a broken transfer: a chunk announcing 1<<62 bytes (sizing the
// reassembly buffer from it used to panic with makeslice: cap out of range),
// a TransferDone whose size contradicts its chunks' total, a chunk that skips
// bytes. The pulling server must install nothing, fail the joining client,
// and keep serving.
func TestHostileSourceInstallsNothing(t *testing.T) {
	tc := startCluster(t, 1)
	srv := tc.servers[0]

	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	payload := []byte("0123456789")
	empty := []byte{0, 0} // a whole, empty image: no objects, no events
	streaming := &wire.JoinAck{NextSeq: 1, Streaming: true}
	streams := [][]wire.Message{
		{streaming, &wire.TransferChunk{Total: 1 << 62, Data: payload}, &wire.TransferDone{Bytes: 1 << 62}},
		{streaming, &wire.TransferChunk{Total: uint64(len(empty)) + 5, Data: empty}, &wire.TransferDone{Bytes: uint64(len(empty))}},
		{
			streaming,
			&wire.TransferChunk{Offset: 0, Total: 20, Data: payload},
			&wire.TransferChunk{Offset: 15, Total: 20, Data: payload[:5]},
			&wire.TransferDone{Bytes: 20},
		},
	}
	var pulls atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if readHelloJoin(conn) {
				n := int(pulls.Add(1)) - 1
				for _, m := range streams[n%len(streams)] {
					_ = conn.WriteMessage(m)
				}
			}
			conn.Close()
		}
	}()

	registerGhost(t, tc, ln.Addr().String())
	waitFor(t, 5*time.Second, func() bool { return tc.coord.HasGroup("ghost") })

	victim := dialTo(t, srv, "victim", nil)
	if _, err := victim.Join("ghost", client.JoinOptions{}); err == nil {
		t.Fatal("join over a hostile source succeeded")
	}
	if n := pulls.Load(); n < int64(len(streams)) {
		t.Fatalf("only %d of %d hostile streams were pulled", n, len(streams))
	}
	if srv.Engine().HasGroup("ghost") {
		t.Fatal("a hostile stream installed a group")
	}
	stillServing(t, srv, "g")
}

// TestFailedDesignationIsRetried: a designated backup answers its designation
// even when it cannot acquire the replica, so the coordinator designates
// again instead of counting the failed designation as a replica forever. A
// fake server registers, creates ghost with one object and reports holding
// it, so the coordinator designates the real server; the fake's peer listener
// closes the pulls of the whole first acquisition and serves a valid image
// after that. The real server must end up holding ghost, counted by the
// coordinator beside the fake.
func TestFailedDesignationIsRetried(t *testing.T) {
	tc := startCluster(t, 1)
	srv := tc.servers[0]

	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	const refused = 5 // one acquisition's attempts (acquireAttempts)
	var pulls atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if readHelloJoin(conn) && pulls.Add(1) > refused {
				_ = conn.WriteMessage(&wire.JoinAck{RequestID: 2, Group: "ghost", NextSeq: 1,
					Objects: []wire.Object{{ID: "o", Data: []byte("x")}}})
			}
			conn.Close()
		}
	}()

	// The report that the fake holds ghost has the coordinator designate a
	// second replica.
	failed := obs.Default.Snapshot().Counters["cluster.designations_failed"]
	registerGhost(t, tc, ln.Addr().String(), &wire.SInterest{ServerID: 99, Group: "ghost", Interested: true, Backup: true})
	waitFor(t, 10*time.Second, func() bool {
		return slices.Equal(tc.coord.Replicas("ghost"), []uint64{2, 99}) && srv.Engine().HasGroup("ghost")
	})
	if n := pulls.Load(); n <= refused {
		t.Fatalf("the replica landed after %d pulls, all of them refused", n)
	}
	if obs.Default.Snapshot().Counters["cluster.designations_failed"] == failed {
		t.Fatal("the failed designation was not counted in cluster.designations_failed")
	}
	if got := groupObject(t, srv, "ghost", "o"); got != "x" {
		t.Fatalf("ghost's object = %q, want x", got)
	}
}

// TestDesignationDuringFailingAcquisitionIsAnswered: a designation that
// reaches a server while the server's previous acquisition of the group is
// failing gets an answer of its own. The first acquisition's "not interested"
// may reach the coordinator, and a second designation come back, before that
// acquisition closes; the relay stretches that window. It hands the
// coordinator the report while the first acquisition still runs, drops the
// report the acquisition sends itself, and ends the acquisition with an
// unknown group only at its second locate, 100 ms after the second
// designation was sent. A designation that takes the failure it waited on
// answers nothing, and the coordinator keeps it pending for good.
func TestDesignationDuringFailingAcquisitionIsAnswered(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	var pulls atomic.Int64
	go func() {
		for {
			conn, err := ln.Accept()
			if err != nil {
				return
			}
			if readHelloJoin(conn) && pulls.Add(1) > 1 {
				_ = conn.WriteMessage(&wire.JoinAck{RequestID: 2, Group: "ghost", NextSeq: 1,
					Objects: []wire.Object{{ID: "o", Data: []byte("x")}}})
			}
			conn.Close()
		}
	}()

	var answers, locates, reports atomic.Int64
	srv := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), func(m wire.Message) []wire.Message {
		if r, ok := m.(*wire.SStateResponse); ok && r.Group == "ghost" {
			if answers.Add(1) == 2 {
				return []wire.Message{&wire.SStateResponse{RequestID: r.RequestID, Group: "ghost", Code: wire.CodeNoSuchGroup}}
			}
		}
		return []wire.Message{m}
	}, func(m wire.Message) []wire.Message {
		switch m := m.(type) {
		case *wire.SStateRequest:
			if m.Group == "ghost" {
				if locates.Add(1) == 1 {
					return []wire.Message{m, &wire.SInterest{ServerID: 2, Group: "ghost", Interested: false}}
				}
			}
		case *wire.SInterest:
			if m.Group == "ghost" && !m.Interested {
				if reports.Add(1) == 1 {
					return nil
				}
			}
		}
		return []wire.Message{m}
	}))
	// The coordinator answers a query on the server's link after it has taken
	// in the server's registration, which ghost's designation must not overtake.
	if _, err := dialTo(t, srv, "probe", nil).ListGroups(); err != nil {
		t.Fatal(err)
	}

	registerGhost(t, tc, ln.Addr().String(), &wire.SInterest{ServerID: 99, Group: "ghost", Interested: true, Backup: true})
	waitFor(t, 5*time.Second, func() bool {
		return slices.Equal(tc.coord.Replicas("ghost"), []uint64{2, 99}) && srv.Engine().HasGroup("ghost")
	})
	if answers.Load() < 3 || reports.Load() != 1 {
		t.Fatalf("%d locate answers and %d own reports: the first acquisition did not fail in the window", answers.Load(), reports.Load())
	}
}

// registerGhost registers a fake server 99 whose peer listener is at
// peerAddr, creates ghost with one object through it, and then writes the
// messages in then. The fake stays registered for the rest of the test: its
// link is drained and the coordinator's heartbeats are echoed.
func registerGhost(t *testing.T, tc *testCluster, peerAddr string, then ...wire.Message) {
	t.Helper()
	link, err := transport.Dial(tc.coord.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { link.Close() })
	for _, m := range append([]wire.Message{
		&wire.SHello{RequestID: 1, Proto: wire.ProtocolVersion, ServerID: 99, Addr: peerAddr},
		&wire.SGroupOp{RequestID: 2, Origin: 99, Op: wire.GroupOpCreate, Group: "ghost", Initial: []wire.Object{{ID: "o", Data: []byte("x")}}},
	}, then...) {
		if err := link.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	go func() {
		for {
			msg, err := link.ReadMessage()
			if err != nil {
				return
			}
			if hb, ok := msg.(*wire.SHeartbeat); ok {
				_ = link.WriteMessage(&wire.SHeartbeat{ServerID: 99, Epoch: hb.Epoch, Time: hb.Time})
			}
		}
	}()
}

// readHelloJoin reads a replica pull's opening, a Hello and a Join, and
// reports whether both came.
func readHelloJoin(conn *transport.Conn) bool {
	for _, want := range []wire.Kind{wire.KindHello, wire.KindJoin} {
		if msg, err := conn.ReadMessage(); err != nil || msg.Kind() != want {
			return false
		}
	}
	return true
}

// TestHostilePullerIsRefused: the peer listener takes frames from whoever
// dials it. A pull of a group the server does not hold gets one refusal frame
// and a closed connection — whatever else the puller sent; a Hello of another
// protocol version gets one CodeBadVersion frame; a peer that dials and says
// nothing, or says Hello and then nothing, is dropped after RequestTimeout, so
// no goroutine stays blocked on it.
func TestHostilePullerIsRefused(t *testing.T) {
	tc := startCluster(t, 0)
	srv, err := cluster.NewServer(cluster.ServerConfig{
		ID: 2, CoordinatorAddr: tc.coord.Addr(), DisableElection: true,
		RequestTimeout: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	tc.servers = append(tc.servers, srv)

	hello := &wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion}
	join := &wire.Join{RequestID: 2, Group: "ghost", Policy: wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 1 << 62}}
	// send dials the peer listener and writes msgs; a nil message is a
	// garbage frame.
	send := func(msgs ...wire.Message) *transport.Conn {
		conn, err := transport.Dial(srv.PeerAddr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		for _, m := range msgs {
			if m == nil {
				_ = conn.WriteFrame([]byte("\xff garbage after the join"))
			} else if err := conn.WriteMessage(m); err != nil {
				t.Fatal(err)
			}
		}
		return conn
	}
	// answer reads the one frame the server answers with, and checks that
	// the connection is closed after it.
	answer := func(conn *transport.Conn) (wire.Message, error) {
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		reply, err := conn.ReadMessage()
		if err == nil {
			if _, err := conn.ReadMessage(); err == nil {
				t.Fatal("connection still open after the refusal")
			}
		}
		return reply, err
	}
	// dropped fails unless the server closes conn, sending nothing, after
	// about RequestTimeout.
	dropped := func(conn *transport.Conn, what string) {
		start := time.Now()
		_ = conn.SetReadDeadline(start.Add(5 * time.Second))
		if _, err := conn.ReadMessage(); err == nil {
			t.Fatalf("%s was sent a frame", what)
		}
		if d := time.Since(start); d > 2*time.Second {
			t.Fatalf("%s held for %v, want about RequestTimeout (300ms)", what, d)
		}
	}

	reply, err := answer(send(hello, join))
	if err != nil {
		t.Fatalf("pull of an unknown group: %v, want a refusal frame", err)
	}
	if refusal, ok := reply.(*wire.ErrorMsg); !ok || refusal.Code != wire.CodeNoSuchGroup || !strings.Contains(refusal.Text, "ghost") {
		t.Fatalf("pull of an unknown group answered with %#v", reply)
	}
	// Unread garbage may turn the close into a reset that overtakes the
	// refusal; either way the puller gets nothing else.
	if reply, err := answer(send(hello, join, nil)); err == nil {
		if _, ok := reply.(*wire.ErrorMsg); !ok {
			t.Fatalf("pull followed by garbage answered with %#v", reply)
		}
	}

	refused := func() uint64 { return obs.Default.Snapshot().Counters["cluster.hellos_refused"] }
	before := refused()
	reply, err = answer(send(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion + 1}, join))
	if err != nil {
		t.Fatalf("pull of another protocol version: %v, want a refusal frame", err)
	}
	if refusal, ok := reply.(*wire.ErrorMsg); !ok || refusal.Code != wire.CodeBadVersion {
		t.Fatalf("pull of another protocol version answered with %#v", reply)
	}
	if got := refused() - before; got != 1 {
		t.Fatalf("cluster.hellos_refused grew by %d, want 1", got)
	}

	dropped(send(hello), "a puller silent after its Hello")
	dropped(send(), "a silent peer")
	stillServing(t, srv, "g")
}

// TestCoordinatorCloseDoesNotWaitForSilentOpener: a connection to the
// standalone coordinator that never sends its SHello is closed by Close,
// which returns promptly instead of waiting for the SHello.
func TestCoordinatorCloseDoesNotWaitForSilentOpener(t *testing.T) {
	tc := startCluster(t, 0)
	dial := func() *transport.Conn {
		conn, err := transport.Dial(tc.coord.Addr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { conn.Close() })
		return conn
	}
	dial() // silent
	// An election probe answered on a later connection shows the silent one
	// was accepted.
	probe := dial()
	if err := probe.WriteMessage(&wire.SElect{Proto: wire.ProtocolVersion, CandidateID: 9, Epoch: 1, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_ = probe.SetReadDeadline(time.Now().Add(2 * time.Second))
	if reply, err := probe.ReadMessage(); err != nil {
		t.Fatal(err)
	} else if _, ok := reply.(*wire.SElectReply); !ok {
		t.Fatalf("probe answered with %#v", reply)
	}
	closed := make(chan error, 1)
	go func() { closed <- tc.coord.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still waiting after 1 s on a connection that never sent SHello")
	}
}

// TestPromotedCloseSendsNoShrinkingList: closing a promoted server drops the
// registration links its peer listener holds, but as a shutdown, not as lost
// servers: the servers still connected receive no shrinking server list, and
// cluster.servers_lost does not move.
func TestPromotedCloseSendsNoShrinkingList(t *testing.T) {
	tc := startCluster(t, 1)
	srv := tc.servers[0]
	tc.coord.Close()
	waitFor(t, 15*time.Second, srv.IsCoordinator)

	// Two fake servers register with the promoted one; each is registered
	// once its ack arrives. Each link records the size of the largest server
	// list it received and whether a smaller one followed; it echoes
	// heartbeats, so the coordinator keeps it.
	type verdict struct{ largest, shrunk int }
	verdicts := make(chan verdict, 2)
	for id := uint64(90); id < 92; id++ {
		link, first, err := transport.Open(srv.PeerAddr(), 2*time.Second,
			&wire.SHello{RequestID: 1, Proto: wire.ProtocolVersion, ServerID: id, Addr: "127.0.0.1:1"})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { link.Close() })
		if _, ok := first.(*wire.SHelloAck); !ok {
			t.Fatalf("registration of %d answered with %#v", id, first)
		}
		go func() {
			var v verdict
			for {
				msg, err := link.ReadMessage()
				if err != nil {
					verdicts <- v
					return
				}
				switch m := msg.(type) {
				case *wire.SServerList:
					if len(m.Servers) < v.largest {
						v.shrunk = len(m.Servers)
					}
					v.largest = max(v.largest, len(m.Servers))
				case *wire.SHeartbeat:
					_ = link.WriteMessage(&wire.SHeartbeat{ServerID: id, Epoch: m.Epoch, Time: m.Time})
				}
			}
		}()
	}

	lost := obs.Default.Counter("cluster.servers_lost").Load()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for range 2 {
		if v := <-verdicts; v.shrunk != 0 {
			t.Errorf("a registered server received a list of %d servers after one of %d", v.shrunk, v.largest)
		}
	}
	if got := obs.Default.Counter("cluster.servers_lost").Load(); got != lost {
		t.Errorf("cluster.servers_lost moved by %d on shutdown", got-lost)
	}
}
