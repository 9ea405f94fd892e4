package cluster_test

// Membership tests: a join, leave or crash takes effect through the group's
// one order at the coordinator, and every replica's registry holds the
// group's global member list. The two race tests hold one server's
// coordinator link back with a fault proxy, so the order they pin down does
// not depend on scheduling luck.

import (
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

// delayedPair starts a patient cluster of two servers, the first or the
// second behind a fault proxy, and returns them in order with the proxy.
func delayedPair(t *testing.T, delayFirst bool) (*testCluster, *cluster.Server, *cluster.Server, *faultnet.Proxy) {
	t.Helper()
	tc := startPatientCluster(t, cluster.PlacementConfig{})
	proxy, err := faultnet.New("127.0.0.1:0", tc.coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	first, second := tc.coord.Addr(), tc.coord.Addr()
	if delayFirst {
		first = proxy.Addr()
	} else {
		second = proxy.Addr()
	}
	a := tc.startServerVia(t, first)
	b := tc.startServerVia(t, second)
	return tc, a, b, proxy
}

func memberNames(ms []wire.MemberInfo) []string {
	names := make([]string, 0, len(ms))
	for _, m := range ms {
		names = append(names, m.Name)
	}
	slices.Sort(names)
	return names
}

func nextNotify(t *testing.T, ch chan wire.MembershipNotify) wire.MembershipNotify {
	t.Helper()
	select {
	case n := <-ch:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("no membership notification")
		return wire.MembershipNotify{}
	}
}

// TestJoinerSeesMembersAlreadyThere holds B's coordinator link back by
// 150 ms each way, with B already a backup of g. Alice joins through A and is
// acked; bob at once joins through B. Alice's join was ordered before bob's,
// so bob's JoinAck must list her, however late her join's copy reaches B.
func TestJoinerSeesMembersAlreadyThere(t *testing.T) {
	tc, a, b, proxy := delayedPair(t, false)
	alice := dialTo(t, a, "alice", nil)
	bob := dialTo(t, b, "bob", nil)
	if err := alice.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return b.Engine().HasGroup("g") && slices.Equal(tc.coord.Replicas("g"), []uint64{2, 3})
	})
	proxy.SetDelay(150 * time.Millisecond)

	if _, err := alice.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := bob.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if got := memberNames(res.Members); !slices.Equal(got, []string{"alice", "bob"}) {
		t.Fatalf("bob's JoinAck lists %v, want [alice bob]", got)
	}
}

// TestNoReapUnderLiveMember holds A's coordinator link back. The watcher
// joins g through A; a member then joins and leaves through B. The watcher's
// join was ordered first, so the member's leave empties nothing: the
// coordinator must not end the transient group under the watcher.
func TestNoReapUnderLiveMember(t *testing.T) {
	tc, a, b, proxy := delayedPair(t, true)
	notifies := make(chan wire.MembershipNotify, 16)
	watcher, err := client.Dial(client.Config{
		Addr: a.ClientAddr(), Name: "watcher",
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { watcher.Close() })
	if err := watcher.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return b.Engine().HasGroup("g") && slices.Equal(tc.coord.Replicas("g"), []uint64{2, 3})
	})
	proxy.SetDelay(150 * time.Millisecond)

	if _, err := watcher.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}
	member := dialTo(t, b, "member", nil)
	if _, err := member.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := member.Leave("g"); err != nil {
		t.Fatal(err)
	}
	// The query travels B's link behind the leave: the coordinator has
	// ordered it by the time it answers.
	groups, err := member.ListGroups()
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Contains(groups, "g") {
		t.Fatalf("coordinator's groups after the member left = %v: g was ended under the watcher", groups)
	}
	for _, want := range []wire.MembershipChange{wire.MemberJoined, wire.MemberLeft} {
		if n := nextNotify(t, notifies); n.Change != want || n.Member.Name != "member" {
			t.Fatalf("watcher's notify = %+v, want member %s", n, want)
		}
	}
	ms, err := watcher.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if got := memberNames(ms); !slices.Equal(got, []string{"watcher"}) {
		t.Fatalf("membership after the member left = %v", got)
	}
}

// TestNotifyCountIsGlobal: a MembershipNotify's Count is the group's size
// across the cluster, whether the change happened on the subscriber's server
// or on another.
func TestNotifyCountIsGlobal(t *testing.T) {
	tc := startCluster(t, 2)
	notifies := make(chan wire.MembershipNotify, 16)
	watcher, err := client.Dial(client.Config{
		Addr: tc.servers[0].ClientAddr(), Name: "watcher",
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { watcher.Close() })
	if err := watcher.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}
	if _, err := dialTo(t, tc.servers[1], "remote", nil).Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := nextNotify(t, notifies); n.Member.Name != "remote" || n.Count != 2 {
		t.Fatalf("notify for the remote join = %+v, want count 2", n)
	}
	if _, err := dialTo(t, tc.servers[0], "local", nil).Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if n := nextNotify(t, notifies); n.Member.Name != "local" || n.Count != 3 {
		t.Fatalf("notify for the local join = %+v, want count 3", n)
	}
}

// TestBackupKeepsReplicaWhenLastLocalMemberLeaves: the creating server is a
// standing backup of g. When its last local member leaves while bob still
// uses g through B, the group is not empty, so A keeps its replica — and the
// coordinator's replica set names exactly the servers that hold one.
func TestBackupKeepsReplicaWhenLastLocalMemberLeaves(t *testing.T) {
	tc := startCluster(t, 2)
	a, b := tc.servers[0], tc.servers[1]
	alice := dialTo(t, a, "alice", nil)
	bob := dialTo(t, b, "bob", nil)
	if err := alice.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := bob.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := alice.Leave("g"); err != nil {
		t.Fatal(err)
	}
	if !a.Engine().HasGroup("g") {
		t.Fatal("A dropped its backup replica of g while bob is still a member")
	}
	// Each query travels its server's link behind the interest reports.
	for _, c := range []*client.Client{alice, bob} {
		if _, err := c.ListGroups(); err != nil {
			t.Fatal(err)
		}
	}
	var holders []uint64
	for i, s := range tc.servers {
		if s.Engine().HasGroup("g") {
			holders = append(holders, uint64(i+2)) // startCluster's IDs
		}
	}
	if got := tc.coord.Replicas("g"); !slices.Equal(got, holders) {
		t.Fatalf("coordinator's replicas of g = %v, servers holding it = %v", got, holders)
	}
}

// TestRegistrationWithOldProtocolRefused: a server speaking another protocol
// version gets one ErrorMsg instead of a registration, and is counted.
func TestRegistrationWithOldProtocolRefused(t *testing.T) {
	tc := startCluster(t, 0)
	refused := func() uint64 { return obs.Default.Snapshot().Counters["cluster.hellos_refused"] }
	before := refused()
	conn, err := transport.Dial(tc.coord.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SHello{RequestID: 1, Proto: 1, ServerID: 9, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	reply, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if e, ok := reply.(*wire.ErrorMsg); !ok || e.Code != wire.CodeBadVersion {
		t.Fatalf("registration with protocol 1 answered with %#v", reply)
	}
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("refused registration's link still open")
	}
	if got := tc.coord.ServerCount(); got != 0 {
		t.Fatalf("ServerCount = %d after a refused registration", got)
	}
	if got := refused() - before; got != 1 {
		t.Fatalf("cluster.hellos_refused grew by %d, want 1", got)
	}
}

// TestForwardBeforeReportInventsNoGroup registers a server by hand that
// forwards a multicast to g before any report names g. The coordinator must
// not invent g for the forward, so the report that names g afterwards is
// plain recovery, not a divergence.
func TestForwardBeforeReportInventsNoGroup(t *testing.T) {
	var diverged atomic.Int64
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond, PeerTimeout: 5 * time.Second,
		OnDivergence: func(cluster.DivergenceReport) wire.Resolution {
			diverged.Add(1)
			return wire.ResolutionRollback
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(func() { coord.Close() })
	conn, err := transport.Dial(coord.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	send := func(m wire.Message) {
		t.Helper()
		if err := conn.WriteMessage(m); err != nil {
			t.Fatal(err)
		}
	}
	// groups asks for the coordinator's registry behind everything sent
	// before it.
	groups := func(id uint64) []string {
		t.Helper()
		send(&wire.SGroupsQuery{RequestID: id})
		_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
		for {
			msg, err := conn.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if r, ok := msg.(*wire.SGroupsReport); ok && r.RequestID == id {
				return r.Groups
			}
		}
	}
	send(&wire.SHello{RequestID: 1, Proto: wire.ProtocolVersion, ServerID: 9, Addr: "127.0.0.1:1"})
	send(&wire.SForward{Origin: 9, Group: "g", RequestID: 1,
		Event: wire.Event{Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("x")}})
	if got := groups(2); len(got) != 0 {
		t.Fatalf("coordinator's groups after a forward to an unknown g = %v", got)
	}
	send(&wire.SSeqReport{ServerID: 9, Groups: []wire.GroupSeq{{Group: "g", NextSeq: 10, Digest: 0xFEED}}})
	if got := groups(3); !slices.Equal(got, []string{"g"}) {
		t.Fatalf("coordinator's groups after the report = %v, want [g]", got)
	}
	if n := diverged.Load(); n != 0 {
		t.Fatalf("the report of g was taken for a divergence %d time(s)", n)
	}
}

// cutServerSide answers a relay's coordinator→server message with the cut
// once cut is set: the server's link drops, and the coordinator does not
// notice.
func cutServerSide(cut *atomic.Bool) func(wire.Message) []wire.Message {
	return func(m wire.Message) []wire.Message {
		if cut.CompareAndSwap(true, false) {
			return []wire.Message{nil}
		}
		return []wire.Message{m}
	}
}

// TestReconnectCrashesMembersItNoLongerHosts: bob is a member of g through
// B. B's link is cut on B's side only, so the coordinator does not notice,
// and B's registration on a new link is held back while bob disconnects: B
// can forward his crash to nobody, and the new link replaces the old one at
// the coordinator without a server loss. B's report is the host's word and
// leaves bob out, so the coordinator orders his crash, and no registry lists
// him any more.
func TestReconnectCrashesMembersItNoLongerHosts(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{})
	a := tc.startServerVia(t, tc.coord.Addr())
	var cut, hold atomic.Bool
	held, release := make(chan struct{}), make(chan struct{})
	released := sync.OnceFunc(func() { close(release) })
	t.Cleanup(released)
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), cutServerSide(&cut), func(m wire.Message) []wire.Message {
		if _, ok := m.(*wire.SHello); ok && hold.CompareAndSwap(true, false) {
			close(held)
			<-release
		}
		return []wire.Message{m}
	}))
	alice := dialTo(t, a, "alice", nil)
	bob := dialTo(t, b, "bob", nil)
	carol := dialTo(t, b, "carol", nil) // reads B's registry
	if err := alice.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{alice, bob} {
		if _, err := c.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	hold.Store(true)
	cut.Store(true)
	select {
	case <-held:
	case <-time.After(5 * time.Second):
		t.Fatal("B never registered again")
	}
	bob.Close()
	waitFor(t, 5*time.Second, func() bool { return b.Engine().Metrics().Gauge("engine.sessions").Load() == 1 })
	released()

	waitFor(t, 5*time.Second, func() bool {
		return slices.Equal(memberNames(tc.coord.Members("g")), []string{"alice"})
	})
	// The crash's ordered copy reached both registries; B may have given its
	// replica up with its last member.
	waitFor(t, 5*time.Second, func() bool {
		onA, errA := alice.Membership("g")
		onB, errB := carol.Membership("g")
		return errA == nil && slices.Equal(memberNames(onA), []string{"alice"}) &&
			(errB != nil || !slices.Contains(memberNames(onB), "bob"))
	})
}

// TestReportDropsStaleInterest: a registration is the server's whole word on
// what it holds. g migrates from B to C and B releases its replica, but B's
// report that it no longer holds g is lost on the way. B's link is then cut
// on B's side and B registers again, its report leaving g out: the
// coordinator must stop counting B as g's holder, and g keeps its two live
// holders, A and C.
func TestReportDropsStaleInterest(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	var cut, lost atomic.Bool
	var hellos atomic.Int64
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), cutServerSide(&cut), func(m wire.Message) []wire.Message {
		switch m := m.(type) {
		case *wire.SHello:
			hellos.Add(1)
		case *wire.SInterest:
			if m.Group == "g" && !m.Interested {
				lost.Store(true)
				return nil
			}
		}
		return []wire.Message{m}
	}))
	alice := dialTo(t, a, "alice", nil)
	if err := alice.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// With two servers up, B (ID 3) is g's designated backup; C (ID 4)
	// registers after.
	waitFor(t, 5*time.Second, func() bool { return slices.Equal(tc.coord.Replicas("g"), []uint64{2, 3}) })
	c := tc.startServerVia(t, tc.coord.Addr())
	if err := tc.coord.MigrateGroup("g", 3, 4); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 10*time.Second, func() bool {
		return lost.Load() && !b.Engine().HasGroup("g") && c.Engine().HasGroup("g")
	})
	if got := tc.coord.Replicas("g"); !slices.Equal(got, []uint64{2, 3, 4}) {
		t.Fatalf("replicas of g after the lost release = %v, want [2 3 4]", got)
	}

	cut.Store(true)
	waitFor(t, 10*time.Second, func() bool { return hellos.Load() == 2 })
	waitFor(t, 5*time.Second, func() bool { return slices.Equal(tc.coord.Replicas("g"), []uint64{2, 4}) })
}

// TestReportKeepsNewerDesignation: a registration cannot list a designation
// sent on its link after its SHello. C registers while g has its two
// replicas, A and B, and C's report is held back until C's designation for
// g has passed: killing B makes the floor designate C. The report leaves g
// out, yet the designation is newer than it, so the coordinator must keep
// it pending and not designate C a second time.
func TestReportKeepsNewerDesignation(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	b := tc.startServerVia(t, tc.coord.Addr())
	alice := dialTo(t, a, "alice", nil)
	if err := alice.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := alice.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return slices.Equal(tc.coord.Replicas("g"), []uint64{2, 3}) })

	designated := make(chan struct{})
	var designations, updates atomic.Int64
	var reported atomic.Bool
	c := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), func(m wire.Message) []wire.Message {
		switch m := m.(type) {
		case *wire.SInterest:
			if m.Group == "g" && m.Interested && designations.Add(1) == 1 {
				close(designated)
			}
		case *wire.SMemberUpdate:
			if m.Group == "g" && m.Member.Name == "bob" {
				updates.Add(1)
			}
		}
		return []wire.Message{m}
	}, func(m wire.Message) []wire.Message {
		if _, ok := m.(*wire.SSeqReport); ok && reported.CompareAndSwap(false, true) {
			<-designated
		}
		return []wire.Message{m}
	}))
	waitFor(t, 5*time.Second, func() bool { return tc.coord.ServerCount() == 3 })
	b.Close()
	waitFor(t, 10*time.Second, func() bool {
		return c.Engine().HasGroup("g") && slices.Equal(tc.coord.Replicas("g"), []uint64{2, 4})
	})
	// bob's join is ordered after C's report and after C's confirmation, so
	// once its update has reached C every designation sent before it has too.
	bob := dialTo(t, a, "bob", nil)
	if _, err := bob.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return updates.Load() > 0 })
	if n := designations.Load(); n != 1 {
		t.Fatalf("C was designated for g %d times, want 1", n)
	}
}

// TestReRegistrationIsOneReport: a server holding three groups, each with two
// members connected to it, re-registers in one frame, its SSeqReport. It
// sends no interest report and no membership change before its catch-ups ask
// where the groups live.
func TestReRegistrationIsOneReport(t *testing.T) {
	tc := startPatientCluster(t, cluster.PlacementConfig{RebalanceInterval: -1})
	a := tc.startServerVia(t, tc.coord.Addr())
	var cut atomic.Bool
	var mu sync.Mutex
	var sent []wire.Message // B's messages to the coordinator, oldest first
	b := tc.startServerVia(t, relayEditing(t, tc.coord.Addr(), cutServerSide(&cut), func(m wire.Message) []wire.Message {
		mu.Lock()
		sent = append(sent, m)
		mu.Unlock()
		return []wire.Message{m}
	}))
	owner := dialTo(t, a, "owner", nil)
	members := []*client.Client{dialTo(t, b, "m1", nil), dialTo(t, b, "m2", nil)}
	for _, g := range []string{"g1", "g2", "g3"} {
		if err := owner.CreateGroup(g, false, nil); err != nil {
			t.Fatal(err)
		}
		for _, c := range members {
			if _, err := c.Join(g, client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	mu.Lock()
	sent = nil
	mu.Unlock()
	cut.Store(true)
	var registration []wire.Message // after the SHello, before the first SStateRequest
	waitFor(t, 10*time.Second, func() bool {
		mu.Lock()
		defer mu.Unlock()
		hello := slices.IndexFunc(sent, func(m wire.Message) bool { return m.Kind() == wire.KindSHello })
		if hello < 0 {
			return false
		}
		n := slices.IndexFunc(sent[hello:], func(m wire.Message) bool { return m.Kind() == wire.KindSStateRequest })
		if n < 0 {
			return false
		}
		registration = slices.Clone(sent[hello+1 : hello+n])
		return true
	})
	kinds := make(map[wire.Kind]int)
	for _, m := range registration {
		kinds[m.Kind()]++
	}
	if kinds[wire.KindSSeqReport] != 1 || kinds[wire.KindSInterest] != 0 || kinds[wire.KindSMemberUpdate] != 0 {
		t.Fatalf("B re-registered with %v, want one SSeqReport and no SInterest or SMemberUpdate", kinds)
	}
}
