package cluster_test

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/wire"
)

// testCluster is a coordinator plus n member servers on loopback.
type testCluster struct {
	coord   *cluster.Coordinator
	servers []*cluster.Server
}

func startCluster(t *testing.T, n int) *testCluster {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       250 * time.Millisecond,
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

func (tc *testCluster) addServer(t *testing.T) *cluster.Server {
	t.Helper()
	s, err := cluster.NewServer(cluster.ServerConfig{
		ID:                 uint64(len(tc.servers) + 2), // coordinator is 1
		CoordinatorAddr:    tc.coord.Addr(),
		HeartbeatInterval:  50 * time.Millisecond,
		CoordinatorTimeout: 250 * time.Millisecond,
		ElectionBackoff:    150 * time.Millisecond,
		RequestTimeout:     5 * time.Second,
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

// sink collects deliveries.
type sink struct {
	mu     sync.Mutex
	events []wire.Event
	ch     chan struct{}
}

func newSink() *sink { return &sink{ch: make(chan struct{}, 4096)} }

func (s *sink) on(_ string, ev wire.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	s.ch <- struct{}{}
}

func (s *sink) wait(t *testing.T, n int) []wire.Event {
	t.Helper()
	deadline := time.After(10 * time.Second)
	for {
		s.mu.Lock()
		if len(s.events) >= n {
			out := append([]wire.Event(nil), s.events...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.ch:
		case <-deadline:
			s.mu.Lock()
			got := len(s.events)
			s.mu.Unlock()
			t.Fatalf("timed out waiting for %d events, have %d", n, got)
		}
	}
}

func dialTo(t *testing.T, srv *cluster.Server, name string, sk *sink) *client.Client {
	t.Helper()
	cfg := client.Config{Addr: srv.ClientAddr(), Name: name}
	if sk != nil {
		cfg.OnEvent = sk.on
	}
	c, err := client.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCrossServerMulticast(t *testing.T) {
	tc := startCluster(t, 2)

	sinkA, sinkB := newSink(), newSink()
	a := dialTo(t, tc.servers[0], "alice", sinkA)
	b := dialTo(t, tc.servers[1], "bob", sinkB)

	if err := a.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// b joins via a different server: the state must be fetched across.
	res, err := b.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "v0" {
		t.Fatalf("cross-server join transfer = %+v", res.Objects)
	}
	if len(res.Members) != 2 {
		t.Fatalf("global membership at join = %+v", res.Members)
	}

	// Multicast from a must reach b (other server) and vice versa.
	if _, err := a.BcastUpdate("g", "doc", []byte("-from-a"), true); err != nil {
		t.Fatal(err)
	}
	if _, err := b.BcastUpdate("g", "doc", []byte("-from-b"), true); err != nil {
		t.Fatal(err)
	}
	evA := sinkA.wait(t, 2)
	evB := sinkB.wait(t, 2)
	for i := 0; i < 2; i++ {
		if evA[i].Seq != uint64(i+1) || evB[i].Seq != uint64(i+1) {
			t.Fatalf("total order broken: %v / %v", evA[i].Seq, evB[i].Seq)
		}
		if string(evA[i].Data) != string(evB[i].Data) {
			t.Fatalf("receivers disagree at %d", i)
		}
	}
}

func TestGlobalMembershipAndNotifications(t *testing.T) {
	tc := startCluster(t, 2)
	notifies := make(chan wire.MembershipNotify, 16)
	a, err := client.Dial(client.Config{
		Addr: tc.servers[0].ClientAddr(), Name: "watcher",
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}

	b := dialTo(t, tc.servers[1], "remote-joiner", nil)
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notifies:
		if n.Change != wire.MemberJoined || n.Member.Name != "remote-joiner" {
			t.Fatalf("notify = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cross-server join notification")
	}

	// Membership queried from either server shows both members.
	ms, err := a.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("membership from server A = %+v", ms)
	}
	ms, err = b.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 2 {
		t.Fatalf("membership from server B = %+v", ms)
	}

	// Crash of the remote member surfaces at the watcher.
	b.Close()
	select {
	case n := <-notifies:
		if n.Member.Name != "remote-joiner" {
			t.Fatalf("crash notify = %+v", n)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("no cross-server crash notification")
	}
}

func TestDuplicateCreateRejectedClusterWide(t *testing.T) {
	tc := startCluster(t, 2)
	a := dialTo(t, tc.servers[0], "a", nil)
	b := dialTo(t, tc.servers[1], "b", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	err := b.CreateGroup("g", false, nil)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeGroupExists {
		t.Fatalf("duplicate create on other server: %v", err)
	}
}

func TestDeletePropagates(t *testing.T) {
	tc := startCluster(t, 2)
	sinkB := newSink()
	a := dialTo(t, tc.servers[0], "a", nil)
	b := dialTo(t, tc.servers[1], "b", sinkB)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// Two events move the group's number off 1 before the delete.
	for i := 0; i < 2; i++ {
		if _, err := b.BcastUpdate("g", "o", []byte("old"), true); err != nil {
			t.Fatal(err)
		}
	}
	sinkB.wait(t, 2)
	if err := a.DeleteGroup("g"); err != nil {
		t.Fatal(err)
	}
	// The group must be gone on server B too (allow propagation time).
	deadline := time.Now().Add(5 * time.Second)
	for {
		_, err := b.Join("g", client.JoinOptions{})
		var se *client.ServerError
		if errors.As(err, &se) && se.Code == wire.CodeNoSuchGroup {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("join after delete: %v", err)
		}
		time.Sleep(20 * time.Millisecond)
	}

	// The number died with the group: a re-created group starts at 1, at
	// the coordinator and on both servers.
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if got := tc.coord.GroupSeq("g"); got != 1 {
		t.Fatalf("coordinator's next seq for the re-created group = %d, want 1", got)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if seq, err := a.BcastUpdate("g", "o", []byte("new"), true); err != nil || seq != 1 {
		t.Fatalf("first multicast to the re-created group acked at %d (%v), want 1", seq, err)
	}
	if ev := sinkB.wait(t, 3)[2]; ev.Seq != 1 || string(ev.Data) != "new" {
		t.Fatalf("server 1 delivered %d %q first after the re-create, want 1 %q", ev.Seq, ev.Data, "new")
	}
}

func TestBackupElection(t *testing.T) {
	tc := startCluster(t, 2)
	a := dialTo(t, tc.servers[0], "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastState("g", "o", []byte("replicate-me"), false); err != nil {
		t.Fatal(err)
	}
	// Only server[0] hosts members: the coordinator must designate
	// server[1] as backup, which then holds a replica.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if tc.servers[1].Engine().HasGroup("g") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("backup replica never appeared on server 1")
		}
		time.Sleep(20 * time.Millisecond)
	}
	// The backup replica tracks subsequent events.
	if _, err := a.BcastState("g", "o", []byte("v2"), false); err != nil {
		t.Fatal(err)
	}
	deadline = time.Now().Add(5 * time.Second)
	for {
		_, cp, ok := exportGroup(tc.servers[1], "g")
		if ok && cp.NextSeq == 3 {
			if len(cp.Objects) != 1 || string(cp.Objects[0].Data) != "v2" {
				t.Fatalf("backup replica state = %+v", cp.Objects)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("backup replica never caught up")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func exportGroup(s *cluster.Server, group string) (bool, struct {
	NextSeq uint64
	Objects []wire.Object
}, bool) {
	persistent, cp, ok := s.Engine().GroupImage(group)
	return persistent, struct {
		NextSeq uint64
		Objects []wire.Object
	}{cp.NextSeq, cp.Objects}, ok
}

func TestServerCrashFailsItsMembers(t *testing.T) {
	tc := startCluster(t, 3)
	notifies := make(chan wire.MembershipNotify, 16)
	a, err := client.Dial(client.Config{
		Addr: tc.servers[0].ClientAddr(), Name: "survivor",
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}
	victim := dialTo(t, tc.servers[2], "victim", nil)
	if _, err := victim.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	<-notifies // victim's join

	// Kill server 2 abruptly; the coordinator's failure detector must
	// fail its members.
	tc.servers[2].Close()
	select {
	case n := <-notifies:
		if n.Change != wire.MemberCrashed || n.Member.Name != "victim" {
			t.Fatalf("notify = %+v", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("no crash notification after server loss")
	}
	ms, err := a.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(ms) != 1 {
		t.Fatalf("membership after server crash = %+v", ms)
	}
}

func TestCoordinatorFailover(t *testing.T) {
	tc := startCluster(t, 3)

	sinkA, sinkB := newSink(), newSink()
	a := dialTo(t, tc.servers[0], "a", sinkA)
	b := dialTo(t, tc.servers[1], "b", sinkB)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastUpdate("g", "o", []byte("before"), true); err != nil {
		t.Fatal(err)
	}
	sinkB.wait(t, 1)

	// Kill the coordinator. A server must get itself elected and sequence
	// traffic again.
	tc.coord.Close()

	var promoted *cluster.Server
	deadline := time.Now().Add(15 * time.Second)
	for promoted == nil {
		for _, s := range tc.servers {
			if s.IsCoordinator() {
				promoted = s
				break
			}
		}
		if time.Now().After(deadline) {
			t.Fatal("no server promoted itself")
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Traffic resumes: retry the bcast until the new regime serves it.
	deadline = time.Now().Add(15 * time.Second)
	var seq uint64
	for {
		var err error
		seq, err = a.BcastUpdate("g", "o", []byte("after"), true)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("bcast after failover: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
	if seq != 2 {
		t.Errorf("post-failover seq = %d, want 2 (sequencing must continue, not restart)", seq)
	}
	evB := sinkB.wait(t, 2)
	if string(evB[len(evB)-1].Data) != "after" {
		t.Fatalf("post-failover delivery = %+v", evB)
	}

	// The new coordinator rebuilt its registry from the servers' reports:
	// the servers holding g, and g's two members.
	coord := promoted.Promoted()
	waitFor(t, 5*time.Second, func() bool {
		var holders []uint64
		for i, s := range tc.servers {
			if s.Engine().HasGroup("g") {
				holders = append(holders, uint64(i+2)) // startCluster's IDs
			}
		}
		return slices.Equal(coord.Replicas("g"), holders) &&
			slices.Equal(memberNames(coord.Members("g")), []string{"a", "b"})
	})
}

func TestManyGroupsSpreadAcrossServers(t *testing.T) {
	tc := startCluster(t, 3)
	var clients []*client.Client
	var sinks []*sink
	for i, srv := range tc.servers {
		sk := newSink()
		c := dialTo(t, srv, fmt.Sprintf("c%d", i), sk)
		clients = append(clients, c)
		sinks = append(sinks, sk)
	}
	// Each client creates its own group; all others join it.
	for i, c := range clients {
		if err := c.CreateGroup(fmt.Sprintf("g%d", i), false, nil); err != nil {
			t.Fatal(err)
		}
	}
	for i := range clients {
		for j, c := range clients {
			if _, err := c.Join(fmt.Sprintf("g%d", i), client.JoinOptions{}); err != nil {
				t.Fatalf("client %d join g%d: %v", j, i, err)
			}
		}
	}
	for i, c := range clients {
		if _, err := c.BcastUpdate(fmt.Sprintf("g%d", i), "o", []byte{byte(i)}, true); err != nil {
			t.Fatal(err)
		}
	}
	for i, sk := range sinks {
		events := sk.wait(t, len(clients))
		if len(events) != len(clients) {
			t.Fatalf("client %d saw %d events", i, len(events))
		}
	}
}

func TestLocksAcrossCluster(t *testing.T) {
	// Locks are local to each server's engine in this implementation;
	// verify at least that same-server semantics hold in cluster mode and
	// that membership is enforced.
	tc := startCluster(t, 2)
	a := dialTo(t, tc.servers[0], "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	granted, _, err := a.AcquireLock("g", "l", false)
	if err != nil || !granted {
		t.Fatalf("acquire: %v %v", granted, err)
	}
	if err := a.ReleaseLock("g", "l"); err != nil {
		t.Fatal(err)
	}
}

func TestListGroupsIsGlobal(t *testing.T) {
	tc := startCluster(t, 2)
	a := dialTo(t, tc.servers[0], "a", nil)
	b := dialTo(t, tc.servers[1], "b", nil)
	if err := a.CreateGroup("on-a", false, nil); err != nil {
		t.Fatal(err)
	}
	if err := b.CreateGroup("on-b", true, nil); err != nil {
		t.Fatal(err)
	}
	// A member must exist, or transient groups could be reaped; joins
	// also keep "on-a" replicated only at server 0.
	if _, err := a.Join("on-a", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{a, b} {
		groups, err := c.ListGroups()
		if err != nil {
			t.Fatal(err)
		}
		if len(groups) != 2 || groups[0] != "on-a" || groups[1] != "on-b" {
			t.Fatalf("ListGroups = %v (must be the global, sorted registry)", groups)
		}
	}
}
