package cluster_test

import (
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/faultnet"
	"corona/internal/wire"
)

// TestHeartbeatDetectsBlackholedServer interposes a blackholing proxy
// between one server and the coordinator: the link hangs rather than
// erroring, so only the heartbeat timeout can detect the failure (§4.2:
// "we use heartbeat messages between the coordinator and the other servers
// and timeouts as upper bounds for communication delays").
func TestHeartbeatDetectsBlackholedServer(t *testing.T) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Start()

	// Server 2 reaches the coordinator directly; server 3 goes through
	// the fault proxy.
	direct, err := cluster.NewServer(cluster.ServerConfig{
		ID: 2, CoordinatorAddr: coord.Addr(),
		HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 300 * time.Millisecond,
		DisableElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer direct.Close()
	if err := direct.Start(); err != nil {
		t.Fatal(err)
	}

	proxy, err := faultnet.New("127.0.0.1:0", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	flaky, err := cluster.NewServer(cluster.ServerConfig{
		ID: 3, CoordinatorAddr: proxy.Addr(),
		HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 300 * time.Millisecond,
		DisableElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer flaky.Close()
	if err := flaky.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return coord.ServerCount() == 2 })

	// A member on the flaky server, watched from the healthy one.
	notifies := make(chan wire.MembershipNotify, 16)
	watcher, err := client.Dial(client.Config{
		Addr: direct.ClientAddr(), Name: "watcher",
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer watcher.Close()
	if err := watcher.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := watcher.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}
	victim, err := client.Dial(client.Config{Addr: flaky.ClientAddr(), Name: "victim"})
	if err != nil {
		t.Fatal(err)
	}
	defer victim.Close()
	if _, err := victim.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	drainNotify(t, notifies, wire.MemberJoined)

	// Hang the link silently. TCP stays open; only heartbeats can tell.
	proxy.Blackhole()

	select {
	case n := <-notifies:
		if n.Change != wire.MemberCrashed || n.Member.Name != "victim" {
			t.Fatalf("notify = %+v", n)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("heartbeat timeout never detected the blackholed server")
	}
	if got := coord.ServerCount(); got != 1 {
		t.Fatalf("ServerCount = %d after blackhole", got)
	}
}

// TestServerReconnectsAfterLinkCut cuts the server↔coordinator link; the
// server must re-register automatically once the network heals, and its
// replicas must catch up on the events sequenced while it was away.
func TestServerReconnectsAfterLinkCut(t *testing.T) {
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer coord.Close()
	coord.Start()

	a, err := cluster.NewServer(cluster.ServerConfig{
		ID: 2, CoordinatorAddr: coord.Addr(),
		HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 300 * time.Millisecond,
		DisableElection: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.Start(); err != nil {
		t.Fatal(err)
	}

	proxy, err := faultnet.New("127.0.0.1:0", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer proxy.Close()
	b, err := cluster.NewServer(cluster.ServerConfig{
		ID: 3, CoordinatorAddr: proxy.Addr(),
		HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 300 * time.Millisecond,
		DisableElection: true,
		ElectionBackoff: 100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if err := b.Start(); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool { return coord.ServerCount() == 2 })

	sinkB := newSink()
	ca, err := client.Dial(client.Config{Addr: a.ClientAddr(), Name: "a"})
	if err != nil {
		t.Fatal(err)
	}
	defer ca.Close()
	cb, err := client.Dial(client.Config{Addr: b.ClientAddr(), Name: "b", OnEvent: sinkB.on})
	if err != nil {
		t.Fatal(err)
	}
	defer cb.Close()
	if err := ca.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cb.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := ca.BcastUpdate("g", "o", []byte("before"), false); err != nil {
		t.Fatal(err)
	}
	sinkB.wait(t, 1)

	// Cut server B's link. Events keep flowing for A's clients.
	proxy.Cut()
	waitFor(t, 5*time.Second, func() bool { return coord.ServerCount() == 1 })
	if _, err := ca.BcastUpdate("g", "o", []byte("missed"), false); err != nil {
		t.Fatal(err)
	}

	// Heal; B re-registers and must catch up on the missed event.
	proxy.Heal()
	waitFor(t, 10*time.Second, func() bool { return coord.ServerCount() == 2 })
	events := sinkB.wait(t, 2)
	if string(events[1].Data) != "missed" {
		t.Fatalf("catch-up delivered %q", events[1].Data)
	}
	// And live traffic flows again.
	if _, err := ca.BcastUpdate("g", "o", []byte("after"), false); err != nil {
		t.Fatal(err)
	}
	events = sinkB.wait(t, 3)
	if string(events[2].Data) != "after" {
		t.Fatalf("post-heal delivery = %q", events[2].Data)
	}
}

func waitFor(t *testing.T, timeout time.Duration, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal("condition never met")
		}
		time.Sleep(20 * time.Millisecond)
	}
}

func drainNotify(t *testing.T, ch chan wire.MembershipNotify, want wire.MembershipChange) {
	t.Helper()
	select {
	case n := <-ch:
		if n.Change != want {
			t.Fatalf("notify = %+v, want %s", n, want)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("no %s notification", want)
	}
}
