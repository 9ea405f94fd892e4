package cluster_test

import (
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/cluster"
	"corona/internal/core"
	"corona/internal/faultnet"
	"corona/internal/wire"
)

// divergenceHarness builds the §4.2 partition scenario: two servers with a
// shared group, server B isolated behind a fault proxy, the authoritative
// side advancing with one history and B's replica advancing independently
// with another.
type divergenceHarness struct {
	coord *cluster.Coordinator
	a, b  *cluster.Server
	proxy *faultnet.Proxy
	ca    *client.Client
}

func newDivergenceHarness(t *testing.T, onDivergence func(cluster.DivergenceReport) wire.Resolution) *divergenceHarness {
	t.Helper()
	coord, err := cluster.NewCoordinator(cluster.CoordinatorConfig{
		HeartbeatInterval: 50 * time.Millisecond,
		PeerTimeout:       250 * time.Millisecond,
		OnDivergence:      onDivergence,
	})
	if err != nil {
		t.Fatal(err)
	}
	coord.Start()
	t.Cleanup(func() { coord.Close() })

	mk := func(id uint64, addr string) *cluster.Server {
		s, err := cluster.NewServer(cluster.ServerConfig{
			ID: id, CoordinatorAddr: addr,
			HeartbeatInterval: 50 * time.Millisecond, CoordinatorTimeout: 250 * time.Millisecond,
			ElectionBackoff: 100 * time.Millisecond, DisableElection: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Start(); err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		return s
	}
	h := &divergenceHarness{coord: coord}
	h.a = mk(2, coord.Addr())
	proxy, err := faultnet.New("127.0.0.1:0", coord.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { proxy.Close() })
	h.proxy = proxy
	h.b = mk(3, proxy.Addr())
	waitFor(t, 5*time.Second, func() bool { return coord.ServerCount() == 2 })

	// Shared group with replicas on both servers (a member joins via B,
	// then leaves the group replicated there as backup via its member).
	h.ca = dialTo(t, h.a, "writer", nil)
	if err := h.ca.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.ca.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	cb := dialTo(t, h.b, "reader", nil)
	if _, err := cb.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// Two common events.
	for _, data := range []string{"e1", "e2"} {
		if _, err := h.ca.BcastUpdate("g", "o", []byte(data), false); err != nil {
			t.Fatal(err)
		}
	}
	waitFor(t, 5*time.Second, func() bool {
		_, cp, ok := h.b.Engine().GroupImage("g")
		return ok && cp.NextSeq == 3
	})
	return h
}

// partitionAndDiverge cuts B off, advances the authoritative history with
// authData as seq 3, and injects divData as B's own seq 3.
func (h *divergenceHarness) partitionAndDiverge(t *testing.T, authData, divData string) {
	t.Helper()
	h.proxy.Cut()
	waitFor(t, 5*time.Second, func() bool { return h.coord.ServerCount() == 1 })

	if _, err := h.ca.BcastUpdate("g", "o", []byte(authData), false); err != nil {
		t.Fatal(err)
	}
	// B's side evolves separately (as if a minority coordinator had
	// sequenced it during the partition).
	_, err := h.b.Engine().ApplyDistributed("g", []core.DistEvent{{Event: wire.Event{
		Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte(divData),
	}, SenderInclusive: true}})
	if err != nil {
		t.Fatal(err)
	}
}

func (h *divergenceHarness) heal(t *testing.T) {
	t.Helper()
	h.proxy.Heal()
	waitFor(t, 10*time.Second, func() bool { return h.coord.ServerCount() == 2 })
}

func groupObject(t *testing.T, s *cluster.Server, group, id string) string {
	t.Helper()
	_, cp, ok := s.Engine().GroupImage(group)
	if !ok {
		t.Fatalf("group %q missing", group)
	}
	for _, o := range cp.Objects {
		if o.ID == id {
			return string(o.Data)
		}
	}
	return ""
}

func TestDivergenceDefaultRollback(t *testing.T) {
	h := newDivergenceHarness(t, nil)
	h.partitionAndDiverge(t, "auth3", "div3")
	h.heal(t)

	// B must be rolled back to the authoritative history.
	waitFor(t, 10*time.Second, func() bool {
		return groupObject(t, h.b, "g", "o") == "e1e2auth3"
	})
	_, cpA, _ := h.a.Engine().GroupImage("g")
	_, cpB, _ := h.b.Engine().GroupImage("g")
	if cpA.Digest != cpB.Digest || cpB.NextSeq != 4 {
		t.Fatalf("rollback incomplete: digests %x/%x, next %d", cpA.Digest, cpB.Digest, cpB.NextSeq)
	}
	// The reconciled cluster keeps sequencing.
	if _, err := h.ca.BcastUpdate("g", "o", []byte("post"), false); err != nil {
		t.Fatal(err)
	}
	waitFor(t, 5*time.Second, func() bool {
		return groupObject(t, h.b, "g", "o") == "e1e2auth3post"
	})
}

func TestDivergenceFork(t *testing.T) {
	reports := make(chan cluster.DivergenceReport, 1)
	h := newDivergenceHarness(t, func(r cluster.DivergenceReport) wire.Resolution {
		select {
		case reports <- r:
		default:
		}
		return wire.ResolutionFork
	})
	h.partitionAndDiverge(t, "auth3", "div3")
	h.heal(t)

	select {
	case r := <-reports:
		if r.Group != "g" || r.ServerID != 3 || r.ServerNextSeq != 4 || r.CoordNextSeq != 4 {
			t.Fatalf("report = %+v", r)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("divergence never reported")
	}

	// The divergent history survives as a fork, and the original rolls
	// back to the authoritative state.
	waitFor(t, 10*time.Second, func() bool {
		return h.b.Engine().HasGroup("g.fork-3") &&
			groupObject(t, h.b, "g.fork-3", "o") == "e1e2div3" &&
			groupObject(t, h.b, "g", "o") == "e1e2auth3"
	})
}

func TestDivergenceAdopt(t *testing.T) {
	h := newDivergenceHarness(t, func(r cluster.DivergenceReport) wire.Resolution {
		return wire.ResolutionAdopt
	})
	h.partitionAndDiverge(t, "auth3", "div3")
	h.heal(t)

	// B's version becomes authoritative; A rolls back to it.
	waitFor(t, 10*time.Second, func() bool {
		return groupObject(t, h.a, "g", "o") == "e1e2div3"
	})
	_, cpA, _ := h.a.Engine().GroupImage("g")
	_, cpB, _ := h.b.Engine().GroupImage("g")
	if cpA.Digest != cpB.Digest {
		t.Fatalf("digests differ after adopt: %x/%x", cpA.Digest, cpB.Digest)
	}
}
