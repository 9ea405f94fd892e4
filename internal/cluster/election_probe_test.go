package cluster_test

import (
	"testing"
	"time"

	"corona/internal/transport"
	"corona/internal/wire"
)

// TestElectionProbeNackCarriesIncumbent probes a healthy server (its
// coordinator link is up): the vote must be a nack that names the ruling
// coordinator, so a confused candidate can find the regime.
func TestElectionProbeNackCarriesIncumbent(t *testing.T) {
	tc := startCluster(t, 2)
	conn, err := transport.Dial(tc.servers[0].PeerAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SElect{Proto: wire.ProtocolVersion, CandidateID: 99, Epoch: 5, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := msg.(*wire.SElectReply)
	if !ok {
		t.Fatalf("reply = %#v", msg)
	}
	if reply.Ack {
		t.Fatal("healthy server acked a candidacy while its coordinator lives")
	}
	if reply.CoordAddr != tc.coord.Addr() {
		t.Fatalf("nack names %q, want %q", reply.CoordAddr, tc.coord.Addr())
	}
}

// TestRegistrationRejectedByNonCoordinator sends an SHello to a plain
// member server: it must refuse (it is not the coordinator).
func TestRegistrationRejectedByNonCoordinator(t *testing.T) {
	tc := startCluster(t, 1)
	conn, err := transport.Dial(tc.servers[0].PeerAddr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SHello{RequestID: 1, ServerID: 99, Addr: "x"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %#v", msg)
	}
}

// TestIncumbentCoordinatorNacksElection probes the live coordinator
// directly: it must nack with its own address.
func TestIncumbentCoordinatorNacksElection(t *testing.T) {
	tc := startCluster(t, 1)
	conn, err := transport.Dial(tc.coord.Addr(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SElect{Proto: wire.ProtocolVersion, CandidateID: 99, Epoch: 7, Addr: "127.0.0.1:1"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	reply, ok := msg.(*wire.SElectReply)
	if !ok || reply.Ack {
		t.Fatalf("reply = %#v", msg)
	}
	if reply.CoordAddr != tc.coord.Addr() {
		t.Fatalf("nack names %q, want %q", reply.CoordAddr, tc.coord.Addr())
	}
}
