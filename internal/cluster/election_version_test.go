package cluster

import (
	"testing"
	"time"

	"corona/internal/transport"
	"corona/internal/wire"
)

// TestElectionProbeOfAnotherVersionIsRefused: a candidate speaking another
// protocol version gets one Error{CodeBadVersion} frame instead of a vote,
// the refusal is counted, and the voter's vote for that epoch stays free.
func TestElectionProbeOfAnotherVersionIsRefused(t *testing.T) {
	// Never started, so its coordinator link is down: a candidate of its
	// own version would get its vote.
	s, err := NewServer(ServerConfig{ID: 2, CoordinatorAddr: "127.0.0.1:1"})
	if err != nil {
		t.Fatal(err)
	}
	go s.peerLn.Serve(s.cfg.RequestTimeout, s.servePeerConn)
	defer s.Close()

	// probe sends a candidacy and reads the answer; refused, it also waits for
	// the voter to close the connection, which it does once it has counted
	// the refusal.
	probe := func(proto uint32, refused bool) wire.Message {
		t.Helper()
		conn, err := transport.Dial(s.PeerAddr(), time.Second)
		if err != nil {
			t.Fatal(err)
		}
		defer conn.Close()
		if err := conn.WriteMessage(&wire.SElect{Proto: proto, CandidateID: 9, Epoch: 1, Addr: "127.0.0.1:1"}); err != nil {
			t.Fatal(err)
		}
		_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if refused {
			if _, err := conn.ReadMessage(); err == nil {
				t.Fatal("refused probe's connection still open")
			}
		}
		return msg
	}

	before := clusterHellosRefused.Load()
	if reply, ok := probe(wire.ProtocolVersion+1, true).(*wire.ErrorMsg); !ok || reply.Code != wire.CodeBadVersion {
		t.Fatalf("probe of another protocol version answered with %#v", reply)
	}
	if got := clusterHellosRefused.Load() - before; got != 1 {
		t.Fatalf("cluster.hellos_refused grew by %d, want 1", got)
	}
	s.mu.Lock()
	voted := s.votedEpoch
	s.mu.Unlock()
	if voted != 0 {
		t.Fatalf("votedEpoch = %d after a refused probe, want 0", voted)
	}
	if reply, ok := probe(wire.ProtocolVersion, false).(*wire.SElectReply); !ok || !reply.Ack {
		t.Fatalf("probe of this version answered with %#v, want the vote the refused probe left free", reply)
	}
}
