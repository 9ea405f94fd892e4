package core_test

import (
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/transport"
	"corona/internal/wire"
)

// TestSlowClientDroppedNotGroup verifies the backpressure contract: a
// member that stops reading cannot stall the group. Its bounded delivery
// queue overflows, the server drops that session (and only that session),
// and the healthy members keep receiving everything.
func TestSlowClientDroppedNotGroup(t *testing.T) {
	srv := startServer(t, core.Config{Engine: core.EngineConfig{PumpDepth: 16}})
	addr := srv.Addr().String()

	healthy := newEventSink()
	h := dial(t, addr, "healthy", healthy)
	if err := h.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	// The slow client speaks the raw protocol and then never reads.
	slow, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer slow.Close()
	if err := slow.WriteMessage(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion, Name: "sloth"}); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.ReadMessage(); err != nil { // HelloAck
		t.Fatal(err)
	}
	if err := slow.WriteMessage(&wire.Join{RequestID: 2, Group: "g", Role: wire.RolePrincipal}); err != nil {
		t.Fatal(err)
	}
	if _, err := slow.ReadMessage(); err != nil { // JoinAck
		t.Fatal(err)
	}
	// From now on: radio silence from the slow client.

	sender := dial(t, addr, "sender", nil)
	if _, err := sender.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// Blast enough large messages to fill the slow client's 16-frame
	// queue plus the kernel buffers behind it.
	const msgs = 300
	payload := make([]byte, 64<<10)
	for i := 0; i < msgs; i++ {
		if _, err := sender.BcastState("g", "o", payload, false); err != nil {
			t.Fatal(err)
		}
		// A healthy member is one that keeps up: hold the sender to half a
		// queue ahead of it, or on a small host the acked-at-sequencing
		// sender outruns the healthy reader's 16-frame queue as well.
		healthy.wait(t, i-7)
	}

	// The healthy member got every message.
	events := healthy.wait(t, msgs)
	for i, ev := range events {
		if ev.Seq != uint64(i+1) {
			t.Fatalf("healthy member: seq[%d] = %d", i, ev.Seq)
		}
	}
	// The slow client was disconnected for falling behind.
	deadline := time.Now().Add(10 * time.Second)
	for {
		counters := srv.Engine().Metrics().Snapshot().Counters
		if counters["engine.dropped"] >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("slow client never dropped (counters %v)", counters)
		}
		time.Sleep(20 * time.Millisecond)
	}
	// And the group's membership no longer lists it.
	deadline = time.Now().Add(10 * time.Second)
	for {
		ms, err := sender.Membership("g")
		if err != nil {
			t.Fatal(err)
		}
		if len(ms) == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("membership still %d members", len(ms))
		}
		time.Sleep(20 * time.Millisecond)
	}
}
