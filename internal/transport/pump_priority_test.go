package transport

import (
	"testing"
	"time"

	"corona/internal/wire"
)

// sendHigh enqueues msg on the pump's priority lane, the way the engine
// does: a pooled frame, which the send takes whether or not it admits it.
func sendHigh(p *Pump, msg wire.Message) error {
	_, err := p.SendSharedRun([]*SharedFrame{NewSharedFrame(msg)}, true)
	return err
}

// TestPumpPriorityOvertakes verifies the QoS lane: a high-priority frame
// enqueued behind a backlog of normal frames is written before the
// backlog's tail.
func TestPumpPriorityOvertakes(t *testing.T) {
	// A pipe has no buffer: the pump blocks on its first flush until the
	// receiver reads, so the backlog is still queued when the priority
	// frame arrives. (Loopback TCP's autotuned buffers can swallow the
	// whole backlog first.)
	client, server := pipePair(t)
	pump := NewPump(client, 256)
	defer pump.Close()

	// Build a backlog while the receiver is not reading.
	const normals = 64
	payload := make([]byte, 32<<10)
	for i := 0; i < normals; i++ {
		msg := &wire.Deliver{
			Group: "bulk",
			Event: wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o", Data: payload},
		}
		for pump.SendMessage(msg) != nil {
			time.Sleep(time.Millisecond)
		}
	}
	if err := sendHigh(pump, &wire.Ping{Nonce: 777}); err != nil {
		t.Fatal(err)
	}

	hiPos, lastNormalPos := -1, -1
	for i := 0; i < normals+1; i++ {
		msg, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		switch msg.(type) {
		case *wire.Ping:
			hiPos = i
		case *wire.Deliver:
			lastNormalPos = i
		}
	}
	if hiPos == -1 {
		t.Fatal("priority frame never arrived")
	}
	if hiPos >= lastNormalPos {
		t.Fatalf("priority frame arrived at %d, after the backlog tail %d", hiPos, lastNormalPos)
	}
	t.Logf("priority frame overtook: position %d of %d", hiPos, normals+1)
}

// TestPumpPriorityLaneOrdering verifies FIFO within the priority lane.
func TestPumpPriorityLaneOrdering(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 64)
	defer pump.Close()

	for i := 0; i < 10; i++ {
		if err := sendHigh(pump, &wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 10; i++ {
		msg, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if p := msg.(*wire.Ping); p.Nonce != uint64(i) {
			t.Fatalf("priority lane out of order: got %d, want %d", p.Nonce, i)
		}
	}
}

// TestPumpCloseDrainsBothLanes verifies Close flushes both lanes.
func TestPumpCloseDrainsBothLanes(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 64)
	if err := pump.SendMessage(&wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	if err := sendHigh(pump, &wire.Ping{Nonce: 2}); err != nil {
		t.Fatal(err)
	}
	pump.Close()
	seen := map[uint64]bool{}
	for i := 0; i < 2; i++ {
		msg, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		seen[msg.(*wire.Ping).Nonce] = true
	}
	if !seen[1] || !seen[2] {
		t.Fatalf("frames lost at close: %v", seen)
	}
}

// TestPumpPriorityFrameGoesFirstWhenBothLanesFill: a priority frame is
// written before a normal frame enqueued after it, also when both arrive
// after the writer found the priority lane empty and before it waits on both
// lanes, where its select picks between the two at random. The engine relies
// on this: a streamed join's JoinAck (priority lane) must reach the client
// before the transfer's first chunk (normal lane, enqueued after the ack),
// or the client drops the chunk and fails the join. Each round fills both
// empty lanes in that window, so a writer that ignores the order fails a
// round with probability one half.
func TestPumpPriorityFrameGoesFirstWhenBothLanesFill(t *testing.T) {
	client, server := tcpPair(t)
	const rounds = 64
	pump := newPump(client, 0)
	var filled int // touched only by the writer, which runs waiting
	pump.waiting = func() {
		if filled == rounds || len(pump.ch) > 0 {
			return
		}
		filled++
		if err := sendHigh(pump, &wire.Ping{Nonce: uint64(filled)}); err != nil {
			t.Error(err)
		}
		if err := pump.SendMessage(&wire.Ping{Nonce: rounds + uint64(filled)}); err != nil {
			t.Error(err)
		}
	}
	go pump.run()
	defer pump.Close()

	at := make(map[uint64]int, 2*rounds)
	for i := 0; i < 2*rounds; i++ {
		msg, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		at[msg.(*wire.Ping).Nonce] = i
	}
	for k := uint64(1); k <= rounds; k++ {
		if at[k] > at[rounds+k] {
			t.Fatalf("round %d: the normal frame was written at %d, ahead of the priority frame enqueued before it (%d)", k, at[rounds+k], at[k])
		}
	}
}
