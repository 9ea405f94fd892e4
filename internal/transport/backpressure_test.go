package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"corona/internal/wire"
)

// TestPumpBackpressureObservable fills a pump feeding a reader that
// never drains and asserts the queue-depth gauge and the stall counter
// move — the observability contract for slow receivers.
func TestPumpBackpressureObservable(t *testing.T) {
	server, client := net.Pipe()
	defer client.Close()
	defer server.Close()

	depthBefore := pumpDepth.Load()
	stallsBefore := pumpStalls.Load()

	const depth = 8
	p := NewPump(NewConn(server), depth)

	// Frames big enough that the conn's 64 KiB write buffer fills and
	// the writer goroutine blocks on the unread pipe, so the queue
	// backs up until the send fails fast with ErrPumpOverflow.
	msg := &wire.Bcast{Data: make([]byte, 32<<10)}
	var stalled bool
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		err := p.SendMessage(msg)
		if errors.Is(err, ErrPumpOverflow) {
			stalled = true
			break
		}
		if err != nil {
			t.Fatalf("SendMessage: %v", err)
		}
	}
	if !stalled {
		t.Fatal("pump never overflowed against a stuck reader")
	}
	if got := pumpStalls.Load(); got <= stallsBefore {
		t.Fatalf("stall counter did not move: %d -> %d", stallsBefore, got)
	}
	if got := pumpDepth.Load(); got <= depthBefore {
		t.Fatalf("queue-depth gauge did not move: %d -> %d", depthBefore, got)
	}

	// Killing the connection fails the pump, which drains the queue;
	// the gauge must return to its baseline (no leaked depth).
	server.Close()
	client.Close()
	p.Close()
	if got := pumpDepth.Load(); got != depthBefore {
		t.Fatalf("queue depth leaked: %d -> %d", depthBefore, got)
	}
}
