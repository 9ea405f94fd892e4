package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"corona/internal/wire"
)

// TestSendSharedRunPartialAdmission pins the prefix-admission contract the
// fanout pipeline depends on: against a full lane the run is torn at the
// overflow point — the admitted prefix keeps its order, and the pump
// releases the rest itself.
func TestSendSharedRunPartialAdmission(t *testing.T) {
	server, client := net.Pipe()
	const depth = 4
	p := NewPump(NewConn(server), depth)
	// The pipes close first, so a failed check does not leave Close waiting
	// on the wedged writer.
	defer p.Close()
	defer client.Close()
	defer server.Close()

	// Wedge the writer: a frame larger than the connection's write buffer
	// blocks against the unread pipe, so nothing drains the normal lane.
	if err := p.SendMessage(&wire.Bcast{Data: make([]byte, 256<<10)}); err != nil {
		t.Fatalf("SendMessage: %v", err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		p.mu.Lock()
		taken := len(p.ch) == 0
		p.mu.Unlock()
		if taken {
			break // the writer holds the big frame and is blocked mid-write
		}
		if time.Now().After(deadline) {
			t.Fatal("writer never picked up the wedge frame")
		}
		time.Sleep(time.Millisecond)
	}

	frames := make([]*SharedFrame, depth+2)
	for i := range frames {
		frames[i] = NewSharedFrame(&wire.Ping{Nonce: uint64(i)})
	}
	live := framesLive.Load()
	admitted, err := p.SendSharedRun(frames, false)
	if admitted != depth {
		t.Fatalf("admitted = %d, want %d", admitted, depth)
	}
	if !errors.Is(err, ErrPumpOverflow) {
		t.Fatalf("err = %v, want ErrPumpOverflow", err)
	}
	// The pump released the unadmitted suffix.
	if n := live - framesLive.Load(); n != int64(len(frames)-admitted) {
		t.Fatalf("the tear released %d frames, want %d", n, len(frames)-admitted)
	}

	// A closed pump admits nothing.
	server.Close()
	client.Close()
	p.Close()
	admitted, err = p.SendSharedRun([]*SharedFrame{NewSharedFrame(&wire.Ping{Nonce: 99})}, false)
	if admitted != 0 || err == nil {
		t.Fatalf("closed pump: admitted=%d err=%v", admitted, err)
	}
}

// TestSendSharedRunInOrder checks the happy path: a run that fits is
// admitted whole and written in order.
func TestSendSharedRunInOrder(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 64)
	defer pump.Close()

	const n = 48
	fs := make([]*SharedFrame, 0, n)
	for i := 0; i < n; i++ {
		fs = append(fs, NewSharedFrame(&wire.Ping{Nonce: uint64(i)}))
	}
	if admitted, err := pump.SendSharedRun(fs, false); admitted != n || err != nil {
		t.Fatalf("admitted=%d err=%v", admitted, err)
	}
	for i := 0; i < n; i++ {
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		if p := got.(*wire.Ping); p.Nonce != uint64(i) {
			t.Fatalf("out of order: got %d, want %d", p.Nonce, i)
		}
	}
}

// TestSendSharedRunAfterClose: a cleanly closed pump admits nothing and
// releases every frame of the run itself.
func TestSendSharedRunAfterClose(t *testing.T) {
	client, _ := tcpPair(t)
	pump := NewPump(client, 4)
	pump.Close()

	fs := []*SharedFrame{
		NewSharedFrame(&wire.Ping{Nonce: 1}),
		NewSharedFrame(&wire.Ping{Nonce: 2}),
	}
	live := framesLive.Load()
	if admitted, err := pump.SendSharedRun(fs, false); admitted != 0 || !errors.Is(err, ErrPumpClosed) {
		t.Fatalf("admitted=%d err=%v, want 0, ErrPumpClosed", admitted, err)
	}
	if n := live - framesLive.Load(); n != int64(len(fs)) {
		t.Fatalf("the closed pump released %d frames, want %d", n, len(fs))
	}
}
