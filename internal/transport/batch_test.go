package transport

import (
	"errors"
	"net"
	"testing"
	"time"

	"corona/internal/wire"
)

func TestSendMessagePooledPath(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 16)
	defer pump.Close()

	if err := pump.SendMessage(&wire.Pong{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if p, ok := got.(*wire.Pong); !ok || p.Nonce != 7 {
		t.Fatalf("got %#v", got)
	}
}

func TestReadMessageBufferedIdle(t *testing.T) {
	_, server := tcpPair(t)
	start := time.Now()
	msg, err := server.ReadMessageBuffered()
	if msg != nil || err != nil {
		t.Fatalf("idle connection: got (%v, %v), want (nil, nil)", msg, err)
	}
	if d := time.Since(start); d > 100*time.Millisecond {
		t.Fatalf("idle probe took %v; it must not touch the socket", d)
	}
}

func TestReadMessageBufferedDrainsBurst(t *testing.T) {
	client, server := pipePair(t)

	// One pipe write carrying ten frames: after the first blocking read
	// pulls it into the buffer, the other nine must drain without blocking.
	const n = 10
	var burst []byte
	for i := 0; i < n; i++ {
		burst = EncodeFrame(burst, &wire.Ping{Nonce: uint64(i)})
	}
	go func() { _ = client.WriteFrame(burst) }()

	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if p := got.(*wire.Ping); p.Nonce != 0 {
		t.Fatalf("first frame nonce %d", p.Nonce)
	}
	for i := 1; i < n; i++ {
		msg, err := server.ReadMessageBuffered()
		if err != nil {
			t.Fatalf("buffered read %d: %v", i, err)
		}
		if msg == nil {
			t.Fatalf("frame %d was buffered but not drained", i)
		}
		if p := msg.(*wire.Ping); p.Nonce != uint64(i) {
			t.Fatalf("out of order: got %d, want %d", p.Nonce, i)
		}
	}
	if msg, err := server.ReadMessageBuffered(); msg != nil || err != nil {
		t.Fatalf("drained connection: got (%v, %v), want (nil, nil)", msg, err)
	}
}

func TestReadMessageBufferedLargeFrameFallsBack(t *testing.T) {
	client, server := pipePair(t)

	// A frame bigger than the 64 KiB read buffer can never be fully
	// buffered: the greedy drain must leave it for the blocking read.
	jumbo := make([]byte, 128<<10)
	var burst []byte
	burst = EncodeFrame(burst, &wire.Ping{Nonce: 1})
	burst = EncodeFrame(burst, &wire.Bcast{Group: "g", EvKind: wire.EventState, ObjectID: "big", Data: jumbo})
	go func() { _ = client.WriteFrame(burst) }()

	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if msg, err := server.ReadMessageBuffered(); msg != nil || err != nil {
		t.Fatalf("partial jumbo frame: got (%v, %v), want (nil, nil)", msg, err)
	}
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if b, ok := got.(*wire.Bcast); !ok || len(b.Data) != len(jumbo) {
		t.Fatalf("jumbo fallback: got %T", got)
	}
}

func TestReadMessageBufferedOversizedHeader(t *testing.T) {
	client, server := pipePair(t)
	var burst []byte
	burst = EncodeFrame(burst, &wire.Ping{Nonce: 1})
	burst = append(burst, 0xFF, 0xFF, 0xFF, 0xFF) // absurd length header
	go func() { _ = client.WriteFrame(burst) }()

	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadMessageBuffered(); !errors.Is(err, ErrFrameTooBig) {
		t.Fatalf("got %v, want ErrFrameTooBig", err)
	}
}

func TestReadBufferShrinksAfterJumboFrame(t *testing.T) {
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	client, server := NewConn(a), NewConn(b)

	// A jumbo frame grows the reusable read buffer past the retention
	// bound; the next ordinary frame must drop it rather than pin the
	// memory on the connection forever.
	jumbo := make([]byte, maxRetainedRead+64<<10)
	go func() {
		_ = client.WriteMessage(&wire.Bcast{Group: "g", EvKind: wire.EventState, ObjectID: "big", Data: jumbo})
	}()
	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if cap(server.rbuf) <= maxRetainedRead {
		t.Fatalf("jumbo read kept rbuf at %d, expected > %d", cap(server.rbuf), maxRetainedRead)
	}

	go func() { _ = client.WriteMessage(&wire.Ping{Nonce: 1}) }()
	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if cap(server.rbuf) > maxRetainedRead {
		t.Fatalf("rbuf still %d bytes after small frame, want <= %d", cap(server.rbuf), maxRetainedRead)
	}
}
