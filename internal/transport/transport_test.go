package transport

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"corona/internal/wire"
)

// pipePair returns two framed connections joined by an in-memory duplex pipe.
func pipePair(t *testing.T) (*Conn, *Conn) {
	t.Helper()
	a, b := net.Pipe()
	ca, cb := NewConn(a), NewConn(b)
	t.Cleanup(func() {
		ca.Close()
		cb.Close()
	})
	return ca, cb
}

// tcpPair returns two framed connections joined by a real loopback TCP
// connection, exercising buffering behaviour net.Pipe cannot.
func tcpPair(t testing.TB) (*Conn, *Conn) {
	t.Helper()
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()

	type result struct {
		conn *Conn
		err  error
	}
	ch := make(chan result, 1)
	go func() {
		c, err := l.Accept()
		ch <- result{c, err}
	}()
	client, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	r := <-ch
	if r.err != nil {
		t.Fatal(r.err)
	}
	t.Cleanup(func() {
		client.Close()
		r.conn.Close()
	})
	return client, r.conn
}

func TestReadWriteMessage(t *testing.T) {
	client, server := tcpPair(t)

	want := &wire.Bcast{RequestID: 9, Group: "g", EvKind: wire.EventState, ObjectID: "o", Data: []byte("hello")}
	if err := client.WriteMessage(want); err != nil {
		t.Fatal(err)
	}
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.(*wire.Bcast)
	if !ok {
		t.Fatalf("got %T", got)
	}
	if b.Group != "g" || string(b.Data) != "hello" || b.RequestID != 9 {
		t.Errorf("round trip mismatch: %+v", b)
	}
}

func TestManyMessagesInOrder(t *testing.T) {
	client, server := tcpPair(t)
	const n = 500

	go func() {
		for i := 0; i < n; i++ {
			msg := &wire.Ping{Nonce: uint64(i)}
			if err := client.WriteMessage(msg); err != nil {
				return
			}
		}
	}()
	for i := 0; i < n; i++ {
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("read %d: %v", i, err)
		}
		p, ok := got.(*wire.Ping)
		if !ok || p.Nonce != uint64(i) {
			t.Fatalf("read %d: got %#v", i, got)
		}
	}
}

func TestReadMessageEOF(t *testing.T) {
	client, server := tcpPair(t)
	client.Close()
	if _, err := server.ReadMessage(); !errors.Is(err, io.EOF) {
		t.Errorf("got %v, want EOF", err)
	}
}

func TestFrameTooBig(t *testing.T) {
	client, server := pipePair(t)
	go func() {
		// Hand-write a frame header announcing an absurd length.
		hdr := []byte{0xFF, 0xFF, 0xFF, 0xFF}
		_ = client.WriteFrame(hdr)
	}()
	_, err := server.ReadMessage()
	if !errors.Is(err, ErrFrameTooBig) {
		t.Errorf("got %v, want ErrFrameTooBig", err)
	}
}

func TestEncodeFrameMatchesWriteMessage(t *testing.T) {
	client, server := tcpPair(t)
	msg := &wire.Deliver{Group: "g", Event: wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("d")}}
	frame := EncodeFrame(nil, msg)
	if err := client.WriteFrame(frame); err != nil {
		t.Fatal(err)
	}
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if d, ok := got.(*wire.Deliver); !ok || d.Event.Seq != 3 {
		t.Fatalf("got %#v", got)
	}
}

func TestConcurrentWriters(t *testing.T) {
	client, server := tcpPair(t)
	const writers, per = 8, 50

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				_ = client.WriteMessage(&wire.Ping{Nonce: uint64(w*1000 + i)})
			}
		}(w)
	}
	seen := make(map[uint64]bool)
	for i := 0; i < writers*per; i++ {
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		p := got.(*wire.Ping)
		if seen[p.Nonce] {
			t.Fatalf("duplicate or corrupt frame: nonce %d", p.Nonce)
		}
		seen[p.Nonce] = true
	}
	wg.Wait()
}

func TestPumpDeliversInOrder(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 64)
	defer pump.Close()

	const n = 200
	for i := 0; i < n; i++ {
		for {
			err := pump.SendMessage(&wire.Ping{Nonce: uint64(i)})
			if err == nil {
				break
			}
			if !errors.Is(err, ErrPumpOverflow) {
				t.Fatal(err)
			}
			time.Sleep(time.Millisecond)
		}
	}
	for i := 0; i < n; i++ {
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if p := got.(*wire.Ping); p.Nonce != uint64(i) {
			t.Fatalf("out of order: got %d, want %d", p.Nonce, i)
		}
	}
}

func TestPumpOverflow(t *testing.T) {
	// A receiver that never reads: queue fills, the send reports overflow.
	a, b := net.Pipe()
	defer a.Close()
	defer b.Close()
	pump := NewPump(NewConn(a), 4)
	defer pump.Close()

	var overflowed bool
	for i := 0; i < 100; i++ {
		if err := pump.SendMessage(&wire.Ping{Nonce: 1}); errors.Is(err, ErrPumpOverflow) {
			overflowed = true
			break
		}
	}
	if !overflowed {
		t.Error("pump never overflowed against a dead receiver")
	}
	// Closing with a blocked writer must not hang: unblock by closing
	// the pipe first.
	a.Close()
	pump.Close()
}

func TestPumpFailsOnWriteError(t *testing.T) {
	a, b := net.Pipe()
	b.Close() // peer gone: writes will fail
	pump := NewPump(NewConn(a), 4)
	defer a.Close()

	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if err := pump.SendMessage(&wire.Ping{Nonce: 1}); err != nil && !errors.Is(err, ErrPumpOverflow) {
			return // pump reported the write failure
		}
		time.Sleep(time.Millisecond)
	}
	t.Fatal("pump never surfaced the write error")
}

func TestPumpSendAfterClose(t *testing.T) {
	client, _ := tcpPair(t)
	pump := NewPump(client, 4)
	pump.Close()
	if err := pump.SendMessage(&wire.Ping{}); !errors.Is(err, ErrPumpClosed) {
		t.Errorf("got %v, want ErrPumpClosed", err)
	}
}

func TestPumpCloseDrains(t *testing.T) {
	client, server := tcpPair(t)
	pump := NewPump(client, 64)
	const n = 32
	for i := 0; i < n; i++ {
		if err := pump.SendMessage(&wire.Ping{Nonce: uint64(i)}); err != nil {
			t.Fatal(err)
		}
	}
	pump.Close() // must flush everything already queued
	for i := 0; i < n; i++ {
		got, err := server.ReadMessage()
		if err != nil {
			t.Fatalf("read %d after close: %v", i, err)
		}
		if p := got.(*wire.Ping); p.Nonce != uint64(i) {
			t.Fatalf("got %d, want %d", p.Nonce, i)
		}
	}
}

func TestListenerAddrAndClose(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	if l.Addr().String() == "" {
		t.Error("empty listener addr")
	}
	done := make(chan error, 1)
	go func() {
		_, err := l.Accept()
		done <- err
	}()
	l.Close()
	if err := <-done; !IsClosed(err) {
		t.Errorf("Accept after close: %v, want closed error", err)
	}
}

func TestDialFailure(t *testing.T) {
	if _, err := Dial("127.0.0.1:1", 100*time.Millisecond); err == nil {
		t.Error("dial to closed port succeeded")
	}
}

func BenchmarkWriteReadMessage1000(b *testing.B) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		for {
			if _, err := c.ReadMessage(); err != nil {
				return
			}
			if err := c.WriteMessage(&wire.Pong{}); err != nil {
				return
			}
		}
	}()
	client, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		b.Fatal(err)
	}
	defer client.Close()

	msg := &wire.Bcast{Group: "g", EvKind: wire.EventUpdate, ObjectID: "o", Data: make([]byte, 1000)}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := client.WriteMessage(msg); err != nil {
			b.Fatal(err)
		}
		if _, err := client.ReadMessage(); err != nil {
			b.Fatal(err)
		}
	}
}

var _ = fmt.Sprintf // keep fmt for debug scaffolding in future edits

func TestLargeFrameRoundTrip(t *testing.T) {
	client, server := tcpPair(t)
	payload := make([]byte, 4<<20) // 4 MiB
	for i := range payload {
		payload[i] = byte(i)
	}
	go func() {
		_ = client.WriteMessage(&wire.Bcast{Group: "g", EvKind: wire.EventState, ObjectID: "big", Data: payload})
	}()
	got, err := server.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	b, ok := got.(*wire.Bcast)
	if !ok || len(b.Data) != len(payload) {
		t.Fatalf("got %T, %d bytes", got, len(b.Data))
	}
	for i := 0; i < len(payload); i += 65537 {
		if b.Data[i] != payload[i] {
			t.Fatalf("corruption at %d", i)
		}
	}
}

func TestZeroLengthFrameBody(t *testing.T) {
	client, server := tcpPair(t)
	// A frame whose body is a single kind byte (empty-body message).
	if err := client.WriteMessage(&wire.ListGroups{}); err != nil {
		t.Fatal(err)
	}
	if _, err := server.ReadMessage(); err != nil {
		t.Fatal(err)
	}
}
