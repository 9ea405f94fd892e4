package transport

import (
	"bytes"
	"encoding/binary"
	"errors"
	"net"
	"sync"
	"testing"

	"corona/internal/wire"
)

// countingConn is a net.Conn that records every write the Conn above it
// issues, and fails them once err is set. Nothing reads from it.
type countingConn struct {
	net.Conn

	mu     sync.Mutex
	writes [][]byte
	err    error
}

func (cc *countingConn) Write(p []byte) (int, error) {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	if cc.err != nil {
		return 0, cc.err
	}
	cc.writes = append(cc.writes, bytes.Clone(p))
	return len(p), nil
}

func (cc *countingConn) Close() error { return nil }

func (cc *countingConn) count() int {
	cc.mu.Lock()
	defer cc.mu.Unlock()
	return len(cc.writes)
}

func (cc *countingConn) fail(err error) {
	cc.mu.Lock()
	cc.err = err
	cc.mu.Unlock()
}

// frames splits the bytes written so far into their frames' bodies.
func (cc *countingConn) frames(t *testing.T) [][]byte {
	t.Helper()
	cc.mu.Lock()
	stream := bytes.Join(cc.writes, nil)
	cc.mu.Unlock()
	var out [][]byte
	for len(stream) > 0 {
		n := int(binary.BigEndian.Uint32(stream))
		if 4+n > len(stream) {
			t.Fatalf("torn frame: %d of %d bytes", len(stream)-4, n)
		}
		out = append(out, stream[4:4+n])
		stream = stream[4+n:]
	}
	return out
}

// TestCorkedWritesOnce: frames written while corked stay in the write
// buffer, and uncorking sends them all, in order, with one socket write.
func TestCorkedWritesOnce(t *testing.T) {
	cc := &countingConn{}
	c := NewConn(cc)
	const k = 8
	before := writes.Load()
	err := c.Corked(func() {
		for i := range k {
			if err := c.WriteMessage(&wire.Ping{Nonce: uint64(i)}); err != nil {
				t.Fatal(err)
			}
		}
		if n := cc.count(); n != 0 {
			t.Fatalf("%d socket writes while corked", n)
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	if n := cc.count(); n != 1 {
		t.Fatalf("uncork issued %d socket writes, want 1", n)
	}
	if d := writes.Load() - before; d != 1 {
		t.Fatalf("transport.writes rose by %d, want 1", d)
	}
	for i, body := range cc.frames(t) {
		m, err := wire.Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if p, ok := m.(*wire.Ping); !ok || p.Nonce != uint64(i) {
			t.Fatalf("frame %d = %#v, want Ping %d", i, m, i)
		}
	}
	if err := c.WriteMessage(&wire.Ping{Nonce: k}); err != nil {
		t.Fatal(err)
	}
	if n := cc.count(); n != 2 {
		t.Fatalf("an uncorked write left %d socket writes, want 2", n)
	}
}

// TestCorkedRunPastBufferWrites: a corked run larger than the write buffer
// still reaches the socket while corked, so a pipelining writer keeps its
// backpressure, and the stream stays whole and in order.
func TestCorkedRunPastBufferWrites(t *testing.T) {
	cc := &countingConn{}
	c := NewConn(cc)
	const k = 100 // 100 frames of over 1000 B: past the 64 KiB buffer
	data := bytes.Repeat([]byte{'x'}, 1000)
	err := c.Corked(func() {
		for i := range k {
			if err := c.WriteMessage(&wire.Bcast{RequestID: uint64(i), Group: "g", EvKind: wire.EventUpdate, ObjectID: "o", Data: data}); err != nil {
				t.Fatal(err)
			}
		}
		if cc.count() == 0 {
			t.Fatal("a corked run past the buffer issued no socket write")
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	frames := cc.frames(t)
	if len(frames) != k {
		t.Fatalf("%d frames written, want %d", len(frames), k)
	}
	for i, body := range frames {
		m, err := wire.Unmarshal(body)
		if err != nil {
			t.Fatal(err)
		}
		if b, ok := m.(*wire.Bcast); !ok || b.RequestID != uint64(i) {
			t.Fatalf("frame %d is not Bcast %d", i, i)
		}
	}
}

// TestCorkedFlushErrorSticks: the uncork's failed flush is returned, and
// every later write fails with the same error.
func TestCorkedFlushErrorSticks(t *testing.T) {
	cc := &countingConn{}
	c := NewConn(cc)
	boom := errors.New("boom")
	err := c.Corked(func() {
		if err := c.WriteMessage(&wire.Ping{Nonce: 1}); err != nil {
			t.Fatal(err)
		}
		cc.fail(boom)
	})
	if !errors.Is(err, boom) {
		t.Fatalf("Corked = %v, want %v", err, boom)
	}
	if err := c.WriteMessage(&wire.Ping{Nonce: 2}); !errors.Is(err, boom) {
		t.Fatalf("write after a failed uncork = %v, want %v", err, boom)
	}
}

// repeatConn is a net.Conn whose reads return one frame over and over.
type repeatConn struct {
	net.Conn
	frame []byte
	off   int
}

func (rc *repeatConn) Read(p []byte) (int, error) {
	n := 0
	for n < len(p) {
		k := copy(p[n:], rc.frame[rc.off:])
		n += k
		rc.off = (rc.off + k) % len(rc.frame)
	}
	return n, nil
}

// TestReadMessageAllocations: a blocking read allocates nothing beyond the
// decode of its frame; the length prefix lives in the Conn.
func TestReadMessageAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	frame := EncodeFrame(nil, &wire.BcastAck{RequestID: 7, Seq: 9})
	c := NewConn(&repeatConn{frame: frame})
	read := testing.AllocsPerRun(1000, func() {
		if _, err := c.ReadMessage(); err != nil {
			t.Fatal(err)
		}
	})
	decode := testing.AllocsPerRun(1000, func() {
		if _, err := wire.Unmarshal(frame[4:]); err != nil {
			t.Fatal(err)
		}
	})
	if read > decode {
		t.Fatalf("ReadMessage allocates %.1f per BcastAck, wire.Unmarshal %.1f", read, decode)
	}
}
