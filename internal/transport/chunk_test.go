package transport

import (
	"bytes"
	"encoding/binary"
	"io"
	"math/rand"
	"net"
	"strings"
	"testing"
	"time"

	"corona/internal/wire"
)

// mixedSegments is a chunk body of segments on both sides of gatherMax, with
// an empty one and two large ones back to back.
func mixedSegments() wire.Segments {
	rng := rand.New(rand.NewSource(44))
	seg := func(n int) []byte {
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	return wire.Segments{seg(7), seg(gatherMax), seg(gatherMax + 1), nil, seg(1000), seg(3),
		seg(3 * gatherMax), seg(gatherMax - 1), seg(5 * gatherMax)}
}

// TestChunkFrameWireBytes: a chunk frame written with writev from its
// segments is, byte for byte, the frame of the same chunk with Data set to
// the concatenation, counted whole in transport.bytes_out, and the plain
// ReadMessage decodes it as that chunk.
func TestChunkFrameWireBytes(t *testing.T) {
	segs := mixedSegments()
	data := bytes.Join(segs, nil)
	for _, tc := range []struct {
		name string
		segs wire.Segments
	}{{"mixed", segs}, {"gathered", wire.Segments{data[:10], data[10:20]}}, {"empty", wire.Segments{}}} {
		t.Run(tc.name, func(t *testing.T) {
			m := &wire.TransferChunk{RequestID: 7, Group: "g", Offset: 1 << 20, Total: 3 << 20, Segments: tc.segs}
			want := EncodeFrame(nil, &wire.TransferChunk{RequestID: 7, Group: "g", Offset: 1 << 20, Total: 3 << 20,
				Data: bytes.Join(tc.segs, nil)})

			a, b := net.Pipe()
			defer a.Close()
			defer b.Close()
			pump := NewPump(NewConn(a), 0)
			defer pump.Close()
			out := bytesOut.Load()
			finals := make(chan struct{}, 1)
			f := NewChunkFrame(m, func() { finals <- struct{}{} })
			if _, err := pump.SendSharedRun([]*SharedFrame{f}, false); err != nil {
				t.Fatal(err)
			}
			got := make([]byte, len(want))
			if _, err := io.ReadFull(b, got); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("chunk frame bytes differ from the gathered frame:\n %x\n %x", got, want)
			}
			<-finals
			if n := bytesOut.Load() - out; n != uint64(len(want)) {
				t.Fatalf("transport.bytes_out counted %d bytes for a %d-byte frame", n, len(want))
			}

			// The same frame over TCP, where the write is a real writev, read
			// back by the plain reader.
			client, server := tcpPair(t)
			tcpPump := NewPump(client, 0)
			defer tcpPump.Close()
			f = NewChunkFrame(m, func() {})
			if _, err := tcpPump.SendSharedRun([]*SharedFrame{f}, false); err != nil {
				t.Fatal(err)
			}
			msg, err := server.ReadMessage()
			if err != nil {
				t.Fatal(err)
			}
			if got := wire.Marshal(nil, msg); !bytes.Equal(got, want[4:]) {
				t.Fatalf("ReadMessage of a writev frame re-marshals to %x, want %x", got, want[4:])
			}
		})
	}
}

// TestChunkFrameReleaseDropsSegments: a chunk frame back in the pool keeps
// no reference to the shared buffers it pointed at.
func TestChunkFrameReleaseDropsSegments(t *testing.T) {
	f := NewChunkFrame(&wire.TransferChunk{Group: "g", Segments: mixedSegments()}, nil)
	vec := f.vec[:cap(f.vec)]
	f.Release()
	for i, p := range vec {
		if p != nil {
			t.Fatalf("released frame still points at piece %d (%d bytes)", i, len(p))
		}
	}
}

// guarded returns a reserve for n bytes inside a larger buffer, with guard
// bytes on both sides, and a check that the guards are untouched.
func guarded(t *testing.T, n int) ([]byte, func()) {
	t.Helper()
	const guard = 64
	buf := bytes.Repeat([]byte{0xA5}, guard+n+guard)
	return buf[guard : guard+n : guard+n], func() {
		t.Helper()
		for i, c := range buf[:guard] {
			if c != 0xA5 {
				t.Fatalf("write before the reserved slice at %d", i-guard)
			}
		}
		for i, c := range buf[guard+n:] {
			if c != 0xA5 {
				t.Fatalf("write past the reserved slice at +%d", i)
			}
		}
	}
}

// chunkFrame is the frame of a TransferChunk carrying data.
func chunkFrame(offset, total uint64, data []byte) []byte {
	return EncodeFrame(nil, &wire.TransferChunk{RequestID: 1, Group: "g", Offset: offset, Total: total, Data: data})
}

// feed writes raw bytes to the reading side of a pipe pair.
func feed(t *testing.T, raw []byte) *Conn {
	t.Helper()
	a, b := net.Pipe()
	t.Cleanup(func() {
		a.Close()
		b.Close()
	})
	go func() {
		_, _ = a.Write(raw)
		a.Close()
	}()
	return NewConn(b)
}

// TestReadChunkInPlace: with a reserve set, every chunk's body lands in the
// slice the reserve returned — a small chunk, one larger than the read
// buffer, and one taken by ReadMessageBuffered — while other frames read as
// before.
func TestReadChunkInPlace(t *testing.T) {
	big := bytes.Repeat([]byte("0123456789abcdef"), (256<<10)/16)
	total := uint64(5 + len(big) + 3)
	raw := chunkFrame(0, total, []byte("small"))
	raw = append(raw, chunkFrame(5, total, big)...)
	raw = EncodeFrame(raw, &wire.Ping{Nonce: 9})
	raw = append(raw, chunkFrame(uint64(5+len(big)), total, []byte("end"))...)
	raw = EncodeFrame(raw, &wire.Ping{Nonce: 10})
	conn := feed(t, raw)

	var asm wire.TransferAssembler
	var last []byte
	conn.ReadChunksInto(func(m *wire.TransferChunk, n int) ([]byte, error) {
		body, err := asm.Reserve(m.Offset, m.Total, n)
		last = body
		return body, err
	})
	for i, want := range []string{"small", string(big), "ping", "end", "ping"} {
		read := conn.ReadMessage
		if i > 2 {
			// The frames after the Ping are small: reading it buffered them.
			read = conn.ReadMessageBuffered
		}
		msg, err := read()
		if err != nil || msg == nil {
			t.Fatalf("read %d: %v, %v", i, msg, err)
		}
		switch m := msg.(type) {
		case *wire.TransferChunk:
			if string(m.Data) != want {
				t.Fatalf("read %d: chunk body %.16q, want %.16q", i, m.Data, want)
			}
			if &m.Data[0] != &last[0] {
				t.Fatalf("read %d: chunk body is not the reserved slice", i)
			}
		case *wire.Ping:
			if want != "ping" {
				t.Fatalf("read %d: got a Ping, want a chunk", i)
			}
		}
	}
	if asm.Received() != total {
		t.Fatalf("assembled %d of %d bytes", asm.Received(), total)
	}
}

// TestReadChunkDiscarded: a chunk the reserve refuses with a nil slice is
// skipped whole, and the next frame reads intact.
func TestReadChunkDiscarded(t *testing.T) {
	raw := chunkFrame(0, 3<<20, bytes.Repeat([]byte("x"), 100<<10))
	raw = EncodeFrame(raw, &wire.Ping{Nonce: 5})
	conn := feed(t, raw)
	conn.ReadChunksInto(func(*wire.TransferChunk, int) ([]byte, error) { return nil, nil })
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if c := msg.(*wire.TransferChunk); c.Data != nil || c.Offset != 0 || c.Total != 3<<20 {
		t.Fatalf("discarded chunk read as %+v", c)
	}
	if msg, err = conn.ReadMessage(); err != nil || msg.(*wire.Ping).Nonce != 5 {
		t.Fatalf("frame after a discarded chunk: %v, %v", msg, err)
	}
}

// TestReadChunkHostile: a hostile chunk fails the read — and with it the
// connection — without writing outside the reserved slice, and without a
// reservation sized by a length the frame does not back.
func TestReadChunkHostile(t *testing.T) {
	body := []byte("0123456789")
	good := chunkFrame(0, 10, body)
	// hdr is the header length: frame prefix and kind byte through the
	// body's length varint.
	hdr := len(good) - len(body)
	withBodyLen := func(n uint64) []byte {
		f := wire.AppendChunkHeader([]byte{0, 0, 0, 0}, &wire.TransferChunk{RequestID: 1, Group: "g", Total: 10}, int(n))
		f = append(f, body...)
		binary.BigEndian.PutUint32(f, uint32(len(f)-4))
		return f
	}
	cases := []struct {
		name  string
		raw   []byte
		total uint64
		// reserves is how many reserve calls the frame may make.
		reserves int
		want     string
	}{
		{"body longer than the frame", withBodyLen(11), 10, 0, "bytes in a"},
		{"body shorter than the frame", withBodyLen(9), 10, 0, "bytes in a"},
		{"body length past MaxFrame", withBodyLen(wire.MaxFrame + 1), 10, 0, "bytes in a"},
		{"offset not at the end", chunkFrame(3, 10, body[3:]), 10, 1, "offset 3, want 0"},
		{"body past the announced total", chunkFrame(0, 4, body), 4, 1, "runs past the announced 4"},
		{"frame past MaxFrame", []byte{0x7f, 0xff, 0xff, 0xff, byte(wire.KindTransferChunk)}, 10, 0, ErrFrameTooBig.Error()},
		{"truncated body", good[:len(good)-3], 10, 1, "short"},
		{"truncated header", good[:hdr-1], 10, 0, "short"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			conn := feed(t, tc.raw)
			var asm wire.TransferAssembler
			calls := 0
			var check func()
			conn.ReadChunksInto(func(m *wire.TransferChunk, n int) ([]byte, error) {
				calls++
				if _, err := asm.Reserve(m.Offset, tc.total, n); err != nil {
					return nil, err
				}
				var dst []byte
				dst, check = guarded(t, n)
				return dst, nil
			})
			_, err := conn.ReadMessage()
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("read = %v, want an error containing %q", err, tc.want)
			}
			if calls > tc.reserves {
				t.Fatalf("%d reservations, want at most %d", calls, tc.reserves)
			}
			if check != nil {
				check()
			}
		})
	}
}

// transferShape is a join's payload: the objects and events of one group.
type transferShape struct {
	name    string
	objects []wire.Object
	events  []wire.Event
}

func transferShapes() []transferShape {
	objects := make([]wire.Object, 8)
	for i := range objects {
		objects[i] = wire.Object{ID: string(rune('a' + i)), Data: bytes.Repeat([]byte{byte(i)}, 512<<10)}
	}
	events := make([]wire.Event, 4000)
	for i := range events {
		events[i] = wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o",
			Data: bytes.Repeat([]byte{byte(i)}, 1000), Sender: 1, Time: int64(i)}
	}
	return []transferShape{{"objects-8x512KiB", objects, nil}, {"events-4000x1000B", nil, events}}
}

// benchWindow is the engine's transfer window: chunk frames in flight per
// transfer.
const benchWindow = 4

// streamChunks sends stream on pump the way the engine's streamer does: one
// chunk frame per wire.TransferChunkSize, with at most benchWindow frames
// not yet written.
func streamChunks(pump *Pump, stream *wire.TransferStream) error {
	window := make(chan struct{}, benchWindow)
	for {
		chunk, off := stream.Next(wire.TransferChunkSize)
		if chunk == nil {
			return nil
		}
		window <- struct{}{}
		f := NewChunkFrame(&wire.TransferChunk{RequestID: 1, Group: "g", Offset: off, Total: stream.Total(), Segments: chunk},
			func() { <-window })
		if _, err := pump.SendSharedRun([]*SharedFrame{f}, false); err != nil {
			return err
		}
	}
}

// BenchmarkTransferStream streams a join's payload over a loopback pump
// under the transfer window and reads each chunk into a TransferAssembler
// in place, then decodes it: the transfer half of a streamed join.
func BenchmarkTransferStream(b *testing.B) {
	for _, shape := range transferShapes() {
		b.Run(shape.name, func(b *testing.B) {
			client, server := tcpPair(b)
			pump := NewPump(client, 0)
			defer pump.Close()
			var asm *wire.TransferAssembler
			server.ReadChunksInto(func(m *wire.TransferChunk, n int) ([]byte, error) {
				return asm.Reserve(m.Offset, m.Total, n)
			})
			total := wire.NewTransferStream(shape.objects, shape.events).Total()
			b.SetBytes(int64(total))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				asm = new(wire.TransferAssembler)
				sent := make(chan error, 1)
				go func() { sent <- streamChunks(pump, wire.NewTransferStream(shape.objects, shape.events)) }()
				for asm.Received() < total {
					if _, err := server.ReadMessage(); err != nil {
						b.Fatal(err)
					}
				}
				if err := <-sent; err != nil {
					b.Fatal(err)
				}
				if _, _, err := asm.Finish(total); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// TestStreamChunksReassembles: the benchmark's streamer and in-place reader
// deliver each shape intact, over a real writev.
func TestStreamChunksReassembles(t *testing.T) {
	for _, shape := range transferShapes() {
		client, server := tcpPair(t)
		pump := NewPump(client, 0)
		var asm wire.TransferAssembler
		server.ReadChunksInto(func(m *wire.TransferChunk, n int) ([]byte, error) {
			return asm.Reserve(m.Offset, m.Total, n)
		})
		stream := wire.NewTransferStream(shape.objects, shape.events)
		total := stream.Total()
		sent := make(chan error, 1)
		go func() { sent <- streamChunks(pump, stream) }()
		_ = server.SetReadDeadline(time.Now().Add(10 * time.Second))
		for asm.Received() < total {
			if _, err := server.ReadMessage(); err != nil {
				t.Fatal(err)
			}
		}
		if err := <-sent; err != nil {
			t.Fatal(err)
		}
		pump.Close()
		objs, evs, err := asm.Finish(total)
		if err != nil {
			t.Fatal(err)
		}
		if len(objs) != len(shape.objects) || len(evs) != len(shape.events) {
			t.Fatalf("%s: %d objects, %d events", shape.name, len(objs), len(evs))
		}
		for i := range objs {
			if !bytes.Equal(objs[i].Data, shape.objects[i].Data) {
				t.Fatalf("%s: object %d differs", shape.name, i)
			}
		}
		for i := range evs {
			if !bytes.Equal(evs[i].Data, shape.events[i].Data) || evs[i].Seq != shape.events[i].Seq {
				t.Fatalf("%s: event %d differs", shape.name, i)
			}
		}
	}
}
