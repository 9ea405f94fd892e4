package transport

import (
	"encoding/binary"
	"slices"
	"sync"
	"sync/atomic"

	"corona/internal/wire"
)

// maxPooledFrame caps the buffer a pooled frame keeps when it returns to the
// pool. Occasional jumbo frames (near wire.MaxFrame) would otherwise pin
// megabytes per pool slot forever. The largest frame whose bytes still pass
// through a pooled buffer is a transfer chunk of an event history: its
// segments are all below gatherMax, so NewChunkFrame gathers the whole body,
// up to wire.TransferChunkSize, behind the header. A streaming transfer
// produces a long run of such frames back to back, so the bound admits one
// plus its envelope; a chunk of large objects keeps only its header here.
const maxPooledFrame = wire.TransferChunkSize + 32<<10

// maxRetainedRead caps the read buffer a connection keeps between frames.
// Every frame a reader still takes whole is much smaller than a transfer
// chunk, whose body a receiver reads in place (Conn.ReadChunksInto). The
// largest routine one is an inline JoinAck: up to 64 KiB of payload (the
// engine streams anything larger) plus its member list, so the bound admits
// twice that payload.
const maxRetainedRead = 128 << 10

// gatherMax is the segment size from which a chunk frame points the socket
// write at a segment where it lies instead of copying it into the frame's
// buffer. An event history is hundreds of small segments per chunk (each
// event's header and data); gathering them keeps a writev to a few iovecs,
// and below this size the copy costs less than the iovec.
const gatherMax = 4 << 10

var framePool = sync.Pool{New: func() any { return new(SharedFrame) }}

// SharedFrame is a pooled, reference-counted encoded frame. The multicast
// fanout encodes a Deliver once and enqueues the same frame on every
// member's pump; the buffer returns to the pool when the last pump has
// written (or discarded) it, so steady-state fanout allocates nothing.
//
// Ownership: a frame is made holding one reference. A send takes one
// reference, whatever it returns; Retain before sending a frame you go on
// using. transport.frames_live counts the frames not yet finally released.
type SharedFrame struct {
	buf []byte
	// vec, when non-empty, is the whole frame as the pieces one writev
	// writes: pieces of buf, and the shared segments of a chunk frame
	// (NewChunkFrame) between them. buf alone is the frame otherwise.
	vec     [][]byte
	refs    atomic.Int32
	onFinal func()
}

// NewSharedFrame encodes msg into a pooled frame with one reference.
func NewSharedFrame(msg wire.Message) *SharedFrame {
	f := framePool.Get().(*SharedFrame)
	f.buf = appendFrame(f.buf[:0], msg)
	f.onFinal = nil
	f.refs.Store(1)
	framesLive.Add(1)
	return f
}

// NewChunkFrame frames a transfer chunk, whose body is m.Segments, with one
// reference and without encoding the body: the frame's buffer holds the
// length prefix, the chunk's header and every segment shorter than
// gatherMax, and the pump writes it with the longer segments between, where
// they lie, in one writev. The bytes are NewSharedFrame's for m with Data
// set to the segments' concatenation. onFinal runs exactly once, when the
// last reference is released (the frame has been written or discarded by
// every pump); until then the segments must not change. The state-transfer
// streamer uses it as its flow-control signal. onFinal must not retain the
// frame.
func NewChunkFrame(m *wire.TransferChunk, onFinal func()) *SharedFrame {
	f := framePool.Get().(*SharedFrame)
	n, gathered := 0, 0
	for _, s := range m.Segments {
		n += len(s)
		if len(s) < gatherMax {
			gathered += len(s)
		}
	}
	buf := wire.AppendChunkHeader(append(f.buf[:0], 0, 0, 0, 0), m, n)
	binary.BigEndian.PutUint32(buf, uint32(len(buf)-4+n))
	// Growing once up front keeps every piece of buf sliced below valid
	// while the rest is appended.
	buf = slices.Grow(buf, gathered)
	vec, cut := f.vec[:0], 0
	for _, s := range m.Segments {
		if len(s) < gatherMax {
			buf = append(buf, s...)
			continue
		}
		if len(buf) > cut {
			vec = append(vec, buf[cut:])
		}
		vec = append(vec, s)
		cut = len(buf)
	}
	if len(buf) > cut {
		vec = append(vec, buf[cut:])
	}
	f.buf, f.vec, f.onFinal = buf, vec, onFinal
	f.refs.Store(1)
	framesLive.Add(1)
	return f
}

// Retain adds one reference, for one more send of a frame the caller goes
// on using.
func (f *SharedFrame) Retain() { f.refs.Add(1) }

// Release drops one reference, returning the frame to the pool when the
// count reaches zero. Releasing a frame past its last reference panics.
func (f *SharedFrame) Release() {
	switch n := f.refs.Add(-1); {
	case n == 0:
		framesLive.Add(-1)
		if fn := f.onFinal; fn != nil {
			f.onFinal = nil
			fn()
		}
		clear(f.vec) // the shared segments are not the pool's to keep
		f.vec = f.vec[:0]
		if cap(f.buf) > maxPooledFrame {
			f.buf = nil
		}
		framePool.Put(f)
	case n < 0:
		panic("transport: SharedFrame over-released")
	}
}
