// Package transport frames Corona wire messages over TCP (or any
// net.Conn). A frame is a 4-byte big-endian length followed by the encoded
// message. The package also provides Pump, a bounded asynchronous writer
// used by servers to fan a multicast out to many members without letting a
// slow receiver stall the group.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"time"

	"corona/internal/wire"
)

// Frame and connection errors.
var (
	// ErrFrameTooBig is returned when a peer announces a frame larger
	// than wire.MaxFrame.
	ErrFrameTooBig = errors.New("transport: frame exceeds maximum size")
	// ErrPumpOverflow is returned by Pump.Send when the receiver cannot
	// keep up and its queue is full.
	ErrPumpOverflow = errors.New("transport: send queue overflow")
	// ErrPumpClosed is returned by Pump.Send after the pump has stopped.
	ErrPumpClosed = errors.New("transport: pump closed")
)

// Conn is a framed message connection. Reads must come from a single
// goroutine; writes are internally serialized and may come from many.
type Conn struct {
	nc net.Conn
	br *bufio.Reader

	wmu sync.Mutex
	bw  *bufio.Writer
	// corked holds WriteMessage's and WriteFrame's flushes (Corked),
	// guarded by wmu.
	corked bool
	// wbuf is the reusable marshal buffer, guarded by wmu.
	wbuf []byte
	// wvec is the reusable iovec list of a vectored write, guarded by wmu.
	wvec net.Buffers

	// hdr is the length prefix of a blocking read, and rbuf the reusable
	// read buffer, both owned by the reading goroutine.
	hdr  [4]byte
	rbuf []byte
	// reserve, when set, takes TransferChunk bodies in place (ReadChunksInto).
	reserve wire.ChunkReserve
}

// NewConn wraps nc in a framed connection.
func NewConn(nc net.Conn) *Conn {
	return &Conn{
		nc: nc,
		br: bufio.NewReaderSize(nc, 64<<10),
		bw: bufio.NewWriterSize(socketWriter{nc}, 64<<10),
	}
}

// socketWriter is the write buffer's way to the socket; it counts each
// write the buffer issues.
type socketWriter struct{ nc net.Conn }

func (w socketWriter) Write(p []byte) (int, error) {
	writes.Inc()
	return w.nc.Write(p)
}

// ReadChunksInto makes every later read of a TransferChunk, whatever its
// size, read the body into the slice reserve returns rather than into the
// connection's read buffer (wire.ReadTransferChunk): the returned chunk's
// Data is that slice, and an error from reserve fails the read. Call it from
// the reading goroutine.
func (c *Conn) ReadChunksInto(reserve wire.ChunkReserve) { c.reserve = reserve }

// Dial connects to addr with the given timeout and returns a framed
// connection. Like every TCP connection Go makes, dialed or accepted, it has
// TCP_NODELAY set: interactive latency matters more than byte efficiency
// for a collaboration service.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	nc, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	return NewConn(nc), nil
}

// Open dials addr, writes the opening frames, and reads the first reply.
// timeout bounds the whole exchange, dial included; the returned connection
// has no read deadline. On error no connection is left open.
func Open(addr string, timeout time.Duration, opening ...wire.Message) (*Conn, wire.Message, error) {
	deadline := time.Now().Add(timeout)
	c, err := Dial(addr, timeout)
	if err != nil {
		return nil, nil, err
	}
	for _, m := range opening {
		if err = c.WriteMessage(m); err != nil {
			c.Close()
			return nil, nil, err
		}
	}
	reply, err := c.ReadWithin(time.Until(deadline))
	if err != nil {
		c.Close()
		return nil, nil, err
	}
	return c, reply, nil
}

// ReadWithin reads one message, waiting at most d for it, and leaves the
// connection without a read deadline.
func (c *Conn) ReadWithin(d time.Duration) (wire.Message, error) {
	_ = c.nc.SetReadDeadline(time.Now().Add(d))
	msg, err := c.ReadMessage()
	_ = c.nc.SetReadDeadline(time.Time{})
	return msg, err
}

// ReadMessage reads and decodes one message. The returned message does not
// alias the connection's buffers. io.EOF is returned unwrapped on a clean
// close between frames.
func (c *Conn) ReadMessage() (wire.Message, error) {
	if _, err := io.ReadFull(c.br, c.hdr[:]); err != nil {
		if errors.Is(err, io.ErrUnexpectedEOF) {
			return nil, io.EOF
		}
		return nil, err
	}
	n := binary.BigEndian.Uint32(c.hdr[:])
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	return c.readFrame(n)
}

// ReadMessageBuffered decodes the next message only when a complete frame
// is already sitting in the connection's read buffer; otherwise it returns
// (nil, nil) immediately, without touching the socket. Callers use it to
// greedily drain a burst after a blocking ReadMessage — an idle connection
// costs nothing and never waits. A frame larger than the buffer (bulk
// transfers) also reports not-buffered and is left for the next blocking
// read.
func (c *Conn) ReadMessageBuffered() (wire.Message, error) {
	if c.br.Buffered() < 4 {
		return nil, nil
	}
	hdr, err := c.br.Peek(4)
	if err != nil {
		return nil, nil // surfaces on the next blocking read
	}
	n := binary.BigEndian.Uint32(hdr)
	if n > wire.MaxFrame {
		return nil, fmt.Errorf("%w: %d bytes", ErrFrameTooBig, n)
	}
	if c.br.Buffered() < 4+int(n) {
		return nil, nil
	}
	if _, err := c.br.Discard(4); err != nil {
		return nil, err
	}
	readCoalesced.Inc()
	return c.readFrame(n)
}

// readFrame reads and decodes the frame of n bytes whose length prefix has
// been consumed: a TransferChunk's body in place when a reserve is set, any
// other frame through the reusable read buffer.
func (c *Conn) readFrame(n uint32) (wire.Message, error) {
	if c.reserve != nil && n > 0 {
		if k, err := c.br.Peek(1); err == nil && wire.Kind(k[0]) == wire.KindTransferChunk {
			m, err := wire.ReadTransferChunk(c.br, int(n), c.reserve)
			if err != nil {
				return nil, fmt.Errorf("transport: %w", err)
			}
			bytesIn.Add(uint64(4 + n))
			return m, nil
		}
	}
	buf := c.frameBuf(n)
	if _, err := io.ReadFull(c.br, buf); err != nil {
		return nil, fmt.Errorf("transport: short frame: %w", err)
	}
	bytesIn.Add(uint64(4 + n))
	return wire.Unmarshal(buf)
}

// frameBuf returns the reusable read buffer sized to n. A jumbo frame (up
// to wire.MaxFrame) would otherwise pin its memory on the connection for
// the rest of its life, so the buffer is dropped before reuse once the
// demand falls back under maxRetainedRead. The previous call's slice is dead
// by contract (valid only until the next read), so replacing the backing
// array here is safe.
func (c *Conn) frameBuf(n uint32) []byte {
	if cap(c.rbuf) > maxRetainedRead && int(n) <= maxRetainedRead {
		c.rbuf = nil
	}
	if cap(c.rbuf) < int(n) {
		c.rbuf = make([]byte, n)
	}
	return c.rbuf[:n]
}

// WriteMessage encodes and writes one message, flushing immediately unless
// the connection is corked.
func (c *Conn) WriteMessage(msg wire.Message) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.wbuf = appendFrame(c.wbuf[:0], msg)
	if _, err := c.bw.Write(c.wbuf); err != nil {
		return err
	}
	bytesOut.Add(uint64(len(c.wbuf)))
	return c.flushUncorked()
}

// WriteFrame writes a pre-encoded frame (as produced by EncodeFrame),
// flushing immediately unless the connection is corked. Servers use it to
// marshal a fanout message once.
func (c *Conn) WriteFrame(frame []byte) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if _, err := c.bw.Write(frame); err != nil {
		return err
	}
	bytesOut.Add(uint64(len(frame)))
	return c.flushUncorked()
}

// Corked runs fn with the connection corked: every WriteMessage and
// WriteFrame made meanwhile, by any goroutine, leaves its frame in the
// 64 KiB write buffer, and when fn returns the buffer goes out in one
// write. A frame that does not fit still writes what the buffer holds, so
// a writer that outruns its peer keeps its backpressure. Corked returns the
// closing flush's error; a failed flush fails every later write with the
// same error. Calls must not overlap.
func (c *Conn) Corked(fn func()) error {
	c.wmu.Lock()
	c.corked = true
	c.wmu.Unlock()
	fn()
	c.wmu.Lock()
	defer c.wmu.Unlock()
	c.corked = false
	return c.bw.Flush()
}

// flushUncorked flushes the write buffer unless the connection is corked.
// Caller holds wmu.
func (c *Conn) flushUncorked() error {
	if c.corked {
		return nil
	}
	return c.bw.Flush()
}

// writeShared writes a pooled frame without flushing; it is the Pump's
// writer. A frame of its own bytes goes into the write buffer, so a burst
// shares one syscall. A vectored frame (NewChunkFrame) goes out with one
// writev of its pieces, after what the buffer holds, so the kernel reads the
// shared segments where they lie.
func (c *Conn) writeShared(f *SharedFrame) error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	if len(f.vec) == 0 {
		if _, err := c.bw.Write(f.buf); err != nil {
			return err
		}
		bytesOut.Add(uint64(len(f.buf)))
		return nil
	}
	if err := c.bw.Flush(); err != nil {
		return err
	}
	// WriteTo consumes the list it is given, so it gets a copy: the
	// frame's own list may be shared by several pumps.
	c.wvec = append(c.wvec[:0], f.vec...)
	vec := c.wvec
	writes.Inc()
	_, err := vec.WriteTo(c.nc)
	clear(c.wvec)
	if err != nil {
		return err
	}
	bytesOut.Add(4 + uint64(binary.BigEndian.Uint32(f.buf)))
	return nil
}

func (c *Conn) flush() error {
	c.wmu.Lock()
	defer c.wmu.Unlock()
	return c.bw.Flush()
}

// SetReadDeadline sets the deadline for future reads.
func (c *Conn) SetReadDeadline(t time.Time) error { return c.nc.SetReadDeadline(t) }

// RemoteAddr returns the remote network address.
func (c *Conn) RemoteAddr() net.Addr { return c.nc.RemoteAddr() }

// LocalAddr returns the local network address.
func (c *Conn) LocalAddr() net.Addr { return c.nc.LocalAddr() }

// Close closes the underlying connection. Any blocked read or write is
// unblocked with an error.
func (c *Conn) Close() error { return c.nc.Close() }

// EncodeFrame appends the framed encoding of msg (length prefix plus body)
// to buf and returns the result.
func EncodeFrame(buf []byte, msg wire.Message) []byte {
	return appendFrame(buf, msg)
}

func appendFrame(buf []byte, msg wire.Message) []byte {
	// Reserve the length prefix, marshal, then patch the prefix.
	start := len(buf)
	buf = append(buf, 0, 0, 0, 0)
	buf = wire.Marshal(buf, msg)
	binary.BigEndian.PutUint32(buf[start:], uint32(len(buf)-start-4))
	return buf
}
