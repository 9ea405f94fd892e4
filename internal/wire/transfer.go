package wire

import (
	"bufio"
	"fmt"
	"io"
	"slices"
)

// TransferChunkSize is the default payload size of one TransferChunk. It is
// small enough that a chunk never monopolizes a member's pump (live Delivers
// interleave between chunks) and large enough that framing overhead is
// negligible against the payload.
const TransferChunkSize = 256 << 10

// Segments is one byte string held as a list of slices, in order. On the
// wire it is indistinguishable from the concatenation, so a writer can send
// shared buffers without gathering them first: a transfer frame hands the
// large slices to the socket write as they lie (transport.NewChunkFrame).
// The slices are read, never written.
type Segments [][]byte

// Len returns the length of the concatenation.
func (s Segments) Len() int {
	n := 0
	for _, b := range s {
		n += len(b)
	}
	return n
}

// TransferStream incrementally encodes a state-transfer payload — the
// standard encoding of objects followed by events, exactly as a non-streamed
// JoinAck would carry them — without ever materializing the whole payload or
// copying the object/event data buffers. The stream keeps a segment list:
// small header segments (counts, IDs, length prefixes) built once into a
// private buffer, interleaved with the caller's data slices, which are
// shared, not copied. Building a stream is therefore O(#objects + #events)
// regardless of payload bytes, and draining it copies nothing either: the
// socket write reads a chunk's large pieces where they lie, so the kernel's
// copy is the payload's only one on the sending side.
//
// The caller must not mutate the objects' or events' Data buffers while the
// stream or any chunk it produced is live. A state.Transfer provides exactly
// that guarantee.
type TransferStream struct {
	segs  [][]byte
	pos   int // current segment
	off   int // consumed bytes of segs[pos]
	total uint64
	sent  uint64
}

// NewTransferStream returns a stream over the given payload. The Data
// slices of objects and events are shared until the stream and its chunks
// are dropped.
//
// corona:zerocopy — the stream interleaves the shared buffers into chunks
// without cloning the payload (the socket write reads them in place);
// adding defensive copies here regresses the O(1) capture.
func NewTransferStream(objects []Object, events []Event) *TransferStream {
	c := NewWriter(nil)
	// cuts[i] is the header-buffer offset at which shared[i] interleaves.
	cuts := make([]int, 0, len(objects)+len(events))
	shared := make([][]byte, 0, len(objects)+len(events))
	// Every field but Data is written as Object.Fields and Event.Fields
	// write it; Data leaves only its length in the header.
	share := func(data []byte) {
		c.putUvarint(uint64(len(data)))
		cuts = append(cuts, len(c.buf))
		shared = append(shared, data)
	}

	c.putUvarint(uint64(len(objects)))
	for i := range objects {
		c.String(&objects[i].ID)
		share(objects[i].Data)
	}
	c.putUvarint(uint64(len(events)))
	for i := range events {
		ev := &events[i]
		c.Uvarint(&ev.Seq)
		Byte(c, &ev.Kind)
		c.String(&ev.ObjectID)
		share(ev.Data)
		c.Uvarint(&ev.Sender)
		c.Varint(&ev.Time)
	}

	// The header buffer is complete; only now is it safe to slice it
	// (earlier appends could have reallocated it).
	hdr := c.buf
	s := &TransferStream{segs: make([][]byte, 0, 2*len(shared)+1)}
	prev := 0
	for i, cut := range cuts {
		if cut > prev {
			s.segs = append(s.segs, hdr[prev:cut])
		}
		if len(shared[i]) > 0 {
			s.segs = append(s.segs, shared[i])
		}
		prev = cut
	}
	if len(hdr) > prev {
		s.segs = append(s.segs, hdr[prev:])
	}
	for _, seg := range s.segs {
		s.total += uint64(len(seg))
	}
	return s
}

// Total returns the payload size in bytes.
func (s *TransferStream) Total() uint64 { return s.total }

// Remaining returns the bytes not yet produced by Next.
func (s *TransferStream) Remaining() uint64 { return s.total - s.sent }

// Next produces the next chunk of at most max bytes, together with its
// starting offset, or a nil chunk once the stream is drained. The chunk is a
// list of sub-slices of the stream's header buffer and of the caller's
// shared Data buffers: Next copies no payload byte, and a chunk stays valid
// after later Next calls for as long as those buffers do. Frame it with
// TransferChunk.Segments (transport.NewChunkFrame), which writes it without
// a user-space copy.
//
// corona:zerocopy — a chunk buffer here would be a copy of every byte a
// join or a replica pull sends.
func (s *TransferStream) Next(max int) (chunk Segments, offset uint64) {
	if max <= 0 || s.sent == s.total {
		return nil, s.sent
	}
	offset = s.sent
	first, skip := s.pos, s.off
	for n := 0; n < max && s.pos < len(s.segs); {
		rest := len(s.segs[s.pos]) - s.off
		if room := max - n; room < rest {
			s.off += room
			break
		}
		n += rest
		s.pos++
		s.off = 0
	}
	end := s.pos
	if s.off > 0 {
		end++ // the chunk ends inside segment s.pos
	}
	chunk = make(Segments, end-first)
	copy(chunk, s.segs[first:end])
	if s.off > 0 {
		chunk[len(chunk)-1] = chunk[len(chunk)-1][:s.off]
	}
	chunk[0] = chunk[0][skip:]
	s.sent += uint64(chunk.Len())
	return chunk, offset
}

// TransferAssembler is the inverse of TransferStream: it takes the chunks
// of one streamed payload in offset order and decodes the reassembled bytes.
// It hides the payload format and the allocation bound from the receivers
// (a joining client, a server pulling a replica), which keep only their own
// bookkeeping. A receiver reserves each chunk's room at the assembler's end
// and the connection reads the body from the socket straight into it
// (ReadTransferChunk), so the kernel's copy is the payload's only one on
// the receiving side. The zero value is ready to use.
type TransferAssembler struct {
	buf []byte
}

// Reserve extends the payload by the n bytes of the chunk that starts at
// offset and returns them, for the caller to fill with the chunk's body. A
// chunk that does not start where the previous one ended is an error (chunks
// travel in order on one connection, so a gap is a protocol fault, never
// reordering), and so is one that runs past total, the sender's announced
// payload size. total also sizes the buffer on the first chunk, but only
// while it is a size one frame could carry: a corrupt or hostile
// announcement allocates nothing, and a larger payload grows as its chunks
// arrive, each at most one frame.
func (a *TransferAssembler) Reserve(offset, total uint64, n int) ([]byte, error) {
	have := uint64(len(a.buf))
	if offset != have {
		return nil, fmt.Errorf("wire: transfer chunk at offset %d, want %d", offset, have)
	}
	if n < 0 || total < have || uint64(n) > total-have {
		return nil, fmt.Errorf("wire: transfer chunk of %d bytes at %d runs past the announced %d", n, offset, total)
	}
	if a.buf == nil && total <= MaxFrame {
		a.buf = make([]byte, 0, total)
	}
	a.buf = slices.Grow(a.buf, n)[:len(a.buf)+n]
	return a.buf[have:len(a.buf):len(a.buf)], nil
}

// Received returns the payload bytes assembled so far.
func (a *TransferAssembler) Received() uint64 { return uint64(len(a.buf)) }

// Finish checks that exactly total bytes arrived and decodes them. The
// assembler's buffer belongs to this one transfer, and Finish hands its
// ownership to the results: their Data slices share it, uncopied, and the
// assembler is spent. Each Data is capped at its own length, so appending to
// one reallocates it rather than overwriting the next.
func (a *TransferAssembler) Finish(total uint64) ([]Object, []Event, error) {
	if uint64(len(a.buf)) != total {
		return nil, nil, fmt.Errorf("wire: transfer truncated: %d of %d bytes", len(a.buf), total)
	}
	buf := a.buf
	a.buf = nil
	return decodeTransferPayload(buf)
}

// AppendChunkHeader appends the bytes that precede a chunk's body in its
// frame — the kind, every field of m but the body, and the body's length n —
// to buf. These bytes followed by a body of n bytes are Marshal(m) with Data
// set to that body; the transport frames a chunk this way around its
// segments, without encoding them (transport.NewChunkFrame).
func AppendChunkHeader(buf []byte, m *TransferChunk, n int) []byte {
	c := NewWriter(append(buf, byte(KindTransferChunk)))
	m.header(c)
	c.putUvarint(uint64(n))
	return c.buf
}

// ChunkReserve returns the slice a TransferChunk's body of size bytes is to
// be read into, normally a TransferAssembler's reservation. nil discards the
// body from the stream; an error fails the read, leaving the stream
// unusable.
type ChunkReserve func(m *TransferChunk, size int) ([]byte, error)

// ReadTransferChunk reads a TransferChunk frame of n bytes, its kind byte
// included, from r without taking the body through a buffer of its own:
// it decodes the header from r's buffered bytes (it must fit in r's
// buffer), asks reserve for a slice of the body's length, and reads the body
// into that slice. A body still in the socket is read straight into it by
// the kernel. The body must end the frame exactly. reserve returning a nil
// slice discards the body from the stream; an error from reserve is
// returned, with the body left unread. The chunk's Data is the slice
// reserve returned.
func ReadTransferChunk(r *bufio.Reader, n int, reserve ChunkReserve) (*TransferChunk, error) {
	if n < 1 {
		return nil, ErrShortBuffer
	}
	m := new(TransferChunk)
	var hdr int
	var size uint64
	// A header is tens of bytes; peek more only for a long group name.
	for k := min(n, 64, r.Size()); ; k = min(2*k, n, r.Size()) {
		b, err := r.Peek(k)
		if err != nil {
			return nil, fmt.Errorf("wire: short chunk frame: %w", err)
		}
		if Kind(b[0]) != KindTransferChunk {
			return nil, fmt.Errorf("wire: %s frame read as a transfer chunk", Kind(b[0]))
		}
		c := NewReader(b[1:])
		m.header(c)
		c.Uvarint(&size)
		if c.err == nil {
			hdr = 1 + c.off
			break
		}
		if k == n || k == r.Size() {
			return nil, fmt.Errorf("wire: decode %s header: %w", KindTransferChunk, c.err)
		}
	}
	if size != uint64(n-hdr) {
		return nil, fmt.Errorf("wire: transfer chunk body of %d bytes in a %d-byte frame after a %d-byte header", size, n, hdr)
	}
	if _, err := r.Discard(hdr); err != nil {
		return nil, err
	}
	body, err := reserve(m, int(size))
	if err != nil {
		return nil, err
	}
	if body == nil {
		if _, err := r.Discard(int(size)); err != nil {
			return nil, fmt.Errorf("wire: short chunk frame: %w", err)
		}
		return m, nil
	}
	if len(body) != int(size) {
		return nil, fmt.Errorf("wire: %d bytes reserved for a %d-byte chunk body", len(body), size)
	}
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, fmt.Errorf("wire: short chunk frame: %w", err)
	}
	m.Data = body
	return m, nil
}

// decodeTransferPayload decodes a reassembled transfer payload into its
// objects and events; object and event Data alias data.
//
// corona:aliases-input — and corona:zerocopy on the decode path itself.
func decodeTransferPayload(data []byte) ([]Object, []Event, error) {
	c := NewReader(data)
	objs := DecodeObjectsAlias(c)
	evs := DecodeEventsAlias(c)
	if c.err != nil {
		return nil, nil, fmt.Errorf("wire: decode transfer payload: %w", c.err)
	}
	if c.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wire: transfer payload has %d trailing bytes", c.Remaining())
	}
	return objs, evs, nil
}
