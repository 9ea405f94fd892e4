package wire

import "fmt"

// TransferChunkSize is the default payload size of one TransferChunk. It is
// small enough that a chunk never monopolizes a member's pump (live Delivers
// interleave between chunks) and large enough that framing overhead is
// negligible against the payload.
const TransferChunkSize = 256 << 10

// Segments is one byte string held as a list of slices, in order. On the
// wire it is indistinguishable from the concatenation (Encoder.PutSegments),
// so a writer can frame shared buffers without gathering them first. The
// slices are read, never written.
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
// frame a chunk is encoded into is the payload's one copy on the sending
// side.
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
// without cloning the payload (encoding a chunk into its frame is the only
// copy); adding defensive copies here regresses the O(1) capture.
func NewTransferStream(objects []Object, events []Event) *TransferStream {
	e := NewEncoder(nil)
	// cuts[i] is the header-buffer offset at which shared[i] interleaves.
	cuts := make([]int, 0, len(objects)+len(events))
	shared := make([][]byte, 0, len(objects)+len(events))

	e.PutUvarint(uint64(len(objects)))
	for i := range objects {
		e.PutString(objects[i].ID)
		e.PutUvarint(uint64(len(objects[i].Data)))
		cuts = append(cuts, e.Len())
		shared = append(shared, objects[i].Data)
	}
	e.PutUvarint(uint64(len(events)))
	for i := range events {
		ev := &events[i]
		e.PutUvarint(ev.Seq)
		e.PutByte(byte(ev.Kind))
		e.PutString(ev.ObjectID)
		e.PutUvarint(uint64(len(ev.Data)))
		cuts = append(cuts, e.Len())
		shared = append(shared, ev.Data)
		e.PutUvarint(ev.Sender)
		e.PutVarint(ev.Time)
	}

	// The header buffer is complete; only now is it safe to slice it
	// (earlier appends could have reallocated it).
	hdr := e.Bytes()
	s := &TransferStream{segs: make([][]byte, 0, 2*len(shared)+1)}
	prev := 0
	for i, c := range cuts {
		if c > prev {
			s.segs = append(s.segs, hdr[prev:c])
		}
		if len(shared[i]) > 0 {
			s.segs = append(s.segs, shared[i])
		}
		prev = c
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
// TransferChunk.Segments; encoding the frame is the one copy.
//
// corona:zerocopy — a chunk buffer here would be a second copy of every
// byte a join or a replica pull sends.
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
// bookkeeping. The zero value is ready to use.
type TransferAssembler struct {
	buf []byte
}

// Add appends the chunk that starts at offset; a chunk that does not start
// where the previous one ended is an error (chunks travel in order on one
// connection, so a gap is a protocol fault, never reordering). total is the
// sender's announced payload size. It only sizes the buffer up front, and
// only while it is a size one frame could carry: a corrupt or hostile
// announcement allocates nothing, and a larger payload grows by append.
func (a *TransferAssembler) Add(offset, total uint64, data []byte) error {
	if offset != uint64(len(a.buf)) {
		return fmt.Errorf("wire: transfer chunk at offset %d, want %d", offset, len(a.buf))
	}
	if a.buf == nil && total <= MaxFrame {
		a.buf = make([]byte, 0, total)
	}
	a.buf = append(a.buf, data...)
	return nil
}

// Received returns the payload bytes assembled so far.
func (a *TransferAssembler) Received() uint64 { return uint64(len(a.buf)) }

// Finish checks that exactly total bytes arrived and decodes them. The
// assembler's buffer belongs to this one transfer, and Finish hands its
// ownership to the results: their Data slices share it, uncopied (Add's
// copy is the payload's one copy on the receiving side), and the assembler
// is spent. Each Data is capped at its own length, so appending to one
// reallocates it rather than overwriting the next.
func (a *TransferAssembler) Finish(total uint64) ([]Object, []Event, error) {
	if uint64(len(a.buf)) != total {
		return nil, nil, fmt.Errorf("wire: transfer truncated: %d of %d bytes", len(a.buf), total)
	}
	buf := a.buf
	a.buf = nil
	return decodeTransferPayload(buf)
}

// decodeTransferPayload decodes a reassembled transfer payload into its
// objects and events; object and event Data alias data.
//
// corona:aliases-input — and corona:zerocopy on the decode path itself.
func decodeTransferPayload(data []byte) ([]Object, []Event, error) {
	d := NewDecoder(data)
	objs := decodeObjectsAlias(d)
	evs := decodeEventsAlias(d)
	if err := d.Err(); err != nil {
		return nil, nil, fmt.Errorf("wire: decode transfer payload: %w", err)
	}
	if d.Remaining() != 0 {
		return nil, nil, fmt.Errorf("wire: transfer payload has %d trailing bytes", d.Remaining())
	}
	return objs, evs, nil
}
