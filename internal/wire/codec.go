// Package wire defines the Corona wire protocol: the message types exchanged
// between clients and servers and between servers of a replicated service,
// together with a compact, allocation-conscious binary codec.
//
// Every message is encoded as a one-byte Kind followed by the message body.
// Bodies are built from a small set of primitives: unsigned varints,
// length-prefixed byte strings, and fixed-width integers for values that are
// hot on the decode path. The codec is hand-rolled (no reflection) so that
// encoding cost stays negligible next to the network round trip, which is the
// quantity the paper's evaluation measures.
package wire

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"slices"
)

// Codec limits. MaxFrame bounds a whole encoded message; the transport layer
// enforces it on receive so a corrupt length prefix cannot cause an
// unbounded allocation.
const (
	// MaxFrame is the largest encoded message the protocol permits.
	MaxFrame = 64 << 20 // 64 MiB
	// MaxStringLen bounds any single string field.
	MaxStringLen = 1 << 20
)

// Codec errors.
var (
	ErrShortBuffer = errors.New("wire: short buffer")
	ErrFieldTooBig = errors.New("wire: field exceeds limit")
	ErrBadVarint   = errors.New("wire: malformed varint")
)

// Encoder appends protocol primitives to a byte slice. The zero value is
// ready to use; Bytes returns the accumulated encoding.
type Encoder struct {
	buf []byte
}

// NewEncoder returns an Encoder that appends to buf (which may be nil).
// Existing contents of buf are preserved; pass buf[:0] to reuse its storage.
func NewEncoder(buf []byte) *Encoder {
	return &Encoder{buf: buf}
}

// Bytes returns the encoded bytes. The slice aliases the Encoder's internal
// buffer and is valid until the next Put call.
func (e *Encoder) Bytes() []byte { return e.buf }

// Len returns the number of bytes encoded so far.
func (e *Encoder) Len() int { return len(e.buf) }

// Reset discards any encoded data, retaining the buffer.
func (e *Encoder) Reset() { e.buf = e.buf[:0] }

// PutByte appends a single byte.
func (e *Encoder) PutByte(b byte) { e.buf = append(e.buf, b) }

// PutBool appends a boolean as one byte (0 or 1).
func (e *Encoder) PutBool(b bool) {
	if b {
		e.buf = append(e.buf, 1)
		return
	}
	e.buf = append(e.buf, 0)
}

// PutUvarint appends an unsigned varint.
func (e *Encoder) PutUvarint(v uint64) {
	e.buf = binary.AppendUvarint(e.buf, v)
}

// PutVarint appends a signed varint (zig-zag).
func (e *Encoder) PutVarint(v int64) {
	e.buf = binary.AppendVarint(e.buf, v)
}

// PutUint32 appends a fixed-width big-endian uint32.
func (e *Encoder) PutUint32(v uint32) {
	e.buf = binary.BigEndian.AppendUint32(e.buf, v)
}

// PutUint64 appends a fixed-width big-endian uint64.
func (e *Encoder) PutUint64(v uint64) {
	e.buf = binary.BigEndian.AppendUint64(e.buf, v)
}

// PutBytes appends a length-prefixed byte string.
func (e *Encoder) PutBytes(b []byte) {
	e.PutUvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

// PutSegments appends segs as one length-prefixed byte string: the bytes
// PutBytes writes for their concatenation, without concatenating them
// first. The encoder's buffer is the one copy.
func (e *Encoder) PutSegments(segs Segments) {
	n := segs.Len()
	e.PutUvarint(uint64(n))
	e.buf = slices.Grow(e.buf, n)
	for _, s := range segs {
		e.buf = append(e.buf, s...)
	}
}

// PutString appends a length-prefixed string.
func (e *Encoder) PutString(s string) {
	e.PutUvarint(uint64(len(s)))
	e.buf = append(e.buf, s...)
}

// Decoder consumes protocol primitives from a byte slice. Decoding methods
// record the first error encountered; callers may batch several reads and
// check Err once, which keeps per-field decode code terse.
type Decoder struct {
	buf []byte
	off int
	err error
	ids map[string]string // String's interned values; nil: String copies each
}

// NewDecoder returns a Decoder reading from buf. The Decoder does not copy
// buf; byte-string fields alias it unless decoded with ByteCopy.
func NewDecoder(buf []byte) *Decoder {
	return &Decoder{buf: buf}
}

// Err returns the first decoding error, or nil.
func (d *Decoder) Err() error { return d.err }

// Intern makes String return the one copy of each value it has read before
// into ids, and add each new value there. A lookup by string(bytes)
// allocates nothing, so a caller that decodes the same few strings over and
// over keeps one ids across its decoders and allocates each string once.
func (d *Decoder) Intern(ids map[string]string) { d.ids = ids }

// Remaining returns the number of unconsumed bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) fail(err error) {
	if d.err == nil {
		d.err = err
	}
}

// Byte reads a single byte.
func (d *Decoder) Byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

// Bool reads a one-byte boolean.
func (d *Decoder) Bool() bool { return d.Byte() != 0 }

// Uvarint reads an unsigned varint.
func (d *Decoder) Uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrBadVarint)
		return 0
	}
	d.off += n
	return v
}

// Varint reads a signed varint.
func (d *Decoder) Varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail(ErrBadVarint)
		return 0
	}
	d.off += n
	return v
}

// Uint32 reads a fixed-width big-endian uint32.
func (d *Decoder) Uint32() uint32 {
	if d.err != nil {
		return 0
	}
	if d.off+4 > len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint32(d.buf[d.off:])
	d.off += 4
	return v
}

// Uint64 reads a fixed-width big-endian uint64.
func (d *Decoder) Uint64() uint64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail(ErrShortBuffer)
		return 0
	}
	v := binary.BigEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

// Bytes reads a length-prefixed byte string. The returned slice aliases the
// Decoder's buffer; use ByteCopy when the data must outlive the buffer.
//
// corona:aliases-input — callers must not mutate the result or retain it
// past the buffer's lifetime (enforced by the aliasretain analyzer).
func (d *Decoder) Bytes() []byte {
	n := d.Uvarint()
	if d.err != nil {
		return nil
	}
	if n > math.MaxInt32 || int(n) > d.Remaining() {
		d.fail(ErrShortBuffer)
		return nil
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	return b
}

// ByteCopy reads a length-prefixed byte string into freshly allocated memory.
func (d *Decoder) ByteCopy() []byte {
	b := d.Bytes()
	if d.err != nil {
		return nil
	}
	if len(b) == 0 {
		return nil
	}
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// String reads a length-prefixed string: a fresh copy, or the interned
// one after Intern.
func (d *Decoder) String() string {
	n := d.Uvarint()
	if d.err != nil {
		return ""
	}
	if n > MaxStringLen {
		d.fail(fmt.Errorf("%w: string of %d bytes", ErrFieldTooBig, n))
		return ""
	}
	if int(n) > d.Remaining() {
		d.fail(ErrShortBuffer)
		return ""
	}
	b := d.buf[d.off : d.off+int(n)]
	d.off += int(n)
	if d.ids == nil {
		return string(b)
	}
	if s, ok := d.ids[string(b)]; ok {
		return s
	}
	s := string(b)
	d.ids[s] = s
	return s
}
