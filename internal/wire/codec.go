// Package wire defines the Corona wire protocol: the message types exchanged
// between clients and servers and between servers of a replicated service,
// together with a compact, allocation-conscious binary codec.
//
// Every message is encoded as a one-byte Kind followed by the message body.
// Bodies are built from a small set of primitives: unsigned varints,
// length-prefixed byte strings, and fixed-width integers for values that are
// hot on the decode path. Each kind lays its body out once, in its Fields
// method, and a Codec runs that method in either direction: a writing Codec
// appends each field to its buffer, a reading one fills each field from its
// input. A field therefore cannot be written one way and read another. The
// codec is hand-rolled (no reflection) so that encoding cost stays
// negligible next to the network round trip, which is the quantity the
// paper's evaluation measures.
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

// Codec codes protocol fields in one direction. Each field method takes a
// pointer to the field: a writing Codec appends the field's value to its
// buffer, and a reading Codec sets the field from its input. A read records
// the first error it meets, and every later read sets its field to zero, so
// a caller codes a run of fields and checks Err once.
type Codec struct {
	buf  []byte // the bytes written, or the input read
	off  int    // read position in buf
	err  error
	read bool
	ids  map[string]string // String's interned values; nil: String copies each
}

// NewWriter returns a Codec that appends to buf (which may be nil).
// Existing contents of buf are preserved; pass buf[:0] to reuse its storage.
func NewWriter(buf []byte) *Codec { return &Codec{buf: buf} }

// NewReader returns a Codec reading buf. It does not copy buf; only
// BytesAlias results alias it.
func NewReader(buf []byte) *Codec { return &Codec{buf: buf, read: true} }

// Written returns a writing Codec's bytes. The slice aliases its buffer and
// is valid until the next write.
func (c *Codec) Written() []byte { return c.buf }

// Err returns the first read error, or nil.
func (c *Codec) Err() error { return c.err }

// Remaining returns the number of bytes a reading Codec has not consumed.
func (c *Codec) Remaining() int { return len(c.buf) - c.off }

// Intern makes String return the one copy of each value it has read before
// into ids, and add each new value there. A lookup by string(bytes)
// allocates nothing, so a caller that reads the same few strings over and
// over keeps one ids across its Codecs and allocates each string once.
func (c *Codec) Intern(ids map[string]string) { c.ids = ids }

func (c *Codec) fail(err error) {
	if c.err == nil {
		c.err = err
	}
}

// Bool codes a boolean as one byte (0 or 1).
func (c *Codec) Bool(v *bool) {
	if c.read {
		*v = c.byte() != 0
		return
	}
	var b byte
	if *v {
		b = 1
	}
	c.buf = append(c.buf, b)
}

// Uvarint codes an unsigned varint.
func (c *Codec) Uvarint(v *uint64) {
	if c.read {
		*v = c.uvarint()
		return
	}
	c.putUvarint(*v)
}

// Varint codes a signed (zig-zag) varint.
func (c *Codec) Varint(v *int64) {
	if c.read {
		*v = c.varint()
		return
	}
	c.buf = binary.AppendVarint(c.buf, *v)
}

// Uint32 codes a fixed-width big-endian uint32.
func (c *Codec) Uint32(v *uint32) {
	if c.read {
		*v = 0
		if b := c.next(4); b != nil {
			*v = binary.BigEndian.Uint32(b)
		}
		return
	}
	c.buf = binary.BigEndian.AppendUint32(c.buf, *v)
}

// Uint64 codes a fixed-width big-endian uint64.
func (c *Codec) Uint64(v *uint64) {
	if c.read {
		*v = 0
		if b := c.next(8); b != nil {
			*v = binary.BigEndian.Uint64(b)
		}
		return
	}
	c.buf = binary.BigEndian.AppendUint64(c.buf, *v)
}

// String codes a length-prefixed string. A read is a fresh copy, or the
// interned one after Intern.
func (c *Codec) String(s *string) {
	if c.read {
		*s = c.str()
		return
	}
	c.putUvarint(uint64(len(*s)))
	c.buf = append(c.buf, *s...)
}

// ByteCopy codes a length-prefixed byte string, copying it either way: a
// write copies *b into the buffer, and a read copies the string out of the
// input into fresh memory, nil when it is empty.
func (c *Codec) ByteCopy(b *[]byte) {
	if c.read {
		*b = nil
		if v := c.BytesAlias(); v != nil {
			*b = make([]byte, len(v))
			copy(*b, v)
		}
		return
	}
	c.putUvarint(uint64(len(*b)))
	c.buf = append(c.buf, *b...)
}

// BytesAlias reads a length-prefixed byte string aliasing the input,
// normalized to nil when empty so alias and copy reads produce identical
// values. Its capacity is clipped to its length: the strings of one buffer
// sit back to back, and an append to one must reallocate, not write over
// the next. Only a reading Codec reads it.
//
// corona:aliases-input — callers must not mutate the result or retain it
// past the buffer's lifetime (enforced by the aliasretain analyzer).
func (c *Codec) BytesAlias() []byte {
	n := c.uvarint()
	if c.err != nil {
		return nil
	}
	if n > math.MaxInt32 {
		c.fail(ErrShortBuffer)
		return nil
	}
	b := c.next(int(n))
	if len(b) == 0 {
		return nil
	}
	return b[:len(b):len(b)]
}

// putSegments writes segs as one length-prefixed byte string: the bytes
// ByteCopy writes for their concatenation, without concatenating them
// first. The buffer is the one copy.
func (c *Codec) putSegments(segs Segments) {
	n := segs.Len()
	c.putUvarint(uint64(n))
	c.buf = slices.Grow(c.buf, n)
	for _, s := range segs {
		c.buf = append(c.buf, s...)
	}
}

// next consumes the next n bytes of the input, or fails with
// ErrShortBuffer and returns nil.
func (c *Codec) next(n int) []byte {
	if c.err != nil {
		return nil
	}
	if n > c.Remaining() {
		c.fail(ErrShortBuffer)
		return nil
	}
	b := c.buf[c.off : c.off+n]
	c.off += n
	return b
}

// putUvarint writes v: the count or length before a list or a byte string,
// and a TransferStream's or a chunk frame's lengths, whose bytes follow
// apart from the Codec.
func (c *Codec) putUvarint(v uint64) { c.buf = binary.AppendUvarint(c.buf, v) }

// The read halves, for the field methods and for the alias decoders, which
// return what they read. After an error each returns a zero value.

func (c *Codec) byte() byte {
	if b := c.next(1); b != nil {
		return b[0]
	}
	return 0
}

func (c *Codec) uvarint() uint64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Uvarint(c.buf[c.off:])
	if n <= 0 {
		c.fail(ErrBadVarint)
		return 0
	}
	c.off += n
	return v
}

func (c *Codec) varint() int64 {
	if c.err != nil {
		return 0
	}
	v, n := binary.Varint(c.buf[c.off:])
	if n <= 0 {
		c.fail(ErrBadVarint)
		return 0
	}
	c.off += n
	return v
}

func (c *Codec) str() string {
	n := c.uvarint()
	if c.err != nil {
		return ""
	}
	if n > MaxStringLen {
		c.fail(fmt.Errorf("%w: string of %d bytes", ErrFieldTooBig, n))
		return ""
	}
	b := c.next(int(n))
	if c.err != nil {
		return ""
	}
	if c.ids == nil {
		return string(b)
	}
	if s, ok := c.ids[string(b)]; ok {
		return s
	}
	s := string(b)
	c.ids[s] = s
	return s
}

// count reads a list's count, bounded by the bytes left since every
// element takes at least one, so a hostile count allocates nothing. It is
// zero after an error.
func (c *Codec) count() int {
	n := c.uvarint()
	if c.err == nil && n > uint64(c.Remaining()) {
		c.fail(ErrShortBuffer)
	}
	if c.err != nil {
		return 0
	}
	return int(n)
}

// Byte codes a one-byte field: an enumeration such as an EventKind or a
// Role, or a record's tag.
func Byte[T ~uint8](c *Codec, v *T) {
	if c.read {
		*v = T(c.byte())
		return
	}
	c.buf = append(c.buf, byte(*v))
}

// Narrow codes an integer narrower than 64 bits as a uvarint. A read
// refuses a value that does not fit with ErrFieldTooBig rather than
// truncating it to some other value.
func Narrow[T ~uint16 | ~uint32](c *Codec, v *T) {
	if c.read {
		u := c.uvarint()
		if *v = T(u); uint64(*v) != u {
			*v = 0
			c.fail(fmt.Errorf("%w: %d does not fit a %T", ErrFieldTooBig, u, *v))
		}
		return
	}
	c.putUvarint(uint64(*v))
}

// List codes a count-prefixed list, each element with code. A read gives
// nil for an empty list.
func List[T any](c *Codec, s *[]T, code func(*T, *Codec)) {
	if c.read {
		*s = nil
		n := c.count()
		if n == 0 {
			return
		}
		out := make([]T, n)
		for i := range out {
			if code(&out[i], c); c.err != nil {
				return
			}
		}
		*s = out
		return
	}
	c.putUvarint(uint64(len(*s)))
	for i := range *s {
		code(&(*s)[i], c)
	}
}

// codeString is Codec.String in List's element form.
func codeString(s *string, c *Codec) { c.String(s) }
