// Package wire is an aliasretain fixture: a decoder whose Bytes result
// aliases the input, a payload decoder built on it, and a zero-copy
// streaming path.
package wire

type Decoder struct {
	buf []byte
	off int
}

// Bytes returns the next n bytes of the input.
//
// corona:aliases-input — the result aliases the decode buffer; callers
// must copy before retaining or mutating.
func (d *Decoder) Bytes(n int) []byte {
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// DecodePayload splits data into object buffers and an event tail.
//
// corona:aliases-input — both results alias data.
func DecodePayload(data []byte) (map[string][]byte, []byte, error) {
	d := &Decoder{buf: data}
	objects := map[string][]byte{}
	objects["a"] = d.Bytes(4) // handoff into the aliased result set: fine
	return objects, d.Bytes(4), nil
}

// ByteCopy is the explicit clone helper.
func ByteCopy(b []byte) []byte {
	out := make([]byte, len(b))
	copy(out, b)
	return out
}

// --- conforming callers --------------------------------------------------

type Frame struct {
	payload []byte
}

func decodeFrame(data []byte) *Frame {
	d := &Decoder{buf: data}
	p := d.Bytes(8)
	return &Frame{payload: p} // composite-literal handoff: fine
}

func decodeAndCopy(data []byte) *Frame {
	d := &Decoder{buf: data}
	f := &Frame{}
	f.payload = ByteCopy(d.Bytes(8)) // copied first: fine
	return f
}

// --- violating callers ---------------------------------------------------

var lastPayload []byte

type Session struct {
	scratch []byte
}

func (s *Session) retain(data []byte) {
	d := &Decoder{buf: data}
	p := d.Bytes(8)
	s.scratch = p // want `aliasing the decode input \(from Bytes\) retained in s\.scratch`
}

func retainGlobal(data []byte) {
	d := &Decoder{buf: data}
	lastPayload = d.Bytes(8) // want `aliasing the decode input \(from Bytes\) retained in package-level lastPayload`
}

func mutate(data []byte) {
	d := &Decoder{buf: data}
	p := d.Bytes(8)
	p[0] = 1            // want `write through slice aliasing the decode input \(from Bytes\)`
	copy(p, data)       // want `copy into slice aliasing the decode input \(from Bytes\)`
	_ = append(p, 0xff) // want `append building on slice aliasing the decode input \(from Bytes\)`
}

func mutateViaPayload(data []byte) {
	objects, tail, _ := DecodePayload(data)
	objects["a"][0] = 1 // want `write through slice aliasing the decode input \(from DecodePayload\)`
	tail[1] = 2         // want `write through slice aliasing the decode input \(from DecodePayload\)`
}

// Chunk mirrors wire.TransferChunk: a message whose decoder fills its own
// receiver, header first, and whose Data aliases the input.
type Chunk struct {
	Offset uint64
	Data   []byte
}

func (m *Chunk) decodeIntoField(data []byte) {
	d := &Decoder{buf: data}
	m.Offset = uint64(d.Bytes(1)[0])
	m.Data = d.Bytes(8) // want `aliasing the decode input \(from Bytes\) retained in m\.Data`
}

func (m *Chunk) decodeHandOff(data []byte) {
	d := &Decoder{buf: data}
	m.Offset = uint64(d.Bytes(1)[0])
	*m = Chunk{Offset: m.Offset, Data: d.Bytes(8)} // the whole message handed off: fine
}

// --- zero-copy path ------------------------------------------------------

// StreamNext hands a chunk straight from the payload.
//
// corona:zerocopy — no defensive copies on this path.
func StreamNext(payload []byte, n int) []byte {
	if n > len(payload) {
		n = len(payload)
	}
	return payload[:n] // fine: sliced, not copied
}

// StreamNextSlow regresses the zero-copy contract.
//
// corona:zerocopy
func StreamNextSlow(payload []byte, n int) []byte {
	chunk := ByteCopy(payload[:n])        // want `needless copy on //corona:zerocopy path: ByteCopy`
	chunk = append([]byte(nil), chunk...) // want `needless copy on //corona:zerocopy path: append onto a fresh base`
	return chunk
}

// --- shapes the shared taint walk closes ----------------------------------

func retainThroughPointer(data []byte, out *[]byte) {
	d := &Decoder{buf: data}
	*out = d.Bytes(8) // want `aliasing the decode input \(from Bytes\) retained in \*out; copy before storing`
}

func handOffThroughPointer(data []byte, out *Frame) {
	d := &Decoder{buf: data}
	*out = Frame{payload: d.Bytes(8)} // composite-literal handoff: fine
}

func mutateVar(data []byte) {
	d := &Decoder{buf: data}
	var p = d.Bytes(8)
	p[0] = 1 // want `write through slice aliasing the decode input \(from Bytes\)`
}

func mutateCommaOk(data []byte) {
	objects, _, _ := DecodePayload(data)
	if p, ok := objects["a"]; ok {
		p[0] = 1 // want `write through slice aliasing the decode input \(from DecodePayload\)`
	}
}

func scalarRead(data []byte) byte {
	d := &Decoder{buf: data}
	n := d.Bytes(1)[0]
	n++ // a copy of one byte, not the buffer: fine
	return n
}

// --- local copies and containers that outlive the call -------------------

type Event struct {
	Seq  uint64
	Data []byte
}

// DecodeEventAlias decodes one event.
//
// corona:aliases-input — the event's Data aliases data.
func DecodeEventAlias(data []byte) Event {
	return Event{Seq: uint64(data[0]), Data: data[1:]}
}

func renumber(data []byte) Event {
	ev := DecodeEventAlias(data)
	ev.Seq = 7 // a field of the local copy, not of the input: fine
	ev.Seq++   // likewise
	return ev
}

func renumberThrough(data []byte) {
	ev := DecodeEventAlias(data)
	ev.Data[0] = 1 // want `write through slice aliasing the decode input \(from DecodeEventAlias\)`
	p := &ev
	p.Data[1] = 2 // want `write through slice aliasing the decode input \(from DecodeEventAlias\)`
}

type holder struct {
	m map[string][]byte
	s [][]byte
}

var registry = map[string][]byte{}

func (h *holder) retainInContainers(data []byte) {
	d := &Decoder{buf: data}
	h.m["a"] = d.Bytes(4)      // want `aliasing the decode input \(from Bytes\) retained in h\.m\["a"\]`
	h.s[0] = d.Bytes(4)        // want `aliasing the decode input \(from Bytes\) retained in h\.s\[0\]`
	registry["a"] = d.Bytes(4) // want `aliasing the decode input \(from Bytes\) retained in package-level registry\["a"\]`
	local := map[string][]byte{}
	local["a"] = d.Bytes(4) // a local container: fine
	local["a"][0] = 1       // want `write through slice aliasing the decode input \(from Bytes\)`
}
