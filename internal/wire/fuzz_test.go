package wire

import (
	"bufio"
	"bytes"
	"testing"
	"testing/iotest"
)

// encodePayload drains a fresh TransferStream over the given payload into
// one contiguous buffer — the canonical transfer encoding. Along the way it
// checks that each chunk's frames, built from its segments, are the frames
// of the gathered bytes.
func encodePayload(t testing.TB, objects []Object, events []Event, chunk int) []byte {
	t.Helper()
	s := NewTransferStream(objects, events)
	var out []byte
	for {
		c, off := s.Next(chunk)
		if c == nil {
			break
		}
		if off != uint64(len(out)) {
			t.Fatalf("chunk offset %d, want %d", off, len(out))
		}
		data := bytes.Join(c, nil)
		sameFrame(t, &TransferChunk{Group: "g", Offset: off, Total: s.Total(), Segments: c},
			&TransferChunk{Group: "g", Offset: off, Total: s.Total(), Data: data})
		out = append(out, data...)
	}
	if uint64(len(out)) != s.Total() {
		t.Fatalf("drained %d bytes, Total() = %d", len(out), s.Total())
	}
	return out
}

// sameFrame fails unless a chunk message framed from segments marshals to
// the bytes of the same message carrying the gathered Data, and marshals to
// them again the second time (encoding is pure).
func sameFrame(t testing.TB, segmented, gathered Message) {
	t.Helper()
	a := Marshal(nil, segmented)
	if b := Marshal(nil, gathered); !bytes.Equal(a, b) {
		t.Fatalf("%s from segments differs from the gathered frame:\n %x\n %x", segmented.Kind(), a, b)
	}
	if again := Marshal(nil, segmented); !bytes.Equal(again, a) {
		t.Fatalf("%s: encoding twice gave different bytes", segmented.Kind())
	}
}

// splitAt cuts data into segments whose lengths are the bytes of cuts, in
// turn, with the rest as the last segment; a zero is an empty segment.
func splitAt(data, cuts []byte) Segments {
	var segs Segments
	for _, c := range cuts {
		n := min(int(c), len(data))
		segs = append(segs, data[:n])
		data = data[n:]
	}
	return append(segs, data)
}

func payloadsEqual(a0 []Object, e0 []Event, a1 []Object, e1 []Event) bool {
	if len(a0) != len(a1) || len(e0) != len(e1) {
		return false
	}
	for i := range a0 {
		if a0[i].ID != a1[i].ID || !bytes.Equal(a0[i].Data, a1[i].Data) {
			return false
		}
	}
	for i := range e0 {
		if e0[i].Seq != e1[i].Seq || e0[i].Kind != e1[i].Kind ||
			e0[i].ObjectID != e1[i].ObjectID || !bytes.Equal(e0[i].Data, e1[i].Data) ||
			e0[i].Sender != e1[i].Sender || e0[i].Time != e1[i].Time {
			return false
		}
	}
	return true
}

// FuzzTransferPayload feeds arbitrary bytes to the transfer payload
// decoder; whenever they parse, re-encoding through a TransferStream and
// decoding again must reproduce the same payload.
func FuzzTransferPayload(f *testing.F) {
	f.Add([]byte{0, 0})                               // empty payload
	f.Add(encodePayloadSeed())                        // valid two-object payload
	f.Add([]byte{2, 1, 'a', 3, 1, 2, 3, 1, 'b', 0})   // truncated
	f.Add([]byte{255, 255, 255, 255, 255, 255, 0, 0}) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		objs, evs, err := decodeTransferPayload(data)
		if err != nil {
			return
		}
		re := encodePayload(t, objs, evs, 16)
		objs2, evs2, err := decodeTransferPayload(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded payload failed: %v", err)
		}
		if !payloadsEqual(objs, evs, objs2, evs2) {
			t.Fatalf("payload round-trip mismatch:\n  first: %v %v\n second: %v %v", objs, evs, objs2, evs2)
		}
	})
}

func encodePayloadSeed() []byte {
	s := NewTransferStream(
		[]Object{{ID: "board", Data: []byte{1, 2, 3}}, {ID: "cursor", Data: nil}},
		[]Event{{Seq: 4, Kind: EventUpdate, ObjectID: "board", Data: []byte{9}, Sender: 7, Time: 42}},
	)
	var out []byte
	for {
		c, _ := s.Next(64)
		if c == nil {
			return out
		}
		out = append(out, bytes.Join(c, nil)...)
	}
}

// FuzzDeliverBatch round-trips arbitrary bytes through the framed message
// codec; frames that decode as DeliverBatch must re-encode to a frame that
// decodes identically. This is the one message the batching pipeline added
// to the client-facing protocol, so its decoder sees untrusted input.
func FuzzDeliverBatch(f *testing.F) {
	f.Add(Marshal(nil, &DeliverBatch{Group: "g"})) // empty batch
	f.Add(Marshal(nil, &DeliverBatch{Group: "solo", Events: []Event{
		{Seq: 1, Kind: EventState, ObjectID: "o", Data: []byte("d"), Sender: 3, Time: 99},
	}}))
	big := &DeliverBatch{Group: "burst"}
	for i := 0; i < 64; i++ { // a full ingest-cap batch
		big.Events = append(big.Events, Event{
			Seq: uint64(i + 1), Kind: EventUpdate, ObjectID: "obj", Data: []byte{byte(i), byte(i >> 1)}, Sender: uint64(i % 7), Time: int64(i) << 20,
		})
	}
	seed := Marshal(nil, big)
	f.Add(seed)
	f.Add(seed[:len(seed)-3])                                  // truncated mid-event
	f.Add([]byte{byte(KindDeliverBatch), 0, 1, 'g', 255, 255}) // huge count
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		b, ok := msg.(*DeliverBatch)
		if !ok {
			return
		}
		re := Marshal(nil, b)
		msg2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded batch failed: %v", err)
		}
		b2 := msg2.(*DeliverBatch)
		if b.Group != b2.Group || !payloadsEqual(nil, b.Events, nil, b2.Events) {
			t.Fatalf("batch round-trip mismatch:\n  first: %q %v\n second: %q %v", b.Group, b.Events, b2.Group, b2.Events)
		}
	})
}

// FuzzTransferChunk round-trips arbitrary bytes through the framed
// message codec; frames that decode as TransferChunk must re-encode to a
// frame that decodes identically. The fuzzer also picks how the chunk's
// bytes split into segments (cuts), and the frames built from those
// segments must be the frames of the gathered bytes. Every input is also
// read in place, one byte per read (ReadTransferChunk), which must take
// exactly the chunks the plain decode takes.
func FuzzTransferChunk(f *testing.F) {
	seed := Marshal(nil, &TransferChunk{RequestID: 9, Group: "g", Offset: 128, Total: 4096, Data: []byte("chunkchunk")})
	f.Add(seed, []byte{3, 0, 4})
	f.Add(Marshal(nil, &TransferChunk{Group: ""}), []byte{})
	f.Add([]byte{byte(KindTransferChunk), 0, 0, 0}, []byte{1})
	f.Add(Marshal(nil, &TransferChunk{Offset: 0, Total: 3, Data: []byte("abc")}), []byte{2})
	f.Fuzz(func(t *testing.T, data, cuts []byte) {
		inPlace, inErr := readInPlace(data, func(_ *TransferChunk, n int) ([]byte, error) { return make([]byte, n), nil })
		msg, err := Unmarshal(data)
		c, ok := msg.(*TransferChunk)
		if err != nil || !ok {
			if inErr == nil {
				t.Fatalf("in-place read took a frame the plain decode refuses: %+v", inPlace)
			}
			return
		}
		checkInPlace(t, data, c, inPlace, inErr)

		segs := splitAt(c.Data, cuts)
		sameFrame(t, &TransferChunk{RequestID: c.RequestID, Group: c.Group, Offset: c.Offset, Total: c.Total, Segments: segs}, c)
		re := Marshal(nil, c)
		msg2, err := Unmarshal(re)
		if err != nil {
			t.Fatalf("re-decode of re-encoded chunk failed: %v", err)
		}
		c2 := msg2.(*TransferChunk)
		if c.RequestID != c2.RequestID || c.Group != c2.Group || c.Offset != c2.Offset ||
			c.Total != c2.Total || !bytes.Equal(c.Data, c2.Data) {
			t.Fatalf("chunk round-trip mismatch: %+v != %+v", c, c2)
		}
	})
}

// inPlaceBuffer is the read buffer readInPlace uses: small, so long headers
// and the peek's growth are reached.
const inPlaceBuffer = 64

// readInPlace reads data, a frame body, as a chunk taken in place over a
// stream that yields one byte per read.
func readInPlace(data []byte, reserve ChunkReserve) (*TransferChunk, error) {
	r := bufio.NewReaderSize(iotest.OneByteReader(bytes.NewReader(data)), inPlaceBuffer)
	return ReadTransferChunk(r, len(data), reserve)
}

// checkInPlace holds the in-place read of data to the plain decode c: the
// same chunk, unless the frame has a header longer than the read buffer,
// and then an error. (Both refuse bytes past the body.) Read into an
// assembler, the chunk is taken only where it opens the payload within its
// announced total.
func checkInPlace(t *testing.T, data []byte, c, got *TransferChunk, err error) {
	t.Helper()
	r := NewReader(data[1:])
	new(TransferChunk).header(r)
	var size uint64
	r.Uvarint(&size)
	hdr := 1 + r.off
	if size != uint64(len(data)-hdr) || hdr > inPlaceBuffer {
		if err == nil {
			t.Fatalf("in-place read took a chunk with a %d-byte header and %d of %d body bytes", hdr, size, len(data)-hdr)
		}
		return
	}
	if err != nil {
		t.Fatalf("in-place read refused a chunk the plain decode takes: %v", err)
	}
	if got.RequestID != c.RequestID || got.Group != c.Group || got.Offset != c.Offset ||
		got.Total != c.Total || !bytes.Equal(got.Data, c.Data) {
		t.Fatalf("in-place read %+v, plain decode %+v", got, c)
	}

	var a TransferAssembler
	got, err = readInPlace(data, func(m *TransferChunk, n int) ([]byte, error) { return a.Reserve(m.Offset, m.Total, n) })
	if fits := c.Offset == 0 && uint64(len(c.Data)) <= c.Total; (err == nil) != fits {
		t.Fatalf("assembler read of a chunk at %d of %d bytes with %d body bytes: %v", c.Offset, c.Total, len(c.Data), err)
	}
	if err == nil && (a.Received() != uint64(len(c.Data)) || !bytes.Equal(got.Data, c.Data)) {
		t.Fatalf("assembler holds %d bytes after a %d-byte chunk", a.Received(), len(c.Data))
	}
}

// FuzzTransferStream builds a structured payload from fuzzed inputs,
// streams it at a fuzzed chunk size (which picks where chunks cut the
// segments), checks every chunk's frames against the gathered bytes,
// reassembles, and checks the decode matches the input payload exactly.
func FuzzTransferStream(f *testing.F) {
	f.Add([]byte("objdata"), []byte("evdata"), uint8(3), 7)
	f.Add([]byte{}, []byte{0xff}, uint8(1), 1)
	f.Add([]byte{1, 2, 3, 4, 5, 6, 7, 8}, []byte{}, uint8(5), 3)
	f.Fuzz(func(t *testing.T, objData, evData []byte, nObjs uint8, chunk int) {
		if chunk <= 0 || chunk > 1<<16 {
			return
		}
		objects := make([]Object, 0, nObjs)
		for i := 0; i < int(nObjs); i++ {
			// Slice the fuzzed bytes differently per object so buffers
			// overlap — the stream must not care.
			lo := i % (len(objData) + 1)
			objects = append(objects, Object{ID: string(rune('a' + i%26)), Data: objData[lo:]})
		}
		events := []Event{
			{Seq: 1, Kind: EventState, ObjectID: "x", Data: evData, Sender: uint64(nObjs)},
			{Seq: 2, Kind: EventUpdate, ObjectID: "x", Data: objData, Time: int64(chunk)},
		}
		payload := encodePayload(t, objects, events, chunk)
		objs2, evs2, err := decodeTransferPayload(payload)
		if err != nil {
			t.Fatalf("decode of streamed payload failed: %v", err)
		}
		// The codec normalizes empty Data to nil; normalize the inputs
		// the same way before comparing.
		norm := make([]Object, len(objects))
		copy(norm, objects)
		for i := range norm {
			if len(norm[i].Data) == 0 {
				norm[i].Data = nil
			}
		}
		ne := make([]Event, len(events))
		copy(ne, events)
		for i := range ne {
			if len(ne[i].Data) == 0 {
				ne[i].Data = nil
			}
		}
		if !payloadsEqual(norm, ne, objs2, evs2) {
			t.Fatalf("stream round-trip mismatch at chunk=%d:\n  in: %v %v\n out: %v %v", chunk, norm, ne, objs2, evs2)
		}
	})
}

// FuzzMessage checks the whole message registry at once, seeded with the
// round-trip tables' sample of every kind. Whatever bytes Unmarshal
// accepts, their re-encoding must decode, that decode must consume every
// byte of it, and the result must re-encode to the same bytes: no field
// is dropped, defaulted or misread on the way through. A kind's one Fields
// method writes and reads each field alike, so what this guards is the
// codec's primitives and TransferChunk, whose halves are written apart;
// testdata's chunk-without-body seed fails a chunk read that skips Data.
func FuzzMessage(f *testing.F) {
	for _, m := range append(append([]Message(nil), clientRoundTrips...), clusterRoundTrips...) {
		f.Add(Marshal(nil, m))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		msg, err := Unmarshal(data)
		if err != nil {
			return
		}
		re := Marshal(nil, msg)
		again := kinds[msg.Kind()].new()
		c := NewReader(re[1:])
		if again.Fields(c); c.Err() != nil {
			t.Fatalf("%s: re-encoding does not decode: %v", msg.Kind(), c.Err())
		}
		if c.Remaining() != 0 {
			t.Fatalf("%s: decode of the re-encoding left %d of %d bytes", msg.Kind(), c.Remaining(), len(re))
		}
		if b := Marshal(nil, again); !bytes.Equal(b, re) {
			t.Fatalf("%s: re-encoding changed on the second pass:\n first  %x\n second %x", msg.Kind(), re, b)
		}
	})
}
