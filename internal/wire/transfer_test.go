package wire

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// referencePayload is the non-streamed encoding the stream must reproduce
// byte for byte: objects then events, standard framing.
func referencePayload(objs []Object, evs []Event) []byte {
	c := NewWriter(nil)
	List(c, &objs, (*Object).Fields)
	List(c, &evs, (*Event).Fields)
	return c.Written()
}

func drain(t *testing.T, s *TransferStream, max int) []byte {
	t.Helper()
	var out []byte
	for {
		chunk, off := s.Next(max)
		if chunk == nil {
			break
		}
		if off != uint64(len(out)) {
			t.Fatalf("chunk offset %d, want %d", off, len(out))
		}
		if chunk.Len() > max {
			t.Fatalf("chunk of %d bytes exceeds max %d", chunk.Len(), max)
		}
		for _, seg := range chunk {
			out = append(out, seg...)
		}
	}
	if s.Remaining() != 0 {
		t.Fatalf("Remaining = %d after drain", s.Remaining())
	}
	return out
}

func TestTransferStreamMatchesInlineEncoding(t *testing.T) {
	objs := []Object{
		{ID: "alpha", Data: bytes.Repeat([]byte("A"), 1000)},
		{ID: "empty"},
		{ID: "beta", Data: []byte("b")},
	}
	evs := []Event{
		{Seq: 41, Kind: EventState, ObjectID: "alpha", Data: []byte("fresh"), Sender: 7, Time: 1234},
		{Seq: 42, Kind: EventUpdate, ObjectID: "beta", Data: nil, Sender: 8, Time: -5},
	}
	want := referencePayload(objs, evs)
	for _, max := range []int{1, 7, 64, 1000, 1 << 20} {
		s := NewTransferStream(objs, evs)
		if s.Total() != uint64(len(want)) {
			t.Fatalf("max %d: Total = %d, want %d", max, s.Total(), len(want))
		}
		got := drain(t, s, max)
		if !bytes.Equal(got, want) {
			t.Fatalf("max %d: stream output differs from inline encoding", max)
		}
		gotObjs, gotEvs, err := decodeTransferPayload(got)
		if err != nil {
			t.Fatalf("max %d: decodeTransferPayload: %v", max, err)
		}
		if !reflect.DeepEqual(gotObjs, objs) {
			t.Errorf("max %d: objects differ: %+v", max, gotObjs)
		}
		if !reflect.DeepEqual(gotEvs, evs) {
			t.Errorf("max %d: events differ: %+v", max, gotEvs)
		}
	}
}

func TestTransferStreamEmpty(t *testing.T) {
	s := NewTransferStream(nil, nil)
	got := drain(t, s, TransferChunkSize)
	objs, evs, err := decodeTransferPayload(got)
	if err != nil || objs != nil || evs != nil {
		t.Fatalf("empty payload decoded to %v, %v, %v", objs, evs, err)
	}
}

// TestTransferStreamSharesData is the O(1) claim: the stream must reference
// the caller's data buffers, not copy them.
func TestTransferStreamSharesData(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 4096)
	s := NewTransferStream([]Object{{ID: "o", Data: big}}, nil)
	found := false
	for _, seg := range s.segs {
		if len(seg) == len(big) && &seg[0] == &big[0] {
			found = true
		}
	}
	if !found {
		t.Fatal("object data was copied into the stream, want shared segment")
	}
}

// TestTransferChunksOutliveNext: Next keeps no chunk buffer, so every chunk
// of a drained stream still holds its bytes, and the bytes of a large object
// are its own buffer, not a copy.
func TestTransferChunksOutliveNext(t *testing.T) {
	big := bytes.Repeat([]byte("x"), 4096)
	objs := []Object{{ID: "o", Data: big}, {ID: "p", Data: []byte("tail")}}
	s := NewTransferStream(objs, nil)
	var chunks []Segments
	for {
		chunk, _ := s.Next(1000)
		if chunk == nil {
			break
		}
		chunks = append(chunks, chunk)
	}
	var got []byte
	for _, c := range chunks {
		got = append(got, bytes.Join(c, nil)...)
	}
	if !bytes.Equal(got, referencePayload(objs, nil)) {
		t.Fatal("chunks changed after later Next calls")
	}
	if seg := chunks[1][0]; &seg[0] != &big[1000-len(chunks[0][0])] {
		t.Fatal("second chunk does not point into the object's buffer")
	}
}

// TestChunkFramesFromSegmentsMatchGatheredBytes pins the wire bytes: a chunk
// framed from a stream's segments encodes exactly as the same chunk with Data
// set to their concatenation, and encoding twice gives the same bytes.
func TestChunkFramesFromSegmentsMatchGatheredBytes(t *testing.T) {
	if got, want := Marshal(nil, &TransferChunk{RequestID: 1, Group: "g", Offset: 2, Total: 3,
		Segments: Segments{[]byte("ab"), nil, []byte("c")}}),
		[]byte{byte(KindTransferChunk), 1, 1, 'g', 2, 3, 3, 'a', 'b', 'c'}; !bytes.Equal(got, want) {
		t.Fatalf("TransferChunk frame = %x, want %x", got, want)
	}

	rng := rand.New(rand.NewSource(34))
	blob := make([]byte, 3000)
	rng.Read(blob)
	// The objects and events overlap in one buffer; "long"'s length, 300,
	// takes a two-byte varint.
	objs := []Object{
		{ID: "long", Data: blob[:300]},
		{ID: "mid", Data: blob[100:1700]},
		{ID: "empty"},
		{ID: "tail", Data: blob[2990:]},
	}
	evs := []Event{
		{Seq: 7, Kind: EventState, ObjectID: "mid", Data: blob[50:2050], Sender: 3, Time: 99},
		{Seq: 8, Kind: EventUpdate, ObjectID: "tail", Sender: 4, Time: -1},
	}
	want := referencePayload(objs, evs)
	prefixAt := 1 + 1 + len("long") // object count, ID length, ID
	if want[prefixAt]&0x80 == 0 {
		t.Fatalf("byte %d is not the first of a multi-byte length prefix", prefixAt)
	}
	// prefixAt+1 ends the first chunk between the two prefix bytes.
	for _, max := range []int{prefixAt + 1, 1, 5, 64, 1000, TransferChunkSize} {
		s := NewTransferStream(objs, evs)
		var got []byte
		for {
			chunk, off := s.Next(max)
			if chunk == nil {
				break
			}
			data := bytes.Join(chunk, nil)
			if len(data) != min(max, int(s.Total()-off)) {
				t.Fatalf("max %d: chunk at %d has %d bytes", max, off, len(data))
			}
			sameFrame(t, &TransferChunk{RequestID: 11, Group: "g", Offset: off, Total: s.Total(), Segments: chunk},
				&TransferChunk{RequestID: 11, Group: "g", Offset: off, Total: s.Total(), Data: data})
			got = append(got, data...)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("max %d: chunks do not concatenate to the payload", max)
		}
	}
}

// add reserves data's room in a and fills it, as a connection reading a
// chunk in place does.
func add(a *TransferAssembler, offset, total uint64, data []byte) error {
	body, err := a.Reserve(offset, total, len(data))
	if err != nil {
		return err
	}
	copy(body, data)
	return nil
}

// TestFinishClipsEachData: the decoded Data slices share the reassembled
// buffer, so each must end its capacity at its own length.
func TestFinishClipsEachData(t *testing.T) {
	objs := []Object{{ID: "a", Data: []byte("first")}, {ID: "b", Data: []byte("second")}}
	evs := []Event{{Seq: 1, Kind: EventUpdate, ObjectID: "a", Data: []byte("ev")}}
	payload := referencePayload(objs, evs)
	var a TransferAssembler
	if err := add(&a, 0, uint64(len(payload)), payload); err != nil {
		t.Fatal(err)
	}
	gotObjs, gotEvs, err := a.Finish(uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	_ = append(gotObjs[0].Data, "XXXXXXXXXXXXXXXX"...)
	_ = append(gotObjs[1].Data, "XXXXXXXXXXXXXXXX"...)
	if string(gotObjs[1].Data) != "second" || gotEvs[0].Seq != 1 || string(gotEvs[0].Data) != "ev" {
		t.Fatalf("an append to one object overwrote its neighbours: %q, %+v", gotObjs[1].Data, gotEvs[0])
	}
}

func TestDecodeTransferPayloadErrors(t *testing.T) {
	good := referencePayload([]Object{{ID: "o", Data: []byte("data")}}, nil)
	if _, _, err := decodeTransferPayload(good[:len(good)-2]); err == nil {
		t.Error("truncated payload decoded without error")
	}
	if _, _, err := decodeTransferPayload(append(good, 0xFF)); err == nil {
		t.Error("payload with trailing bytes decoded without error")
	}
}

// TestTransferAssemblerInvertsStream: every chunking of a stream reassembles
// to the objects and events it was built from.
func TestTransferAssemblerInvertsStream(t *testing.T) {
	objs := []Object{{ID: "a", Data: bytes.Repeat([]byte("A"), 300)}, {ID: "empty"}}
	evs := []Event{{Seq: 9, Kind: EventUpdate, ObjectID: "a", Data: []byte("tail"), Sender: 2, Time: 77}}
	for _, max := range []int{1, 13, 1 << 20} {
		s := NewTransferStream(objs, evs)
		var a TransferAssembler
		for {
			chunk, off := s.Next(max)
			if chunk == nil {
				break
			}
			if err := add(&a, off, s.Total(), bytes.Join(chunk, nil)); err != nil {
				t.Fatalf("max %d: Add(%d): %v", max, off, err)
			}
		}
		if a.Received() != s.Total() {
			t.Fatalf("max %d: Received = %d, want %d", max, a.Received(), s.Total())
		}
		gotObjs, gotEvs, err := a.Finish(s.Total())
		if err != nil || !reflect.DeepEqual(gotObjs, objs) || !reflect.DeepEqual(gotEvs, evs) {
			t.Fatalf("max %d: Finish = %+v, %+v, %v", max, gotObjs, gotEvs, err)
		}
	}
}

func TestTransferAssemblerRejectsGapAndTruncation(t *testing.T) {
	payload := referencePayload([]Object{{ID: "o", Data: []byte("data")}}, nil)
	var a TransferAssembler
	if err := add(&a, 3, uint64(len(payload)), payload[3:]); err == nil {
		t.Error("chunk past a gap accepted")
	}
	if err := add(&a, 0, uint64(len(payload)), payload[:4]); err != nil {
		t.Fatal(err)
	}
	if err := add(&a, 0, uint64(len(payload)), payload[:4]); err == nil {
		t.Error("replayed chunk accepted")
	}
	if _, _, err := a.Finish(uint64(len(payload))); err == nil {
		t.Error("truncated payload finished without error")
	}
}

// TestTransferAssemblerRejectsPastTotal: a chunk that would run past the
// announced total reserves nothing.
func TestTransferAssemblerRejectsPastTotal(t *testing.T) {
	var a TransferAssembler
	if _, err := a.Reserve(0, 4, 5); err == nil {
		t.Error("chunk past the announced total reserved")
	}
	if _, err := a.Reserve(0, 4, 4); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Reserve(4, 3, 0); err == nil {
		t.Error("chunk under a shrunken total reserved")
	}
	if a.Received() != 4 {
		t.Fatalf("Received = %d after refused chunks, want 4", a.Received())
	}
}

// TestTransferAssemblerBoundsPreallocation: the announced total comes off the
// wire unvalidated; one no frame could carry must not size an allocation.
func TestTransferAssemblerBoundsPreallocation(t *testing.T) {
	var a TransferAssembler
	if err := add(&a, 0, 1<<62, []byte("x")); err != nil {
		t.Fatal(err)
	}
	if cap(a.buf) > 64 {
		t.Fatalf("hostile total preallocated %d bytes", cap(a.buf))
	}
	if _, _, err := a.Finish(1 << 62); err == nil {
		t.Error("payload short of its announced total finished without error")
	}
}

func TestQuickTransferStreamRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	blob := func(n int) []byte {
		if n == 0 {
			return nil
		}
		b := make([]byte, n)
		rng.Read(b)
		return b
	}
	for iter := 0; iter < 100; iter++ {
		var objs []Object
		for i := 0; i < rng.Intn(5); i++ {
			objs = append(objs, Object{ID: string(rune('a' + i)), Data: blob(rng.Intn(2000))})
		}
		var evs []Event
		for i := 0; i < rng.Intn(5); i++ {
			evs = append(evs, Event{
				Seq: uint64(i + 1), Kind: EventUpdate, ObjectID: "o",
				Data: blob(rng.Intn(2000)), Sender: uint64(rng.Intn(9)), Time: rng.Int63(),
			})
		}
		max := 1 + rng.Intn(3000)
		got := drain(t, NewTransferStream(objs, evs), max)
		if want := referencePayload(objs, evs); !bytes.Equal(got, want) {
			t.Fatalf("iter %d (max %d): stream output differs", iter, max)
		}
	}
}
