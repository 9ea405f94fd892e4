package wire_test

import (
	"crypto/sha256"
	"encoding/binary"
	"strings"
	"testing"

	"corona/internal/state"
	"corona/internal/wire"
)

// TestProtocolVersionPin ties ProtocolVersion to what it promises a peer:
// the frame of every round-trip sample, and the history digest's values
// (state's TestDigestGolden chain, folded again here). A change to either
// fails this test until ProtocolVersion is bumped and the new pin recorded
// beside it.
func TestProtocolVersionPin(t *testing.T) {
	h := sha256.New()
	for _, m := range wire.RoundTripSamples {
		frame := wire.Marshal(nil, m)
		h.Write(binary.AppendUvarint(nil, uint64(len(frame))))
		h.Write(frame)
	}
	h.Write(binary.BigEndian.AppendUint64(nil, digestGoldenChain()))
	if got := binary.BigEndian.Uint64(h.Sum(nil)); got != wire.ProtocolPin {
		t.Fatalf("frames or digests differ from protocol version %d's: pin %#016x, recorded %#016x; bump ProtocolVersion and record the new pin",
			wire.ProtocolVersion, got, wire.ProtocolPin)
	}
}

// digestGoldenChain folds TestDigestGolden's chain of events and returns the
// digest after the last one.
func digestGoldenChain() uint64 {
	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	chain := []wire.Event{
		{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: data(0)},
		{Seq: 2, Kind: wire.EventUpdate, ObjectID: "o", Data: data(1)},
		{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: data(7)},
		{Seq: 4, Kind: wire.EventUpdate, ObjectID: "o", Data: data(8)},
		{Seq: 5, Kind: wire.EventState, ObjectID: "p", Data: data(31)},
		{Seq: 6, Kind: wire.EventUpdate, ObjectID: "p", Data: data(32)},
		{Seq: 7, Kind: wire.EventUpdate, ObjectID: "p", Data: data(33)},
		{Seq: 8, Kind: wire.EventUpdate, ObjectID: "obj-1a2b", Data: data(1000)},
		{Seq: 1 << 40, Kind: wire.EventState, ObjectID: strings.Repeat("long/object/id/", 10), Data: data(5)},
	}
	d := uint64(0)
	for _, ev := range chain {
		d = state.DigestEvent(d, ev)
	}
	return d
}
