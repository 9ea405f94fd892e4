package state

import (
	"bytes"
	"fmt"
	"math/rand"
	"testing"

	"corona/internal/wire"
)

// These tests pin who owns an event's bytes. ApplyRun adopts each applied
// event's Data: the history keeps the caller's slice, and the state never
// writes through it nor appends to it. Apply keeps a copy instead, so its
// caller may reuse the buffer.

// sharesArray reports whether a and b start at the same byte.
func sharesArray(a, b []byte) bool {
	return len(a) > 0 && len(b) > 0 && &a[0] == &b[0]
}

// backToBackRun returns a run of n events numbered from seq over the given
// objects, whose Data are consecutive regions of one buffer. Their capacity
// runs on to the buffer's end, so a write or an append past one event's
// length lands on the next event's bytes.
func backToBackRun(rng *rand.Rand, seq uint64, n, objects int) ([]wire.Event, []byte) {
	sizes := make([]int, n)
	total := 0
	for i := range sizes {
		sizes[i] = 1 + rng.Intn(64)
		total += sizes[i]
	}
	buf := make([]byte, total)
	rng.Read(buf)
	evs := make([]wire.Event, n)
	off := 0
	for i := range evs {
		kind := wire.EventUpdate
		if rng.Intn(4) == 0 {
			kind = wire.EventState
		}
		evs[i] = wire.Event{Seq: seq + uint64(i), Kind: kind, ObjectID: fmt.Sprintf("o%d", rng.Intn(objects)),
			Data: buf[off : off+sizes[i]], Sender: 3, Time: int64(i)}
		off += sizes[i]
	}
	return evs, buf
}

// TestApplyRunAdoptsData: the history's Data is the caller's slice, not a
// copy of it.
func TestApplyRunAdoptsData(t *testing.T) {
	g := New()
	evs, _ := backToBackRun(rand.New(rand.NewSource(1)), 1, 40, 5)
	if n, err := g.ApplyRun(evs); n != len(evs) || err != nil {
		t.Fatalf("ApplyRun = %d, %v", n, err)
	}
	for i := range evs {
		if h := g.history[i].Data; !sharesArray(h, evs[i].Data) || len(h) != len(evs[i].Data) {
			t.Fatalf("event %d: the history holds a copy of its Data, not the caller's slice", evs[i].Seq)
		}
	}
}

// TestAdoptedDataStaysIntact: after a capture, 100 more updates to the run's
// objects and a reduction, every adopted slice holds exactly the bytes that
// were handed in — the state wrote through none and appended to none, though
// each slice's capacity runs into its neighbour's bytes — and the history
// and the views taken before still share them.
func TestAdoptedDataStaysIntact(t *testing.T) {
	for seed := int64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewSource(seed))
		const objects = 3
		g := New()
		evs, buf := backToBackRun(rng, 1, 60, objects)
		handed := bytes.Clone(buf)
		if n, err := g.ApplyRun(evs); n != len(evs) || err != nil {
			t.Fatalf("seed %d: ApplyRun = %d, %v", seed, n, err)
		}
		full, err := g.Capture(wire.FullTransfer)
		if err != nil {
			t.Fatal(err)
		}
		fullBefore := cloneObjectMap(full.objects)
		last, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 30})
		if err != nil {
			t.Fatal(err)
		}

		for i := range 100 {
			up := wire.Event{Seq: g.NextSeq(), Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", i%objects),
				Data: []byte{byte(i), byte(i >> 8)}}
			if n, err := g.ApplyRun([]wire.Event{up}); n != 1 || err != nil {
				t.Fatalf("seed %d: update %d: ApplyRun = %d, %v", seed, i, n, err)
			}
		}
		g.Reduce(40)

		if !bytes.Equal(buf, handed) {
			t.Fatalf("seed %d: the state wrote into the bytes ApplyRun adopted", seed)
		}
		// The history kept the run's events after seq 40, shared.
		for _, h := range g.history {
			if h.Seq > uint64(len(evs)) {
				break
			}
			if !sharesArray(h.Data, evs[h.Seq-1].Data) {
				t.Fatalf("seed %d: event %d after the reduction holds a copy, not the adopted slice", seed, h.Seq)
			}
		}
		for i, ev := range last.Events() {
			if want := evs[len(evs)-30+i]; !sharesArray(ev.Data, want.Data) || !bytes.Equal(ev.Data, want.Data) {
				t.Fatalf("seed %d: captured event %d = %q, want the adopted %q", seed, ev.Seq, ev.Data, want.Data)
			}
		}
		for id, data := range full.objects {
			if !bytes.Equal(data, fullBefore[id]) {
				t.Fatalf("seed %d: captured object %q moved", seed, id)
			}
		}
	}
}

func cloneObjectMap(m map[string][]byte) map[string][]byte {
	out := make(map[string][]byte, len(m))
	for id, data := range m {
		out[id] = bytes.Clone(data)
	}
	return out
}

// TestApplyCopiesData: Apply's caller may reuse its buffer. Writing to it
// after Apply changes neither the history, nor the digest, nor a full
// capture: they equal a group's given fresh copies of the same events.
func TestApplyCopiesData(t *testing.T) {
	buf := []byte("first")
	evs := []wire.Event{
		{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: buf},
		{Seq: 2, Kind: wire.EventUpdate, ObjectID: "o", Data: buf},
		{Seq: 3, Kind: wire.EventUpdate, ObjectID: "p", Data: buf},
	}
	g := New()
	want := New()
	for _, ev := range evs {
		if err := g.Apply(ev); err != nil {
			t.Fatal(err)
		}
		ev.Data = bytes.Clone(ev.Data)
		if _, err := want.ApplyRun([]wire.Event{ev}); err != nil {
			t.Fatal(err)
		}
	}
	copy(buf, "XXXXX")

	if err := sameGroup(g, want); err != nil {
		t.Fatalf("after the caller reused its buffer: %v", err)
	}
	for _, h := range g.history {
		if string(h.Data) != "first" {
			t.Fatalf("history event %d = %q, want %q", h.Seq, h.Data, "first")
		}
	}
	got, _, _ := capture(t, g, wire.FullTransfer)
	wantObjs, _, _ := capture(t, want, wire.FullTransfer)
	if fmt.Sprint(got) != fmt.Sprint(wantObjs) {
		t.Fatalf("Capture(Full) = %q, want %q", got, wantObjs)
	}
}
