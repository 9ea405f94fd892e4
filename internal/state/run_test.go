package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"sync"
	"testing"

	"corona/internal/wire"
)

// randomRun returns n events numbered from seq over the given number of
// object IDs: states and updates, some with empty data, some updating an
// object no event has created yet.
func randomRun(rng *rand.Rand, seq uint64, n, objects int) []wire.Event {
	evs := make([]wire.Event, n)
	for i := range evs {
		kind := wire.EventUpdate
		if rng.Intn(4) == 0 {
			kind = wire.EventState
		}
		data := make([]byte, rng.Intn(4)*rng.Intn(40))
		rng.Read(data)
		evs[i] = wire.Event{Seq: seq + uint64(i), Kind: kind, ObjectID: fmt.Sprintf("o%d", rng.Intn(objects)), Data: data, Sender: 7, Time: int64(i)}
	}
	return evs
}

func cloneRun(evs []wire.Event) []wire.Event {
	out := slices.Clone(evs)
	for i := range out {
		out[i].Data = slices.Clone(out[i].Data)
	}
	return out
}

// foldObjects is the objects' meaning, independent of Group: a state
// replaces an object, an update appends to it.
func foldObjects(evs []wire.Event) map[string][]byte {
	objs := make(map[string][]byte)
	for _, e := range evs {
		if e.Kind == wire.EventState {
			objs[e.ObjectID] = nil
		}
		objs[e.ObjectID] = append(objs[e.ObjectID], e.Data...)
	}
	return objs
}

// sameObjects reports how got's objects differ from want.
func sameObjects(got *Group, want map[string][]byte) error {
	if len(got.objects) != len(want) {
		return fmt.Errorf("%d objects, want %d", len(got.objects), len(want))
	}
	for id, w := range want {
		g, ok := got.objects[id]
		if !ok || !bytes.Equal(g, w) {
			return fmt.Errorf("object %q = %q (present %v), want %q", id, g, ok, w)
		}
	}
	return nil
}

// sameGroup reports how got differs from want: objects (IDs and bytes),
// history, digest and sequence numbers.
func sameGroup(got, want *Group) error {
	if err := sameObjects(got, want.objects); err != nil {
		return err
	}
	if !reflect.DeepEqual(got.history, want.history) {
		return fmt.Errorf("history = %+v, want %+v", got.history, want.history)
	}
	if got.Digest() != want.Digest() || got.NextSeq() != want.NextSeq() || got.BaseSeq() != want.BaseSeq() {
		return fmt.Errorf("digest %x next %d base %d, want %x %d %d",
			got.Digest(), got.NextSeq(), got.BaseSeq(), want.Digest(), want.NextSeq(), want.BaseSeq())
	}
	return nil
}

// TestQuickRunEqualsEvents: a run folds to exactly what its events give
// applied one at a time, however it is split, and a run that meets a stale
// sequence number or an invalid kind at index k applies exactly its first k
// events. Some seeds draw from twelve objects and some make a long run over
// a hundred, so that runs touch more objects than the run's tally holds on
// the stack.
func TestQuickRunEqualsEvents(t *testing.T) {
	seeds := int64(300)
	if raceEnabled {
		// The race gate runs it every time; a third of the seeds keeps
		// that under a second.
		seeds = 100
	}
	for seed := int64(1); seed <= seeds; seed++ {
		rng := rand.New(rand.NewSource(seed))
		objects, length := 5, 80
		switch seed % 10 {
		case 0:
			objects, length = 100, 400
		case 3, 6, 9:
			objects = 12
		}
		// A history before the runs, so that some updates fit in place.
		prefix := randomRun(rng, 1, rng.Intn(20), objects)
		evs := randomRun(rng, uint64(len(prefix))+1, rng.Intn(length), objects)
		want := replayAll(append(slices.Clone(prefix), evs...))
		if err := sameObjects(want, foldObjects(append(slices.Clone(prefix), evs...))); err != nil {
			t.Fatalf("seed %d, one at a time: %v", seed, err)
		}

		splits := map[string][]int{"one run": {len(evs)}, "runs of one": nil}
		for range evs {
			splits["runs of one"] = append(splits["runs of one"], 1)
		}
		var random []int
		for left := len(evs); left > 0; {
			n := 1 + rng.Intn(left)
			random, left = append(random, n), left-n
		}
		splits["random"] = random
		for name, lens := range splits {
			g := replayAll(prefix)
			in := cloneRun(evs)
			rest := in
			for _, n := range lens {
				applied, err := g.ApplyRun(rest[:n])
				if err != nil || applied != n {
					t.Fatalf("seed %d, %s: ApplyRun of %d = %d, %v", seed, name, n, applied, err)
				}
				rest = rest[n:]
			}
			if err := sameGroup(g, want); err != nil {
				t.Fatalf("seed %d, %s: %v", seed, name, err)
			}
			if !reflect.DeepEqual(in, evs) {
				t.Fatalf("seed %d, %s: ApplyRun wrote into its input", seed, name)
			}
		}

		if len(evs) == 0 {
			continue
		}
		k := rng.Intn(len(evs))
		bad := cloneRun(evs)
		stale := rng.Intn(2) == 0
		if stale {
			bad[k].Seq += uint64(1 + rng.Intn(2))
		} else {
			bad[k].Kind = wire.EventKind(99)
		}
		g := replayAll(prefix)
		applied, err := g.ApplyRun(bad)
		if applied != k || err == nil || errors.Is(err, ErrStaleSeq) != stale {
			t.Fatalf("seed %d: a run bad at %d (stale seq %v) applied %d, err %v", seed, k, stale, applied, err)
		}
		if err := sameGroup(g, replayAll(append(slices.Clone(prefix), evs[:k]...))); err != nil {
			t.Fatalf("seed %d: after a run bad at %d: %v", seed, k, err)
		}
	}
}

// TestCaptureStableUnderRun is the copy-on-write contract under runs: views
// taken before a run whose updates fit one object in place, reset a second
// and regrow a third read the same bytes after it, also while the run lands.
func TestCaptureStableUnderRun(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "fit", "fit|"),
		ev(2, wire.EventUpdate, "fit", "grown-with-room|"),
		ev(3, wire.EventState, "reset", "old-state|"),
		ev(4, wire.EventState, "grow", "exact|"),
	)
	full, err := g.Capture(wire.FullTransfer)
	if err != nil {
		t.Fatal(err)
	}
	lastN, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 3})
	if err != nil {
		t.Fatal(err)
	}
	cp := g.Checkpoint()
	wantObjects := g.Objects()
	wantEvents := cloneRun(lastN.Events())
	wantHistory := cloneRun(cp.History)

	fitBuf, fitCap, growCap := &g.objects["fit"][0], cap(g.objects["fit"]), cap(g.objects["grow"])
	run := []wire.Event{
		ev(5, wire.EventUpdate, "fit", "+1"),
		ev(6, wire.EventUpdate, "reset", "superseded"),
		ev(7, wire.EventUpdate, "grow", "+more-than-fits"),
		ev(8, wire.EventState, "reset", "new-state|"),
		ev(9, wire.EventUpdate, "fit", "+2"),
		ev(10, wire.EventUpdate, "reset", "+after"),
		ev(11, wire.EventUpdate, "grow", "+again"),
	}

	read := func() error {
		for i, o := range full.Objects() {
			if o.ID != wantObjects[i].ID || !bytes.Equal(o.Data, wantObjects[i].Data) {
				return fmt.Errorf("Capture(Full) object %s = %q, want %s = %q", o.ID, o.Data, wantObjects[i].ID, wantObjects[i].Data)
			}
		}
		if !reflect.DeepEqual(lastN.Events(), wantEvents) {
			return fmt.Errorf("Capture(LastN) events = %+v, want %+v", lastN.Events(), wantEvents)
		}
		if !reflect.DeepEqual(cp.Objects, wantObjects) || !reflect.DeepEqual(cp.History, wantHistory) {
			return fmt.Errorf("Checkpoint moved: %+v", cp)
		}
		return nil
	}
	var wg sync.WaitGroup
	errs := make([]error, 4)
	for i := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for range 50 {
				if errs[i] = read(); errs[i] != nil {
					return
				}
			}
		}()
	}
	if n, err := g.ApplyRun(run); n != len(run) || err != nil {
		t.Fatalf("ApplyRun = %d, %v", n, err)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := read(); err != nil {
		t.Fatal(err)
	}

	if &g.objects["fit"][0] != fitBuf || cap(g.objects["fit"]) != fitCap {
		t.Errorf("updates that fit moved the object")
	}
	if cap(g.objects["grow"]) == growCap {
		t.Errorf("updates that do not fit left the object in its buffer")
	}
	want := map[string]string{
		"fit":   "fit|grown-with-room|+1+2",
		"reset": "new-state|+after",
		"grow":  "exact|+more-than-fits+again",
	}
	for id, w := range want {
		if got := string(g.objects[id]); got != w {
			t.Errorf("%s = %q, want %q", id, got, w)
		}
	}
	if got := cap(g.objects["reset"]); got != len("new-state|+after") {
		t.Errorf("reset object cap %d, want its final length %d", got, len("new-state|+after"))
	}
}

// TestApplyRunAllocations is ApplyRun's allocation budget: a 64-event run
// allocates its history clones (one per event with data) and one buffer per
// object it resets to something or grows, and nothing else.
func TestApplyRunAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	const objects = 8
	newGroup := func() *Group {
		g := New()
		for i := range objects {
			id := fmt.Sprintf("o%d", i)
			// The update moves the object to a buffer with room to spare.
			mustApply(t, g,
				wire.Event{Seq: g.NextSeq(), Kind: wire.EventState, ObjectID: id, Data: make([]byte, 1000)},
				wire.Event{Seq: g.NextSeq() + 1, Kind: wire.EventUpdate, ObjectID: id, Data: make([]byte, 1000)})
		}
		// Growing the history is not what is measured.
		g.history = slices.Grow(g.history, 128)
		return g
	}
	groups := []*Group{newGroup(), newGroup()}
	seq := groups[0].NextSeq()
	run := make([]wire.Event, 0, 64)
	add := func(kind wire.EventKind, obj, size int) {
		run = append(run, wire.Event{Seq: seq + uint64(len(run)), Kind: kind, ObjectID: fmt.Sprintf("o%d", obj), Data: make([]byte, size)})
	}
	for i := 0; len(run) < 60; i++ {
		add(wire.EventUpdate, i%objects, 8) // 8 B updates fit every object
	}
	add(wire.EventState, 2, 100) // resets o2 (its earlier updates are superseded)
	add(wire.EventUpdate, 2, 8)
	add(wire.EventUpdate, 5, 2000) // grows o5
	add(wire.EventState, 7, 0)     // resets o7 to nothing: no buffer
	// The history adopts every event's Data: no clone.
	const clones, buffers = 0, 2

	allocs := testing.AllocsPerRun(1, func() {
		if n, err := groups[0].ApplyRun(run); n != len(run) || err != nil {
			t.Fatalf("ApplyRun = %d, %v", n, err)
		}
		groups = groups[1:]
	})
	if allocs != clones+buffers {
		t.Errorf("a %d-event run allocates %.0f times, want %d history clones + %d object buffers",
			len(run), allocs, clones, buffers)
	}
}
