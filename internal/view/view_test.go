package view

import (
	"errors"
	"fmt"
	"reflect"
	"testing"
	"testing/quick"

	"corona/internal/client"
	"corona/internal/state"
	"corona/internal/wire"
)

func ev(seq uint64, kind wire.EventKind, obj, data string) wire.Event {
	return wire.Event{Seq: seq, Kind: kind, ObjectID: obj, Data: []byte(data)}
}

func TestApplyJoinSnapshotThenLive(t *testing.T) {
	v := New()
	err := v.ApplyJoin(&client.JoinResult{
		Objects: []wire.Object{{ID: "a", Data: []byte("base")}},
		BaseSeq: 5,
		NextSeq: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := v.ApplyEvent(ev(6, wire.EventUpdate, "a", "+6")); err != nil {
		t.Fatal(err)
	}
	data, ok := v.Get("a")
	if !ok || string(data) != "base+6" {
		t.Fatalf("a = %q", data)
	}
	if v.LastSeq() != 6 {
		t.Fatalf("LastSeq = %d", v.LastSeq())
	}
}

func TestApplyJoinWithSuffix(t *testing.T) {
	v := New()
	err := v.ApplyJoin(&client.JoinResult{
		Objects: []wire.Object{{ID: "a", Data: []byte("s")}},
		Events: []wire.Event{
			ev(4, wire.EventUpdate, "a", "4"),
			ev(5, wire.EventUpdate, "a", "5"),
		},
		BaseSeq: 3,
		NextSeq: 6,
	})
	if err != nil {
		t.Fatal(err)
	}
	data, _ := v.Get("a")
	if string(data) != "s45" {
		t.Fatalf("a = %q", data)
	}
}

func TestApplyJoinLastNAdoptsBase(t *testing.T) {
	// A last-N transfer starts above 1; the view adopts the base.
	v := New()
	err := v.ApplyJoin(&client.JoinResult{
		Events:  []wire.Event{ev(98, wire.EventUpdate, "o", "98"), ev(99, wire.EventUpdate, "o", "99")},
		BaseSeq: 97,
		NextSeq: 100,
	})
	if err != nil {
		t.Fatal(err)
	}
	if v.LastSeq() != 99 {
		t.Fatalf("LastSeq = %d", v.LastSeq())
	}
	if err := v.ApplyEvent(ev(100, wire.EventUpdate, "o", "!")); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateIgnoredGapReported(t *testing.T) {
	v := New()
	if err := v.ApplyJoin(&client.JoinResult{NextSeq: 1}); err != nil {
		t.Fatal(err)
	}
	if err := v.ApplyEvent(ev(1, wire.EventState, "o", "x")); err != nil {
		t.Fatal(err)
	}
	// Duplicate is a no-op.
	if err := v.ApplyEvent(ev(1, wire.EventState, "o", "OVERWRITE")); err != nil {
		t.Fatal(err)
	}
	data, _ := v.Get("o")
	if string(data) != "x" {
		t.Fatalf("duplicate applied: %q", data)
	}
	// Gap errors and leaves state unchanged.
	err := v.ApplyEvent(ev(5, wire.EventState, "o", "skip"))
	if !errors.Is(err, ErrGap) {
		t.Fatalf("gap: %v", err)
	}
	if v.LastSeq() != 1 {
		t.Fatalf("LastSeq moved on gap: %d", v.LastSeq())
	}
}

func TestWatcher(t *testing.T) {
	v := New()
	var got []string
	v.Watch(func(id string, data []byte, ev wire.Event) {
		got = append(got, fmt.Sprintf("%s=%s@%d", id, data, ev.Seq))
	})
	_ = v.ApplyJoin(&client.JoinResult{NextSeq: 1})
	_ = v.ApplyEvent(ev(1, wire.EventState, "a", "1"))
	_ = v.ApplyEvent(ev(2, wire.EventUpdate, "a", "2"))
	want := []string{"a=1@1", "a=12@2"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("watcher saw %v", got)
	}
}

func TestReset(t *testing.T) {
	v := New()
	_ = v.ApplyJoin(&client.JoinResult{Objects: []wire.Object{{ID: "a", Data: []byte("x")}}, BaseSeq: 3, NextSeq: 4})
	v.Reset()
	if _, ok := v.Get("a"); ok || v.LastSeq() != 0 {
		t.Fatal("Reset incomplete")
	}
}

func TestGetReturnsCopy(t *testing.T) {
	v := New()
	_ = v.ApplyJoin(&client.JoinResult{NextSeq: 1})
	_ = v.ApplyEvent(ev(1, wire.EventState, "a", "orig"))
	data, _ := v.Get("a")
	data[0] = 'X'
	again, _ := v.Get("a")
	if string(again) != "orig" {
		t.Fatal("Get aliases internal state")
	}
}

// packedResult builds a join result the way a streamed join delivers one:
// the objects encoded into one payload, reassembled, and decoded in place,
// so every Data is a region of the same buffer.
func packedResult(t *testing.T, objs []wire.Object, nextSeq uint64) *client.JoinResult {
	t.Helper()
	var evs []wire.Event
	c := wire.NewWriter(nil)
	wire.List(c, &objs, (*wire.Object).Fields)
	wire.List(c, &evs, (*wire.Event).Fields)
	payload := c.Written()
	var asm wire.TransferAssembler
	body, err := asm.Reserve(0, uint64(len(payload)), len(payload))
	if err != nil {
		t.Fatal(err)
	}
	copy(body, payload)
	got, _, err := asm.Finish(uint64(len(payload)))
	if err != nil {
		t.Fatal(err)
	}
	return &client.JoinResult{Objects: got, BaseSeq: nextSeq - 1, NextSeq: nextSeq}
}

// TestApplyJoinAdoptsIsolated: ApplyJoin keeps the result's buffers rather
// than copying them, and objects sharing one backing array with spare
// capacity still change independently.
func TestApplyJoinAdoptsIsolated(t *testing.T) {
	buf := append(make([]byte, 0, 64), "aaaabbbb"...)
	v := New()
	err := v.ApplyJoin(&client.JoinResult{
		Objects: []wire.Object{{ID: "a", Data: buf[0:4]}, {ID: "b", Data: buf[4:8]}},
		BaseSeq: 1, NextSeq: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if &v.objects["a"][0] != &buf[0] {
		t.Fatal("ApplyJoin copied the object instead of adopting it")
	}
	check := func(id, want string) {
		t.Helper()
		if got, _ := v.Get(id); string(got) != want {
			t.Fatalf("%s = %q, want %q", id, got, want)
		}
	}
	if err := v.ApplyEvent(ev(2, wire.EventUpdate, "a", "++++")); err != nil {
		t.Fatal(err)
	}
	check("a", "aaaa++++")
	check("b", "bbbb")
	if err := v.ApplyEvent(ev(3, wire.EventState, "a", "AA")); err != nil {
		t.Fatal(err)
	}
	check("a", "AA")
	check("b", "bbbb")
	if string(buf) != "aaaabbbb" {
		t.Fatalf("the adopted buffer was written: %q", buf)
	}
	got, _ := v.Get("b")
	got[0] = 'X'
	for _, o := range v.Objects() {
		o.Data[0] = 'Y'
	}
	check("a", "AA")
	check("b", "bbbb")
}

// TestQuickViewMatchesServerState is the lockstep property: a view applying
// the same event stream as a server-side state.Group materializes the same
// objects, regardless of the event mix. The view starts from zero to three
// initial objects packed into one buffer, as a streamed join hands them over;
// steps address five objects, so o3 and o4 are always created by an event and
// o0..o2 are too whenever the join carried fewer objects.
func TestQuickViewMatchesServerState(t *testing.T) {
	f := func(initial [][]byte, steps []struct {
		Update bool
		Obj    uint8
		Data   []byte
	}) bool {
		if len(steps) > 50 {
			steps = steps[:50]
		}
		initial = initial[:len(initial)%4]
		objs := make([]wire.Object, len(initial))
		for i, data := range initial {
			objs[i] = wire.Object{ID: fmt.Sprintf("o%d", i), Data: data}
		}
		server := state.NewInitial(objs)
		v := New()
		if err := v.ApplyJoin(packedResult(t, objs, 1)); err != nil {
			return false
		}
		for i, s := range steps {
			kind := wire.EventState
			if s.Update {
				kind = wire.EventUpdate
			}
			e := wire.Event{
				Seq: uint64(i + 1), Kind: kind,
				ObjectID: fmt.Sprintf("o%d", s.Obj%5), Data: s.Data,
			}
			if err := server.Apply(e); err != nil {
				return false
			}
			if err := v.ApplyEvent(e); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(server.Objects(), v.Objects())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
