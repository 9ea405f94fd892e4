package client_test

import (
	"bytes"
	"fmt"
	"runtime"
	"runtime/debug"
	"testing"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/view"
	"corona/internal/wire"
)

// startGroup runs an in-process server holding one persistent group "g"
// with the given initial objects, and returns its address.
func startGroup(t *testing.T, objs []wire.Object) string {
	t.Helper()
	srv, err := core.NewServer(core.Config{})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	srv.Start()
	addr := srv.Addr().String()
	creator := dialClient(t, addr, "creator")
	if err := creator.CreateGroup("g", true, objs); err != nil {
		t.Fatal(err)
	}
	return addr
}

func dialClient(t *testing.T, addr, name string) *client.Client {
	t.Helper()
	c, err := client.Dial(client.Config{Addr: addr, Name: name})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

// TestStreamedJoinObjectsDoNotOverlap: a streamed join decodes its objects
// in place from one reassembled payload. Appending to one object must
// reallocate it, not write over the next one's bytes.
func TestStreamedJoinObjectsDoNotOverlap(t *testing.T) {
	a := bytes.Repeat([]byte("a"), 48<<10)
	b := bytes.Repeat([]byte("b"), 48<<10) // 96 KiB in all: a streamed join
	addr := startGroup(t, []wire.Object{{ID: "a", Data: a}, {ID: "b", Data: b}})
	res, err := dialClient(t, addr, "joiner").Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 2 || res.Objects[0].ID != "a" || res.Objects[1].ID != "b" {
		t.Fatalf("objects = %d, want a and b", len(res.Objects))
	}
	_ = append(res.Objects[0].Data, bytes.Repeat([]byte("X"), 64)...)
	if !bytes.Equal(res.Objects[1].Data, b) {
		t.Fatalf("appending to a overwrote b: b starts %q", res.Objects[1].Data[:16])
	}
}

// TestJoinCopiesOncePerSide is the allocation guard on the join path: the
// server encodes each chunk straight from the group's buffers into a pooled
// frame, the client reassembles the payload into one buffer, and the view
// adopts the objects from it. So a warm full join plus View.ApplyJoin
// allocates about one payload (the reassembly buffer), not two.
func TestJoinCopiesOncePerSide(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	const objects, size = 8, 512 << 10
	objs := make([]wire.Object, objects)
	for i := range objs {
		objs[i] = wire.Object{ID: fmt.Sprintf("o%d", i), Data: bytes.Repeat([]byte{byte('0' + i)}, size)}
	}
	joiner := dialClient(t, startGroup(t, objs), "joiner")
	v := view.New()
	join := func() {
		t.Helper()
		res, err := joiner.Join("g", client.JoinOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if err := v.ApplyJoin(res); err != nil {
			t.Fatal(err)
		}
	}

	// With the collector off, the frames the warm-up joins return to the
	// pools stay there for the measured one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	for range 2 {
		join()
		if err := joiner.Leave("g"); err != nil {
			t.Fatal(err)
		}
		v.Reset()
	}

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	join()
	runtime.ReadMemStats(&after)

	payload := uint64(objects * size)
	allocated := after.TotalAlloc - before.TotalAlloc
	limit := payload*5/4 + 1<<20
	t.Logf("join + ApplyJoin of a %d-byte payload allocated %d bytes (%.2f× payload; limit %d)",
		payload, allocated, float64(allocated)/float64(payload), limit)
	if allocated > limit {
		t.Errorf("allocated %d bytes, over the one-copy budget of %d", allocated, limit)
	}
	if got := v.Objects(); !equalObjects(got, objs) {
		t.Fatal("the view does not hold the group's objects")
	}
}

func equalObjects(a, b []wire.Object) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || !bytes.Equal(a[i].Data, b[i].Data) {
			return false
		}
	}
	return true
}
