package core

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/state"
	"corona/internal/wire"
)

// These tests pin the engine's one image export: GroupImage and replicaImage
// are views taken like a multicast (read lock + group mutex), so they cost
// nothing proportional to the state and every one is a consistent prefix of
// the group's history even while the group is being written.

func newMemEngine(t *testing.T) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// TestGroupImageAllocatesNoStateBytes: the image of a group holding 8 MiB of
// objects and 1,000 retained events allocates under 1% of the state bytes.
func TestGroupImageAllocatesNoStateBytes(t *testing.T) {
	e := newMemEngine(t)
	initial := make([]wire.Object, 8)
	for i := range initial {
		initial[i] = wire.Object{ID: fmt.Sprintf("big%d", i), Data: make([]byte, 1<<20)}
	}
	if err := e.CreateGroupDirect("g", false, initial); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 1000, string(make([]byte, 256)))
	stateBytes := uint64(8<<20 + 2*1000*256) // objects, plus the log in "o" and in the history

	var cp state.Checkpointed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { _, cp, _ = e.GroupImage("g") })
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if len(cp.Objects) != 9 || len(cp.History) != 1000 || cp.NextSeq != 1001 {
		t.Fatalf("image: %d objects, %d events, next %d", len(cp.Objects), len(cp.History), cp.NextSeq)
	}
	if perRun > stateBytes/100 {
		t.Fatalf("GroupImage allocates %d bytes per image of %d state bytes (>1%%)", perRun, stateBytes)
	}
	if allocs > 8 {
		t.Fatalf("GroupImage makes %.0f allocations, want a handful (the object index)", allocs)
	}
}

// imageTestEvent is the event group "a"'s writer sends at seq: a pure
// function of seq, mixing overwrites and appends over a few objects, so a
// reader can tell a torn or reordered history from a consistent one.
func imageTestEvent(seq uint64) wire.Event {
	ev := wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", seq%3),
		Data: []byte(fmt.Sprintf("%d|", seq)), Sender: 7, Time: int64(seq)}
	if seq%17 == 0 {
		ev.Kind = wire.EventState
	}
	return ev
}

// TestGroupImageConsistentUnderMulticast (run under -race): GroupImage and
// replicaImage of group "a" in a loop while "a" and a second group "b"
// multicast. Every image must be a consistent prefix: the digest chain over
// History reproduces cp.Digest, History is the whole prefix, and Objects
// equal a sequential replay of it. The shared-buffer reads race nothing.
//
// It also prints, without gating on it, what a multicast to "b" waited while
// "a" (32 MiB) was being imaged: the engine.bcast_lock_wait_ns max the issue
// asks for, and the max wall time of one ApplyDistributed call, which unlike
// that histogram includes the wait for the engine's read lock.
func TestGroupImageConsistentUnderMulticast(t *testing.T) {
	const aEvents, minImages = 600, 25
	e := newMemEngine(t)
	ballast := wire.Object{ID: "ballast", Data: bytes.Repeat([]byte{0xAB}, 32<<20)}
	initial := []wire.Object{ballast, {ID: "o0", Data: []byte("init|")}}
	if err := e.CreateGroupDirect("a", false, initial); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateGroupDirect("b", false, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	var aDone atomic.Bool
	stop := make(chan struct{})
	wg.Add(2)
	go func() { // writer of a
		defer wg.Done()
		defer aDone.Store(true)
		for seq := uint64(1); seq <= aEvents; seq++ {
			if err := distributeOne(e, "a", imageTestEvent(seq)); err != nil {
				t.Errorf("multicast a/%d: %v", seq, err)
				return
			}
			time.Sleep(50 * time.Microsecond) // paced, so the images below catch many different prefixes
		}
	}()
	var bMaxCall time.Duration
	go func() { // writer of b, until the reader is done
		defer wg.Done()
		for seq := uint64(1); ; seq++ {
			select {
			case <-stop:
				return
			default:
			}
			start := time.Now()
			err := distributeOne(e, "b", wire.Event{Seq: seq, Kind: wire.EventState, ObjectID: "o", Data: []byte("b")})
			bMaxCall = max(bMaxCall, time.Since(start))
			if err != nil {
				t.Errorf("multicast b/%d: %v", seq, err)
				return
			}
			time.Sleep(100 * time.Microsecond) // paced: b's history is never reduced
		}
	}()

	rng := rand.New(rand.NewSource(1))
	images, prefixes, lastNext := 0, 0, uint64(1)
	for !t.Failed() && (images < minImages || !aDone.Load()) {
		_, cp, ok := e.GroupImage("a")
		if !ok {
			t.Fatal("group a vanished")
		}
		images++
		if cp.NextSeq < lastNext || uint64(len(cp.History)) != cp.NextSeq-1 {
			t.Fatalf("image %d: next %d (was %d) with %d events", images, cp.NextSeq, lastNext, len(cp.History))
		}
		if cp.NextSeq > lastNext {
			prefixes++
		}
		lastNext = cp.NextSeq
		var digest uint64
		replay := state.NewInitial(initial[1:]) // the ballast is never written; compared as is
		for i, ev := range cp.History {
			if want := imageTestEvent(uint64(i + 1)); ev.Seq != want.Seq || ev.Kind != want.Kind || !bytes.Equal(ev.Data, want.Data) {
				t.Fatalf("image %d: history[%d] = %+v, want %+v", images, i, ev, want)
			}
			digest = state.DigestEvent(digest, ev)
			if err := replay.Apply(ev); err != nil {
				t.Fatalf("image %d: replay: %v", images, err)
			}
		}
		if digest != cp.Digest {
			t.Fatalf("image %d at seq %d: digest over history %x, image says %x", images, cp.NextSeq, digest, cp.Digest)
		}
		want := append([]wire.Object{ballast}, replay.Objects()...) // "ballast" sorts first
		if len(want) != len(cp.Objects) {
			t.Fatalf("image %d: %d objects, replay has %d", images, len(cp.Objects), len(want))
		}
		for i, o := range cp.Objects {
			if o.ID != want[i].ID || !bytes.Equal(o.Data, want[i].Data) {
				t.Fatalf("image %d at seq %d: object %q differs from the replay of its own history", images, cp.NextSeq, o.ID)
			}
		}

		from := 1 + uint64(rng.Int63n(int64(cp.NextSeq)))
		suffix, _, ok := e.replicaImage("a", from)
		events, next := suffix.History, suffix.NextSeq
		if !ok || suffix.BaseSeq != from-1 || next < cp.NextSeq || from+uint64(len(events)) != next {
			t.Fatalf("replicaImage(%d) = base %d, %d events, next %d, ok %v (image next %d)", from, suffix.BaseSeq, len(events), next, ok, cp.NextSeq)
		}
		for i, ev := range events {
			if want := imageTestEvent(from + uint64(i)); ev.Seq != want.Seq || !bytes.Equal(ev.Data, want.Data) {
				t.Fatalf("replicaImage(%d)[%d] = %+v, want %+v", from, i, ev, want)
			}
		}
	}
	close(stop)
	wg.Wait()
	if prefixes < 3 {
		t.Fatalf("only %d of %d images caught group a mid-stream; the test raced nothing", prefixes, images)
	}
	wait := e.hLockWait.Snapshot()
	t.Logf("%d images of a at %d different prefixes; engine.bcast_lock_wait_ns max %d ns over %d multicasts; slowest multicast to b %v",
		images, prefixes, wait.Max, wait.Count, bMaxCall)
}
