package core

import (
	"bytes"
	"errors"
	"log/slog"
	"net"
	"strings"
	"testing"
	"time"

	"corona/internal/membership"
	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// White-box tests for the fanout pipeline's backpressure protocol and the
// bounded error reporter — the pieces whose interesting states (a full
// ring, a closed ring, a flooded log queue) are driven deterministically
// from inside the package.

// newFanoutTestEngine builds an engine with a tiny fanout ring so the
// backpressure path triggers without thousands of in-flight events.
func newFanoutTestEngine(t *testing.T, ringCap int) *Engine {
	t.Helper()
	old := fanoutRingCap
	fanoutRingCap = ringCap
	t.Cleanup(func() { fanoutRingCap = old })
	e, err := NewEngine(EngineConfig{FanoutShards: 2, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	return e
}

func drainRing(t *testing.T, e *Engine, want int) *fanoutRing {
	t.Helper()
	e.mu.RLock()
	ring := e.groups["g"].ring
	e.mu.RUnlock()
	n := 0
	for ring.tryAcquire() {
		n++
	}
	if n != want {
		t.Fatalf("drained %d credits, want %d", n, want)
	}
	return ring
}

func distEvent(seq uint64) wire.Event {
	return wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("x")}
}

// distributeOne applies one coordinator-numbered event: a run of one.
func distributeOne(e *Engine, group string, ev wire.Event) error {
	_, err := e.ApplyDistributed(group, []DistEvent{{Event: ev, SenderInclusive: true}})
	return err
}

func TestFanoutBackpressureBlocksAndResumes(t *testing.T) {
	e := newFanoutTestEngine(t, 2)
	ring := drainRing(t, e, 2)

	done := make(chan error, 1)
	go func() { done <- distributeOne(e, "g", distEvent(1)) }()
	select {
	case err := <-done:
		t.Fatalf("ApplyDistributed did not block on a full ring (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	ring.release() // the pipeline "catches up"
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyDistributed still blocked after a credit freed")
	}
	if e.mFanoutWaits.Load() == 0 {
		t.Fatal("backpressure wait not recorded")
	}
	e.mu.RLock()
	st := e.getState("g")
	e.mu.RUnlock()
	if st.NextSeq() != 2 {
		t.Fatalf("event not applied after resume: NextSeq = %d", st.NextSeq())
	}
	ring.release()
}

func TestFanoutBackpressureUnblockedByClose(t *testing.T) {
	e := newFanoutTestEngine(t, 2)
	drainRing(t, e, 2)

	done := make(chan error, 1)
	go func() { done <- distributeOne(e, "g", distEvent(1)) }()
	select {
	case err := <-done:
		t.Fatalf("ApplyDistributed did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, ErrEngineClosed) {
			t.Fatalf("err = %v, want ErrEngineClosed", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyDistributed still blocked after engine close")
	}
}

func TestFanoutBackpressureUnblockedByGroupDelete(t *testing.T) {
	e := newFanoutTestEngine(t, 2)
	drainRing(t, e, 2)

	done := make(chan error, 1)
	go func() { done <- distributeOne(e, "g", distEvent(1)) }()
	select {
	case err := <-done:
		t.Fatalf("ApplyDistributed did not block (err=%v)", err)
	case <-time.After(50 * time.Millisecond):
	}

	if err := e.DeleteGroupDirect("g"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if !errors.Is(err, membership.ErrNoSuchGroup) {
			t.Fatalf("err = %v, want ErrNoSuchGroup", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("ApplyDistributed still blocked after group delete")
	}
}

func TestFanoutSnapshotRebuild(t *testing.T) {
	e, err := NewEngine(EngineConfig{FanoutShards: 4, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}

	// Fake sessions over pipes: the snapshot only needs identity, but Close
	// walks the session set and closes connections.
	e.mu.Lock()
	for id := uint64(1); id <= 5; id++ {
		c1, c2 := net.Pipe()
		t.Cleanup(func() { c1.Close(); c2.Close() })
		e.sessions[id] = &Session{ID: id, engine: e, conn: transport.NewConn(c1)}
		if _, err := e.reg.Join("g", wire.MemberInfo{ClientID: id}, false); err != nil {
			e.mu.Unlock()
			t.Fatal(err)
		}
		e.rebuildFanoutLocked("g")
	}
	snap := e.groups["g"].snap
	e.mu.Unlock()

	if snap.size != 5 {
		t.Fatalf("snapshot size = %d, want 5", snap.size)
	}
	if len(snap.buckets) != 4 {
		t.Fatalf("bucket count = %d, want 4", len(snap.buckets))
	}
	for b, bucket := range snap.buckets {
		for _, tgt := range bucket {
			if int(tgt.id%4) != b {
				t.Fatalf("session %d landed in bucket %d", tgt.id, b)
			}
			if tgt.sess == nil || tgt.sess.ID != tgt.id {
				t.Fatalf("session %d: cached session missing or wrong", tgt.id)
			}
		}
		if len(bucket) > 0 && snap.mask&(1<<b) == 0 {
			t.Fatalf("mask bit %d clear for non-empty bucket", b)
		}
		if len(bucket) == 0 && snap.mask&(1<<b) != 0 {
			t.Fatalf("mask bit %d set for empty bucket", b)
		}
	}
	for id := uint64(1); id <= 5; id++ {
		if !snap.has(id) {
			t.Fatalf("snap.has(%d) = false", id)
		}
	}
	if snap.has(99) {
		t.Fatal("snap.has(99) = true")
	}

	// A member whose session is gone must drop out of the snapshot (the
	// membership registry can briefly lead the session table during drops).
	e.mu.Lock()
	delete(e.sessions, 3)
	e.rebuildFanoutLocked("g")
	snap = e.groups["g"].snap
	e.mu.Unlock()
	if snap.size != 4 || snap.has(3) {
		t.Fatalf("departed session still in snapshot: size=%d has=%v", snap.size, snap.has(3))
	}
}

// TestNegativeFanoutShardsRejected: the inline-fanout mode is gone, and its
// old spelling is a configuration error rather than a silent default.
func TestNegativeFanoutShardsRejected(t *testing.T) {
	if e, err := NewEngine(EngineConfig{FanoutShards: -1, Logger: quietTestLogger()}); err == nil {
		e.Close()
		t.Fatal("NewEngine accepted FanoutShards = -1")
	}
}

func TestErrReporterCoalescesAndNeverBlocks(t *testing.T) {
	var buf bytes.Buffer
	reg := obs.NewRegistry()
	drops := reg.Counter("drops")
	r := newErrReporter(slog.New(slog.NewTextHandler(&buf, nil)), drops)

	const n = 5000
	for i := 0; i < n; i++ {
		r.report("apply failed", "g", uint64(i), errors.New("boom"))
	}
	r.close()

	out := buf.String()
	lines := strings.Count(out, "\n")
	if lines == 0 {
		t.Fatal("reporter emitted nothing")
	}
	if lines == n && drops.Load() == 0 {
		t.Fatalf("reporter neither coalesced nor dropped across %d identical reports", n)
	}
	if !strings.Contains(out, "apply failed") {
		t.Fatalf("log output missing message: %q", out)
	}

	// After close, report degrades to a counted drop — never a panic, never
	// a block (shutdown races enqueue from WAL callbacks).
	before := drops.Load()
	r.report("apply failed", "g", 1, errors.New("boom"))
	if drops.Load() != before+1 {
		t.Fatal("report after close not counted as a drop")
	}
}
