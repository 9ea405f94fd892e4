package core

// Degraded-mode engine tests: honest nacks on commit failure, entry into
// memory-only serving when the WAL fails terminally, /healthz probe
// visibility, and the reopen loop's durability floor on recovery.

import (
	"errors"
	"strings"
	"testing"
	"time"

	"corona/internal/faultfs"
	"corona/internal/wal"
	"corona/internal/wire"
)

func newFaultEngine(t *testing.T, dir string, fs *faultfs.FS) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Dir: dir, Sync: wal.SyncAlways, WALFS: fs,
		ReopenBackoff: 2 * time.Millisecond,
		Logger:        quietTestLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// applyDeferred multicasts one event from a SyncAlways sender and returns
// the commit outcome that sender sees: nil for a BcastAck, the nack's text
// for a CodeNotDurable error.
func applyDeferred(t *testing.T, e *Engine, c *rigClient, data string) error {
	t.Helper()
	c.mu.Lock()
	id := uint64(len(c.acks) + len(c.nacks) + 1)
	c.mu.Unlock()
	e.HandleMessage(c.sess, bcast(id, wire.EventUpdate, true, data))
	waitFor(t, "commit outcome", func() bool { return c.replied(id) })
	c.mu.Lock()
	defer c.mu.Unlock()
	nack, nacked := c.nacks[id]
	if !nacked {
		return nil
	}
	if nack.Code != wire.CodeNotDurable {
		t.Fatalf("multicast refused with %v: %s", nack.Code, nack.Text)
	}
	return errors.New(nack.Text)
}

// joinWriter registers the SyncAlways sender the degraded tests multicast
// from.
func joinWriter(t *testing.T, e *Engine) *rigClient {
	t.Helper()
	c := newRigClient(t, e, "writer")
	c.join(t, e, "g", wire.RolePrincipal)
	return c
}

func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestHonestNackOnCommitFailure: a SyncAlways sender whose batch's fsync
// fails gets the commit error (the wire nack), never a success ack, and
// the engine schedules a floor checkpoint so later acked events survive
// recovery despite the burned sequence numbers.
func TestHonestNackOnCommitFailure(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(21)
	e := newFaultEngine(t, dir, fs)
	if err := e.CreateGroupDirect("g", true, []wire.Object{{ID: "o", Data: []byte("base|")}}); err != nil {
		t.Fatal(err)
	}
	w := joinWriter(t, e)
	if err := applyDeferred(t, e, w, "pre|"); err != nil {
		t.Fatalf("healthy commit nacked: %v", err)
	}

	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Err: errors.New("transient fsync fault")})
	if err := applyDeferred(t, e, w, "lost|"); err == nil {
		t.Fatal("commit with failing fsync was acked")
	}

	// The event after the failure is acked — and must survive restart even
	// though the nacked event burned a sequence number (the floor
	// checkpoint covers the gap).
	if err := applyDeferred(t, e, w, "post|"); err != nil {
		t.Fatalf("commit after transient fault nacked: %v", err)
	}
	if e.Degraded() {
		t.Fatal("degraded after a recovered transient fault")
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	r := newDiskEngine(t, dir)
	_, cp, ok := r.GroupImage("g")
	if !ok {
		t.Fatal("group lost across restart")
	}
	got := string(cp.Objects[0].Data)
	if got != "base|pre|lost|post|" && got != "base|pre|post|" {
		t.Fatalf("recovered object = %q", got)
	}
	if got[len(got)-5:] != "post|" {
		t.Fatalf("acked event lost: recovered object = %q", got)
	}
}

// TestDegradedEntryAndRecovery drives the engine through the whole
// degraded-mode arc: a sticky fsync fault fails the log terminally, the
// engine flips engine.degraded and its health probe while still serving
// from memory, and once the disk heals the reopen loop restores a fresh
// log with checkpoint floors and clears degraded — after which acks are
// honest again and everything acked survives a restart.
func TestDegradedEntryAndRecovery(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(77)
	e := newFaultEngine(t, dir, fs)
	if err := e.CreateGroupDirect("g", true, []wire.Object{{ID: "o", Data: []byte("base|")}}); err != nil {
		t.Fatal(err)
	}
	w := joinWriter(t, e)
	if err := applyDeferred(t, e, w, "pre|"); err != nil {
		t.Fatalf("healthy commit nacked: %v", err)
	}

	// Sticky fsync fault: the first failed batch seals and rolls, the
	// floor checkpoint's commit then fails on the fresh segment — terminal.
	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: -1, Err: errors.New("medium error")})
	if err := applyDeferred(t, e, w, "doomed|"); err == nil {
		t.Fatal("commit with failing fsync was acked")
	}
	waitFor(t, "degraded entry", e.Degraded)
	if got := e.Metrics().Gauge("engine.degraded").Load(); got != 1 {
		t.Fatalf("engine.degraded gauge = %d, want 1", got)
	}
	if _, healthy := e.Metrics().CheckHealth(); healthy {
		t.Fatal("healthz green while degraded")
	}

	// Still serving (memory-only): multicasts sequence and apply, but a
	// SyncAlways sender keeps getting honest nacks.
	if err := applyDeferred(t, e, w, "memory|"); err == nil || !strings.Contains(err.Error(), wal.ErrLogFailed.Error()) {
		t.Fatalf("degraded commit outcome = %v, want ErrLogFailed", err)
	}

	// Disk heals: the reopen loop replaces the log, floors every
	// persistent group, and clears degraded.
	fs.Clear()
	waitFor(t, "degraded recovery", func() bool { return !e.Degraded() })
	if got := e.Metrics().Gauge("engine.degraded").Load(); got != 0 {
		t.Fatalf("engine.degraded gauge after recovery = %d, want 0", got)
	}
	if _, healthy := e.Metrics().CheckHealth(); !healthy {
		t.Fatal("healthz red after recovery")
	}
	if err := applyDeferred(t, e, w, "after|"); err != nil {
		t.Fatalf("commit after recovery nacked: %v", err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// Everything applied — including the memory-only window — was floored
	// by the recovery checkpoints; the acked tail must be present.
	r := newDiskEngine(t, dir)
	_, cp, ok := r.GroupImage("g")
	if !ok {
		t.Fatal("group lost across restart")
	}
	got := string(cp.Objects[0].Data)
	if got[len(got)-6:] != "after|" {
		t.Fatalf("acked event lost: recovered object = %q", got)
	}
	if got[:9] != "base|pre|" {
		t.Fatalf("durable prefix lost: recovered object = %q", got)
	}
}

// TestDegradedShutdown closes the engine while the reopen loop is still
// failing: Close must not hang on the loop or race the log swap.
func TestDegradedShutdown(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(5)
	e := newFaultEngine(t, dir, fs)
	if err := e.CreateGroupDirect("g", true, nil); err != nil {
		t.Fatal(err)
	}
	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: -1, Err: errors.New("dead disk")})
	_ = applyDeferred(t, e, joinWriter(t, e), "x|")
	waitFor(t, "degraded entry", e.Degraded)
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
}
