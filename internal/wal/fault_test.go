package wal_test

// Fault-injection coverage for the WAL failure policy, driven through the
// wal.FS seam by internal/faultfs: torn tails mid-group-commit batch,
// ENOSPC during roll, sticky-fsync transitions into the terminal failed
// state, Replay over a segment sealed by a failed batch, and an open that
// cannot open or read a segment.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"corona/internal/faultfs"
	"corona/internal/wal"
)

func openFault(t *testing.T, dir string, fs *faultfs.FS, opts wal.Options) *wal.Log {
	t.Helper()
	opts.Dir = dir
	opts.FS = fs
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

func replayAll(t *testing.T, l *wal.Log) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	err := l.Replay(0, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

// TestFaultTornTailMidBatch crashes the disk after a batch whose fsync
// failed: bytes past the last good fsync are cut at a seeded point,
// usually mid-record. Recovery must truncate the torn tail and replay
// exactly the durable prefix.
func TestFaultTornTailMidBatch(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(42)
	l := openFault(t, dir, fs, wal.Options{Sync: wal.SyncAlways})

	// Five durable records, then a batch whose fsync fails.
	for i := 0; i < 5; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("durable-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Err: errors.New("fsync lost power")})
	if _, err := l.Append([]byte("doomed-00000000")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}

	// Power cut: whatever the failed fsync left behind may be torn.
	if err := fs.Crash(); err != nil {
		t.Fatal(err)
	}
	_ = l.Close()

	r, err := wal.Open(wal.Options{Dir: dir, FS: faultfs.New(1)})
	if err != nil {
		t.Fatalf("open after crash: %v", err)
	}
	defer r.Close()
	got := replayAll(t, r)
	for i := 0; i < 5; i++ {
		want := fmt.Sprintf("durable-%d", i)
		if got[uint64(i)] != want {
			t.Fatalf("lsn %d = %q, want %q", i, got[uint64(i)], want)
		}
	}
	// The doomed record either vanished with the crash or survived whole;
	// a torn copy must never replay.
	if v, ok := got[5]; ok && v != "doomed-00000000" {
		t.Fatalf("lsn 5 replayed torn payload %q", v)
	}
	if len(got) > 6 {
		t.Fatalf("replayed %d records, want at most 6", len(got))
	}
}

// TestFaultENOSPCDuringRoll fails the segment create of a roll-over with
// ENOSPC. The roll consumed the active segment, nothing is left to write
// to, and the log must fail terminally rather than pretend.
func TestFaultENOSPCDuringRoll(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(7)
	// Tiny segments force a roll on the second append.
	l := openFault(t, dir, fs, wal.Options{Sync: wal.SyncAlways, SegmentSize: 8})

	fs.Inject(faultfs.Rule{Op: faultfs.OpCreate, Count: -1, Err: faultfs.ENOSPC})
	if _, err := l.Append([]byte("fills the segment")); err == nil {
		t.Fatal("append rolling into a full disk succeeded")
	} else if !errors.Is(err, faultfs.ENOSPC) {
		t.Fatalf("err = %v, want ENOSPC", err)
	}

	if !l.Failed() {
		t.Fatal("log not failed after roll hit ENOSPC")
	}
	if _, err := l.Append([]byte("x")); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("Append on failed log = %v, want ErrLogFailed", err)
	}
	if err := l.AppendAsync([]byte("x"), nil); !errors.Is(err, wal.ErrLogFailed) {
		t.Fatalf("AppendAsync on failed log = %v, want ErrLogFailed", err)
	}

	// The record was written and fsynced before the roll failed: it must
	// still replay, and survive a reopen on a healed disk.
	if got := replayAll(t, l); got[0] != "fills the segment" {
		t.Fatalf("replay on failed log = %v", got)
	}
	_ = l.Close()
	r, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := replayAll(t, r); got[0] != "fills the segment" {
		t.Fatalf("replay after reopen = %v", got)
	}
}

// TestFaultStickyFsync drives the full failure-state machine: the first
// failed fsync seals the segment and rolls; the second — on the freshly
// rolled segment, before anything succeeded on it — is terminal. Every
// entry point then reports ErrLogFailed and Close is clean.
func TestFaultStickyFsync(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(3)
	l := openFault(t, dir, fs, wal.Options{Sync: wal.SyncAlways})

	if _, err := l.Append([]byte("good")); err != nil {
		t.Fatal(err)
	}
	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: -1, Err: errors.New("medium error")})

	// First failure: batch fails, segment seals, log stays alive.
	if _, err := l.Append([]byte("seal me")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if l.Failed() {
		t.Fatal("terminal after a single fsync failure; want seal+roll first")
	}
	if got := l.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount = %d, want 2 after seal+roll", got)
	}

	// Second failure, on the fresh segment: terminal.
	if _, err := l.Append([]byte("last straw")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	if !l.Failed() {
		t.Fatal("log not failed after fsync failed on the fresh segment")
	}
	for name, err := range map[string]error{
		"Append":  func() error { _, err := l.Append([]byte("x")); return err }(),
		"Sync":    l.Sync(),
		"Barrier": l.Barrier(),
	} {
		if !errors.Is(err, wal.ErrLogFailed) {
			t.Fatalf("%s on failed log = %v, want ErrLogFailed", name, err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close on failed log = %v, want nil", err)
	}
}

// TestFaultReplaySealedSegment checks Replay over a log whose middle
// segment was sealed by a failed batch: acknowledged records before and
// after the seal replay in order, across the LSN gap the lost batch may
// have left, both live and after a reopen.
func TestFaultReplaySealedSegment(t *testing.T) {
	dir := t.TempDir()
	fs := faultfs.New(11)
	l := openFault(t, dir, fs, wal.Options{Sync: wal.SyncAlways})

	for i := 0; i < 3; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Err: errors.New("transient")})
	if _, err := l.Append([]byte("nacked")); err == nil {
		t.Fatal("append with failing fsync succeeded")
	}
	var post []uint64
	for i := 0; i < 3; i++ {
		lsn, err := l.Append([]byte(fmt.Sprintf("post-%d", i)))
		if err != nil {
			t.Fatal(err)
		}
		post = append(post, lsn)
	}

	check := func(got map[uint64]string) {
		t.Helper()
		for i := 0; i < 3; i++ {
			if got[uint64(i)] != fmt.Sprintf("pre-%d", i) {
				t.Fatalf("lsn %d = %q", i, got[uint64(i)])
			}
		}
		for i, lsn := range post {
			if got[lsn] != fmt.Sprintf("post-%d", i) {
				t.Fatalf("lsn %d = %q, want post-%d", lsn, got[lsn], i)
			}
		}
	}
	check(replayAll(t, l))
	if got := l.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount = %d, want 2 (sealed + fresh)", got)
	}

	_ = l.Close()
	r, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(replayAll(t, r))
	if r.NextLSN() != post[len(post)-1]+1 {
		t.Fatalf("NextLSN after reopen = %d, want %d", r.NextLSN(), post[len(post)-1]+1)
	}
}

// TestFaultOpenReadErrorKeepsSegment and TestFaultReadErrorKeepsSegment
// open a log whose segment cannot be opened for reading, or read, once. An
// I/O error is not a torn record: the open must fail and leave the segment
// byte-identical, and the next open on a healed disk must find every
// acknowledged record.
func TestFaultOpenReadErrorKeepsSegment(t *testing.T) {
	testReadErrorKeepsSegment(t, faultfs.OpOpenRead)
}

func TestFaultReadErrorKeepsSegment(t *testing.T) {
	testReadErrorKeepsSegment(t, faultfs.OpRead)
}

func testReadErrorKeepsSegment(t *testing.T, op faultfs.Op) {
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("acked-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	before := segmentFiles(t, dir)

	fs := faultfs.New(13)
	fs.Inject(faultfs.Rule{Op: op, Count: 1, Err: errors.New("EIO")})
	if r, err := wal.Open(wal.Options{Dir: dir, FS: fs}); err == nil {
		r.Close()
		t.Fatalf("open succeeded over a failed %v", op)
	}
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("a failed %v changed the log", op)
	}

	r := openFault(t, dir, faultfs.New(14), wal.Options{})
	if got := replayAll(t, r); len(got) != 10 || got[9] != "acked-9" {
		t.Fatalf("after a failed %v the healed open replays %v, want 10 acked records", op, got)
	}
}

// segmentFiles reads every file of a log directory.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	return out
}
