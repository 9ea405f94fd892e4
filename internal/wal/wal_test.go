package wal

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"testing/quick"
	"time"
)

func openTest(t *testing.T, opts Options) *Log {
	t.Helper()
	if opts.Dir == "" {
		opts.Dir = t.TempDir()
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { l.Close() })
	return l
}

// Append is the synchronous form the tests write with: AppendAsync plus a
// wait for the commit callback, so the group-commit writer is the only path
// that writes records. With SyncAlways the record is on disk on return.
func (l *Log) Append(payload []byte) (uint64, error) {
	type result struct {
		lsn uint64
		err error
	}
	done := make(chan result, 1)
	if err := l.AppendAsync(payload, func(lsn uint64, err error) { done <- result{lsn, err} }); err != nil {
		return 0, err
	}
	r := <-done
	return r.lsn, r.err
}

func appendN(t *testing.T, l *Log, n int, tag string) {
	t.Helper()
	for i := 0; i < n; i++ {
		if _, err := l.Append([]byte(fmt.Sprintf("%s-%d", tag, i))); err != nil {
			t.Fatal(err)
		}
	}
}

func collect(t *testing.T, l *Log, from uint64) map[uint64]string {
	t.Helper()
	got := make(map[uint64]string)
	err := l.Replay(from, func(lsn uint64, payload []byte) error {
		got[lsn] = string(payload)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return got
}

func TestAppendReplay(t *testing.T) {
	l := openTest(t, Options{})
	appendN(t, l, 10, "rec")
	got := collect(t, l, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d records, want 10", len(got))
	}
	for i := 0; i < 10; i++ {
		if got[uint64(i)] != fmt.Sprintf("rec-%d", i) {
			t.Errorf("lsn %d = %q", i, got[uint64(i)])
		}
	}
}

func TestReplayFrom(t *testing.T) {
	l := openTest(t, Options{})
	appendN(t, l, 10, "rec")
	got := collect(t, l, 7)
	if len(got) != 3 {
		t.Fatalf("replayed %d records from 7, want 3", len(got))
	}
	for lsn := range got {
		if lsn < 7 {
			t.Errorf("replayed lsn %d < from", lsn)
		}
	}
}

func TestReopenContinuesLSN(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "a")
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, Options{Dir: dir})
	if next := l2.NextLSN(); next != 5 {
		t.Fatalf("NextLSN after reopen = %d, want 5", next)
	}
	appendN(t, l2, 5, "b")
	got := collect(t, l2, 0)
	if len(got) != 10 {
		t.Fatalf("replayed %d, want 10", len(got))
	}
	if got[7] != "b-2" {
		t.Errorf("lsn 7 = %q, want b-2", got[7])
	}
}

func TestSegmentRolling(t *testing.T) {
	l := openTest(t, Options{SegmentSize: 256})
	appendN(t, l, 50, "roll") // ~10 bytes payload each + 8 hdr -> several segments
	if l.SegmentCount() < 2 {
		t.Fatalf("SegmentCount = %d, want >= 2", l.SegmentCount())
	}
	got := collect(t, l, 0)
	if len(got) != 50 {
		t.Fatalf("replayed %d, want 50", len(got))
	}
}

func TestReopenAcrossSegments(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, SegmentSize: 256})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 50, "seg")
	l.Close()

	l2 := openTest(t, Options{Dir: dir, SegmentSize: 256})
	if next := l2.NextLSN(); next != 50 {
		t.Fatalf("NextLSN = %d, want 50", next)
	}
	got := collect(t, l2, 0)
	if len(got) != 50 || got[49] != "seg-49" {
		t.Fatalf("replay after reopen: %d records, last %q", len(got), got[49])
	}
}

func TestTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "ok")
	l.Close()

	// Simulate a torn write: append garbage to the segment file.
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 {
		t.Fatalf("expected 1 segment, got %d", len(ents))
	}
	path := filepath.Join(dir, ents[0].Name())
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	// A plausible-looking header followed by a short body.
	if _, err := f.Write([]byte{0xDE, 0xAD, 0xBE, 0xEF, 0x00, 0x00, 0x00, 0x10, 0x01}); err != nil {
		t.Fatal(err)
	}
	f.Close()

	l2 := openTest(t, Options{Dir: dir})
	if next := l2.NextLSN(); next != 5 {
		t.Fatalf("NextLSN after torn tail = %d, want 5", next)
	}
	got := collect(t, l2, 0)
	if len(got) != 5 {
		t.Fatalf("replayed %d, want 5", len(got))
	}
	// The log must keep working after repair.
	if _, err := l2.Append([]byte("after")); err != nil {
		t.Fatal(err)
	}
	if got := collect(t, l2, 5); got[5] != "after" {
		t.Fatalf("post-repair append: %v", got)
	}
}

func TestCorruptMiddleRecovery(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	appendN(t, l, 5, "x")
	l.Close()

	ents, _ := os.ReadDir(dir)
	path := filepath.Join(dir, ents[0].Name())
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte in the middle: records from there on are discarded.
	data[len(data)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}

	l2 := openTest(t, Options{Dir: dir})
	next := l2.NextLSN()
	if next >= 5 {
		t.Fatalf("NextLSN = %d after mid-file corruption, want < 5", next)
	}
	got := collect(t, l2, 0)
	if uint64(len(got)) != next {
		t.Fatalf("replayed %d, want %d", len(got), next)
	}
}

func TestTruncateBefore(t *testing.T) {
	l := openTest(t, Options{SegmentSize: 256})
	appendN(t, l, 60, "t")
	before := l.SegmentCount()
	if before < 3 {
		t.Fatalf("need >= 3 segments, got %d", before)
	}
	if err := l.TruncateBefore(40); err != nil {
		t.Fatal(err)
	}
	if after := l.SegmentCount(); after >= before {
		t.Errorf("SegmentCount %d -> %d, want a drop", before, after)
	}
	first := l.FirstLSN()
	if first > 40 {
		t.Errorf("FirstLSN = %d, must not exceed truncation point", first)
	}
	got := collect(t, l, first)
	for lsn := first; lsn < 60; lsn++ {
		if got[lsn] != fmt.Sprintf("t-%d", lsn) {
			t.Fatalf("lsn %d missing after truncation", lsn)
		}
	}
}

func TestSyncAlways(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Append([]byte("durable")); err != nil {
		t.Fatal(err)
	}
	// Without closing, the record must already be on disk: scan the file
	// directly.
	ents, _ := os.ReadDir(dir)
	count, _, scanErr := scanSegment(OSFS, filepath.Join(dir, ents[0].Name()))
	if scanErr != nil || count != 1 {
		t.Fatalf("on-disk records = %d (err %v), want 1", count, scanErr)
	}
	l.Close()
}

func TestSyncInterval(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncInterval, SyncEvery: 10 * time.Millisecond})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	if _, err := l.Append([]byte("timed")); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		ents, _ := os.ReadDir(dir)
		if count, _, _ := scanSegment(OSFS, filepath.Join(dir, ents[0].Name())); count == 1 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("interval sync never flushed the record")
}

func TestAppendAfterClose(t *testing.T) {
	l := openTest(t, Options{})
	l.Close()
	if _, err := l.Append([]byte("x")); !errors.Is(err, ErrClosed) {
		t.Errorf("got %v, want ErrClosed", err)
	}
	if err := l.Sync(); !errors.Is(err, ErrClosed) {
		t.Errorf("Sync after close: %v, want ErrClosed", err)
	}
	if err := l.Close(); err != nil {
		t.Errorf("double close: %v", err)
	}
}

func TestRecordTooLarge(t *testing.T) {
	l := openTest(t, Options{})
	if _, err := l.Append(make([]byte, MaxRecordSize+1)); !errors.Is(err, ErrRecordTooLarge) {
		t.Errorf("got %v, want ErrRecordTooLarge", err)
	}
}

func TestEmptyPayload(t *testing.T) {
	l := openTest(t, Options{})
	lsn, err := l.Append(nil)
	if err != nil {
		t.Fatal(err)
	}
	got := collect(t, l, 0)
	if v, ok := got[lsn]; !ok || v != "" {
		t.Errorf("empty record round trip failed: %v", got)
	}
}

// TestQuickWriteRecoverIdentity property-tests that any batch of records
// survives a close/reopen cycle byte-for-byte, across random payload sizes
// that force segment rolls.
func TestQuickWriteRecoverIdentity(t *testing.T) {
	f := func(payloads [][]byte) bool {
		dir := t.TempDir()
		l, err := Open(Options{Dir: dir, SegmentSize: 512})
		if err != nil {
			return false
		}
		for _, p := range payloads {
			if len(p) > 1024 {
				p = p[:1024]
			}
			if _, err := l.Append(p); err != nil {
				l.Close()
				return false
			}
		}
		if err := l.Close(); err != nil {
			return false
		}
		l2, err := Open(Options{Dir: dir, SegmentSize: 512})
		if err != nil {
			return false
		}
		defer l2.Close()
		var got [][]byte
		err = l2.Replay(0, func(_ uint64, payload []byte) error {
			got = append(got, append([]byte(nil), payload...))
			return nil
		})
		if err != nil || len(got) != len(payloads) {
			return false
		}
		for i := range payloads {
			want := payloads[i]
			if len(want) > 1024 {
				want = want[:1024]
			}
			if !bytes.Equal(got[i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}

func TestConcurrentAppends(t *testing.T) {
	l := openTest(t, Options{SegmentSize: 4096})
	const writers, per = 4, 100
	errs := make(chan error, writers)
	for w := 0; w < writers; w++ {
		go func(w int) {
			for i := 0; i < per; i++ {
				if _, err := l.Append([]byte(fmt.Sprintf("w%d-%d", w, i))); err != nil {
					errs <- err
					return
				}
			}
			errs <- nil
		}(w)
	}
	for w := 0; w < writers; w++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	got := collect(t, l, 0)
	if len(got) != writers*per {
		t.Fatalf("replayed %d, want %d", len(got), writers*per)
	}
	if l.NextLSN() != uint64(writers*per) {
		t.Fatalf("NextLSN = %d", l.NextLSN())
	}
}

func TestSizeReporting(t *testing.T) {
	l := openTest(t, Options{})
	if l.Size() != 0 {
		t.Errorf("empty log Size = %d", l.Size())
	}
	appendN(t, l, 10, "sz")
	if l.Size() <= 0 {
		t.Errorf("Size = %d after appends", l.Size())
	}
}

func BenchmarkAppend1000NoSync(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir()})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 1000)
	b.SetBytes(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAppend1000SyncAlways(b *testing.B) {
	l, err := Open(Options{Dir: b.TempDir(), Sync: SyncAlways})
	if err != nil {
		b.Fatal(err)
	}
	defer l.Close()
	payload := make([]byte, 1000)
	b.SetBytes(1000)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := l.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
}

func TestReplayDuringConcurrentAppends(t *testing.T) {
	l := openTest(t, Options{SegmentSize: 2048})
	appendN(t, l, 50, "pre")

	stop := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; ; i++ {
			select {
			case <-stop:
				return
			default:
			}
			if _, err := l.Append([]byte(fmt.Sprintf("live-%d", i))); err != nil {
				return
			}
		}
	}()
	// Replays must always see a consistent prefix: every record from 0
	// to the snapshot point, no corruption, no short reads.
	for round := 0; round < 10; round++ {
		var next uint64
		err := l.Replay(0, func(lsn uint64, payload []byte) error {
			if lsn != next {
				t.Errorf("round %d: lsn %d, want %d", round, lsn, next)
			}
			if len(payload) == 0 {
				t.Errorf("round %d: empty payload at %d", round, lsn)
			}
			next++
			return nil
		})
		if err != nil {
			t.Fatalf("round %d: %v", round, err)
		}
		if next < 50 {
			t.Fatalf("round %d: replay saw only %d records", round, next)
		}
	}
	close(stop)
	<-done
}

func TestReplayCallbackErrorPropagates(t *testing.T) {
	l := openTest(t, Options{})
	appendN(t, l, 5, "x")
	sentinel := errors.New("stop here")
	calls := 0
	err := l.Replay(0, func(uint64, []byte) error {
		calls++
		if calls == 3 {
			return sentinel
		}
		return nil
	})
	if !errors.Is(err, sentinel) || calls != 3 {
		t.Fatalf("err=%v calls=%d", err, calls)
	}
}
