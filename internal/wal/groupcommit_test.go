package wal

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// hookFS wraps the real filesystem and runs a hook before every file
// fsync — the in-package face of the FS seam (internal/faultfs is the
// full fault driver). A non-nil error from the hook replaces the fsync.
type hookFS struct {
	FS
	syncHook atomic.Pointer[func() error]
}

func newHookFS() *hookFS { return &hookFS{FS: OSFS} }

func (h *hookFS) setHook(fn func() error) { h.syncHook.Store(&fn) }

func (h *hookFS) Create(path string) (File, error) {
	f, err := h.FS.Create(path)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

func (h *hookFS) OpenAppend(path string) (File, error) {
	f, err := h.FS.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	return &hookFile{File: f, fs: h}, nil
}

type hookFile struct {
	File
	fs *hookFS
}

func (f *hookFile) Sync() error {
	if fn := f.fs.syncHook.Load(); fn != nil && *fn != nil {
		if err := (*fn)(); err != nil {
			return err
		}
	}
	return f.File.Sync()
}

// gatedFsync blocks the committer's fsync until released, so a test can
// deterministically pile appends into the next batch.
type gatedFsync struct {
	calls   atomic.Int64
	entered chan struct{} // one token per fsync that has started
	release chan struct{} // one token unblocks one fsync
}

func newGatedFsync() *gatedFsync {
	return &gatedFsync{entered: make(chan struct{}, 64), release: make(chan struct{}, 64)}
}

func (g *gatedFsync) hook() error {
	g.calls.Add(1)
	g.entered <- struct{}{}
	<-g.release
	return nil
}

func TestGroupCommitCoalesces(t *testing.T) {
	fs := newHookFS()
	l := openTest(t, Options{Sync: SyncAlways, FS: fs})
	gate := newGatedFsync()
	fs.setHook(gate.hook)

	var acked atomic.Int64
	done := func(uint64, error) { acked.Add(1) }

	// First append reaches the fsync and blocks there.
	if err := l.AppendAsync([]byte("first"), done); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	// Everything queued while the first batch is stuck in fsync must be
	// committed by the following batch: one more write, one more fsync.
	const queued = 32
	for i := 0; i < queued; i++ {
		if err := l.AppendAsync([]byte(fmt.Sprintf("q-%d", i)), done); err != nil {
			t.Fatal(err)
		}
	}
	gate.release <- struct{}{} // finish batch 1
	<-gate.entered             // batch 2 reaches its fsync
	gate.release <- struct{}{} // finish batch 2
	fs.setHook(nil)            // Close fsyncs once more on its way out

	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := acked.Load(); got != queued+1 {
		t.Fatalf("acked %d of %d appends", got, queued+1)
	}
	if got := gate.calls.Load(); got != 2 {
		t.Fatalf("expected 2 fsyncs for %d appends, got %d", queued+1, got)
	}
	if got := collect(t, l, 0); len(got) != queued+1 {
		t.Fatalf("log holds %d records, want %d", len(got), queued+1)
	}
}

func TestGroupCommitAckAfterFsync(t *testing.T) {
	fs := newHookFS()
	l := openTest(t, Options{Sync: SyncAlways, FS: fs})
	gate := newGatedFsync()
	fs.setHook(gate.hook)

	acked := make(chan uint64, 1)
	if err := l.AppendAsync([]byte("x"), func(lsn uint64, err error) {
		if err != nil {
			t.Errorf("append: %v", err)
		}
		acked <- lsn
	}); err != nil {
		t.Fatal(err)
	}

	<-gate.entered // the record is written, fsync in progress
	select {
	case <-acked:
		t.Fatal("callback ran before the fsync completed")
	default:
	}
	gate.release <- struct{}{}
	if lsn := <-acked; lsn != 0 {
		t.Fatalf("lsn = %d, want 0", lsn)
	}
	fs.setHook(nil)
}

func TestGroupCommitErrorPropagation(t *testing.T) {
	fs := newHookFS()
	l := openTest(t, Options{Sync: SyncAlways, FS: fs})
	boom := errors.New("disk on fire")
	gate := newGatedFsync()
	fs.setHook(gate.hook)

	// Park the committer in a benign fsync so the doomed appends all land
	// in one batch — one fsync failure fails exactly one batch.
	if err := l.AppendAsync([]byte("parked"), nil); err != nil {
		t.Fatal(err)
	}
	<-gate.entered

	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	wg.Add(n)
	for i := 0; i < n; i++ {
		if err := l.AppendAsync([]byte(fmt.Sprintf("r-%d", i)), func(i int) func(uint64, error) {
			return func(_ uint64, err error) { errs[i] = err; wg.Done() }
		}(i)); err != nil {
			t.Fatal(err)
		}
	}
	fs.setHook(func() error { return boom })
	gate.release <- struct{}{}

	// Every waiter of the doomed batch sees the error.
	wg.Wait()
	for i, err := range errs {
		if !errors.Is(err, boom) {
			t.Fatalf("waiter %d: err = %v, want %v", i, err, boom)
		}
	}

	// One failed batch is not terminal: the log seals the dirty segment,
	// rolls, and the next batch succeeds on the fresh file once the disk
	// heals. It never re-fsyncs the sealed segment.
	fs.setHook(nil)
	ok := make(chan error, 1)
	if err := l.AppendAsync([]byte("after"), func(_ uint64, err error) { ok <- err }); err != nil {
		t.Fatal(err)
	}
	if err := <-ok; err != nil {
		t.Fatalf("append after recovery: %v", err)
	}
	if l.Failed() {
		t.Fatal("log reports failed after a recovered transient fault")
	}
	if got := l.SegmentCount(); got != 2 {
		t.Fatalf("SegmentCount = %d, want 2 (sealed + fresh)", got)
	}
}

func TestGroupCommitConcurrentAppenders(t *testing.T) {
	l := openTest(t, Options{Sync: SyncAlways, SegmentSize: 1 << 12})

	const (
		appenders = 8
		each      = 50
	)
	var wg sync.WaitGroup
	var acked atomic.Int64
	for a := 0; a < appenders; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				err := l.AppendAsync([]byte(fmt.Sprintf("a%d-%d", a, i)), func(_ uint64, err error) {
					if err == nil {
						acked.Add(1)
					}
				})
				if err != nil {
					t.Errorf("appender %d: %v", a, err)
					return
				}
			}
		}(a)
	}
	wg.Wait()
	if err := l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := acked.Load(); got != appenders*each {
		t.Fatalf("acked %d of %d", got, appenders*each)
	}
	// Every record made it to disk, with dense LSNs.
	got := collect(t, l, 0)
	if len(got) != appenders*each {
		t.Fatalf("log holds %d records, want %d", len(got), appenders*each)
	}
	for lsn := uint64(0); lsn < uint64(appenders*each); lsn++ {
		if _, ok := got[lsn]; !ok {
			t.Fatalf("missing lsn %d", lsn)
		}
	}
}

// TestGroupCommitRecoveryIdentity checks the on-disk format is unchanged:
// a log written through the async group-commit path replays identically
// after reopen, and matches a log written with synchronous Append.
func TestGroupCommitRecoveryIdentity(t *testing.T) {
	const n = 40
	payload := func(i int) []byte { return []byte(fmt.Sprintf("rec-%02d", i)) }

	asyncDir := t.TempDir()
	la, err := Open(Options{Dir: asyncDir, Sync: SyncAlways, SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := la.AppendAsync(payload(i), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := la.Close(); err != nil { // drains the queue
		t.Fatal(err)
	}

	syncDir := t.TempDir()
	ls, err := Open(Options{Dir: syncDir, Sync: SyncAlways, SegmentSize: 1 << 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if _, err := ls.Append(payload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := ls.Close(); err != nil {
		t.Fatal(err)
	}

	ra := openTest(t, Options{Dir: asyncDir})
	rs := openTest(t, Options{Dir: syncDir})
	ga, gs := collect(t, ra, 0), collect(t, rs, 0)
	if len(ga) != n || len(gs) != n {
		t.Fatalf("replayed %d async / %d sync records, want %d", len(ga), len(gs), n)
	}
	for lsn := uint64(0); lsn < n; lsn++ {
		if ga[lsn] != gs[lsn] {
			t.Fatalf("lsn %d: async %q != sync %q", lsn, ga[lsn], gs[lsn])
		}
	}
	if ra.NextLSN() != rs.NextLSN() {
		t.Fatalf("NextLSN: async %d != sync %d", ra.NextLSN(), rs.NextLSN())
	}
}

// TestBarrierAfterClose documents that Barrier on a closed log reports
// ErrClosed instead of hanging.
func TestBarrierAfterClose(t *testing.T) {
	l := openTest(t, Options{})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if err := l.Barrier(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Barrier after close = %v, want ErrClosed", err)
	}
	if err := l.AppendAsync([]byte("x"), nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("AppendAsync after close = %v, want ErrClosed", err)
	}
}

// commitHarness is a SyncAlways log whose every fsync is gated and whose
// commit-wait timer is the test's: each wait reports its limit on waits and
// runs out only when the test sends on expire.
type commitHarness struct {
	l      *Log
	fs     *hookFS
	gate   *gatedFsync
	waits  chan time.Duration
	expire chan time.Time
	sizes  []uint64 // the records of each batch, noted as its fsync starts
}

func newCommitHarness(t *testing.T) *commitHarness {
	// waits has room for every wait a test makes, so a committer that
	// waits when the test expected it not to still reaches the fsync gate
	// the test then fails on.
	h := &commitHarness{fs: newHookFS(), gate: newGatedFsync(), waits: make(chan time.Duration, 64), expire: make(chan time.Time)}
	h.l = openTest(t, Options{Sync: SyncAlways, FS: h.fs})
	h.l.waitTimer = func(limit time.Duration) <-chan time.Time {
		h.waits <- limit
		return h.expire
	}
	var synced uint64
	h.fs.setHook(func() error {
		// The committer holds l.mu while it fsyncs.
		h.sizes = append(h.sizes, h.l.nextLSN-synced)
		synced = h.l.nextLSN
		return h.gate.hook()
	})
	// A test that fails may leave the committer in a gated fsync, where
	// Close would wait for it.
	t.Cleanup(func() {
		h.fs.setHook(nil)
		close(h.gate.release)
	})
	return h
}

func (h *commitHarness) append(t *testing.T, done func(uint64, error)) {
	t.Helper()
	if err := h.l.AppendAsync([]byte("r"), done); err != nil {
		t.Fatal(err)
	}
}

// waited reports whether the woken committer waited (true) or committed
// at once (false: the next fsync began).
func (h *commitHarness) waited() bool {
	select {
	case limit := <-h.waits:
		return limit > 0
	case <-h.gate.entered:
		return false
	}
}

// finish lets the fsync in progress, and every later one, through.
func (h *commitHarness) finish() {
	h.fs.setHook(nil)
	h.gate.release <- struct{}{}
}

// TestCommitWaitJoinsClosedLoops: two closed-loop writers of k records
// each, split into two groups that would take turns, end up sharing every
// fsync. The committer waits for the writer its last commit released
// instead of committing the other writer's records alone.
func TestCommitWaitJoinsClosedLoops(t *testing.T) {
	const k, rounds = 4, 5
	h := newCommitHarness(t)
	acks := make(chan string, 2*k)
	appendAs := func(who string) {
		h.append(t, func(_ uint64, err error) {
			if err != nil {
				t.Errorf("%s: %v", who, err)
			}
			acks <- who
		})
	}

	// a's first record commits alone; the rest of a and all of b queue
	// behind it.
	appendAs("a")
	<-h.gate.entered
	for i := 1; i < k; i++ {
		appendAs("a")
	}
	for i := 0; i < k; i++ {
		appendAs("b")
	}
	h.gate.release <- struct{}{}
	if !h.waited() {
		t.Fatal("committed b without waiting for a")
	}
	appendAs(<-acks) // a comes back: 2k queued
	<-h.gate.entered

	// From here on every batch holds both writers' k records: the first
	// record back wakes the committer, which waits for the other 2k-1.
	for r := 0; r < rounds; r++ {
		h.gate.release <- struct{}{}
		back := make([]string, 2*k)
		for i := range back {
			back[i] = <-acks
		}
		appendAs(back[0])
		if !h.waited() {
			t.Fatalf("round %d: committed one record without waiting for the rest", r)
		}
		for _, who := range back[1:] {
			appendAs(who)
		}
		<-h.gate.entered
	}
	h.finish()

	want := []uint64{1, 2 * k}
	for r := 0; r < rounds; r++ {
		want = append(want, 2*k)
	}
	if fmt.Sprint(h.sizes) != fmt.Sprint(want) {
		t.Fatalf("batch sizes %v, want %v", h.sizes, want)
	}
}

// TestCommitWaitSequentialNeverWaits: a writer that appends only once its
// last record is acked finds, at every wake, the one record the committer
// expects, so the committer never waits.
func TestCommitWaitSequentialNeverWaits(t *testing.T) {
	l := openTest(t, Options{Sync: SyncAlways})
	before := walCommitWaitNs.Snapshot().Count
	appendN(t, l, 50, "seq")
	if waits := walCommitWaitNs.Snapshot().Count - before; waits != 0 {
		t.Fatalf("a sequential writer made the committer wait %d times", waits)
	}
}

// TestCommitWaitBacksOff: a wait that runs out commits at once and turns
// waiting off for the next waitSkipMin commits; a second miss doubles that
// span, and a wait that meets its expectation resets it.
func TestCommitWaitBacksOff(t *testing.T) {
	h := newCommitHarness(t)
	// next releases the fsync in progress with one record queued behind
	// it, fewer than the committer expects, and reports whether the
	// committer waited before committing that record.
	next := func() bool {
		h.append(t, nil)
		h.gate.release <- struct{}{}
		return h.waited()
	}
	miss := func() {
		t.Helper()
		if !next() {
			t.Fatal("the committer did not wait")
		}
		h.expire <- time.Now()
		<-h.gate.entered
	}
	noWaits := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			if next() {
				t.Fatalf("the committer waited %d commits after a miss, want %d", i, n)
			}
		}
	}

	misses := walCommitWaitMisses.Load()
	h.append(t, nil)
	<-h.gate.entered
	miss()
	noWaits(waitSkipMin)
	miss()
	noWaits(2 * waitSkipMin)

	// A wait that meets its expectation resets the span.
	if !next() {
		t.Fatal("the committer did not wait")
	}
	h.append(t, nil)
	<-h.gate.entered
	miss()
	noWaits(waitSkipMin)
	if !next() {
		t.Fatal("the committer did not wait after the span")
	}
	h.append(t, nil) // meets the wait, which commits
	h.finish()
	if err := h.l.Barrier(); err != nil {
		t.Fatal(err)
	}
	if got := walCommitWaitMisses.Load() - misses; got != 3 {
		t.Fatalf("wal.commit_wait_misses rose by %d, want 3", got)
	}
}

// TestCommitWaitEndsAtBarrierOrClose: a Barrier queued before the committer
// wakes, or during its wait, and a Close during a wait, each commit at once,
// and every callback runs exactly once.
func TestCommitWaitEndsAtBarrierOrClose(t *testing.T) {
	// start commits one record and queues a second behind it, so the
	// woken committer expects two; calls counts each record's callbacks.
	start := func(t *testing.T) (*commitHarness, *[2]atomic.Int64) {
		h := newCommitHarness(t)
		calls := new([2]atomic.Int64)
		for i := range calls {
			h.append(t, func(_ uint64, err error) {
				if err != nil {
					t.Errorf("record %d: %v", i, err)
				}
				calls[i].Add(1)
			})
			if i == 0 {
				<-h.gate.entered
			}
		}
		return h, calls
	}
	once := func(t *testing.T, calls *[2]atomic.Int64) {
		for i := range calls {
			if n := calls[i].Load(); n != 1 {
				t.Errorf("record %d's callback ran %d times", i, n)
			}
		}
	}
	barrier := func(l *Log) <-chan error {
		done := make(chan error, 1)
		go func() { done <- l.Barrier() }()
		return done
	}

	t.Run("barrier queued", func(t *testing.T) {
		h, calls := start(t)
		done := barrier(h.l)
		for { // the barrier is queued
			h.l.pendMu.Lock()
			queued := h.l.pendBarrier
			h.l.pendMu.Unlock()
			if queued {
				break
			}
			runtime.Gosched()
		}
		h.gate.release <- struct{}{}
		if h.waited() {
			t.Fatal("the committer waited with a barrier queued")
		}
		h.finish()
		if err := <-done; err != nil {
			t.Fatal(err)
		}
		once(t, calls)
	})
	t.Run("barrier during a wait", func(t *testing.T) {
		h, calls := start(t)
		h.gate.release <- struct{}{}
		if !h.waited() {
			t.Fatal("the committer did not wait")
		}
		h.fs.setHook(nil)
		if err := <-barrier(h.l); err != nil {
			t.Fatal(err)
		}
		once(t, calls)
	})
	t.Run("close during a wait", func(t *testing.T) {
		h, calls := start(t)
		h.gate.release <- struct{}{}
		if !h.waited() {
			t.Fatal("the committer did not wait")
		}
		h.fs.setHook(nil)
		if err := h.l.Close(); err != nil {
			t.Fatal(err)
		}
		once(t, calls)
	})
}

// TestCommitAllocations: a steady stream of batches allocates nothing in
// the committer. The queue's two arrays swap, each reused once its batch's
// callbacks have returned, each record's LSN rides in its queue entry, and
// a wait reuses one timer.
func TestCommitAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	l := openTest(t, Options{Sync: SyncAlways})
	const batch = 16
	payload := make([]byte, 100)
	done := make(chan struct{}, 1)
	last := func(_ uint64, err error) {
		if err != nil {
			t.Error(err)
		}
		done <- struct{}{}
	}
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < batch-1; i++ {
			if err := l.AppendAsync(payload, nil); err != nil {
				t.Fatal(err)
			}
		}
		if err := l.AppendAsync(payload, last); err != nil {
			t.Fatal(err)
		}
		<-done
	})
	if allocs != 0 {
		t.Fatalf("%.1f allocations per %d-record stream step, want 0", allocs, batch)
	}
}
