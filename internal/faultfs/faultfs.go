// Package faultfs is an injectable filesystem for storage-fault testing.
// It implements wal.FS over the real filesystem and lets a test or the
// chaos harness (internal/chaos) schedule seeded faults against specific
// operations: fsync errors (transient or sticky), short/torn writes,
// ENOSPC, per-op latency, and crash-point truncation that models a power
// cut mid-record.
//
// The storage-side counterpart of internal/faultnet: faultnet breaks the
// wires, faultfs breaks the disk, and neither touches the code under test.
package faultfs

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"syscall"
	"time"

	"corona/internal/wal"
)

// Op identifies one filesystem operation class for fault matching.
type Op int

// Operations.
const (
	OpAny Op = iota
	OpMkdir
	OpReadDir
	OpCreate
	OpOpenAppend
	OpOpenRead
	OpWrite
	OpSync
	OpRead
	OpRemove
	OpTruncate
	OpSize
)

var opNames = [...]string{"any", "mkdir", "readdir", "create", "openappend", "openread", "write", "sync", "read", "remove", "truncate", "size"}

func (o Op) String() string {
	if int(o) < len(opNames) {
		return opNames[o]
	}
	return fmt.Sprintf("Op(%d)", int(o))
}

// Errors.
var (
	// ErrCrashed is returned by every operation after Crash.
	ErrCrashed = errors.New("faultfs: filesystem crashed")
	// ENOSPC is the canonical disk-full error injected by tests.
	ENOSPC = syscall.ENOSPC
)

// Rule schedules one fault. Matching operations count from the rule's
// injection: the first After matches pass through, then Count matches fail
// with Err (Count < 0 means sticky — every later match fails).
type Rule struct {
	// Op selects the operation class (OpAny matches everything).
	Op Op
	// Path, when non-empty, restricts the rule to paths containing it.
	Path string
	// After skips the first After matching operations.
	After int
	// Count is how many matches fire the fault; negative means sticky.
	Count int
	// Err is the injected error (required).
	Err error
	// ShortWrite, for OpWrite rules, writes a seeded prefix of the buffer
	// before failing — a torn record on the real file.
	ShortWrite bool

	seen  int
	fired int
}

// FS is a fault-injecting wal.FS over the real filesystem. The zero value
// is not usable; construct with New.
type FS struct {
	mu      sync.Mutex
	base    wal.FS
	rng     *rand.Rand
	rules   []*Rule
	latency time.Duration
	crashed bool
	ops     map[Op]int
	files   map[string]*fileState
}

// fileState tracks durability per file: written is the byte length the
// caller produced, synced the length covered by the last successful Sync.
// Crash truncates to a seeded point in [synced, written].
type fileState struct {
	written int64
	synced  int64
}

// New returns a fault-free FS; faults are scheduled with Inject. The seed
// drives every random choice (short-write lengths, crash cut points), so a
// run is reproducible from its seed.
func New(seed int64) *FS {
	return &FS{
		base:  wal.OSFS,
		rng:   rand.New(rand.NewSource(seed)),
		ops:   make(map[Op]int),
		files: make(map[string]*fileState),
	}
}

// Inject schedules a fault. The returned rule can be inspected by the
// test; it stays owned by the FS.
func (f *FS) Inject(r Rule) *Rule {
	f.mu.Lock()
	defer f.mu.Unlock()
	rule := r
	f.rules = append(f.rules, &rule)
	return &rule
}

// Clear drops every scheduled rule — the disk "heals". Latency and crash
// state are untouched.
func (f *FS) Clear() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.rules = nil
}

// SetLatency adds a fixed delay before every operation.
func (f *FS) SetLatency(d time.Duration) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.latency = d
}

// OpCount reports how many operations of one class have run (faulted or
// not).
func (f *FS) OpCount(op Op) int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.ops[op]
}

// Crash simulates a power cut: every tracked file is truncated to a seeded
// point between its last successfully synced length and its written length
// — bytes past the last fsync may or may not have reached the platter —
// and every subsequent operation fails with ErrCrashed. The caller then
// reopens the directory with a fresh FS to model the machine coming back.
func (f *FS) Crash() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.crashed {
		return nil
	}
	f.crashed = true
	var firstErr error
	for path, st := range f.files {
		if st.written <= st.synced {
			continue
		}
		cut := st.synced
		if span := st.written - st.synced; span > 0 {
			cut += f.rng.Int63n(span + 1)
		}
		if err := f.base.Truncate(path, cut); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// check runs the fault schedule for one operation. It returns the injected
// error, if any, and for short writes the number of bytes to write before
// failing (-1 means write everything).
func (f *FS) check(op Op, path string, n int) (shortN int, err error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.ops[op]++
	if f.latency > 0 {
		d := f.latency
		f.mu.Unlock()
		time.Sleep(d)
		f.mu.Lock()
	}
	if f.crashed {
		return -1, ErrCrashed
	}
	for _, r := range f.rules {
		if r.Op != OpAny && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(path, r.Path) {
			continue
		}
		r.seen++
		if r.seen <= r.After {
			continue
		}
		if r.Count >= 0 && r.fired >= r.Count {
			continue
		}
		r.fired++
		if r.ShortWrite && op == OpWrite && n > 0 {
			return f.rng.Intn(n), r.Err
		}
		return -1, r.Err
	}
	return -1, nil
}

func (f *FS) trackOpen(path string) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if _, ok := f.files[path]; ok {
		return
	}
	size, err := f.base.Size(path)
	if err != nil {
		size = 0
	}
	// Bytes present when the file is first seen are treated as durable:
	// they survived whatever came before this FS.
	f.files[path] = &fileState{written: size, synced: size}
}

func (f *FS) fileState(path string) *fileState {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.files[path]
}

// MkdirAll implements wal.FS.
func (f *FS) MkdirAll(dir string) error {
	if _, err := f.check(OpMkdir, dir, 0); err != nil {
		return err
	}
	return f.base.MkdirAll(dir)
}

// ReadDir implements wal.FS.
func (f *FS) ReadDir(dir string) ([]string, error) {
	if _, err := f.check(OpReadDir, dir, 0); err != nil {
		return nil, err
	}
	return f.base.ReadDir(dir)
}

// Create implements wal.FS.
func (f *FS) Create(path string) (wal.File, error) {
	if _, err := f.check(OpCreate, path, 0); err != nil {
		return nil, err
	}
	base, err := f.base.Create(path)
	if err != nil {
		return nil, err
	}
	f.trackOpen(path)
	return &file{fs: f, f: base, path: path, writable: true}, nil
}

// OpenAppend implements wal.FS.
func (f *FS) OpenAppend(path string) (wal.File, error) {
	if _, err := f.check(OpOpenAppend, path, 0); err != nil {
		return nil, err
	}
	base, err := f.base.OpenAppend(path)
	if err != nil {
		return nil, err
	}
	f.trackOpen(path)
	return &file{fs: f, f: base, path: path, writable: true}, nil
}

// OpenRead implements wal.FS.
func (f *FS) OpenRead(path string) (wal.File, error) {
	if _, err := f.check(OpOpenRead, path, 0); err != nil {
		return nil, err
	}
	base, err := f.base.OpenRead(path)
	if err != nil {
		return nil, err
	}
	return &file{fs: f, f: base, path: path}, nil
}

// Remove implements wal.FS.
func (f *FS) Remove(path string) error {
	if _, err := f.check(OpRemove, path, 0); err != nil {
		return err
	}
	if err := f.base.Remove(path); err != nil {
		return err
	}
	f.mu.Lock()
	delete(f.files, path)
	f.mu.Unlock()
	return nil
}

// Truncate implements wal.FS.
func (f *FS) Truncate(path string, size int64) error {
	if _, err := f.check(OpTruncate, path, 0); err != nil {
		return err
	}
	if err := f.base.Truncate(path, size); err != nil {
		return err
	}
	f.mu.Lock()
	if st, ok := f.files[path]; ok {
		if st.written > size {
			st.written = size
		}
		if st.synced > size {
			st.synced = size
		}
	}
	f.mu.Unlock()
	return nil
}

// Size implements wal.FS.
func (f *FS) Size(path string) (int64, error) {
	if _, err := f.check(OpSize, path, 0); err != nil {
		return 0, err
	}
	return f.base.Size(path)
}

// file wraps one real file with the fault schedule and durability
// tracking.
type file struct {
	fs       *FS
	f        wal.File
	path     string
	writable bool
}

func (x *file) Read(p []byte) (int, error) {
	if _, err := x.fs.check(OpRead, x.path, 0); err != nil {
		return 0, err
	}
	return x.f.Read(p)
}

func (x *file) Write(p []byte) (int, error) {
	shortN, err := x.fs.check(OpWrite, x.path, len(p))
	if err != nil {
		n := 0
		if shortN > 0 {
			// Torn write: a seeded prefix reaches the file before the
			// error surfaces.
			n, _ = x.f.Write(p[:shortN])
		}
		x.noteWritten(n)
		return n, err
	}
	n, werr := x.f.Write(p)
	x.noteWritten(n)
	return n, werr
}

func (x *file) noteWritten(n int) {
	if !x.writable || n <= 0 {
		return
	}
	if st := x.fs.fileState(x.path); st != nil {
		x.fs.mu.Lock()
		st.written += int64(n)
		x.fs.mu.Unlock()
	}
}

func (x *file) Sync() error {
	if _, err := x.fs.check(OpSync, x.path, 0); err != nil {
		return err
	}
	if err := x.f.Sync(); err != nil {
		return err
	}
	if x.writable {
		if st := x.fs.fileState(x.path); st != nil {
			x.fs.mu.Lock()
			st.synced = st.written
			x.fs.mu.Unlock()
		}
	}
	return nil
}

func (x *file) Close() error { return x.f.Close() }
