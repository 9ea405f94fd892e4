// Package wal implements the stable-storage message log behind Corona's
// stateful multicast service (paper §3.2: "all the multicast messages are
// logged both in memory and on stable storage, thus ensuring persistence of
// shared state and fault tolerance").
//
// The log is a sequence of records, each assigned a monotonically
// increasing log sequence number (LSN), stored across size-bounded segment
// files. Records carry a CRC-32C checksum; opening the log reads each
// segment once, checks each record once, and truncates a torn tail (the
// paper accepts losing the latest unflushed updates on a crash — §6).
// A payload Recover hands over points into its segment's read, which the
// log never writes and does not keep: it stays valid for as long as the
// caller holds it, while Replay's lives only until its callback returns.
// Log reduction drops whole segments whose records precede a checkpoint
// (TruncateBefore).
//
// Storage faults follow the "fsyncgate" rule: after a failed fsync the
// durability of the file's recent writes is unknown, and a later fsync of
// the same file proves nothing. A failed commit therefore fails its whole
// batch, seals the active segment as-is (never fsyncing it again), and
// rolls to a fresh segment. If the fresh segment fails before anything
// succeeds on it — or the roll itself fails — the log enters a terminal
// failed state where every operation returns ErrLogFailed, and the owner
// must reopen a new Log to resume.
package wal

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// SyncPolicy controls when appends reach the disk.
type SyncPolicy int

// Sync policies.
const (
	// SyncNever relies on the OS to write back; fastest, loses the most
	// on a crash. This models the paper's "main-memory logging" remark.
	SyncNever SyncPolicy = iota
	// SyncInterval fsyncs on a timer (see Options.SyncEvery).
	SyncInterval
	// SyncAlways fsyncs every append; slowest, loses nothing.
	SyncAlways
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncNever:
		return "never"
	case SyncInterval:
		return "interval"
	case SyncAlways:
		return "always"
	default:
		return fmt.Sprintf("SyncPolicy(%d)", int(p))
	}
}

// Defaults.
const (
	// DefaultSegmentSize is the roll-over threshold for segment files.
	DefaultSegmentSize = 16 << 20
	// DefaultSyncEvery is the default interval for SyncInterval.
	DefaultSyncEvery = 100 * time.Millisecond
	// MaxRecordSize bounds one record's payload.
	MaxRecordSize = 64 << 20

	segSuffix = ".seg"
	recHdr    = 8 // crc32 + length
)

// Log errors.
var (
	ErrClosed         = errors.New("wal: log closed")
	ErrRecordTooLarge = errors.New("wal: record exceeds maximum size")
	// ErrLogFailed marks the terminal failed state: a commit failed on a
	// freshly rolled segment (or the roll itself failed), so the log can no
	// longer promise durability for anything. Matched with errors.Is.
	ErrLogFailed = errors.New("wal: log failed")
	errBadRecord = errors.New("wal: corrupt record")
)

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Options configures a Log.
type Options struct {
	// Dir is the directory holding segment files. It is created if
	// missing.
	Dir string
	// SegmentSize is the roll-over threshold (default DefaultSegmentSize).
	SegmentSize int64
	// Sync selects the durability policy (default SyncNever).
	Sync SyncPolicy
	// SyncEvery is the flush period under SyncInterval.
	SyncEvery time.Duration
	// FS is the filesystem beneath the log (default OSFS). Tests and the
	// chaos harness substitute a fault-injecting implementation.
	FS FS
}

type segment struct {
	path  string
	first uint64 // LSN of first record
	count uint64 // number of records
}

// Log is an append-only segmented record log. All methods are safe for
// concurrent use.
type Log struct {
	opts Options
	fs   FS

	mu       sync.Mutex
	segments []segment // read-only older segments, sorted by first LSN
	active   segment
	f        File
	w        *bufio.Writer
	size     int64
	nextLSN  uint64
	closed   bool
	needSync bool

	// Failure policy state. sealedAfterError is set when a commit failure
	// seals the active segment and rolls; if the fresh segment also fails
	// before any successful sync, the log is terminally failed. failErr
	// wraps ErrLogFailed around the root cause.
	failed           bool
	sealedAfterError bool
	failErr          error
	failedFlag       atomic.Bool

	// Group commit: AppendAsync queues records here; the committer
	// goroutine drains the queue, writes the whole batch under mu, fsyncs
	// once (SyncAlways), and invokes the completion callbacks in LSN
	// order. One fsync is amortized over every record that arrived while
	// the previous batch was committing.
	pendMu     sync.Mutex
	pending    []pendingAppend
	pendClosed bool
	pendSig    chan struct{}
	commitDone chan struct{}

	closeOnce sync.Once
	closeErr  error

	stop chan struct{}
	done chan struct{}
}

// pendingAppend is one queued AppendAsync, or a Barrier marker (no record
// is written for a barrier; its callback just marks a queue position).
type pendingAppend struct {
	payload []byte
	barrier bool
	done    func(lsn uint64, err error)
}

// Open is Recover(opts, nil): it opens the log and hands its records to no one.
func Open(opts Options) (*Log, error) { return Recover(opts, nil) }

// Recover opens (creating if necessary) the log in opts.Dir and, in the pass
// that checks it, hands every intact record to fn in LSN order. A read-ahead
// goroutine reads each segment once, into one buffer, a piece at a time,
// and checks the records each piece completes while they are in its cache;
// fn runs on the calling goroutine and gets each record as soon as it is
// checked, while its bytes are still in cache, so the caller can fold the
// record in as it arrives. No record reaches fn before its check. fn's
// payload points into its segment's buffer, which the log never writes
// again and does not keep: fn may keep the payload, and the buffer stays
// live while it does. A torn or corrupt tail is cut only after fn has
// accepted every record, so an I/O error or an error from fn fails the open
// and changes no file.
func Recover(opts Options, fn func(lsn uint64, payload []byte) error) (*Log, error) {
	if opts.SegmentSize <= 0 {
		opts.SegmentSize = DefaultSegmentSize
	}
	if opts.SyncEvery <= 0 {
		opts.SyncEvery = DefaultSyncEvery
	}
	if opts.FS == nil {
		opts.FS = OSFS
	}
	if err := opts.FS.MkdirAll(opts.Dir); err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}
	l := &Log{
		opts:       opts,
		fs:         opts.FS,
		pendSig:    make(chan struct{}, 1),
		commitDone: make(chan struct{}),
		stop:       make(chan struct{}),
		done:       make(chan struct{}),
	}
	if err := l.load(fn); err != nil {
		return nil, err
	}
	walSegments.Add(int64(len(l.segments)) + 1)
	go l.commitLoop()
	if opts.Sync == SyncInterval {
		go l.syncLoop()
	} else {
		close(l.done)
	}
	return l, nil
}

func (l *Log) load(fn func(lsn uint64, payload []byte) error) error {
	names, err := l.fs.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	var segs []segment
	for _, name := range names {
		if !strings.HasSuffix(name, segSuffix) {
			continue
		}
		first, err := strconv.ParseUint(strings.TrimSuffix(name, segSuffix), 16, 64)
		if err != nil {
			continue // not ours
		}
		segs = append(segs, segment{path: filepath.Join(l.opts.Dir, name), first: first})
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })

	// Any segment can end torn, not just the last: a commit failure seals a
	// segment at whatever prefix reached the disk, and a crash then tears
	// whatever the failed fsync left behind. The LSN gaps this leaves between
	// segments are tolerated: the lost records were never acknowledged.
	ends := make([]segEnd, len(segs)) // each segment's intact prefix
	rd := startReads(l.fs, segs)
	for i := range segs {
		first := segs[i].first
		ends[i], err = rd.walk(func(k uint64, payload []byte) error {
			if fn == nil {
				return nil
			}
			return fn(first+k, payload)
		})
		if err != nil {
			break
		}
		segs[i].count = ends[i].count
	}
	rd.close()
	if err != nil {
		return err
	}
	for i := range segs {
		if ends[i].torn {
			if err := l.fs.Truncate(segs[i].path, ends[i].valid); err != nil {
				return fmt.Errorf("wal: truncate torn tail: %w", err)
			}
			walTornTruncations.Inc()
		}
	}

	if len(segs) == 0 {
		l.nextLSN = 0
		return l.roll()
	}
	lastSeg := segs[len(segs)-1]
	l.segments = segs[:len(segs)-1]
	l.active = lastSeg
	l.nextLSN = lastSeg.first + lastSeg.count

	f, err := l.fs.OpenAppend(lastSeg.path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.f = f
	l.size = ends[len(segs)-1].valid
	l.w = bufio.NewWriterSize(f, 256<<10)
	return nil
}

// segEnd is a segment's intact prefix, as the walk found it.
type segEnd struct {
	valid int64  // byte length of the intact prefix
	count uint64 // the intact records in it
	torn  bool   // the file goes on past valid: a torn or corrupt record
}

// readPiece is how much of a segment the read-ahead reads at a time, and
// readAhead how many pieces it may report that the walk has not reached.
// The read-ahead checks the records each piece completes while the piece is
// in its cache, and the walk hands them over while the next one is read.
// Four pieces keep the read ahead of the walk while it zeroes the next
// segment's buffer; two or sixteen measured the same.
const (
	readPiece = 1 << 20
	readAhead = 4
)

// piece is the read-ahead's report that more of a segment is read and
// checked.
type piece struct {
	buf     []byte // the segment's one buffer, sized by FS.Size
	checked int64  // buf[:checked] is whole records, read and checked
	last    bool   // nothing past checked will be: the read reached the end or a torn record
	err     error  // the segment could not be opened or read
}

// reads is a read-ahead goroutine over a list of segments, and the walk over
// what it has read and checked.
type reads struct {
	pieces chan piece
	stop   chan struct{}
}

// startReads reads segs, in order, each into one buffer in pieces of
// readPiece bytes, ahead of the walk. It stops at the first error.
func startReads(fs FS, segs []segment) *reads {
	rd := &reads{pieces: make(chan piece, readAhead), stop: make(chan struct{})}
	go func() {
		defer close(rd.pieces)
		for _, s := range segs {
			if !rd.read(fs, s.path) {
				return
			}
		}
	}()
	return rd
}

// read reads and checks one segment, reporting each piece, up to its end or
// its first torn or corrupt record; it reports false if the reads are to go
// no further. Once the walk has quit it opens, allocates and reads nothing
// more: at most the piece being read when it quit is finished.
func (rd *reads) read(fs FS, path string) bool {
	if rd.stopped() {
		return false
	}
	send := func(p piece) bool {
		select {
		case rd.pieces <- p:
			return p.err == nil
		case <-rd.stop:
			return false
		}
	}
	f, err := fs.OpenRead(path)
	if err != nil {
		return send(piece{err: fmt.Errorf("wal: %w", err)})
	}
	defer f.Close()
	size, err := fs.Size(path)
	if err != nil {
		return send(piece{err: fmt.Errorf("wal: %w", err)})
	}
	buf := make([]byte, size)
	var checked int64
	for read := int64(0); ; {
		if rd.stopped() {
			return false
		}
		end := min(read+readPiece, size)
		if _, err := io.ReadFull(f, buf[read:end]); err != nil {
			return send(piece{err: fmt.Errorf("wal: read %s: %w", path, err)})
		}
		read = end
		var torn bool
		checked, torn = check(buf, checked, read)
		last := torn || read == size
		if !send(piece{buf: buf, checked: checked, last: last}) {
			return false
		}
		if last {
			return true
		}
	}
}

// stopped reports whether the walk has quit. Once close drains the pieces,
// send's select may pick the send over the closed stop, so read checks
// this before it opens a segment and before each piece.
func (rd *reads) stopped() bool {
	select {
	case <-rd.stop:
		return true
	default:
		return false
	}
}

// check checks the records of a segment's buffer that start at from and
// lie wholly in buf[:read]: it is the only code that checks a record's
// header, length and CRC. It returns the end of the last intact one, and
// whether the record there is torn or corrupt.
func check(buf []byte, from, read int64) (checked int64, torn bool) {
	for read-from >= recHdr {
		rec := buf[from:read]
		n := int64(binary.BigEndian.Uint32(rec[4:8]))
		if n > MaxRecordSize || int64(len(buf))-from-recHdr < n {
			return from, true
		}
		if int64(len(rec))-recHdr < n {
			break // the rest of the record is in a later piece
		}
		if crc32.Checksum(rec[recHdr:recHdr+n], crcTable) != binary.BigEndian.Uint32(rec[0:4]) {
			return from, true
		}
		from += recHdr + n
	}
	return from, false
}

// close stops the read-ahead and waits for it to finish.
func (rd *reads) close() {
	close(rd.stop)
	for range rd.pieces {
	}
}

// walk walks the next segment's records as the read-ahead checks them: it
// hands each intact record's payload, with its index in the segment, to fn
// (when fn is not nil) as soon as the record is checked, and returns at the
// segment's end or its first torn or corrupt record, at a read error or at
// an error from fn. A payload points into the segment's buffer, which
// nothing writes again, with its capacity clipped, so appending to it
// cannot write over the next record.
func (rd *reads) walk(fn func(k uint64, payload []byte) error) (end segEnd, err error) {
	for {
		p, ok := <-rd.pieces
		if !ok {
			return end, errors.New("wal: read-ahead stopped")
		}
		if p.err != nil {
			return end, p.err
		}
		for end.valid < p.checked {
			at := end.valid + recHdr
			n := int64(binary.BigEndian.Uint32(p.buf[end.valid+4 : at]))
			if fn != nil {
				if err := fn(end.count, p.buf[at:at+n:at+n]); err != nil {
					return end, err
				}
			}
			end.valid = at + n
			end.count++
		}
		if p.last {
			end.torn = end.valid < int64(len(p.buf))
			return end, nil
		}
	}
}

// scanSegment walks the segment at path alone and reports its intact prefix.
func scanSegment(fs FS, path string) (segEnd, error) {
	rd := startReads(fs, []segment{{path: path}})
	defer rd.close()
	return rd.walk(nil)
}

func segPath(dir string, first uint64) string {
	return filepath.Join(dir, fmt.Sprintf("%016x%s", first, segSuffix))
}

// roll closes the active segment and opens a fresh one starting at nextLSN.
// Caller holds l.mu (or is initializing).
func (l *Log) roll() error {
	if l.w != nil {
		if err := l.w.Flush(); err != nil {
			return err
		}
		if err := l.f.Close(); err != nil {
			return err
		}
		l.f, l.w = nil, nil
		l.segments = append(l.segments, l.active)
		// A real roll adds a segment; the initial roll during load is
		// accounted by Recover.
		walRolls.Inc()
		walSegments.Add(1)
	}
	return l.openFreshLocked()
}

// openFreshLocked creates the segment starting at nextLSN and makes it
// active. Caller holds l.mu and has retired any previous active segment.
func (l *Log) openFreshLocked() error {
	path := segPath(l.opts.Dir, l.nextLSN)
	f, err := l.fs.Create(path)
	if err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	l.active = segment{path: path, first: l.nextLSN}
	l.f = f
	l.size = 0
	l.w = bufio.NewWriterSize(f, 256<<10)
	return nil
}

// commitFailedLocked reacts to a failed write, roll, or fsync: seal the
// active segment (never fsync it again — fsyncgate), roll to a fresh one,
// and if that cannot restore a working log, fail terminally. Caller holds
// l.mu and has already failed the batch that hit cause.
func (l *Log) commitFailedLocked(cause error) {
	if l.closed || l.failed {
		return
	}
	if l.w == nil {
		// A roll retired the previous segment but could not create the
		// next one; there is nothing left to write to.
		l.setFailedLocked(cause)
		return
	}
	if l.sealedAfterError {
		// The freshly rolled segment failed before anything succeeded on
		// it; a second roll would fare no better.
		l.setFailedLocked(cause)
		return
	}
	l.sealedAfterError = true
	l.sealActiveLocked()
	if err := l.openFreshLocked(); err != nil {
		l.setFailedLocked(cause)
		return
	}
	walSegments.Add(1)
}

// sealActiveLocked retires the active segment after a commit failure. The
// file is flushed and closed best-effort and its true on-disk record count
// re-scanned: buffered or unsynced bytes may or may not have reached the
// disk, and no further fsync may claim otherwise. The in-memory nextLSN is
// not rewound — the LSNs of lost records stay burned, leaving a gap Replay
// and recovery tolerate.
func (l *Log) sealActiveLocked() {
	_ = l.w.Flush()
	_ = l.f.Close()
	l.f, l.w = nil, nil
	l.needSync = false
	sealed := l.active
	end, _ := scanSegment(l.fs, l.active.path)
	sealed.count = end.count
	l.segments = append(l.segments, sealed)
	walSeals.Inc()
}

func (l *Log) setFailedLocked(cause error) {
	l.failed = true
	l.failErr = fmt.Errorf("%w: %v", ErrLogFailed, cause)
	l.failedFlag.Store(true)
	walFailedLogs.Add(1)
}

// Failed reports whether the log is in the terminal failed state.
func (l *Log) Failed() bool { return l.failedFlag.Load() }

func (l *Log) failedError() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.failErr
}

// writeRecordLocked buffers one record and assigns its LSN. Caller holds
// l.mu.
func (l *Log) writeRecordLocked(payload []byte) (uint64, error) {
	var hdr [recHdr]byte
	binary.BigEndian.PutUint32(hdr[0:4], crc32.Checksum(payload, crcTable))
	binary.BigEndian.PutUint32(hdr[4:8], uint32(len(payload)))
	if _, err := l.w.Write(hdr[:]); err != nil {
		return 0, err
	}
	if _, err := l.w.Write(payload); err != nil {
		return 0, err
	}
	lsn := l.nextLSN
	l.nextLSN++
	l.active.count++
	l.size += recHdr + int64(len(payload))
	l.needSync = true
	walAppends.Inc()
	walAppendBytes.Add(uint64(len(payload)))
	return lsn, nil
}

// AppendAsync queues one record for group commit and returns immediately.
// The committer goroutine coalesces every record queued by concurrent
// appenders into a single buffered write and — under SyncAlways — a single
// fsync, then invokes done(lsn, err). Callbacks are invoked in LSN order,
// from the committer goroutine, so they must not block; err is non-nil for
// every record of a failed batch. A nil done discards the completion.
//
// Records queued by one goroutine (or under one lock) are committed in
// queue order, so per-group WAL order matches apply order when the engine
// appends under the group's lock.
func (l *Log) AppendAsync(payload []byte, done func(lsn uint64, err error)) error {
	if len(payload) > MaxRecordSize {
		return ErrRecordTooLarge
	}
	if l.failedFlag.Load() {
		return l.failedError()
	}
	l.pendMu.Lock()
	if l.pendClosed {
		l.pendMu.Unlock()
		return ErrClosed
	}
	l.pending = append(l.pending, pendingAppend{payload: payload, done: done})
	l.pendMu.Unlock()
	select {
	case l.pendSig <- struct{}{}:
	default: // a wakeup is already queued
	}
	return nil
}

// Barrier blocks until every record queued by AppendAsync before the call
// has been committed — written, and fsynced under SyncAlways — and its
// completion callback has returned. It returns the error, if any, of the
// batch it rode in. Barrier does not force an fsync the sync policy would
// not have issued.
func (l *Log) Barrier() error {
	ch := make(chan error, 1)
	l.pendMu.Lock()
	if l.pendClosed {
		l.pendMu.Unlock()
		return ErrClosed
	}
	l.pending = append(l.pending, pendingAppend{barrier: true, done: func(_ uint64, err error) { ch <- err }})
	l.pendMu.Unlock()
	select {
	case l.pendSig <- struct{}{}:
	default:
	}
	return <-ch
}

// takePending swaps out the queued batch.
func (l *Log) takePending() []pendingAppend {
	l.pendMu.Lock()
	batch := l.pending
	l.pending = nil
	l.pendMu.Unlock()
	return batch
}

// commitLoop is the group-commit writer: it drains the pending queue and
// commits each batch with one buffered write and at most one fsync.
func (l *Log) commitLoop() {
	defer close(l.commitDone)
	for {
		select {
		case <-l.pendSig:
			l.commitBatch(l.takePending())
		case <-l.stop:
			// Drain whatever arrived before the queue was closed.
			l.commitBatch(l.takePending())
			return
		}
	}
}

// commitBatch writes a batch under one lock acquisition, fsyncs once when
// the policy demands durability, and completes every waiter in LSN order.
// On the first error the remaining records are not written and every
// waiter in the batch — including those already buffered — receives the
// error, because the batch's durability is unknown as a whole. The failed
// batch is never retried: its waiters were told it is not durable, and a
// retry would fsync a file whose last fsync failed (fsyncgate).
func (l *Log) commitBatch(batch []pendingAppend) {
	if len(batch) == 0 {
		return
	}
	start := time.Now()
	lsns := make([]uint64, len(batch))
	records := 0
	var firstErr error
	l.mu.Lock()
	switch {
	case l.closed:
		firstErr = ErrClosed
	case l.failed:
		firstErr = l.failErr
	default:
		for i, p := range batch {
			if p.barrier {
				continue
			}
			lsn, err := l.writeRecordLocked(p.payload)
			if err != nil {
				firstErr = err
				break
			}
			lsns[i] = lsn
			records++
			if l.size >= l.opts.SegmentSize {
				if err := l.roll(); err != nil {
					firstErr = err
					break
				}
			}
		}
		if firstErr == nil && l.opts.Sync == SyncAlways {
			firstErr = l.syncLocked()
		}
		if firstErr != nil {
			l.commitFailedLocked(firstErr)
		}
	}
	l.mu.Unlock()
	if records > 0 || firstErr != nil {
		if firstErr != nil {
			walAppendErrors.Add(uint64(len(batch)))
		}
		walBatchCommits.Inc()
		walBatchRecords.Record(int64(records))
		walAppendNs.Record(time.Since(start).Nanoseconds())
	}
	for i, p := range batch {
		if p.done != nil {
			p.done(lsns[i], firstErr)
		}
	}
}

// Sync flushes buffered records and fsyncs the active segment.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	if l.failed {
		return l.failErr
	}
	if err := l.syncLocked(); err != nil {
		l.commitFailedLocked(err)
		return err
	}
	return nil
}

func (l *Log) syncLocked() error {
	if !l.needSync {
		return nil
	}
	start := time.Now()
	if err := l.w.Flush(); err != nil {
		return err
	}
	if err := l.f.Sync(); err != nil {
		return err
	}
	l.needSync = false
	// A successful fsync on this file re-arms the one-roll recovery
	// budget: the next commit failure may seal and roll again.
	l.sealedAfterError = false
	walFsyncs.Inc()
	walFsyncNs.Record(time.Since(start).Nanoseconds())
	return nil
}

func (l *Log) syncLoop() {
	defer close(l.done)
	t := time.NewTicker(l.opts.SyncEvery)
	defer t.Stop()
	for {
		select {
		case <-t.C:
			_ = l.Sync()
		case <-l.stop:
			return
		}
	}
}

// NextLSN returns the LSN the next committed record will get.
func (l *Log) NextLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextLSN
}

// FirstLSN returns the LSN of the oldest retained record (equal to
// NextLSN when the log is empty).
func (l *Log) FirstLSN() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	if len(l.segments) > 0 {
		return l.segments[0].first
	}
	return l.active.first
}

// Size returns the total on-disk byte size of all segments.
func (l *Log) Size() int64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	var total int64
	if l.w != nil {
		total = l.size
	}
	for _, s := range l.segments {
		if n, err := l.fs.Size(s.path); err == nil {
			total += n
		}
	}
	return total
}

// Replay calls fn for every record with LSN >= from, in order; fn must copy
// a payload to retain it. Replay sees only records appended before it
// starts. LSN gaps left by sealed segments are skipped silently; a segment
// that holds fewer intact records than the log counted fails the replay,
// after fn has had the ones it holds.
func (l *Log) Replay(from uint64, fn func(lsn uint64, payload []byte) error) error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return ErrClosed
	}
	segs := append([]segment(nil), l.segments...)
	if l.w != nil {
		if l.failed {
			// The tail's durability is unknown; expose whatever the disk
			// actually holds.
			_ = l.w.Flush()
			tail := l.active
			end, _ := scanSegment(l.fs, l.active.path)
			tail.count = end.count
			segs = append(segs, tail)
		} else {
			// Flush so the reader below sees the active file's content.
			if err := l.w.Flush(); err != nil {
				l.mu.Unlock()
				return err
			}
			segs = append(segs, l.active)
		}
	}
	limit := l.nextLSN
	l.mu.Unlock()

	segs = slices.DeleteFunc(segs, func(s segment) bool { return s.first+s.count <= from })
	rd := startReads(l.fs, segs)
	defer rd.close()
	for _, s := range segs {
		want := min(s.count, limit-s.first)
		end, err := rd.walk(func(k uint64, payload []byte) error {
			if lsn := s.first + k; lsn >= from && k < want {
				return fn(lsn, payload)
			}
			return nil
		})
		if err != nil {
			return err
		}
		if end.count < want {
			return fmt.Errorf("wal: replay %s lsn %d: %w", s.path, s.first+end.count, errBadRecord)
		}
	}
	return nil
}

// TruncateBefore removes whole segments all of whose records have
// LSN < lsn. It is the disk half of the paper's state-log reduction: after
// a checkpoint record at lsn is durable, the prefix is garbage.
func (l *Log) TruncateBefore(lsn uint64) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return ErrClosed
	}
	kept := l.segments[:0]
	removed := int64(0)
	for _, s := range l.segments {
		if s.first+s.count <= lsn {
			if err := l.fs.Remove(s.path); err != nil {
				return fmt.Errorf("wal: %w", err)
			}
			removed++
			continue
		}
		kept = append(kept, s)
	}
	l.segments = kept
	walSegments.Add(-removed)
	return nil
}

// SegmentCount returns the number of on-disk segments (including the
// active one, when the log still has one).
func (l *Log) SegmentCount() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return int(l.liveSegmentsLocked())
}

func (l *Log) liveSegmentsLocked() int64 {
	n := int64(len(l.segments))
	if l.w != nil {
		n++
	}
	return n
}

// Close commits any queued async appends, then flushes, fsyncs, and closes
// the log. A failed log closes without the final flush and fsync — its
// tail made no durability promise — and Close reports nil. Safe to call
// more than once.
func (l *Log) Close() error {
	l.closeOnce.Do(func() {
		// Stop accepting async appends, then let the committer drain
		// the queue (completing its callbacks) before the file closes.
		l.pendMu.Lock()
		l.pendClosed = true
		l.pendMu.Unlock()
		close(l.stop)
		<-l.commitDone
		<-l.done

		l.mu.Lock()
		l.closed = true
		var flushErr, syncErr, closeErr error
		if l.w != nil {
			if !l.failed {
				flushErr = l.w.Flush()
				syncErr = l.f.Sync()
			}
			closeErr = l.f.Close()
		}
		walSegments.Add(-l.liveSegmentsLocked())
		if l.failed {
			walFailedLogs.Add(-1)
		}
		failed := l.failed
		l.mu.Unlock()

		switch {
		case failed:
			l.closeErr = nil
		case flushErr != nil:
			l.closeErr = flushErr
		case syncErr != nil:
			l.closeErr = syncErr
		default:
			l.closeErr = closeErr
		}
	})
	return l.closeErr
}
