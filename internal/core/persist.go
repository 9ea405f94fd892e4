package core

import (
	"errors"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"corona/internal/state"
	"corona/internal/wal"
	"corona/internal/wire"
)

// Stable-storage record types. Each WAL record is a one-byte tag followed
// by a group name and a tag-specific body. Only persistent groups are
// logged: a transient group's state dies with its membership (paper §3.1),
// and after a server restart no members remain by definition.
const (
	recEvent      byte = 1
	recCreate     byte = 2
	recDelete     byte = 3
	recCheckpoint byte = 4
)

// ErrEngineClosed is returned by operations on a closed engine.
var ErrEngineClosed = errors.New("core: engine closed")

// The record bodies are wire's own encodings of an event, an object list
// and an event list — the ones the transfer payload and the replica-state
// messages use — so stable storage has no codec of its own to drift.

func encodeEventRecord(group string, ev wire.Event) []byte {
	e := wire.NewEncoder(make([]byte, 0, 64+len(ev.Data)))
	e.PutByte(recEvent)
	e.PutString(group)
	ev.Encode(e)
	return e.Bytes()
}

func encodeCreateRecord(group string, initial []wire.Object) []byte {
	e := wire.NewEncoder(nil)
	e.PutByte(recCreate)
	e.PutString(group)
	wire.EncodeObjects(e, initial)
	return e.Bytes()
}

func encodeDeleteRecord(group string) []byte {
	e := wire.NewEncoder(nil)
	e.PutByte(recDelete)
	e.PutString(group)
	return e.Bytes()
}

// encodeCheckpointRecord encodes straight from the image, which may be a
// view sharing the live buffers: the record is the one copy of the payload.
func encodeCheckpointRecord(group string, cp state.Checkpointed) []byte {
	e := wire.NewEncoder(nil)
	e.PutByte(recCheckpoint)
	e.PutString(group)
	e.PutUvarint(cp.BaseSeq)
	e.PutUvarint(cp.NextSeq)
	e.PutUint64(cp.Digest)
	wire.EncodeObjects(e, cp.Objects)
	wire.EncodeEvents(e, cp.History)
	return e.Bytes()
}

// recover opens the stable-storage log and rebuilds the persistent groups
// from it, in two steps. The log is a set of independent per-group streams
// interleaved by LSN, and groups are independent ordering domains, so only
// the split is serial: wal.Recover hands each record to split.record in the
// same pass that reads and checks it, and the split keeps, per group, the
// group's last create or checkpoint and the events after it (a delete drops
// the group), as slices into wal's segment reads. Then the groups are
// rebuilt concurrently, each by one worker that sees only its own records,
// and installed with the log in one write-lock section. A record a later
// create, checkpoint or delete of its group supersedes, or an event of a
// group with neither, never reaches the recovered state and is not decoded;
// wal still checks its CRC. Called from NewEngine before any session exists.
func (e *Engine) recover(opts wal.Options) error {
	sp := split{}
	l, splitErr := wal.Recover(opts, sp.record)

	groups := make([]*groupLog, 0, len(sp))
	for _, gl := range sp {
		groups = append(groups, gl)
	}
	buildGroups(groups)

	// Every record a worker saw precedes the one the split stopped at, so
	// the lowest failing LSN is a worker's when any worker failed.
	var first *groupLog
	for _, gl := range groups {
		if gl.err != nil && (first == nil || gl.errLSN < first.errLSN) {
			first = gl
		}
	}
	if first != nil {
		if l != nil {
			l.Close()
		}
		return first.err
	}
	if splitErr != nil {
		return splitErr
	}

	e.mu.Lock()
	defer e.mu.Unlock()
	e.wal = l
	for _, gl := range groups {
		e.registerLocked(gl.name, true, gl.st)
		// The base record is the oldest one the group needs.
		e.lsnMu.Lock()
		e.lowLSN[gl.name] = gl.baseLSN
		e.lsnMu.Unlock()
	}
	return nil
}

// split sorts recovery's records to the groups they rebuild. It copies no
// record: the bodies it keeps point into the segment reads wal.Recover hands
// over, which nothing writes again.
type split map[string]*groupLog

func (sp split) record(lsn uint64, payload []byte) error {
	if len(payload) == 0 {
		return errors.New("core: empty wal record")
	}
	d := wire.NewDecoder(payload[1:])
	// The name stays bytes: a lookup by string(name) allocates nothing.
	name := d.Bytes()
	if err := d.Err(); err != nil {
		return fmt.Errorf("core: wal record %d: %w", lsn, err)
	}
	body := payload[len(payload)-d.Remaining():]
	switch tag := payload[0]; tag {
	case recCreate, recCheckpoint:
		group := string(name)
		sp[group] = &groupLog{name: group, baseLSN: lsn, baseTag: tag, base: body}
	case recDelete:
		delete(sp, string(name))
	case recEvent:
		if gl := sp[string(name)]; gl != nil {
			gl.events = append(gl.events, logRecord{lsn: lsn, body: body})
		}
	default:
		return fmt.Errorf("core: unknown wal record tag %d at %d", tag, lsn)
	}
	return nil
}

// groupLog is one group's stream as recovery's split leaves it, and then
// what its rebuild made of it.
type groupLog struct {
	name    string
	baseLSN uint64
	baseTag byte   // recCreate or recCheckpoint
	base    []byte // the base record's body, after tag and group name
	events  []logRecord

	st     *state.Group
	err    error
	errLSN uint64 // the record err is about
}

// logRecord is one event record after a group's base: its LSN and its body,
// after tag and group name.
type logRecord struct {
	lsn  uint64
	body []byte
}

// buildGroups rebuilds every group on min(GOMAXPROCS, #groups) workers,
// which take the next unbuilt group from a shared index.
func buildGroups(groups []*groupLog) {
	var next atomic.Int64
	var wg sync.WaitGroup
	for range min(runtime.GOMAXPROCS(0), len(groups)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := next.Add(1) - 1; i < int64(len(groups)); i = next.Add(1) - 1 {
				gl := groups[i]
				gl.st, gl.errLSN, gl.err = gl.build()
			}
		}()
	}
	wg.Wait()
}

// build rebuilds the group: its base record's state, then the event records
// after it as one state.ApplyRun. It reports the LSN of the record that
// failed, if one did.
func (gl *groupLog) build() (*state.Group, uint64, error) {
	st, err := gl.restoreBase()
	if err != nil {
		return nil, gl.baseLSN, err
	}
	// The run's Data alias the segment reads; ApplyRun copies them. kept
	// holds the records the run was made of, in place in gl.events, so the
	// run's i-th event is kept[i]'s.
	evs := make([]wire.Event, 0, len(gl.events))
	kept := gl.events[:0]
	next := st.NextSeq()
	var decodeLSN uint64
	var decodeErr error
	for _, rec := range gl.events {
		d := wire.NewDecoder(rec.body)
		ev := wire.DecodeEventAlias(d)
		if err := d.Err(); err != nil {
			decodeLSN, decodeErr = rec.lsn, fmt.Errorf("core: wal event %d: %w", rec.lsn, err)
			break
		}
		if ev.Seq != next {
			// Behind: already covered by the base checkpoint. Ahead: a
			// failed batch burned the intervening LSNs, so this record
			// cannot apply over the gap — it is restored instead by the
			// floor checkpoint the engine enqueued behind the failure
			// (its history covers every event sequenced before it, this
			// one included), which is then this group's base.
			continue
		}
		evs = append(evs, ev)
		kept = append(kept, rec)
		next++
	}
	// The run precedes the record that failed to decode, so its own
	// failure is the lower LSN.
	if n, err := st.ApplyRun(evs); err != nil {
		return nil, kept[n].lsn, fmt.Errorf("core: wal event %d: %w", kept[n].lsn, err)
	}
	if decodeErr != nil {
		return nil, decodeLSN, decodeErr
	}
	return st, 0, nil
}

// restoreBase decodes the group's base record into a fresh state.
func (gl *groupLog) restoreBase() (*state.Group, error) {
	d := wire.NewDecoder(gl.base)
	if gl.baseTag == recCreate {
		initial := wire.DecodeObjects(d)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: wal create %d: %w", gl.baseLSN, err)
		}
		return state.NewInitial(initial), nil
	}
	cp := state.Checkpointed{
		BaseSeq: d.Uvarint(), NextSeq: d.Uvarint(), Digest: d.Uint64(),
		Objects: wire.DecodeObjects(d), History: wire.DecodeEvents(d),
	}
	if err := d.Err(); err != nil {
		return nil, fmt.Errorf("core: wal checkpoint %d: %w", gl.baseLSN, err)
	}
	st, err := state.RestoreMaterialized(cp)
	if err != nil {
		return nil, fmt.Errorf("core: wal checkpoint %d: %w", gl.baseLSN, err)
	}
	return st, nil
}

// All persist* helpers queue their record with wal.AppendAsync; the WAL's
// group-commit writer coalesces queued records into one buffered write and
// fsync. Because every record type goes through the same queue, log order
// equals enqueue order — a delete can never overtake the events of the
// group it deletes, and a re-create lands after them. Commit failures are
// counted (engine.wal_append_errors) and — under SyncAlways, where the ack
// contract includes durability — propagated to the sender as a
// CodeNotDurable nack instead of a BcastAck; see noteWALCommitError for
// how the engine then repairs the group's durability floor or enters
// degraded mode.

// walAppendFailed records a failed enqueue. Callers hold e.mu or a group
// mutex, where blocking log I/O is forbidden (lockhold): the counter and
// the lock-free trace ring carry the immediate signal, and the slog line
// is emitted from the bounded error reporter, off the locked path. Failures
// of records that did enqueue are logged directly by the commit callbacks,
// which run on the WAL committer goroutine.
func (e *Engine) walAppendFailed(group, record string, err error) {
	e.mWALErrors.Inc()
	e.metrics.Event("wal", fmt.Sprintf("%s enqueue failed: group=%s: %v", record, group, err))
	e.reporter.report("wal append failed: "+record, group, 0, err)
	if errors.Is(err, wal.ErrLogFailed) {
		// Safe under the engine locks: entering degraded mode is a CAS
		// plus a goroutine spawn, never blocking I/O.
		e.enterDegraded(err)
	}
}

// persistEvent queues one applied event record of a persistent group for
// group commit. With SyncAlways and a non-nil onCommit the acknowledgement
// runs from the commit callback — i.e. after the batch's fsync — and
// persistEvent reports true: onCommit(nil) sends the BcastAck, and
// onCommit(err) sends the honest CodeNotDurable nack instead, because a
// SyncAlways ack that the disk did not back would be a lie (the pre-fix
// code acknowledged failed commits and the chaos harness pins the fix).
// Under the relaxed policies durability is not part of the ack contract
// and the caller acknowledges immediately. Caller holds the group's mutex,
// so records enter the queue in apply order.
func (e *Engine) persistEvent(group string, persistent bool, ev wire.Event, onCommit func(err error)) bool {
	if e.wal == nil || !persistent {
		return false
	}
	deferAck := onCommit != nil && e.cfg.Sync == wal.SyncAlways
	err := e.wal.AppendAsync(encodeEventRecord(group, ev), func(_ uint64, err error) {
		if err != nil {
			e.noteWALCommitError(group, "event", err)
		}
		if deferAck {
			onCommit(err)
		}
	})
	if err != nil {
		e.walAppendFailed(group, "event", err)
		if deferAck {
			// The enqueue itself failed (terminal log): nack now.
			onCommit(err)
			return true
		}
		return false
	}
	return deferAck
}

// persistCreate queues a persistent group's creation record. The group's
// low-water LSN is set from the commit callback; callbacks fire in LSN
// order, so it is in place before any later checkpoint of the group can
// trigger garbage collection. Caller holds e.mu in write mode.
func (e *Engine) persistCreate(group string, persistent bool, initial []wire.Object) {
	if e.wal == nil || !persistent {
		return
	}
	err := e.wal.AppendAsync(encodeCreateRecord(group, initial), func(lsn uint64, err error) {
		if err != nil {
			e.noteWALCommitError(group, "create", err)
			return
		}
		e.setLowLSN(group, lsn)
	})
	if err != nil {
		e.walAppendFailed(group, "create", err)
	}
}

// persistDelete queues a group deletion record. Caller holds e.mu in write
// mode.
func (e *Engine) persistDelete(group string) {
	if e.wal == nil {
		return
	}
	err := e.wal.AppendAsync(encodeDeleteRecord(group), func(_ uint64, err error) {
		if err != nil {
			// The group is gone from memory; a lost delete record only
			// means recovery may resurrect it (bounded weakening, same as
			// any record lost under the relaxed policies).
			e.noteWALCommitError(group, "delete", err)
		}
	})
	if err != nil {
		e.walAppendFailed(group, "delete", err)
	}
}

// persistCheckpoint queues a checkpoint image; the commit callback advances
// the group's low-water LSN and garbage-collects log segments no group
// needs anymore. The image is taken and encoded now, under the caller's
// lock, so the record is consistent with the log position and is the only
// copy made of the group's bytes. Caller holds the group's mutex (or e.mu in
// write mode).
func (e *Engine) persistCheckpoint(group string, st *state.Group) {
	if e.wal == nil {
		return
	}
	err := e.wal.AppendAsync(encodeCheckpointRecord(group, st.Checkpoint()), func(lsn uint64, err error) {
		if err != nil {
			e.noteWALCommitError(group, "checkpoint", err)
			return
		}
		if e.setLowLSN(group, lsn) {
			e.gcWAL()
		}
	})
	if err != nil {
		e.walAppendFailed(group, "checkpoint", err)
	}
}

// setLowLSN records the oldest log record group still needs, unless the
// group has been deleted in the meantime (a stale entry would pin garbage
// collection forever). Runs on the WAL committer goroutine.
func (e *Engine) setLowLSN(group string, lsn uint64) bool {
	e.mu.RLock()
	_, live := e.reg.Get(group)
	e.mu.RUnlock()
	if !live {
		return false
	}
	e.lsnMu.Lock()
	e.lowLSN[group] = lsn
	e.lsnMu.Unlock()
	return true
}

// gcWAL drops log segments below the oldest record any persistent group
// still needs. Safe from any goroutine that holds no engine lock: the
// log pointer is snapshotted under e.mu, lowLSN is guarded by lsnMu, and
// the truncate itself runs off-lock.
func (e *Engine) gcWAL() {
	e.mu.RLock()
	l := e.wal
	e.mu.RUnlock()
	if l == nil {
		return
	}
	e.lsnMu.Lock()
	var min uint64
	first := true
	for _, lsn := range e.lowLSN {
		if first || lsn < min {
			min, first = lsn, false
		}
	}
	e.lsnMu.Unlock()
	if first {
		return
	}
	if err := l.TruncateBefore(min); err != nil {
		e.log.Error("wal truncate failed", "err", err)
	}
}
