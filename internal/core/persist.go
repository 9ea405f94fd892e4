package core

import (
	"errors"
	"fmt"

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
// from it in the one pass that reads and checks it. The log is a set of
// independent per-group streams interleaved by LSN, each in its group's
// order, so each record can be folded into its group as it arrives, while
// it is still in cache: wal.Recover hands it to split.record right after its
// check, and the split decodes an event by alias onto its group's pending
// run and applies the run with one state.ApplyRun when it reaches
// maxIngestBatch events, as the live path applies an ingest batch. A create
// or checkpoint starts the group afresh and a delete drops it, with whatever
// state, pending run or error its earlier records left: a superseded event
// may have been decoded and applied, but nothing of it reaches the
// recovered state; on a log of mostly superseded records that work costs
// more than it saves (DESIGN §4, Cold recovery). A base is restored at its
// group's first applied run, so one superseded before that is never
// copied. At the end of the log every pending run is applied, and the
// groups are installed with the log in one write-lock section. Called from
// NewEngine before any session exists.
func (e *Engine) recover(opts wal.Options) error {
	sp := split{}
	l, splitErr := wal.Recover(opts, sp.record)

	// Every record a group saw precedes the one the split stopped at, so the
	// lowest failing LSN is a group's when any group failed.
	var first *groupLog
	for _, gl := range sp {
		gl.apply()
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
	for _, gl := range sp {
		// The base record is the oldest one the group needs.
		e.registerLocked(gl.name, true, gl.st).lowLSN.Store(gl.baseLSN)
	}
	return nil
}

// split sorts recovery's records to the groups they rebuild and folds them
// in. It copies no record: the events and bases it keeps point into the
// segment reads wal.Recover hands over, which nothing writes again.
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
		if gl := sp[string(name)]; gl != nil && gl.err == nil {
			gl.event(lsn, body)
		}
	default:
		return fmt.Errorf("core: unknown wal record tag %d at %d", tag, lsn)
	}
	return nil
}

// groupLog is one group as recovery rebuilds it: its base record, the state
// its applied runs built and the run still pending, or the error that
// stopped it.
type groupLog struct {
	name    string
	baseLSN uint64
	baseTag byte   // recCreate or recCheckpoint
	base    []byte // the base record's body, after tag and group name

	st     *state.Group // nil until the first run is applied
	run    []wire.Event // decoded events not yet applied, at most maxIngestBatch
	runLSN []uint64     // run[i]'s record
	err    error
	errLSN uint64 // the record err is about
}

// event decodes one event record onto the pending run, and applies the run
// once it is full.
func (gl *groupLog) event(lsn uint64, body []byte) {
	d := wire.NewDecoder(body)
	ev := wire.DecodeEventAlias(d)
	if err := d.Err(); err != nil {
		// The run precedes the record that failed to decode, so its own
		// failure is the lower LSN.
		if gl.apply(); gl.err == nil {
			gl.err, gl.errLSN = fmt.Errorf("core: wal event %d: %w", lsn, err), lsn
		}
		return
	}
	gl.run = append(gl.run, ev)
	gl.runLSN = append(gl.runLSN, lsn)
	if len(gl.run) == maxIngestBatch {
		gl.apply()
	}
}

// apply restores the group's base if no run has yet, then applies the
// pending run's events that continue the group's sequence as one
// state.ApplyRun. A failure is kept with the LSN of the record it is about,
// and a failed group applies nothing more.
func (gl *groupLog) apply() {
	if gl.err != nil {
		return
	}
	if gl.st == nil {
		st, err := gl.restoreBase()
		if err != nil {
			gl.err, gl.errLSN = err, gl.baseLSN
			return
		}
		gl.st = st
	}
	// The run's Data alias the segment reads, and ApplyRun adopts them: the
	// group's history points into the reads, which nothing writes again and
	// which stay live while it does. The kept events are compacted in place,
	// with their LSNs, so the run's i-th event is lsns[i]'s.
	evs, lsns := gl.run[:0], gl.runLSN[:0]
	next := gl.st.NextSeq()
	for i, ev := range gl.run {
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
		lsns = append(lsns, gl.runLSN[i])
		next++
	}
	if n, err := gl.st.ApplyRun(evs); err != nil {
		gl.err, gl.errLSN = fmt.Errorf("core: wal event %d: %w", lsns[n], err), lsns[n]
	}
	gl.run, gl.runLSN = gl.run[:0], gl.runLSN[:0]
}

// restoreBase decodes the group's base record into a fresh state. The
// decode aliases the segment read: NewInitial and RestoreMaterialized clone
// what they keep, and that clone is the one copy of the base.
func (gl *groupLog) restoreBase() (*state.Group, error) {
	d := wire.NewDecoder(gl.base)
	if gl.baseTag == recCreate {
		initial := wire.DecodeObjectsAlias(d)
		if err := d.Err(); err != nil {
			return nil, fmt.Errorf("core: wal create %d: %w", gl.baseLSN, err)
		}
		return state.NewInitial(initial), nil
	}
	cp := state.Checkpointed{
		BaseSeq: d.Uvarint(), NextSeq: d.Uvarint(), Digest: d.Uint64(),
		Objects: wire.DecodeObjectsAlias(d), History: wire.DecodeEventsAlias(d),
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

// persistCreate queues a persistent group's creation record. The commit
// callback sets grt's low-water LSN; callbacks fire in LSN order, so it is in
// place before any later checkpoint of the group can trigger garbage
// collection. Caller holds e.mu in write mode.
func (e *Engine) persistCreate(grt *groupRuntime, group string, persistent bool, initial []wire.Object) {
	if e.wal == nil || !persistent {
		return
	}
	err := e.wal.AppendAsync(encodeCreateRecord(group, initial), func(lsn uint64, err error) {
		if err != nil {
			e.noteWALCommitError(group, "create", err)
			return
		}
		grt.lowLSN.Store(lsn)
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

// persistCheckpoint queues a checkpoint image of grt's state; the commit
// callback advances grt's low-water LSN and garbage-collects log segments no
// group needs anymore. The image is taken and encoded now, under the
// caller's lock, so the record is consistent with the log position and is
// the only copy made of the group's bytes. Caller holds the group's mutex
// (or e.mu in write mode).
func (e *Engine) persistCheckpoint(grt *groupRuntime, group string) {
	if e.wal == nil {
		return
	}
	err := e.wal.AppendAsync(encodeCheckpointRecord(group, grt.st.Checkpoint()), func(lsn uint64, err error) {
		if err != nil {
			e.noteWALCommitError(group, "checkpoint", err)
			return
		}
		grt.lowLSN.Store(lsn)
		e.gcWAL()
	})
	if err != nil {
		e.walAppendFailed(group, "checkpoint", err)
	}
}

// gcWAL drops log segments below the oldest record any live group still
// needs. A deleted group's record has left e.groups, so a floor its late
// commit callback stores pins nothing. Safe from any goroutine that holds no
// engine lock: the log pointer and the floors are read under e.mu, and the
// truncate itself runs off-lock.
func (e *Engine) gcWAL() {
	e.mu.RLock()
	l := e.wal
	low := noFloor
	for _, grt := range e.groups {
		low = min(low, grt.lowLSN.Load())
	}
	e.mu.RUnlock()
	if l == nil || low == noFloor {
		return
	}
	if err := l.TruncateBefore(low); err != nil {
		e.log.Error("wal truncate failed", "err", err)
	}
}
