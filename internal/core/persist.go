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

// recover rebuilds the persistent groups from the stable-storage log.
// Called from NewEngine before any session exists; the lock is contention-
// free and taken only to keep one access discipline on the log pointer.
func (e *Engine) recover() error {
	e.mu.RLock()
	l := e.wal
	e.mu.RUnlock()
	return l.Replay(0, func(lsn uint64, payload []byte) error {
		if len(payload) == 0 {
			return errors.New("core: empty wal record")
		}
		d := wire.NewDecoder(payload[1:])
		tag := payload[0]
		group := d.String()
		if err := d.Err(); err != nil {
			return fmt.Errorf("core: wal record %d: %w", lsn, err)
		}
		switch tag {
		case recCreate:
			initial := wire.DecodeObjects(d)
			if err := d.Err(); err != nil {
				return fmt.Errorf("core: wal create %d: %w", lsn, err)
			}
			// Replayed deletes may precede a re-create; replace.
			if _, ok := e.reg.Get(group); ok {
				_ = e.reg.Delete(group, wire.MemberInfo{})
			}
			if _, err := e.reg.Create(group, true, wire.MemberInfo{}); err != nil {
				return err
			}
			e.states[group] = state.NewInitial(initial)
			e.setLowLSN(group, lsn)
			e.ensureGroupRuntime(group)
		case recDelete:
			_ = e.reg.Delete(group, wire.MemberInfo{})
			delete(e.states, group)
			e.lsnMu.Lock()
			delete(e.lowLSN, group)
			e.lsnMu.Unlock()
			delete(e.groups, group)
			e.seqr.Drop(group)
		case recEvent:
			ev := wire.DecodeEvent(d)
			if err := d.Err(); err != nil {
				return fmt.Errorf("core: wal event %d: %w", lsn, err)
			}
			st, ok := e.states[group]
			if !ok {
				// Event for a group deleted later in the log, or
				// logged before a checkpoint that follows; skip.
				return nil
			}
			if ev.Seq != st.NextSeq() {
				// Behind: already covered by a checkpoint. Ahead: a failed
				// batch burned the intervening LSNs, so this record cannot
				// apply over the gap — it is restored instead by the floor
				// checkpoint the engine enqueued behind the failure (its
				// history covers every event sequenced before it, this one
				// included).
				return nil
			}
			if err := st.Apply(ev); err != nil {
				return fmt.Errorf("core: wal event %d: %w", lsn, err)
			}
		case recCheckpoint:
			cp := state.Checkpointed{
				BaseSeq: d.Uvarint(), NextSeq: d.Uvarint(), Digest: d.Uint64(),
				Objects: wire.DecodeObjects(d), History: wire.DecodeEvents(d),
			}
			if err := d.Err(); err != nil {
				return fmt.Errorf("core: wal checkpoint %d: %w", lsn, err)
			}
			st, err := state.RestoreMaterialized(cp)
			if err != nil {
				return fmt.Errorf("core: wal checkpoint %d: %w", lsn, err)
			}
			if _, ok := e.reg.Get(group); !ok {
				if _, err := e.reg.Create(group, true, wire.MemberInfo{}); err != nil {
					return err
				}
			}
			e.states[group] = st
			e.setLowLSN(group, lsn)
			e.ensureGroupRuntime(group)
		default:
			return fmt.Errorf("core: unknown wal record tag %d at %d", tag, lsn)
		}
		return nil
	})
}

// finishRecover seeds the sequencer from the recovered states. Called once
// after recover.
func (e *Engine) finishRecover() {
	for name, st := range e.states {
		e.seqr.Observe(name, st.NextSeq()-1)
	}
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
