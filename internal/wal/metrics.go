package wal

import "corona/internal/obs"

// WAL instruments aggregate across every open log in the process on the
// default registry. Latency histograms are in nanoseconds.
var (
	walAppends     = obs.Default.Counter("wal.appends")
	walAppendBytes = obs.Default.Counter("wal.append_bytes")
	walAppendNs    = obs.Default.Histogram("wal.append_ns")
	walFsyncs      = obs.Default.Counter("wal.fsyncs")
	walFsyncNs     = obs.Default.Histogram("wal.fsync_ns")
	walRolls       = obs.Default.Counter("wal.rolls")
	// walSegments tracks live on-disk segments (including each log's
	// active segment) summed over all open logs.
	walSegments = obs.Default.Gauge("wal.segments")

	// Group-commit instruments: how many batches the committer wrote and
	// how many records each coalesced (batch size 1 means no concurrent
	// appender was waiting — the fsync amortized over nothing).
	walBatchCommits = obs.Default.Counter("wal.batch_commits")
	walBatchRecords = obs.Default.Histogram("wal.batch_records")
	// Under SyncAlways the committer may wait for the writers its last
	// commit released before it commits the next batch (committer.wait):
	// each wait's length, and the waits that ran out before the expected
	// records came. wal.append_ns does not include the wait.
	walCommitWaitNs     = obs.Default.Histogram("wal.commit_wait_ns")
	walCommitWaitMisses = obs.Default.Counter("wal.commit_wait_misses")
	// walAppendErrors counts records whose commit failed (write, fsync,
	// or roll error, or a batch aborted by Close).
	walAppendErrors = obs.Default.Counter("wal.append_errors")

	// Failure-policy instruments. A seal retires a segment whose commit
	// failed without fsyncing it again (the fsyncgate rule); failed logs
	// counts logs currently in the terminal ErrLogFailed state; torn
	// truncations counts segments repaired at open by cutting a torn or
	// corrupt tail.
	walSeals           = obs.Default.Counter("wal.segment_seals")
	walFailedLogs      = obs.Default.Gauge("wal.failed")
	walTornTruncations = obs.Default.Counter("wal.torn_truncations")
)
