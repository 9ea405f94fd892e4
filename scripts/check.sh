#!/bin/sh
# check.sh — the repo's pre-merge gate. Run from the repository root:
#
#	./scripts/check.sh
#
# It fails on unformatted files, vet findings, corona-lint findings
# (the invariant analyzers — see DESIGN.md §"Checked invariants"),
# build errors, test failures (race detector on, short mode), or a
# fuzz-smoke regression. Everything together stays under a minute on a
# warm build cache.
set -eu

cd "$(dirname "$0")/.."

# Each line prints its wall time when the next one starts, and the gate
# prints its total at the end, so a change can see which line it costs.
ms() { echo $(($(date +%s%N) / 1000000)); }
elapsed() {
	d=$(($(ms) - $1))
	printf '   %d.%d s\n' $((d / 1000)) $((d % 1000 / 100))
}
line_start=
line() {
	if [ -n "$line_start" ]; then
		elapsed "$line_start"
	fi
	line_start=$(ms)
	echo "== $1"
}
gate_start=$(ms)

# quiet runs one line's command with its output in .bin/<name>.log. When the
# command fails, the gate prints the line's name and the log's tail and
# stops; a passing line prints nothing but its time.
mkdir -p .bin
quiet() {
	name=$1
	shift
	if ! "$@" >".bin/$name.log" 2>&1; then
		echo "FAIL: $name; the last 60 lines of .bin/$name.log:" >&2
		tail -n 60 ".bin/$name.log" >&2
		exit 1
	fi
}

line "gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

line "go vet"
go vet ./...

line "go build"
go build ./...

line "corona-lint"
# The suite is whole-program: its verdict depends on every Go source in
# the module, not just the analyzers. Cache the clean result keyed on a
# hash of all of them (go.mod included, fixtures and all — they are the
# analyzers' own tests' inputs), and skip the multi-second run when
# nothing changed. The -allows pass fails the gate on stale suppressions.
lint_hash=$( { find . -name '*.go' -not -path './.bin/*' -print0 | sort -z | xargs -0 sha256sum; sha256sum go.mod; } | sha256sum | cut -d' ' -f1)
lint_stamp=.bin/corona-lint.stamp
if [ -f "$lint_stamp" ] && [ "$(cat "$lint_stamp")" = "$lint_hash" ]; then
	echo "   cached: sources unchanged since last clean run"
else
	go build -o .bin/corona-lint ./cmd/corona-lint
	./.bin/corona-lint ./...
	./.bin/corona-lint -allows ./...
	printf '%s' "$lint_hash" >"$lint_stamp"
fi

line "analysis self-test (race, uncached)"
# The analyzers guard the engine's invariants; their own golden fixtures
# run fresh on every gate, race detector on.
quiet analysis go test -race -count=1 ./internal/analysis/...

line "go test -race -short"
go test -race -short ./...

line "allocation budgets (no race)"
# A full join allocates the state once: chunks are written from the group's
# buffers and read into the joiner's one payload buffer, and the joiner's
# view adopts it. The history adopts an applied event's bytes, so an update
# allocates nothing unless the object must grow, and growth is geometric; a
# run allocates one buffer per object it resets or grows, and Apply one copy
# for the history. A replica's distributed run of one recycles its scratch.
# A recovered base record is copied once, by the restore. The allocation
# guards skip themselves under -race, so they run here uninstrumented, with
# the test that streamed objects do not overlap.
quiet alloc go test -count=1 -run 'TestJoinCopiesOncePerSide|TestStreamedJoinObjectsDoNotOverlap|TestApplyAllocations|TestApplyRunAllocations|TestApplyDistributedAllocations|TestRestoreBaseCopiesOnce' ./internal/client ./internal/state ./internal/core

line "fuzz smoke (3s per wire decode target)"
fuzz_smoke() {
	for target in FuzzTransferPayload FuzzTransferChunk FuzzTransferStream FuzzDeliverBatch; do
		go test -run '^$' -fuzz "^${target}\$" -fuzztime 3s ./internal/wire || return
	done
}
quiet fuzz fuzz_smoke

line "bench smoke (compile + one iteration, short windows)"
# -short cuts the root throughput benches' windows from 500 ms to 50 ms: the
# smoke shows the harness runs end to end, and benchmark/ measures.
quiet bench go test -short -run NONE -bench . -benchtime 1x ./...

line "corona-bench smokes (one build, five experiments)"
# One link instead of five `go run`s. table1: pipelined clients drive the
# greedy drain, multi-event runs on the multicast path and the pooled
# DeliverBatch fanout end to end. fanout: the off-lock sharded pipeline
# delivers under a fanout wider than the shard count, so the credit
# protocol, the COW snapshot and run delivery run end to end.
go build -o .bin/corona-bench ./cmd/corona-bench
bench_smokes() {
	for smoke in \
		"table1 -duration 200ms" \
		"multigroup -groups 1,2 -per-group 1 -duration 200ms" \
		"fanout -fanout-members 8,32 -duration 200ms" \
		"jointransfer -jt-sizes 1 -jt-joins 1 -duration 200ms" \
		"placement -pl-state 1 -pl-groups 2"; do
		# shellcheck disable=SC2086 # the experiment's flags are meant to split
		./.bin/corona-bench -experiment $smoke || return
	done
}
quiet corona-bench bench_smokes

line "chaos smoke (race)"
# The storage-fault acceptance test: one seeded chaos arc — fsync fault,
# degraded mode, recovery, power cut — with the durability-honesty,
# ordering, and replay audits on. -count=1 defeats the cache.
quiet chaos go test -race -count=1 -run TestChaosSmoke ./internal/chaos

line "cold recovery (race)"
# The one-pass recovery acceptance tests: a seeded log (reduction, delete,
# re-create, a lost fsync batch) recovers to the writer's images at
# GOMAXPROCS 1 and 4; a run folds to exactly what its events give one at a
# time, however it is split, and the views taken before it do not move;
# opening writes nothing; a broken log is reported at its lowest failing LSN,
# also when a pending run fails below a later decode error or an unknown
# record; a superseded record, a malformed checkpoint among them, does not
# reach the recovered state, nor does a group deleted and re-created inside
# one pending run. The walk: wal.Recover hands over exactly the records a
# later Replay yields, across a torn segment and an LSN gap, and the payloads
# it handed over stay valid; over a slowed disk, a record reaches the
# consumer only once every byte of it is read and checked — across piece
# boundaries, at a segment of whole pieces, before a torn tail and a bad CRC;
# an error from the consumer, or a segment that cannot be opened or read
# (also at its second piece), fails the open and changes no file; once the
# walk has quit, the read-ahead reads no piece it had not begun. -count=1
# so the race detector sees the read-ahead and the walk every gate.
quiet recovery go test -race -count=1 -run 'TestRecoveryMatchesWriter|TestQuickRunEqualsEvents|TestCaptureStableUnderRun|TestOpeningWritesNothing|TestRecoveryErrorIsLowestLSN|TestRunFailureBelowDecodeError|TestSupersededRecordIsNotDecoded|TestSupersededMalformedCheckpoint|TestDeleteAndRecreateInOnePendingRun|TestRecoverMatchesReplay|TestRecoverErrorLeavesLogUntouched|TestFaultOpenReadErrorKeepsSegment|TestFaultReadErrorKeepsSegment|TestWalk' ./internal/core ./internal/state ./internal/wal

line "replica acquisition, membership order and rebalance churn (race)"
# The replica-stream acceptance tests, named in scripts/cluster-tests.txt
# (scripts/stress.sh reruns the same list): gapless deliveries and identical
# replica images while groups migrate under broadcast load and a server
# crashes mid-churn; a join right after a create never gets an invented
# image; a replica behind a log reduction heals; a burst behind one lost
# event waits for one catch-up. The membership-order tests: a joiner sees
# the members ordered before it, and a transient group is not ended under a
# member whose join is still on a delayed link; notify counts are global; a
# backup keeps its replica while the group has members elsewhere; a server
# speaking another protocol version is refused, as is a candidate. The
# registration's: a server re-registers in one report, which is the host's
# word (a member it no longer hosts is crashed), and a forward overtaking a
# report invents no group. The pull's own tests: it is held to the join's
# window and counted; a hostile source installs nothing and a hostile puller
# gets one refusal or nothing. The designation's: a failed one is answered,
# counted and designated again, a designation that arrives while the
# previous acquisition is failing gets an answer of its own, and a
# registration drops interest in the groups its report leaves out. The
# acquisition's: its stream starts at its locate, so a first join leaves no
# window and costs one locate, and a backup sees the members ordered during
# its pull. -count=1 defeats the cache so the race detector really runs them
# on every gate.
quiet cluster go test -race -count=1 -run "$(paste -sd'|' scripts/cluster-tests.txt)" ./internal/cluster

elapsed "$line_start"
echo "== total"
elapsed "$gate_start"
echo "OK"
