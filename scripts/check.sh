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

echo "== gofmt -s"
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

echo "== go vet"
go vet ./...

echo "== go build"
go build ./...

echo "== corona-lint"
# The suite is whole-program: its verdict depends on every Go source in
# the module, not just the analyzers. Cache the clean result keyed on a
# hash of all of them (go.mod included, fixtures and all — they are the
# analyzers' own tests' inputs), and skip the multi-second run when
# nothing changed. The -allows pass fails the gate on stale suppressions.
mkdir -p .bin
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

echo "== analysis self-test (race, uncached)"
# The analyzers guard the engine's invariants; their own golden fixtures
# run fresh on every gate, race detector on.
go test -race -count=1 ./internal/analysis/... >/dev/null

echo "== go test -race -short"
go test -race -short ./...

echo "== allocation budgets (no race)"
# A full join allocates the state once: chunks are written from the group's
# buffers and read into the joiner's one payload buffer, and the joiner's
# view adopts it. An applied update allocates only the history's copy of it unless
# the object must grow, and growth is geometric; a run allocates one buffer per
# object it resets or grows. A replica's distributed run
# of one recycles its scratch. The allocation guards skip themselves under
# -race, so they run here uninstrumented, with the test that streamed objects
# do not overlap.
go test -count=1 -run 'TestJoinCopiesOncePerSide|TestStreamedJoinObjectsDoNotOverlap|TestApplyAllocations|TestApplyRunAllocations|TestApplyDistributedAllocations' ./internal/client ./internal/state ./internal/core >/dev/null

echo "== fuzz smoke (3s per wire decode target)"
for target in FuzzTransferPayload FuzzTransferChunk FuzzTransferStream FuzzDeliverBatch; do
	go test -run '^$' -fuzz "^${target}\$" -fuzztime 3s ./internal/wire >/dev/null
done

echo "== bench smoke (compile + one iteration)"
go test -run NONE -bench . -benchtime 1x ./... >/dev/null

echo "== corona-bench smokes (one build, five experiments)"
# One link instead of five `go run`s. table1: pipelined clients drive the
# greedy drain, multi-event runs on the multicast path and the pooled
# DeliverBatch fanout end to end. fanout: the off-lock sharded pipeline
# delivers under a fanout wider than the shard count, so the credit
# protocol, the COW snapshot and run delivery run end to end.
go build -o .bin/corona-bench ./cmd/corona-bench
for smoke in \
	"table1 -duration 200ms" \
	"multigroup -groups 1,2 -per-group 1 -duration 200ms" \
	"fanout -fanout-members 8,32 -duration 200ms" \
	"jointransfer -jt-sizes 1 -jt-joins 1 -duration 200ms" \
	"placement -pl-state 1 -pl-groups 2"; do
	# shellcheck disable=SC2086 # the experiment's flags are meant to split
	./.bin/corona-bench -experiment $smoke >/dev/null
done

echo "== chaos smoke (race)"
# The storage-fault acceptance test: one seeded chaos arc — fsync fault,
# degraded mode, recovery, power cut — with the durability-honesty,
# ordering, and replay audits on. -count=1 defeats the cache.
go test -race -count=1 -run TestChaosSmoke ./internal/chaos >/dev/null

echo "== cold recovery (race)"
# The parallel-recovery acceptance tests: a seeded log (reduction, delete,
# re-create, a lost fsync batch) recovers to the writer's images at
# GOMAXPROCS 1 and 4, each group rebuilt as one state run; a run folds to
# exactly what its events give one at a time, however it is split, and the
# views taken before it do not move; opening writes nothing; a broken log is
# reported at its lowest failing LSN whichever worker finds it; a superseded
# record is not decoded. The log's one read: wal.Recover hands over exactly the
# records a later Replay yields, across a torn segment and an LSN gap, at
# one reader and four, and the payloads it handed over stay valid; an error
# from the consumer, or a segment that cannot be opened or read, fails the
# open and changes no file. -count=1 so the race detector sees the workers
# and the read-ahead every gate.
go test -race -count=1 -run 'TestRecoveryMatchesWriter|TestQuickRunEqualsEvents|TestCaptureStableUnderRun|TestOpeningWritesNothing|TestRecoveryErrorIsLowestLSN|TestSupersededRecordIsNotDecoded|TestRecoverMatchesReplay|TestRecoverErrorLeavesLogUntouched|TestFaultOpenReadErrorKeepsSegment|TestFaultReadErrorKeepsSegment' ./internal/core ./internal/state ./internal/wal >/dev/null

echo "== replica acquisition, membership order and rebalance churn (race)"
# The replica-stream acceptance tests: gapless deliveries and identical
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
# gets one refusal or nothing. The designation's: a failed one is answered
# and designated again, and a registration drops interest in the groups its
# report leaves out. The acquisition's: its stream starts at its locate, so a
# first join leaves no window and costs one locate, and a backup sees the
# members ordered during its pull. -count=1 defeats the cache so the race
# detector really runs them on every gate.
go test -race -count=1 -run 'TestFailedDesignationIsRetried|TestJoinAcquisitionHealsItsWindow|TestReportDropsStaleInterest|TestRebalanceUnderChurn|TestLiveMigrationUnderLoad|TestJoinRightAfterCreateOverDelayedLink|TestReplicaHealsAcrossLogReduction|TestOneCatchUpPerGap|TestJoinerSeesMembersAlreadyThere|TestNoReapUnderLiveMember|TestNotifyCountIsGlobal|TestBackupKeepsReplicaWhenLastLocalMemberLeaves|TestRegistrationWithOldProtocolRefused|TestElectionProbeOfAnotherVersionIsRefused|TestReRegistrationIsOneReport|TestReconnectCrashesMembersItNoLongerHosts|TestForwardBeforeReportInventsNoGroup|TestReplicaPullIsFlowControlled|TestHostileSourceInstallsNothing|TestHostilePullerIsRefused|TestOneLocatePerAcquisition|TestBackupSeesMembersOrderedDuringItsPull' ./internal/cluster >/dev/null

echo "OK"
