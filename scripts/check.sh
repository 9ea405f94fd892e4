#!/bin/sh
# check.sh — the repo's pre-merge gate. Run from the repository root:
#
#	./scripts/check.sh
#
# It fails on unformatted files, vet findings, corona-lint findings
# (the invariant analyzers — see DESIGN.md §"Checked invariants"),
# build errors, test failures (race detector on, short mode), or a
# fuzz-smoke regression. Each test runs once: `go test -race -short ./...`
# runs every package's tests, the analyzers' golden fixtures, the seeded
# chaos arc, the recovery tests and the cluster acceptance list
# (scripts/cluster-tests.txt) among them, and go's test cache re-runs a
# package whenever its code or a file its tests read changes. A test's doc
# comment says what it proves; scripts/stress.sh reruns the cluster list to
# expose flakes. Everything together stays under a minute on a warm build
# cache.
set -eu

cd "$(dirname "$0")/.."

# Each line prints its wall time when the next one starts, and the gate
# prints its total at the end, so a change can see which line it costs.
# A line's second word is its budget in whole seconds, about 1.5 times its
# slowest of three warm runs on a 2-vCPU host (build cache hot, sources
# unchanged; corona-lint's from a run its stamp missed). A line over its
# budget prints a warning and the gate goes on: a shared host's timings are
# no verdict. After an edit, `go test` re-runs the packages it touches and
# warns with what that cost.
ms() { echo $(($(date +%s%N) / 1000000)); }
secs() { printf '%d.%d' $(($1 / 1000)) $(($1 % 1000 / 100)); }
elapsed() {
	d=$(($(ms) - $1))
	echo "   $(secs "$d") s"
}
line_start=
end_line() {
	elapsed "$line_start"
	if [ "$d" -gt $((line_budget * 1000)) ]; then
		echo "WARN: $line_name $(secs "$d") s > $line_budget s" >&2
	fi
}
line() {
	if [ -n "$line_start" ]; then
		end_line
	fi
	line_name=$1 line_budget=$2 line_start=$(ms)
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

line "gofmt -s" 1
unformatted=$(gofmt -s -l .)
if [ -n "$unformatted" ]; then
	echo "gofmt -s needed on:" >&2
	echo "$unformatted" >&2
	exit 1
fi

line "go vet" 3
go vet ./...

line "go build" 6
go build ./...

line "corona-lint" 4
# The suite is whole-program: its verdict depends on every Go source in
# the module, not just the analyzers. Cache the clean result keyed on a
# hash of all of them (go.mod included, fixtures and all — they are the
# analyzers' own tests' inputs), and skip the multi-second run when
# nothing changed. A finding cannot be silenced: it is fixed in the code,
# or its analyzer's rule changes with a fixture case that pins the shape.
lint_hash=$( { find . -name '*.go' -not -path './.bin/*' -print0 | sort -z | xargs -0 sha256sum; sha256sum go.mod; } | sha256sum | cut -d' ' -f1)
lint_stamp=.bin/corona-lint.stamp
if [ -f "$lint_stamp" ] && [ "$(cat "$lint_stamp")" = "$lint_hash" ]; then
	echo "   cached: sources unchanged since last clean run"
else
	go build -o .bin/corona-lint ./cmd/corona-lint
	./.bin/corona-lint ./...
	printf '%s' "$lint_hash" >"$lint_stamp"
fi

line "go test -race -short" 3
go test -race -short ./...

line "allocation budgets (no race)" 2
# A full join allocates the state once: chunks are written from the group's
# buffers and read into the joiner's one payload buffer, and the joiner's
# view adopts it. The history adopts an applied event's bytes, so an update
# allocates nothing unless the object must grow, and growth is geometric; a
# run allocates one buffer per object it resets or grows, and Apply one copy
# for the history. A replica's distributed run of one recycles its scratch.
# A recovered base record is copied once, by the restore, and a recovered
# event allocates at most a quarter of an object: its bytes and object ID
# are the log's and its group's, and its run reuses an applied run's
# slices. A blocking frame read allocates only what decoding the frame
# does, and the codec holds an absolute budget on the hot kinds. The
# allocation guards skip themselves under -race, so they run here
# uninstrumented, with the test that streamed objects do not overlap.
quiet alloc go test -count=1 -run 'TestJoinCopiesOncePerSide|TestStreamedJoinObjectsDoNotOverlap|TestApplyAllocations|TestApplyRunAllocations|TestApplyDistributedAllocations|TestRestoreBaseCopiesOnce|TestRecoveryAllocations|TestReadMessageAllocations|TestCodecAllocations' ./internal/client ./internal/state ./internal/core ./internal/transport ./internal/wire

line "fuzz smoke (3s per target)" 14
# FuzzMessage takes every kind of the wire registry through decode and
# re-encode; FuzzTransferChunk also cuts a chunk into segments and reads it
# in place. The other targets' seed corpora run with the tests.
fuzz_smoke() {
	for target in FuzzMessage FuzzTransferChunk; do
		go test -run '^$' -fuzz "^${target}\$" -fuzztime 3s ./internal/wire || return
	done
}
quiet fuzz fuzz_smoke

line "bench smoke (compile + one iteration)" 9
# The packages' micro-benchmarks run once each: the smoke shows they still
# run, and benchmark/ and corona-bench measure.
quiet bench go test -run NONE -bench . -benchtime 1x ./...

line "corona-bench smokes (one build, five experiments)" 5
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

end_line
echo "== total"
elapsed "$gate_start"
echo "OK"
