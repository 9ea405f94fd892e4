#!/bin/bash
# run.sh — BENCHMARK.json's command. Run from the root of a checkout:
#
#	bash benchmark/run.sh --workload fanout_rtt --seed 1 --seconds 10 --trace 0
#
# It builds the benchmark and the program from the checkout's own source and
# runs it. Everything the build and the run write — the Go build cache, the
# binary, scratch logs, trace files — stays inside the checkout, under
# .bench_build/ and benchmark/out/.
set -euo pipefail

build="$PWD/.bench_build"
mkdir -p "$build/tmp"
export GOCACHE="$build/gocache" GOTMPDIR="$build/tmp" GOTOOLCHAIN=local
go build -o "$build/corona-benchmark" ./benchmark
exec "$build/corona-benchmark" "$@"
