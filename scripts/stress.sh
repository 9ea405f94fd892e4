#!/bin/sh
# stress.sh — reruns the gate's cluster acceptance tests to expose flakes. It
# is not part of the gate. Run from the repository root:
#
#	./scripts/stress.sh [count [pattern]]
#
# It builds the internal/cluster test binary once with the race detector,
# runs three copies of it at once, each running every test named in
# scripts/cluster-tests.txt (the list check.sh runs) count times (default
# 100), and prints each test's runs and failures. pattern, a grep -E
# expression, keeps only the matching names of the list. The copies' output
# stays in .bin/stress/copy<N>.log. It exits 1 when any run failed.
set -eu

cd "$(dirname "$0")/.."

count=${1:-100}
names=$(grep -E -e "${2:-.}" scripts/cluster-tests.txt)
mkdir -p .bin/stress
go test -race -c -o .bin/stress/cluster.test ./internal/cluster

start=$(date +%s)
for copy in 1 2 3; do
	# A test binary runs in its package's directory, as go test runs it.
	(cd internal/cluster && ../../.bin/stress/cluster.test -test.v \
		-test.run "^($(echo "$names" | paste -sd'|'))\$" -test.count "$count" \
		>"../../.bin/stress/copy$copy.log" 2>&1) &
done
wait
failed=0
echo "$((count * 3)) runs per test, three copies at once, $(($(date +%s) - start)) s"

printf '%-52s %5s %5s\n' test runs fail
for name in $names; do
	runs=$(cat .bin/stress/copy*.log | grep -c -E -e "^--- (PASS|FAIL): $name " || true)
	fails=$(cat .bin/stress/copy*.log | grep -c -e "^--- FAIL: $name " || true)
	printf '%-52s %5d %5d\n' "$name" "$runs" "$fails"
	if [ "$fails" -gt 0 ] || [ "$runs" -ne $((count * 3)) ]; then
		failed=1
	fi
done
exit "$failed"
