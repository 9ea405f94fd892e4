//go:build race

package wal

// raceEnabled reports a -race build, whose instrumentation allocates on its
// own and would blur an allocation budget.
const raceEnabled = true
