package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"corona/internal/wal"
)

// tornOpts is the log tornLog writes: segments small enough that sixty
// records fill about a dozen.
var tornOpts = wal.Options{SegmentSize: 256}

// tornLog writes sixty records, then cuts three bytes off a middle segment,
// as a crash behind a failed fsync leaves a sealed segment: that segment
// ends in a torn record, and the log has an LSN gap where the record was.
// It returns the directory, the torn segment and its torn size.
func tornLog(t *testing.T) (dir, torn string, size int64) {
	t.Helper()
	dir = t.TempDir()
	opts := tornOpts
	opts.Dir = dir
	l, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		if err := l.AppendAsync(payloadOf(uint64(i)), nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	sort.Strings(names)
	if len(names) < 3 {
		t.Fatalf("want at least 3 segments, got %d", len(names))
	}
	torn = names[len(names)/2]
	info, err := os.Stat(torn)
	if err != nil {
		t.Fatal(err)
	}
	size = info.Size() - 3
	if err := os.Truncate(torn, size); err != nil {
		t.Fatal(err)
	}
	return dir, torn, size
}

// payloadOf is the record tornLog writes at lsn.
func payloadOf(lsn uint64) []byte {
	return []byte(fmt.Sprintf("rec-%02d-%s", lsn, strings.Repeat("x", int(lsn%7))))
}

type record struct {
	lsn     uint64
	payload []byte
}

// TestRecoverMatchesReplay: on a multi-segment log with a torn middle
// segment and an LSN gap, Recover hands fn exactly the records a later
// Replay yields, in order, at one reader and at four; the payloads fn kept
// still hold them after Recover returned and the log took new writes; and
// the torn segment is cut back to its intact prefix.
func TestRecoverMatchesReplay(t *testing.T) {
	for _, procs := range []int{1, 4} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			dir, torn, tornSize := tornLog(t)
			opts := tornOpts
			opts.Dir = dir
			var got []record
			l, err := wal.Recover(opts, func(lsn uint64, payload []byte) error {
				got = append(got, record{lsn, payload})
				return nil
			})
			if err != nil {
				t.Fatal(err)
			}
			defer l.Close()
			if info, err := os.Stat(torn); err != nil || info.Size() >= tornSize {
				t.Fatalf("torn segment not cut back: %v, %d bytes", err, tornSize)
			}
			for i := 0; i < 20; i++ {
				if err := l.AppendAsync([]byte("after the open"), nil); err != nil {
					t.Fatal(err)
				}
			}
			if err := l.Barrier(); err != nil {
				t.Fatal(err)
			}

			var want []record
			next := l.NextLSN() - 20
			if err := l.Replay(0, func(lsn uint64, payload []byte) error {
				if lsn < next {
					want = append(want, record{lsn, bytes.Clone(payload)})
				}
				return nil
			}); err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("Recover handed over\n %q\nReplay yields\n %q", got, want)
			}
			gaps := 0
			for i, r := range got {
				if !bytes.Equal(r.payload, payloadOf(r.lsn)) {
					t.Fatalf("lsn %d = %q, want %q", r.lsn, r.payload, payloadOf(r.lsn))
				}
				if i > 0 && r.lsn != got[i-1].lsn+1 {
					gaps++
				}
			}
			if gaps != 1 {
				t.Fatalf("recovered log has %d LSN gaps, want the torn record's 1", gaps)
			}
			// A kept payload's capacity ends with it: growing one cannot
			// write over the record after it.
			_ = append(got[0].payload, strings.Repeat("#", 64)...)
			if !bytes.Equal(got[1].payload, payloadOf(got[1].lsn)) {
				t.Fatalf("appending to lsn %d's payload overwrote lsn %d's", got[0].lsn, got[1].lsn)
			}
		})
	}
}

// TestRecoverErrorLeavesLogUntouched: an error from fn, even at the last
// record, fails the open with that error and leaves every segment
// byte-identical — the torn one included, which a successful open cuts.
func TestRecoverErrorLeavesLogUntouched(t *testing.T) {
	dir, _, _ := tornLog(t)
	opts := tornOpts
	opts.Dir = dir
	before := segmentFiles(t, dir)
	refused := errors.New("refused")
	l, err := wal.Recover(opts, func(lsn uint64, _ []byte) error {
		if lsn == 59 {
			return refused
		}
		return nil
	})
	if !errors.Is(err, refused) || l != nil {
		t.Fatalf("Recover = %v, %v; want no log and fn's error", l, err)
	}
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatal("an open that fn refused changed the log")
	}
}
