package main

import (
	"sync/atomic"
	"time"
)

// modelledSync is what one WAL fsync costs in every workload that logs to
// disk. The host's real fsync is not called: on a shared VM its latency is
// neither stable nor the program's doing, so a fixed cost keeps the durable
// workloads repeatable. Real disk latency is therefore not measured.
const modelledSync = 500 * time.Microsecond

// fixedSyncFS is the real filesystem with every file's Sync replaced by a
// blocking sleep of a fixed cost, which like a real fsync holds the calling
// thread but no processor. Writes go through to the real file, so a log
// written on it can be closed and re-opened; it would not survive a power
// cut, which the benchmark never stages.
type fixedSyncFS struct {
	walFS
	cost  time.Duration
	syncs atomic.Int64
}

func newFixedSyncFS(cost time.Duration) *fixedSyncFS {
	return &fixedSyncFS{walFS: osFS, cost: cost}
}

func (fs *fixedSyncFS) Create(path string) (walFile, error) {
	return fs.wrap(fs.walFS.Create(path))
}

func (fs *fixedSyncFS) OpenAppend(path string) (walFile, error) {
	return fs.wrap(fs.walFS.OpenAppend(path))
}

func (fs *fixedSyncFS) wrap(f walFile, err error) (walFile, error) {
	if err != nil {
		return nil, err
	}
	return &fixedSyncFile{walFile: f, fs: fs}, nil
}

type fixedSyncFile struct {
	walFile
	fs *fixedSyncFS
}

func (f *fixedSyncFile) Sync() error {
	f.fs.syncs.Add(1)
	preciseSleep(f.fs.cost)
	return nil
}
