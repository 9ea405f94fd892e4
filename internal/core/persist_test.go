package core

import (
	"encoding/hex"
	"reflect"
	"testing"

	"corona/internal/state"
	"corona/internal/wal"
	"corona/internal/wire"
)

// These tests exercise the engine's persistence machinery directly (no
// TCP): record codecs, recovery orderings, checkpointing, and log GC.

func newDiskEngine(t *testing.T, dir string) *Engine {
	t.Helper()
	e, err := NewEngine(EngineConfig{
		Dir: dir, Sync: wal.SyncAlways, SegmentSize: 4 << 10, Logger: quietTestLogger(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// applyLocal feeds n sequenced events through the multicast path, the way
// a replica receives them from the coordinator.
func applyLocal(t *testing.T, e *Engine, group string, n int, data string) {
	t.Helper()
	for i := 0; i < n; i++ {
		e.mu.RLock()
		next := e.getState(group).NextSeq()
		e.mu.RUnlock()
		ev := wire.Event{Seq: next, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte(data)}
		if err := distributeOne(e, group, ev); err != nil {
			t.Fatal(err)
		}
	}
}

func TestRecoverEventsAndSequencer(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("g", true, []wire.Object{{ID: "o", Data: []byte("base|")}}); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 3, "u|")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	e2 := newDiskEngine(t, dir)
	if !e2.HasGroup("g") {
		t.Fatal("group lost across restart")
	}
	_, cp, ok := e2.GroupImage("g")
	if !ok || cp.NextSeq != 4 {
		t.Fatalf("recovered NextSeq = %d", cp.NextSeq)
	}
	if string(cp.Objects[0].Data) != "base|u|u|u|" {
		t.Fatalf("recovered object = %q", cp.Objects[0].Data)
	}
	// The sequencer continues, never reuses numbers.
	e2.mu.Lock()
	next, _ := e2.seqr.Next("g")
	e2.mu.Unlock()
	if next != 4 {
		t.Fatalf("next seq after recovery = %d", next)
	}
}

func TestRecoverDigestConsistency(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("g", true, nil); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 5, "x")
	_, before, _ := e.GroupImage("g")
	e.Close()

	e2 := newDiskEngine(t, dir)
	_, after, _ := e2.GroupImage("g")
	if before.Digest == 0 || before.Digest != after.Digest {
		t.Fatalf("digest across restart: %x -> %x", before.Digest, after.Digest)
	}
}

func TestRecoverAfterCheckpoint(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("g", true, nil); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 10, "block")

	// Reduce (checkpoints) then apply more events: recovery must replay
	// checkpoint + suffix.
	e.mu.Lock()
	g, _ := e.reg.Get("g")
	st := e.getState("g")
	e.reduceLocked("g", g, st, 6)
	e.mu.Unlock()
	applyLocal(t, e, "g", 2, "tail")
	_, want, _ := e.GroupImage("g")
	e.Close()

	e2 := newDiskEngine(t, dir)
	_, got, _ := e2.GroupImage("g")
	if got.NextSeq != want.NextSeq || got.Digest != want.Digest {
		t.Fatalf("checkpoint recovery mismatch: %+v vs %+v", got.NextSeq, want.NextSeq)
	}
	if got.BaseSeq != 6 {
		t.Fatalf("recovered BaseSeq = %d, want 6", got.BaseSeq)
	}
	if len(got.History) != len(want.History) {
		t.Fatalf("recovered history %d, want %d", len(got.History), len(want.History))
	}
}

func TestDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("doomed", true, nil); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "doomed", 2, "x")
	if err := e.DeleteGroupDirect("doomed"); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := newDiskEngine(t, dir)
	if e2.HasGroup("doomed") {
		t.Fatal("deleted group resurrected by recovery")
	}
}

func TestRecreateAfterDeleteSurvivesRestart(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("g", true, []wire.Object{{ID: "o", Data: []byte("v1")}}); err != nil {
		t.Fatal(err)
	}
	if err := e.DeleteGroupDirect("g"); err != nil {
		t.Fatal(err)
	}
	if err := e.CreateGroupDirect("g", true, []wire.Object{{ID: "o", Data: []byte("v2")}}); err != nil {
		t.Fatal(err)
	}
	e.Close()

	e2 := newDiskEngine(t, dir)
	_, cp, ok := e2.GroupImage("g")
	if !ok {
		t.Fatal("recreated group lost")
	}
	if string(cp.Objects[0].Data) != "v2" {
		t.Fatalf("recovered the wrong incarnation: %q", cp.Objects[0].Data)
	}
}

func TestWALGCAfterCheckpoints(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	if err := e.CreateGroupDirect("g", true, nil); err != nil {
		t.Fatal(err)
	}
	// Enough data to roll several 4 KiB segments.
	applyLocal(t, e, "g", 200, string(make([]byte, 200)))
	if err := e.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	segsBefore := e.wal.SegmentCount()
	if segsBefore < 3 {
		t.Fatalf("need multiple segments, got %d", segsBefore)
	}
	e.mu.Lock()
	g, _ := e.reg.Get("g")
	st := e.getState("g")
	e.reduceLocked("g", g, st, 0)
	e.mu.Unlock()
	// The checkpoint record and the garbage collection its commit callback
	// runs are asynchronous; the barrier returns after both.
	if err := e.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	if segsAfter := e.wal.SegmentCount(); segsAfter >= segsBefore {
		t.Fatalf("GC did not reclaim segments: %d -> %d", segsBefore, segsAfter)
	}
}

func TestStatelessEngineIgnoresDir(t *testing.T) {
	e, err := NewEngine(EngineConfig{Dir: t.TempDir(), Stateless: true, Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if e.wal != nil {
		t.Fatal("stateless engine opened a WAL")
	}
}

func TestInstallGroupResetsSequencer(t *testing.T) {
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 9, "x")

	// Without rewind, an image behind the replica is not installed.
	cp := state.Checkpointed{NextSeq: 4}
	if installed, err := e.InstallGroup("g", false, cp, nil, false); err != nil || installed {
		t.Fatalf("install behind the replica: installed %v, err %v", installed, err)
	}
	if got := e.NextSeq("g"); got != 10 {
		t.Fatalf("NextSeq after a refused install = %d, want 10", got)
	}
	// A rollback install must rewind the sequencer, not max with it.
	if installed, err := e.InstallGroup("g", false, cp, nil, true); err != nil || !installed {
		t.Fatalf("rewinding install: installed %v, err %v", installed, err)
	}
	report := e.SeqReport()
	if len(report) != 1 || report[0].NextSeq != 4 {
		t.Fatalf("SeqReport after rollback install = %+v", report)
	}
}

func TestSeqReportIncludesUnsequencedGroups(t *testing.T) {
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("idle", true, nil); err != nil {
		t.Fatal(err)
	}
	report := e.SeqReport()
	if len(report) != 1 || report[0].Group != "idle" || report[0].NextSeq != 1 || !report[0].Persistent {
		t.Fatalf("SeqReport = %+v", report)
	}
}

func TestEventsSince(t *testing.T) {
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	applyLocal(t, e, "g", 5, "d")
	cp, _, ok := e.replicaImage("g", 3)
	if !ok || cp.BaseSeq != 2 || cp.NextSeq != 6 || len(cp.History) != 3 || cp.History[0].Seq != 3 || cp.Objects != nil {
		t.Fatalf("replicaImage from 3 = %+v %v", cp, ok)
	}
	// A requester ahead of this replica gets an empty suffix, not a full image.
	if cp, _, ok := e.replicaImage("g", 99); !ok || cp.NextSeq != 6 || len(cp.History) != 0 || cp.Objects != nil {
		t.Fatalf("replicaImage past the end = %+v %v", cp, ok)
	}
	// From 0 precedes every checkpoint base: the whole image.
	if cp, _, ok := e.replicaImage("g", 0); !ok || cp.BaseSeq != 0 || cp.NextSeq != 6 || len(cp.Objects) != 1 {
		t.Fatalf("replicaImage from 0 = %+v %v", cp, ok)
	}
	if _, _, ok := e.replicaImage("missing", 1); ok {
		t.Fatal("replicaImage found a missing group")
	}
	if got, none := e.NextSeq("g"), e.NextSeq("missing"); got != 6 || none != 1 {
		t.Fatalf("NextSeq = %d (missing group: %d), want 6 (1)", got, none)
	}
}

func TestApplyDistributeGapAndDuplicate(t *testing.T) {
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	ev := func(seq uint64) wire.Event {
		return wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte{byte(seq)}}
	}
	if err := distributeOne(e, "g", ev(1)); err != nil {
		t.Fatal(err)
	}
	// Duplicate: dropped silently.
	if err := distributeOne(e, "g", ev(1)); err != nil {
		t.Fatalf("duplicate: %v", err)
	}
	// Gap: reported.
	if err := distributeOne(e, "g", ev(5)); err == nil {
		t.Fatal("gap accepted")
	}
	// Catch-up then the gap event applies.
	if _, err := e.ApplyDistributed("g", []DistEvent{{Event: ev(2), SenderInclusive: true}, {Event: ev(3), SenderInclusive: true}, {Event: ev(4), SenderInclusive: true}}); err != nil {
		t.Fatal(err)
	}
	if err := distributeOne(e, "g", ev(5)); err != nil {
		t.Fatalf("after catch-up: %v", err)
	}
	_, cp, _ := e.GroupImage("g")
	if cp.NextSeq != 6 {
		t.Fatalf("NextSeq = %d", cp.NextSeq)
	}
}

// TestRecordFormatPin pins the stable-storage record encodings byte for byte.
// The literals were generated once, before the record bodies moved onto
// wire's object/event codec, and must never change: a log written by any
// earlier build has to recover under this one and vice versa. The encoders
// must reproduce them, and a log holding exactly these records must recover
// to the state they describe.
func TestRecordFormatPin(t *testing.T) {
	ev300 := wire.Event{Seq: 300, Kind: wire.EventUpdate, ObjectID: "doc", Data: []byte("hello"), Sender: 1<<40 | 7, Time: 1700000000123456789}
	ev299 := wire.Event{Seq: 299, Kind: wire.EventState, ObjectID: "doc", Data: []byte("v1"), Sender: 3, Time: -5}
	cp := state.Checkpointed{BaseSeq: 298, NextSeq: 300, Digest: 0xDEADBEEFCAFEF00D,
		Objects: []wire.Object{{ID: "a", Data: []byte("alpha")}, {ID: "doc", Data: []byte("v1")}},
		History: []wire.Event{ev299}}
	records := []struct {
		name string
		got  []byte
		hex  string
	}{
		{"create", encodeCreateRecord("g/1", []wire.Object{{ID: "a", Data: []byte("alpha")}, {ID: "empty"}}),
			"0203672f3102016105616c70686105656d70747900"},
		{"checkpoint", encodeCheckpointRecord("g/1", cp),
			"0403672f31aa02ac02deadbeefcafef00d02016105616c70686103646f6302763101ab020103646f630276310309"},
		{"event", encodeEventRecord("g/1", ev300),
			"0103672f31ac020203646f630568656c6c6f878080808020aab4aed8c7bfce972f"},
	}
	dir := t.TempDir()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range records {
		if got := hex.EncodeToString(r.got); got != r.hex {
			t.Errorf("%s record = %s, pinned %s", r.name, got, r.hex)
		}
		pinned, err := hex.DecodeString(r.hex)
		if err != nil {
			t.Fatal(err)
		}
		if err := l.AppendAsync(pinned, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	_, got, ok := newDiskEngine(t, dir).GroupImage("g/1")
	if !ok {
		t.Fatal("pinned log recovered no group")
	}
	want := state.Checkpointed{BaseSeq: 298, NextSeq: 301, Digest: state.DigestEvent(cp.Digest, ev300),
		Objects: []wire.Object{{ID: "a", Data: []byte("alpha")}, {ID: "doc", Data: []byte("v1hello")}},
		History: []wire.Event{ev299, ev300}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("pinned log recovered\n %+v\nwant\n %+v", got, want)
	}
}
