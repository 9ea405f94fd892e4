package core

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"

	"corona/internal/faultfs"
	"corona/internal/state"
	"corona/internal/wal"
	"corona/internal/wire"
)

// These tests pin cold recovery: one pass reads the log, checks each record
// and folds it into its group in runs, and one write-lock section installs
// the groups. Whatever the processor count, the recovered engine must equal
// the one that wrote the log, opening must write nothing, and a broken log
// must be reported at its lowest failing LSN.

// recoverImages is every group's image and the sequencer report of an
// engine, keyed by group.
type recoverImages struct {
	images map[string]state.Checkpointed
	report []wire.GroupSeq
}

func imagesOf(t *testing.T, e *Engine, skip string) recoverImages {
	t.Helper()
	out := recoverImages{images: map[string]state.Checkpointed{}}
	for _, name := range e.Groups() {
		if name == skip {
			continue
		}
		_, cp, ok := e.GroupImage(name)
		if !ok {
			t.Fatalf("group %q vanished while imaging", name)
		}
		out.images[name] = cp
	}
	for _, gs := range e.SeqReport() {
		if gs.Group != skip {
			out.report = append(out.report, gs)
		}
	}
	return out
}

// distribute applies one event at the group's next sequence number, the way
// a replica applies the coordinator's stream.
func distribute(t *testing.T, e *Engine, group string, ev wire.Event) wire.Event {
	t.Helper()
	ev.Seq = e.NextSeq(group)
	if err := distributeOne(e, group, ev); err != nil {
		t.Fatal(err)
	}
	return ev
}

// dropLostRecord removes a record from the end of the segment that holds it,
// as a page cache that dropped the pages of a failed fsync leaves the file:
// the log then has an LSN gap where the record was.
func dropLostRecord(t *testing.T, dir string, payload []byte) {
	t.Helper()
	names, err := filepath.Glob(filepath.Join(dir, "*.seg"))
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := os.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		at := bytes.LastIndex(data, payload)
		if at < 0 {
			continue
		}
		if at+len(payload) != len(data) {
			t.Fatalf("the failed batch's record is not the end of %s", name)
		}
		if err := os.Truncate(name, int64(at-8)); err != nil { // 8: the record header
			t.Fatal(err)
		}
		return
	}
	t.Fatal("the failed batch's record is in no segment")
}

// lsnGaps counts the holes in a log's LSN sequence.
func lsnGaps(t *testing.T, dir string) int {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	gaps, next := 0, l.FirstLSN()
	if err := l.Replay(0, func(lsn uint64, _ []byte) error {
		if lsn != next {
			gaps++
		}
		next = lsn + 1
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return gaps
}

// TestRecoveryMatchesWriter (run under -race): a seeded history over eight
// persistent groups and one transient group — state and update events, a
// log reduction, a delete, a delete and re-create, and one fsync failure
// whose record is then lost, leaving an LSN gap behind a floor checkpoint.
// Re-opened at GOMAXPROCS 1 and 4, five times each, the log must recover
// every persistent group's image and sequencer report exactly as the
// writer had them; the next multicast must get the recovered NextSeq; and
// reductions after recovery must still let the log drop segments.
func TestRecoveryMatchesWriter(t *testing.T) {
	const seed, steps, groups = 33, 480, 8
	rng := rand.New(rand.NewSource(seed))
	dir := t.TempDir()
	fs := faultfs.New(seed)
	cfg := EngineConfig{Dir: dir, Sync: wal.SyncAlways, SegmentSize: 16 << 10, WALFS: fs, Logger: quietTestLogger()}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()

	live := []string{"transient"}
	if err := e.CreateGroupDirect("transient", false, []wire.Object{{ID: "t", Data: []byte("t|")}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < groups; i++ {
		name := fmt.Sprintf("g%d", i)
		if err := e.CreateGroupDirect(name, true, []wire.Object{{ID: "o0", Data: []byte(name + "|")}}); err != nil {
			t.Fatal(err)
		}
		live = append(live, name)
	}
	// The seed schedules the lifecycle steps; everything else is an event
	// to a random live group.
	reduceAt, deleteAt, recreateAt, faultAt := rng.Intn(steps/4), steps/4+rng.Intn(steps/4), steps/2+rng.Intn(steps/4), 3*steps/4+rng.Intn(steps/8)
	var lost []byte
	for step := 0; step < steps; step++ {
		switch step {
		case reduceAt:
			name := live[1+rng.Intn(len(live)-1)]
			e.mu.Lock()
			g, _ := e.reg.Get(name)
			st := e.getState(name)
			e.reduceLocked(name, g, st, st.NextSeq()/2)
			e.mu.Unlock()
			continue
		case deleteAt, recreateAt:
			k := 1 + rng.Intn(len(live)-1)
			name := live[k]
			if err := e.DeleteGroupDirect(name); err != nil {
				t.Fatal(err)
			}
			if step == deleteAt {
				live = append(live[:k], live[k+1:]...)
				continue
			}
			if err := e.CreateGroupDirect(name, true, []wire.Object{{ID: "o1", Data: []byte("again|")}}); err != nil {
				t.Fatal(err)
			}
			continue
		case faultAt:
			// The fault hits exactly this event's batch: the log is idle.
			if err := e.wal.Barrier(); err != nil {
				t.Fatal(err)
			}
			name := live[1+rng.Intn(len(live)-1)]
			fs.Inject(faultfs.Rule{Op: faultfs.OpSync, Count: 1, Err: errors.New("transient fsync fault")})
			ev := distribute(t, e, name, wire.Event{Kind: wire.EventUpdate, ObjectID: "o0", Data: []byte("lost|"), Sender: 9, Time: int64(step)})
			waitFor(t, "floor checkpoint", func() bool { return e.mFloorCheckpoints.Load() == 1 })
			if err := e.wal.Barrier(); err != nil {
				t.Fatal(err)
			}
			lost = encodeEventRecord(name, ev)
			continue
		}
		ev := wire.Event{Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", rng.Intn(3)),
			Data: bytes.Repeat([]byte{byte('a' + step%26)}, 1+rng.Intn(300)), Sender: uint64(rng.Intn(4)), Time: int64(step)}
		if rng.Intn(4) == 0 {
			ev.Kind = wire.EventState
		}
		distribute(t, e, live[rng.Intn(len(live))], ev)
	}
	if err := e.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	want := imagesOf(t, e, "transient")
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if len(want.images) != groups-1 {
		t.Fatalf("writer holds %d persistent groups, want %d", len(want.images), groups-1)
	}
	dropLostRecord(t, dir, lost)
	if gaps := lsnGaps(t, dir); gaps != 1 {
		t.Fatalf("the log has %d LSN gaps, want the lost record's one", gaps)
	}

	cfg.WALFS = nil
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		for k := 0; k < 5; k++ {
			r, err := NewEngine(cfg)
			if err != nil {
				t.Fatalf("GOMAXPROCS=%d open %d: %v", procs, k, err)
			}
			got := imagesOf(t, r, "")
			r.Close()
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("GOMAXPROCS=%d open %d recovered\n %+v\nthe writer had\n %+v", procs, k, got.report, want.report)
			}
		}
	}

	// The sequencer continues where the writer stopped.
	r, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	c := newRigClient(t, r, "writer")
	names := make([]string, 0, len(want.images))
	for name := range want.images {
		names = append(names, name)
	}
	sort.Strings(names)
	for i, name := range names {
		c.join(t, r, name, wire.RolePrincipal)
		id := uint64(i + 1)
		r.HandleMessage(c.sess, &wire.Bcast{RequestID: id, Group: name, EvKind: wire.EventUpdate, ObjectID: "o0", Data: []byte("next|")})
		waitFor(t, "ack", func() bool { return c.replied(id) })
		c.mu.Lock()
		seq, acked := c.acks[id]
		c.mu.Unlock()
		if next := want.images[name].NextSeq; !acked || seq != next {
			t.Fatalf("first multicast to recovered %s: acked %v at seq %d, want %d", name, acked, seq, next)
		}
	}

	// Each recovered group's low-water mark is its base record: reducing
	// every group but the one with the oldest base keeps what that group
	// needs, and reducing it too lets the log drop segments.
	pin := names[0]
	for _, name := range names {
		if r.groups[name].lowLSN.Load() < r.groups[pin].lowLSN.Load() {
			pin = name
		}
	}
	for i, name := range names {
		if name != pin {
			r.HandleMessage(c.sess, &wire.ReduceLog{RequestID: uint64(100 + i), Group: name})
		}
	}
	if err := r.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	mid := imagesOf(t, r, "").images
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	r, err = NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if got := imagesOf(t, r, "").images; !reflect.DeepEqual(got, mid) {
		t.Fatalf("reducing every group but %s lost part of the log it needs", pin)
	}
	before := r.wal.SegmentCount()
	r.mu.Lock()
	g, _ := r.reg.Get(pin)
	r.reduceLocked(pin, g, r.getState(pin), 0)
	r.mu.Unlock()
	if err := r.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	if after := r.wal.SegmentCount(); after >= before {
		t.Fatalf("reducing %s after recovery reclaimed no segment: %d -> %d", pin, before, after)
	}
}

// TestOpeningWritesNothing: opening a non-empty log and closing it with no
// traffic leaves every segment byte-identical and the next LSN where the
// writer left it. Recovery installs its groups without logging them.
func TestOpeningWritesNothing(t *testing.T) {
	dir := t.TempDir()
	e := newDiskEngine(t, dir)
	for _, name := range []string{"a", "b", "c"} {
		if err := e.CreateGroupDirect(name, true, []wire.Object{{ID: "o", Data: []byte(name)}}); err != nil {
			t.Fatal(err)
		}
		applyLocal(t, e, name, 20, strings.Repeat(name, 200))
	}
	e.mu.Lock()
	g, _ := e.reg.Get("b")
	e.reduceLocked("b", g, e.getState("b"), 10)
	e.mu.Unlock()
	applyLocal(t, e, "b", 3, "tail|")
	if err := e.wal.Barrier(); err != nil {
		t.Fatal(err)
	}
	next := e.wal.(*wal.Log).NextLSN()
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	before := segmentFiles(t, dir)
	if len(before) < 2 {
		t.Fatalf("want a multi-segment log, got %d segments", len(before))
	}

	r := newDiskEngine(t, dir)
	if got := r.wal.(*wal.Log).NextLSN(); got != next {
		t.Fatalf("NextLSN after open = %d, the writer left %d", got, next)
	}
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}
	if after := segmentFiles(t, dir); !reflect.DeepEqual(after, before) {
		t.Fatalf("open and close changed the log: %d segments before, %d after", len(before), len(after))
	}
}

// segmentFiles reads every file of a log directory.
func segmentFiles(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, ent := range entries {
		data, err := os.ReadFile(filepath.Join(dir, ent.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[ent.Name()] = data
	}
	return out
}

// writeLog writes hand-made records, in order from LSN 0.
func writeLog(t *testing.T, dir string, records ...[]byte) {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range records {
		if err := l.AppendAsync(rec, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
}

// TestRecoveryErrorIsLowestLSN: two groups each hold a CRC-valid but
// malformed event record — a truncated one at LSN 2 in a group with a
// one-megabyte base, an invalid event kind at LSN 3 in a group with none.
// The first fails as it is decoded, the second only when its run is applied
// at the end of the log; every open must report LSN 2.
func TestRecoveryErrorIsLowestLSN(t *testing.T) {
	dir := t.TempDir()
	truncated := encodeEventRecord("slow", wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("x")})
	writeLog(t, dir,
		encodeCreateRecord("slow", []wire.Object{{ID: "big", Data: make([]byte, 1<<20)}}),
		encodeCreateRecord("fast", nil),
		truncated[:len(truncated)-3],
		encodeEventRecord("fast", wire.Event{Seq: 1, Kind: 7, ObjectID: "o", Data: []byte("y")}),
	)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	for k := 0; k < 50; k++ {
		e, err := NewEngine(EngineConfig{Dir: dir, Logger: quietTestLogger()})
		if err == nil {
			e.Close()
			t.Fatal("a log with malformed records opened")
		}
		if !strings.Contains(err.Error(), "core: wal event 2:") {
			t.Fatalf("open %d: %v, want the error at LSN 2", k, err)
		}
	}
}

// TestSupersededRecordIsNotDecoded: a record a later checkpoint of its
// group supersedes never reaches the recovered state — a malformed one
// opens to the checkpoint's state plus the events after it, and its error
// is dropped with the state it stopped. An event that does not continue its
// group's sequence (behind the base, or ahead of a gap the lost records of
// a failed batch left) is decoded and skipped.
func TestSupersededRecordIsNotDecoded(t *testing.T) {
	dir := t.TempDir()
	bad := encodeEventRecord("g", wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("x")})
	ev1 := wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("one|")}
	ev2 := wire.Event{Seq: 2, Kind: wire.EventState, ObjectID: "o", Data: []byte("v1")}
	ev3 := wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("+more"), Sender: 4, Time: 5}
	cp := state.Checkpointed{BaseSeq: 1, NextSeq: 3, Digest: 0xC0FFEE,
		Objects: []wire.Object{{ID: "o", Data: []byte("v1")}}, History: []wire.Event{ev2}}
	writeLog(t, dir,
		encodeCreateRecord("g", nil),
		bad[:len(bad)-3],
		encodeCheckpointRecord("g", cp),
		encodeEventRecord("g", ev2),
		encodeEventRecord("g", ev3),
		encodeCreateRecord("h", nil),
		encodeEventRecord("h", ev1),
		encodeEventRecord("h", ev3),
	)
	e := newDiskEngine(t, dir)
	_, got, ok := e.GroupImage("g")
	if !ok {
		t.Fatal("group g lost")
	}
	want := state.Checkpointed{BaseSeq: 1, NextSeq: 4, Digest: state.DigestEvent(cp.Digest, ev3),
		Objects: []wire.Object{{ID: "o", Data: []byte("v1+more")}}, History: []wire.Event{ev2, ev3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered g\n %+v\nwant\n %+v", got, want)
	}
	_, got, ok = e.GroupImage("h")
	if !ok {
		t.Fatal("group h lost")
	}
	want = state.Checkpointed{NextSeq: 2, Digest: state.DigestEvent(0, ev1),
		Objects: []wire.Object{{ID: "o", Data: []byte("one|")}}, History: []wire.Event{ev1}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("recovered h\n %+v\nwant\n %+v", got, want)
	}
}

// TestRunFailureBelowDecodeError: group a's invalid event at LSN 3 waits in
// its pending run while group b's event at LSN 4 fails to decode; a's run is
// applied only at the end of the log — also when an unknown record stops
// the walk at LSN 6 — and the open must report LSN 3, the lower. A group's
// own decode error applies the run before it first, so an invalid event at
// LSN 1 below it is the one reported.
func TestRunFailureBelowDecodeError(t *testing.T) {
	truncated := func(group string) []byte {
		rec := encodeEventRecord(group, wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("x")})
		return rec[:len(rec)-3]
	}
	badKind := func(group string, seq uint64) []byte {
		return encodeEventRecord(group, wire.Event{Seq: seq, Kind: 7, ObjectID: "o", Data: []byte("bad kind")})
	}
	twoGroups := [][]byte{
		encodeCreateRecord("a", nil),
		encodeCreateRecord("b", nil),
		encodeEventRecord("a", wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("ok")}),
		badKind("a", 2),
		truncated("b"),
		encodeEventRecord("a", wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("after")}),
	}
	for _, tc := range []struct {
		name    string
		records [][]byte
		lsn     int
	}{
		{"log ends", twoGroups, 3},
		{"walk stops", append(twoGroups[:len(twoGroups):len(twoGroups)], []byte{9, 1, 'a'}), 3},
		{"own decode error", [][]byte{encodeCreateRecord("a", nil), badKind("a", 1), truncated("a")}, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeLog(t, dir, tc.records...)
			e, err := NewEngine(EngineConfig{Dir: dir, Logger: quietTestLogger()})
			if err == nil {
				e.Close()
				t.Fatal("a log with malformed records opened")
			}
			if want := fmt.Sprintf("core: wal event %d:", tc.lsn); !strings.Contains(err.Error(), want) {
				t.Fatalf("open: %v, want the error at LSN %d", err, tc.lsn)
			}
		})
	}
}

// TestSupersededMalformedCheckpoint: a checkpoint record that cannot be
// decoded, followed by a full run of its group's events — which restores
// it and fails — is superseded by a later create: the log opens to the
// create's state plus the event after it.
func TestSupersededMalformedCheckpoint(t *testing.T) {
	dir := t.TempDir()
	cp := encodeCheckpointRecord("g", state.Checkpointed{NextSeq: 2, Objects: []wire.Object{{ID: "o", Data: []byte("old")}},
		History: []wire.Event{{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: []byte("old")}}})
	records := [][]byte{encodeCreateRecord("g", nil), cp[:len(cp)-2]}
	for seq := uint64(2); seq < 2+maxIngestBatch+6; seq++ {
		records = append(records, encodeEventRecord("g", wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("|lost")}))
	}
	initial := []wire.Object{{ID: "o", Data: []byte("new")}}
	ev := wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("|kept")}
	records = append(records, encodeCreateRecord("g", initial), encodeEventRecord("g", ev))
	writeLog(t, dir, records...)

	e := newDiskEngine(t, dir)
	want := state.NewInitial(initial)
	if err := want.Apply(ev); err != nil {
		t.Fatal(err)
	}
	if _, got, ok := e.GroupImage("g"); !ok || !reflect.DeepEqual(got, want.Checkpoint()) {
		t.Fatalf("recovered g (present %v)\n %+v\nwant\n %+v", ok, got, want.Checkpoint())
	}
}

// TestDeleteAndRecreateInOnePendingRun: a group deleted and created again
// while its first events still wait in a pending run, beside another
// group's, opens to the second create's state and the events after it; the
// other group keeps every event.
func TestDeleteAndRecreateInOnePendingRun(t *testing.T) {
	dir := t.TempDir()
	first := []wire.Object{{ID: "o", Data: []byte("first")}}
	second := []wire.Object{{ID: "o", Data: []byte("second")}}
	want := map[string]*state.Group{"g": state.NewInitial(second), "h": state.NewInitial(nil)}
	records := [][]byte{encodeCreateRecord("g", first), encodeCreateRecord("h", nil)}
	hseq := uint64(1)
	hevent := func() {
		ev := wire.Event{Seq: hseq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte(fmt.Sprintf("h%d|", hseq))}
		if err := want["h"].Apply(ev); err != nil {
			t.Fatal(err)
		}
		records = append(records, encodeEventRecord("h", ev))
		hseq++
	}
	for seq := uint64(1); seq <= 5; seq++ {
		records = append(records, encodeEventRecord("g", wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("|gone")}))
		hevent()
	}
	records = append(records, encodeDeleteRecord("g"))
	hevent()
	records = append(records, encodeCreateRecord("g", second))
	for seq := uint64(1); seq <= 3; seq++ {
		ev := wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte(fmt.Sprintf("|g%d", seq))}
		if err := want["g"].Apply(ev); err != nil {
			t.Fatal(err)
		}
		records = append(records, encodeEventRecord("g", ev))
		hevent()
	}
	writeLog(t, dir, records...)

	e := newDiskEngine(t, dir)
	for name, st := range want {
		if _, got, ok := e.GroupImage(name); !ok || !reflect.DeepEqual(got, st.Checkpoint()) {
			t.Fatalf("recovered %s (present %v)\n %+v\nwant\n %+v", name, ok, got, st.Checkpoint())
		}
	}
	if low := e.groups["g"].lowLSN.Load(); low != 14 {
		t.Fatalf("g's low-water LSN = %d, want its second create's 14", low)
	}
}

// TestRecoveryDoesNotWriteTheLogRead: a recovered group's history adopts
// its events' bytes straight from the log's segment reads, which hold every
// other group's records beside them. Updates to every recovered object and
// then one auto-reduction per group must leave each group equal to one built
// from the same events without recovery — objects, history and digest — and
// a second open of the log must agree.
func TestRecoveryDoesNotWriteTheLogRead(t *testing.T) {
	const groups, objects, events = 3, 3, 40
	rng := rand.New(rand.NewSource(46))
	dir := t.TempDir()
	cfg := EngineConfig{Dir: dir, Sync: wal.SyncAlways, SegmentSize: 4 << 10, Logger: quietTestLogger()}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	var names []string
	want := map[string]*state.Group{}
	for i := range groups {
		name := fmt.Sprintf("g%d", i)
		initial := []wire.Object{{ID: "o0", Data: []byte(name + "|")}}
		if err := e.CreateGroupDirect(name, true, initial); err != nil {
			t.Fatal(err)
		}
		names = append(names, name)
		want[name] = state.NewInitial(initial)
	}
	apply := func(e *Engine, name string, ev wire.Event) {
		t.Helper()
		if err := want[name].Apply(distribute(t, e, name, ev)); err != nil {
			t.Fatal(err)
		}
	}
	check := func(e *Engine, when string) {
		t.Helper()
		for _, name := range names {
			_, got, ok := e.GroupImage(name)
			if !ok {
				t.Fatalf("%s: group %q lost", when, name)
			}
			if w := want[name].Checkpoint(); !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: group %q\n %+v\nwant\n %+v", when, name, got, w)
			}
		}
	}
	// The groups' records interleave, so each segment read holds all three.
	// Every object ends on a state, whose record the next group's follows.
	for k := range groups * (events - objects) {
		ev := wire.Event{Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", rng.Intn(objects)),
			Data: bytes.Repeat([]byte{byte('a' + k%26)}, 1+rng.Intn(300)), Sender: uint64(k % 4), Time: int64(k)}
		if rng.Intn(4) == 0 {
			ev.Kind = wire.EventState
		}
		apply(e, names[k%groups], ev)
	}
	for o := range objects {
		for _, name := range names {
			apply(e, name, wire.Event{Kind: wire.EventState, ObjectID: fmt.Sprintf("o%d", o), Data: []byte(name + "=")})
		}
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}

	// An update to every object fills each history to the threshold; one
	// more reduces it.
	cfg.AutoReduceThreshold = events + objects
	r, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	check(r, "recovered")
	for _, name := range names {
		for o := range objects {
			apply(r, name, wire.Event{Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", o), Data: bytes.Repeat([]byte(name), 32)})
		}
	}
	check(r, "updated")
	for _, name := range names {
		apply(r, name, wire.Event{Kind: wire.EventUpdate, ObjectID: "o0", Data: []byte("!")})
		want[name].Reduce(0)
	}
	for _, name := range names {
		if _, cp, _ := r.GroupImage(name); len(cp.History) != 0 {
			t.Fatalf("group %q kept %d history events: no auto-reduction", name, len(cp.History))
		}
	}
	check(r, "reduced")
	if err := r.Close(); err != nil {
		t.Fatal(err)
	}

	again, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer again.Close()
	check(again, "opened again")
}

// TestRestoreBaseCopiesOnce: a base record is decoded aliasing the segment
// read, so restoring it allocates the state's one copy of the image and
// little more — not a decode copy and then a clone of it.
func TestRestoreBaseCopiesOnce(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	objs := make([]wire.Object, 16)
	for i := range objs {
		objs[i] = wire.Object{ID: fmt.Sprintf("o%d", i), Data: bytes.Repeat([]byte{byte(i)}, 64<<10)}
	}
	history := make([]wire.Event, 256)
	for i := range history {
		history[i] = wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o0", Data: bytes.Repeat([]byte{byte(i)}, 1000)}
	}
	cp := state.Checkpointed{NextSeq: uint64(len(history) + 1), Digest: 7, Objects: objs, History: history}
	for _, tc := range []struct {
		name   string
		record []byte
		image  int
	}{
		{"create", encodeCreateRecord("g", objs), 16 * 64 << 10},
		{"checkpoint", encodeCheckpointRecord("g", cp), 16*64<<10 + 256*1000},
	} {
		sp := split{}
		if err := sp.record(1, tc.record); err != nil {
			t.Fatal(err)
		}
		gl := sp["g"]
		// The least of three restores: another goroutine's allocation can
		// only add to one.
		least := uint64(math.MaxUint64)
		for range 3 {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			st, err := gl.restoreBase()
			runtime.ReadMemStats(&after)
			if err != nil {
				t.Fatal(err)
			}
			runtime.KeepAlive(st)
			least = min(least, after.TotalAlloc-before.TotalAlloc)
		}
		if ratio := float64(least) / float64(tc.image); ratio < 1 || ratio > 1.1 {
			t.Errorf("restoring a %s record of a %d-byte image allocates %d bytes, %.2f× the image; want one copy (≤ 1.1×)",
				tc.name, tc.image, least, ratio)
		}
	}
}
