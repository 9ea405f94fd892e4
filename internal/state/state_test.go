package state

import (
	"bytes"
	"errors"
	"fmt"
	"math/rand"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"corona/internal/wire"
)

func ev(seq uint64, kind wire.EventKind, obj string, data string) wire.Event {
	return wire.Event{Seq: seq, Kind: kind, ObjectID: obj, Data: []byte(data), Sender: 1, Time: int64(seq)}
}

func mustApply(t *testing.T, g *Group, events ...wire.Event) {
	t.Helper()
	for _, e := range events {
		if err := g.Apply(e); err != nil {
			t.Fatalf("Apply(%d): %v", e.Seq, err)
		}
	}
}

// capture takes a transfer view under policy and returns its three parts.
func capture(t *testing.T, g *Group, policy wire.TransferPolicy) ([]wire.Object, []wire.Event, uint64) {
	t.Helper()
	tr, err := g.Capture(policy)
	if err != nil {
		t.Fatalf("Capture(%v): %v", policy.Mode, err)
	}
	return tr.Objects(), tr.Events(), tr.BaseSeq()
}

// resume is the TransferResume capture every incremental reader takes.
func resume(g *Group, from uint64) ([]wire.Event, error) {
	tr, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: from})
	return tr.Events(), err
}

func TestStateOverrides(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "first"),
		ev(2, wire.EventState, "o", "second"),
	)
	data, ok := g.Object("o")
	if !ok || string(data) != "second" {
		t.Fatalf("Object = %q, %v", data, ok)
	}
}

func TestUpdateAppends(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "base|"),
		ev(2, wire.EventUpdate, "o", "u1|"),
		ev(3, wire.EventUpdate, "o", "u2"),
	)
	data, _ := g.Object("o")
	if string(data) != "base|u1|u2" {
		t.Fatalf("Object = %q, want concatenated history", data)
	}
}

func TestUpdateOnMissingObjectCreatesIt(t *testing.T) {
	g := New()
	mustApply(t, g, ev(1, wire.EventUpdate, "fresh", "x"))
	data, ok := g.Object("fresh")
	if !ok || string(data) != "x" {
		t.Fatalf("Object = %q, %v", data, ok)
	}
}

func TestApplySequenceGate(t *testing.T) {
	g := New()
	if err := g.Apply(ev(2, wire.EventState, "o", "skip")); !errors.Is(err, ErrStaleSeq) {
		t.Errorf("gap apply: %v, want ErrStaleSeq", err)
	}
	mustApply(t, g, ev(1, wire.EventState, "o", "ok"))
	if err := g.Apply(ev(1, wire.EventState, "o", "replay")); !errors.Is(err, ErrStaleSeq) {
		t.Errorf("replay apply: %v, want ErrStaleSeq", err)
	}
	if err := g.Apply(wire.Event{Seq: 2, Kind: 0, ObjectID: "o"}); err == nil {
		t.Error("invalid kind accepted")
	}
}

func TestNewInitial(t *testing.T) {
	g := NewInitial([]wire.Object{{ID: "a", Data: []byte("1")}, {ID: "b"}})
	if g.ObjectCount() != 2 {
		t.Fatalf("ObjectCount = %d", g.ObjectCount())
	}
	if g.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d, want 1", g.NextSeq())
	}
	data, ok := g.Object("a")
	if !ok || string(data) != "1" {
		t.Errorf("initial object a = %q", data)
	}
}

func TestCaptureFull(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "b", "bb"),
		ev(2, wire.EventState, "a", "aa"),
	)
	objs, events, base := capture(t, g, wire.FullTransfer)
	if len(events) != 0 || base != 2 {
		t.Fatalf("events %d, base %d", len(events), base)
	}
	want := []wire.Object{{ID: "a", Data: []byte("aa")}, {ID: "b", Data: []byte("bb")}}
	if !reflect.DeepEqual(objs, want) {
		t.Fatalf("objects = %#v", objs)
	}
}

func TestCaptureLastN(t *testing.T) {
	g := New()
	for i := uint64(1); i <= 10; i++ {
		mustApply(t, g, ev(i, wire.EventUpdate, "o", fmt.Sprintf("u%d", i)))
	}
	_, events, base := capture(t, g, wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 3})
	if len(events) != 3 || events[0].Seq != 8 || events[2].Seq != 10 {
		t.Fatalf("events = %+v", events)
	}
	if base != 7 {
		t.Fatalf("base = %d, want 7", base)
	}
	// Asking for more than exists returns everything.
	_, events, base = capture(t, g, wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 99})
	if len(events) != 10 || base != 0 {
		t.Fatalf("lastN overshoot: %d events, base %d", len(events), base)
	}
}

func TestCaptureObjects(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "a", "aa"),
		ev(2, wire.EventState, "b", "bb"),
	)
	objs, _, _ := capture(t, g, wire.TransferPolicy{Mode: wire.TransferObjects, Objects: []string{"b", "missing"}})
	if len(objs) != 1 || objs[0].ID != "b" {
		t.Fatalf("objects = %#v", objs)
	}
}

func TestCaptureNone(t *testing.T) {
	g := New()
	mustApply(t, g, ev(1, wire.EventState, "a", "aa"))
	objs, events, base := capture(t, g, wire.TransferPolicy{Mode: wire.TransferNone})
	if objs != nil || events != nil || base != 1 {
		t.Fatalf("none transfer: %v %v %d", objs, events, base)
	}
}

func TestCaptureInvalidMode(t *testing.T) {
	g := New()
	if _, err := g.Capture(wire.TransferPolicy{Mode: 0}); err == nil {
		t.Error("invalid mode accepted")
	}
}

func TestCaptureResume(t *testing.T) {
	g := New()
	for i := uint64(1); i <= 5; i++ {
		mustApply(t, g, ev(i, wire.EventUpdate, "o", "x"))
	}
	events, err := resume(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 3 || events[0].Seq != 3 {
		t.Fatalf("resume(3) = %+v", events)
	}
	// Resume from the next sequence number is an empty suffix, not an error.
	events, err = resume(g, 6)
	if err != nil || len(events) != 0 {
		t.Fatalf("resume(6) = %v, %v", events, err)
	}
	// Resume under the checkpoint fails with ErrSeqGap.
	g.Reduce(3)
	if _, err := resume(g, 2); !errors.Is(err, ErrSeqGap) {
		t.Errorf("resume under checkpoint: %v", err)
	}
}

func TestReduce(t *testing.T) {
	g := New()
	for i := uint64(1); i <= 10; i++ {
		mustApply(t, g, ev(i, wire.EventUpdate, "o", "d"))
	}
	full, _ := g.Object("o")

	trimmed := g.Reduce(6)
	if trimmed != 6 {
		t.Fatalf("trimmed = %d, want 6", trimmed)
	}
	if g.BaseSeq() != 6 || g.HistoryLen() != 4 {
		t.Fatalf("base %d history %d", g.BaseSeq(), g.HistoryLen())
	}
	// Reduction must not change the materialized state.
	after, _ := g.Object("o")
	if !bytes.Equal(full, after) {
		t.Fatal("Reduce changed object state")
	}
	// Reducing behind the base is a no-op.
	if n := g.Reduce(3); n != 0 {
		t.Fatalf("re-reduce trimmed %d", n)
	}
	// Reduce(0) means up to latest.
	if n := g.Reduce(0); n != 4 {
		t.Fatalf("Reduce(0) trimmed %d, want 4", n)
	}
	if g.HistoryLen() != 0 || g.BaseSeq() != 10 {
		t.Fatalf("after full reduce: history %d base %d", g.HistoryLen(), g.BaseSeq())
	}
	// The group keeps accepting events afterwards.
	mustApply(t, g, ev(11, wire.EventUpdate, "o", "z"))
}

// TestRestoreThenApplySuffix is how a replica or a recovering server rebuilds
// a group from an image taken at baseSeq plus the events that follow it.
func TestRestoreThenApplySuffix(t *testing.T) {
	g, err := RestoreMaterialized(Checkpointed{
		BaseSeq: 5, NextSeq: 6,
		Objects: []wire.Object{{ID: "o", Data: []byte("base")}},
	})
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, g,
		ev(6, wire.EventUpdate, "o", "+6"),
		ev(7, wire.EventUpdate, "o", "+7"),
	)
	data, _ := g.Object("o")
	if string(data) != "base+6+7" {
		t.Fatalf("restored object = %q", data)
	}
	if g.NextSeq() != 8 || g.BaseSeq() != 5 {
		t.Fatalf("NextSeq %d BaseSeq %d", g.NextSeq(), g.BaseSeq())
	}
}

func TestRestoreRejectsGappySuffix(t *testing.T) {
	g, err := RestoreMaterialized(Checkpointed{BaseSeq: 5, NextSeq: 6})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Apply(ev(9, wire.EventUpdate, "o", "x")); !errors.Is(err, ErrStaleSeq) {
		t.Errorf("gappy suffix: %v, want ErrStaleSeq", err)
	}
}

func TestCheckpointRestoreMaterialized(t *testing.T) {
	g := New()
	for i := uint64(1); i <= 8; i++ {
		mustApply(t, g, ev(i, wire.EventUpdate, "o", fmt.Sprintf("%d|", i)))
	}
	g.Reduce(5)
	cp := g.Checkpoint()

	g2, err := RestoreMaterialized(cp)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NextSeq() != g.NextSeq() || g2.BaseSeq() != g.BaseSeq() || g2.HistoryLen() != g.HistoryLen() {
		t.Fatalf("restored shape mismatch: %d/%d/%d vs %d/%d/%d",
			g2.NextSeq(), g2.BaseSeq(), g2.HistoryLen(), g.NextSeq(), g.BaseSeq(), g.HistoryLen())
	}
	a, _ := g.Object("o")
	b, _ := g2.Object("o")
	if !bytes.Equal(a, b) {
		t.Fatalf("restored object differs: %q vs %q", b, a)
	}
	// And it keeps working.
	if err := g2.Apply(ev(9, wire.EventUpdate, "o", "9|")); err != nil {
		t.Fatal(err)
	}
}

func TestRestoreMaterializedRejectsBadHistory(t *testing.T) {
	cp := Checkpointed{
		BaseSeq: 0, NextSeq: 5,
		History: []wire.Event{ev(2, wire.EventUpdate, "o", "x")}, // should be seq 4
	}
	if _, err := RestoreMaterialized(cp); !errors.Is(err, ErrStaleSeq) {
		t.Errorf("got %v, want ErrStaleSeq", err)
	}
}

func TestRestoreMaterializedZero(t *testing.T) {
	g, err := RestoreMaterialized(Checkpointed{})
	if err != nil {
		t.Fatal(err)
	}
	if g.NextSeq() != 1 {
		t.Fatalf("NextSeq = %d", g.NextSeq())
	}
}

// TestRestoreIsolation: the image may be a shared view, so isolation is the
// installer's job — a restored group owns every buffer, whatever happens to
// the image or to the group it was taken from afterwards.
func TestRestoreIsolation(t *testing.T) {
	src := New()
	mustApply(t, src, ev(1, wire.EventState, "o", "orig"), ev(2, wire.EventUpdate, "p", "hist"))
	fromView, err := RestoreMaterialized(src.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	mustApply(t, src, ev(3, wire.EventState, "o", "later"), ev(4, wire.EventUpdate, "p", "+more"))

	// A decoded image's buffers belong to whoever decoded it; scribbling on
	// them after the install must not reach the installed group.
	decoded := Checkpointed{NextSeq: 3,
		Objects: []wire.Object{{ID: "o", Data: []byte("orig")}, {ID: "p", Data: []byte("hist")}},
		History: []wire.Event{ev(1, wire.EventState, "o", "orig"), ev(2, wire.EventUpdate, "p", "hist")}}
	fromDecoded, err := RestoreMaterialized(decoded)
	if err != nil {
		t.Fatal(err)
	}
	decoded.Objects[0].Data[0] = 'X'
	decoded.History[1].Data[0] = 'X'

	for _, g := range []*Group{fromView, fromDecoded} {
		if data, _ := g.Object("o"); string(data) != "orig" {
			t.Errorf("restored object = %q: restore aliases its image", data)
		}
		if h := g.Checkpoint().History; string(h[1].Data) != "hist" {
			t.Errorf("restored history = %q: restore aliases its image", h[1].Data)
		}
	}
	// Object() must also return a copy.
	data, _ := fromView.Object("o")
	data[0] = 'Y'
	if again, _ := fromView.Object("o"); string(again) != "orig" {
		t.Error("Object aliases internal state")
	}
}

func TestDigestTracksHistory(t *testing.T) {
	g1, g2 := New(), New()
	if g1.Digest() != 0 {
		t.Fatal("fresh group has nonzero digest")
	}
	events := []wire.Event{
		ev(1, wire.EventState, "a", "x"),
		ev(2, wire.EventUpdate, "a", "y"),
		ev(3, wire.EventUpdate, "b", "z"),
	}
	for _, e := range events {
		mustApply(t, g1, e)
		mustApply(t, g2, e)
	}
	if g1.Digest() == 0 || g1.Digest() != g2.Digest() {
		t.Fatalf("same history, digests %x vs %x", g1.Digest(), g2.Digest())
	}
	// A divergent third event must produce a different digest.
	g3 := New()
	mustApply(t, g3, events[0], events[1], ev(3, wire.EventUpdate, "b", "DIFFERENT"))
	if g3.Digest() == g1.Digest() {
		t.Fatal("divergent histories share a digest")
	}
	// Reduction must not change the digest (history content unchanged).
	before := g1.Digest()
	g1.Reduce(2)
	if g1.Digest() != before {
		t.Fatal("Reduce changed the digest")
	}
	// Checkpoint/restore preserves it.
	g4, err := RestoreMaterialized(g1.Checkpoint())
	if err != nil {
		t.Fatal(err)
	}
	if g4.Digest() != before {
		t.Fatal("restore lost the digest")
	}
	// And the chain continues identically on both.
	next := ev(4, wire.EventUpdate, "a", "w")
	mustApply(t, g1, next)
	mustApply(t, g4, next)
	if g1.Digest() != g4.Digest() {
		t.Fatal("digest chains diverged after restore")
	}
}

// TestDigestEventSensitivity: every digested field changes the value, and so
// does where the object ID ends and the data begins — object IDs are arbitrary
// bytes on the wire, NUL included.
func TestDigestEventSensitivity(t *testing.T) {
	base := wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("d")}
	variants := []wire.Event{
		base,
		{Seq: 2, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("d")},
		{Seq: 1 << 56, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("d")},
		{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: []byte("d")},
		{Seq: 1, Kind: 0, ObjectID: "o", Data: []byte("d")},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "p", Data: []byte("d")},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o\x00", Data: []byte("d")},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("e")},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("d\x00")},
		// The ID/data boundary: the same bytes split two ways.
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "a\x00", Data: nil},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "a", Data: []byte{0}},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "", Data: []byte("od")},
		{Seq: 1, Kind: wire.EventUpdate, ObjectID: "od", Data: nil},
	}
	seen := map[uint64]int{}
	for i, v := range variants {
		d := DigestEvent(0, v)
		if j, dup := seen[d]; dup {
			t.Errorf("variant %d (%+v) collides with variant %d (%+v): %x", i, v, j, variants[j], d)
		}
		seen[d] = i
	}
	// The previous chain value is folded too.
	if DigestEvent(1, base) == DigestEvent(0, base) {
		t.Error("chain ignores the previous digest")
	}
	// Chaining order matters.
	a := DigestEvent(DigestEvent(0, base), variants[1])
	b := DigestEvent(DigestEvent(0, variants[1]), base)
	if a == b {
		t.Error("chain is order-insensitive")
	}
}

// TestDigestGolden pins the digest. Its values are stored in checkpoint
// records and compared between servers, so a change here is a format change:
// logs and peers from before it carry digests this build cannot match.
func TestDigestGolden(t *testing.T) {
	// xxHash64's reference vectors, seed 0: the empty input, the tail-only
	// path, and inputs long enough for the 32-byte stripes.
	for _, v := range []struct {
		in   string
		want uint64
	}{
		{"", 0xef46db3751d8e999},
		{"abc", 0x44bc2cf5ad770999},
		{"Nobody inspects the spammish repetition", 0xfbcea83c8a378bf1},
		{"Call me Ishmael. Some years ago--never mind how long precisely-", 0x02a2e85470d6fd96},
	} {
		if got := xxh64(v.in, 0); got != v.want {
			t.Errorf("xxh64(%q) = %016x, want %016x", v.in, got, v.want)
		}
		if got := xxh64([]byte(v.in), 0); got != v.want {
			t.Errorf("xxh64([]byte(%q)) = %016x, want %016x", v.in, got, v.want)
		}
	}

	data := func(n int) []byte {
		b := make([]byte, n)
		for i := range b {
			b[i] = byte(i)
		}
		return b
	}
	// One chain across every tail shape of the data, then an object ID
	// longer than the digest's 9-byte header buffer and than one stripe.
	chain := []struct {
		ev   wire.Event
		want uint64
	}{
		{wire.Event{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: data(0)}, 0x2c45eb888ae2f0f8},
		{wire.Event{Seq: 2, Kind: wire.EventUpdate, ObjectID: "o", Data: data(1)}, 0xd5a98f11324f7e55},
		{wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: data(7)}, 0x85ea71eb390b78ea},
		{wire.Event{Seq: 4, Kind: wire.EventUpdate, ObjectID: "o", Data: data(8)}, 0xeb7a28af19949c74},
		{wire.Event{Seq: 5, Kind: wire.EventState, ObjectID: "p", Data: data(31)}, 0x54afe6023faa4f0c},
		{wire.Event{Seq: 6, Kind: wire.EventUpdate, ObjectID: "p", Data: data(32)}, 0xa66452c6be56f6e5},
		{wire.Event{Seq: 7, Kind: wire.EventUpdate, ObjectID: "p", Data: data(33)}, 0x7b3d2a4cd7a1699a},
		{wire.Event{Seq: 8, Kind: wire.EventUpdate, ObjectID: "obj-1a2b", Data: data(1000)}, 0xe909cd4215a569cd},
		{wire.Event{Seq: 1 << 40, Kind: wire.EventState, ObjectID: strings.Repeat("long/object/id/", 10), Data: data(5)}, 0x45f99c7867d3b2be},
	}
	d := uint64(0)
	for i, c := range chain {
		d = DigestEvent(d, c.ev)
		if d != c.want {
			t.Errorf("chain[%d] (seq %d, %d B) = %#016x, want %#016x", i, c.ev.Seq, len(c.ev.Data), d, c.want)
		}
	}
	// Sender and Time are not digested.
	e := chain[0].ev
	e.Sender, e.Time = 42, 1700000000123456789
	if DigestEvent(0, e) != chain[0].want {
		t.Error("DigestEvent folds Sender or Time")
	}
}

// replayAll builds a Group by applying all events in order.
func replayAll(events []wire.Event) *Group {
	g := New()
	for _, e := range events {
		if err := g.Apply(e); err != nil {
			panic(err)
		}
	}
	return g
}

// TestQuickReductionEquivalence is the paper's log-reduction invariant: for
// any event sequence and any reduction point, the reduced group's
// materialized objects equal the full replay's, and snapshot + retained
// suffix restores an equivalent group.
func TestQuickReductionEquivalence(t *testing.T) {
	type step struct {
		Kind  bool // false: state, true: update
		Obj   uint8
		Data  []byte
		IsCut bool
	}
	f := func(steps []step, seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		if len(steps) > 64 {
			steps = steps[:64]
		}
		var events []wire.Event
		for i, s := range steps {
			kind := wire.EventState
			if s.Kind {
				kind = wire.EventUpdate
			}
			events = append(events, wire.Event{
				Seq:      uint64(i + 1),
				Kind:     kind,
				ObjectID: fmt.Sprintf("o%d", s.Obj%4),
				Data:     s.Data,
			})
		}
		full := replayAll(events)

		reduced := replayAll(events)
		if len(events) > 0 {
			cut := uint64(rng.Intn(len(events)+1)) + 1 // may exceed; Reduce clamps
			reduced.Reduce(cut)
		}
		if !reflect.DeepEqual(full.Objects(), reduced.Objects()) {
			return false
		}

		// checkpoint + restore equivalence
		g2, err := RestoreMaterialized(reduced.Checkpoint())
		if err != nil {
			return false
		}
		return reflect.DeepEqual(reduced.Objects(), g2.Objects()) &&
			g2.NextSeq() == reduced.NextSeq() &&
			g2.HistoryLen() == reduced.HistoryLen()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestQuickLastNPlusBaseRebuild checks that a LastN transfer is coherent:
// an object rebuilt from a full transfer equals one rebuilt from any
// suffix applied on top of the full state at the suffix's base.
func TestQuickLastNPlusBaseRebuild(t *testing.T) {
	f := func(datas [][]byte, n uint8) bool {
		if len(datas) > 40 {
			datas = datas[:40]
		}
		var events []wire.Event
		for i, d := range datas {
			events = append(events, wire.Event{
				Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o", Data: d,
			})
		}
		full := replayAll(events)
		tr, err := full.Capture(wire.TransferPolicy{Mode: wire.TransferLastN, LastN: uint32(n)})
		if err != nil {
			return false
		}
		suffix, base := tr.Events(), tr.BaseSeq()
		// Rebuild: replay the prefix up to base, then apply the suffix.
		prefix := replayAll(events[:base])
		for _, e := range suffix {
			if err := prefix.Apply(e); err != nil {
				return false
			}
		}
		return reflect.DeepEqual(prefix.Objects(), full.Objects())
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// BenchmarkApplyUpdate1000 applies the benchmark workload's event shape
// (benchmark/gen.go): eight objects, each taking fifteen 1000 B updates and
// then one 1000 B state that replaces them.
func BenchmarkApplyUpdate1000(b *testing.B) {
	const objects, cycle, size = 8, 16, 1000
	ids := make([]string, objects)
	for i := range ids {
		ids[i] = fmt.Sprintf("obj-%04x", i)
	}
	data := make([]byte, size)
	g := New()
	b.SetBytes(size)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		e := wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: ids[i/cycle%objects], Data: data}
		if i%cycle == cycle-1 {
			e.Kind = wire.EventState
		}
		if err := g.Apply(e); err != nil {
			b.Fatal(err)
		}
		if g.HistoryLen() > 1024 {
			g.Reduce(0)
		}
	}
}

// BenchmarkApplyRun rebuilds a group the way cold recovery does, on the
// recover_cold shape: 4000 events of 1000 B, each object taking fifteen
// updates and then one state, over eight objects and over 250 (each then
// touched by one cycle). "event" applies them one at a time, "run" as one
// ApplyRun.
func BenchmarkApplyRun(b *testing.B) {
	const events, cycle, size = 4000, 16, 1000
	data := make([]byte, size)
	for _, objects := range []int{8, 250} {
		evs := make([]wire.Event, events)
		for i := range evs {
			evs[i] = wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("obj-%04x", i/cycle%objects), Data: data}
			if i%cycle == cycle-1 {
				evs[i].Kind = wire.EventState
			}
		}
		for _, bc := range []struct {
			name  string
			apply func(g *Group) error
		}{
			{"event", func(g *Group) error {
				for _, e := range evs {
					if err := g.Apply(e); err != nil {
						return err
					}
				}
				return nil
			}},
			{"run", func(g *Group) error {
				_, err := g.ApplyRun(evs)
				return err
			}},
		} {
			b.Run(fmt.Sprintf("objects=%d/%s", objects, bc.name), func(b *testing.B) {
				b.SetBytes(events * size)
				var before, after runtime.MemStats
				runtime.ReadMemStats(&before)
				for i := 0; i < b.N; i++ {
					if err := bc.apply(New()); err != nil {
						b.Fatal(err)
					}
				}
				runtime.ReadMemStats(&after)
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
				b.ReportMetric(float64(after.Mallocs-before.Mallocs)/float64(b.N*events), "allocs/event")
			})
		}
	}
}

var digestSink uint64

func BenchmarkDigestEvent(b *testing.B) {
	e := wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "obj-0001", Data: make([]byte, 1000)}
	b.SetBytes(int64(len(e.Data)))
	d := uint64(0)
	for i := 0; i < b.N; i++ {
		d = DigestEvent(d, e)
	}
	digestSink = d
}

// appendStream applies one 1000 B state and then 1023 updates of 1000 B to
// object "o" of g, which must expect sequence 1, and calls step, if not nil,
// with the object's buffer after each event.
func appendStream(t testing.TB, g *Group, step func(obj []byte)) {
	data := make([]byte, 1000)
	for i := 0; i < 1024; i++ {
		e := wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o", Data: data}
		if i == 0 {
			e.Kind = wire.EventState
		}
		if err := g.Apply(e); err != nil {
			t.Fatal(err)
		}
		if step != nil {
			step(g.objects["o"])
		}
	}
}

// TestUpdateGrowthIsGeometric: an object built by appends is reallocated
// O(log n) times, and its spare capacity stays within one length plus one
// update (and the allocator's size-class rounding: at most an eighth below
// 32 KiB, one 8 KiB page above).
func TestUpdateGrowthIsGeometric(t *testing.T) {
	reallocs, lastCap := 0, -1
	appendStream(t, New(), func(obj []byte) {
		if cap(obj) != lastCap {
			reallocs++
			lastCap = cap(obj)
		}
		limit := 2*len(obj) + 1000
		if cap(obj) > limit+limit/8+8<<10 {
			t.Fatalf("len %d: cap %d exceeds 2·len + len(update) = %d", len(obj), cap(obj), limit)
		}
	})
	if reallocs > 12 {
		t.Fatalf("1024 appends of 1000 B reallocated the object %d times, want ≤ 12", reallocs)
	}
	t.Logf("1024 appends of 1000 B: %d object buffers", reallocs)
}

// TestApplyAllocations is Apply's allocation budget: the history's copy of the
// event, plus an object buffer only when an update does not fit.
func TestApplyAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	g := New()
	mustApply(t, g, ev(1, wire.EventState, "o", strings.Repeat("x", 1000)), ev(2, wire.EventUpdate, "o", strings.Repeat("y", 1000)))
	// The update grew the object to room for at least 1000 more bytes;
	// the 101 updates below take 808. Growing the history slice is not
	// what is measured.
	g.history = slices.Grow(g.history, 200)
	capBefore := cap(g.objects["o"])
	small := []byte("12345678")
	allocs := testing.AllocsPerRun(100, func() {
		mustApply(t, g, wire.Event{Seq: g.NextSeq(), Kind: wire.EventUpdate, ObjectID: "o", Data: small})
	})
	if cap(g.objects["o"]) != capBefore {
		t.Fatalf("object grew from cap %d to %d: the updates did not fit", capBefore, cap(g.objects["o"]))
	}
	if allocs != 1 {
		t.Errorf("an update that fits allocates %.0f times, want 1 (Apply's copy for the history)", allocs)
	}
	// ApplyRun adopts the event's Data: the same update, to a second object
	// set up the same way, allocates nothing.
	mustApply(t, g, ev(g.NextSeq(), wire.EventState, "p", strings.Repeat("x", 1000)), ev(g.NextSeq()+1, wire.EventUpdate, "p", strings.Repeat("y", 1000)))
	g.history = slices.Grow(g.history, 200)
	capBefore = cap(g.objects["p"])
	run := make([]wire.Event, 1)
	allocs = testing.AllocsPerRun(100, func() {
		run[0] = wire.Event{Seq: g.NextSeq(), Kind: wire.EventUpdate, ObjectID: "p", Data: small}
		if n, err := g.ApplyRun(run); n != 1 || err != nil {
			t.Fatalf("ApplyRun = %d, %v", n, err)
		}
	})
	if cap(g.objects["p"]) != capBefore {
		t.Fatalf("object grew from cap %d to %d: the updates did not fit", capBefore, cap(g.objects["p"]))
	}
	if allocs != 0 {
		t.Errorf("a one-event ApplyRun update that fits allocates %.0f times, want 0", allocs)
	}

	// AllocsPerRun runs the stream once to warm up, then once measured.
	groups := []*Group{New(), New()}
	for _, g := range groups {
		g.history = make([]wire.Event, 0, 1024)
	}
	allocs = testing.AllocsPerRun(1, func() {
		appendStream(t, groups[0], nil)
		groups = groups[1:]
	})
	if allocs > 1024+12 {
		t.Errorf("a 1024-event append stream allocates %.0f times, want ≤ 1024 history clones + 12 object buffers", allocs)
	}
}

func TestCaptureObjectsAfterReduce(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "a", "A"),
		ev(2, wire.EventUpdate, "a", "+"),
		ev(3, wire.EventState, "b", "B"),
	)
	g.Reduce(0)
	objs, events, base := capture(t, g, wire.TransferPolicy{Mode: wire.TransferObjects, Objects: []string{"a"}})
	if len(events) != 0 {
		t.Fatalf("events=%d", len(events))
	}
	if base != 3 || len(objs) != 1 || string(objs[0].Data) != "A+" {
		t.Fatalf("objs=%+v base=%d", objs, base)
	}
}

// TestQuickResumeEqualsSuffix: for any history and any valid resume point,
// a resume capture is exactly the suffix of the full event sequence.
func TestQuickResumeEqualsSuffix(t *testing.T) {
	f := func(datas [][]byte, fromRaw uint8) bool {
		if len(datas) > 30 {
			datas = datas[:30]
		}
		g := New()
		var all []wire.Event
		for i, d := range datas {
			e := wire.Event{Seq: uint64(i + 1), Kind: wire.EventUpdate, ObjectID: "o", Data: d}
			if err := g.Apply(e); err != nil {
				return false
			}
			all = append(all, e)
		}
		from := uint64(fromRaw)%uint64(len(datas)+1) + 1 // 1 … nextSeq
		got, err := resume(g, from)
		if err != nil {
			return false
		}
		var want []wire.Event
		for _, e := range all {
			if e.Seq >= from {
				want = append(want, e)
			}
		}
		if len(got) != len(want) {
			return false
		}
		for i := range got {
			if got[i].Seq != want[i].Seq || !bytes.Equal(got[i].Data, want[i].Data) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// TestCaptureStableUnderMutation is the copy-on-write contract: a captured
// Transfer must keep returning the bytes that were current at capture time
// even while the group keeps applying overwrites and appends.
func TestCaptureStableUnderMutation(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "a", "alpha"),
		ev(2, wire.EventState, "b", "beta|"),
	)
	tr, err := g.Capture(wire.FullTransfer)
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	// Overwrite a, append to b, create c, and reduce the log — none of it
	// may show through the captured view.
	mustApply(t, g,
		ev(3, wire.EventState, "a", "ALPHA2"),
		ev(4, wire.EventUpdate, "b", "more"),
		ev(5, wire.EventState, "c", "new"),
	)
	g.Reduce(0)
	objs := tr.Objects()
	if len(objs) != 2 {
		t.Fatalf("captured %d objects, want 2", len(objs))
	}
	want := map[string]string{"a": "alpha", "b": "beta|"}
	for _, o := range objs {
		if string(o.Data) != want[o.ID] {
			t.Errorf("captured %q = %q, want %q", o.ID, o.Data, want[o.ID])
		}
	}
	if tr.NextSeq() != 3 || tr.BaseSeq() != 2 {
		t.Errorf("seqs = next %d base %d, want 3/2", tr.NextSeq(), tr.BaseSeq())
	}
	if got, want := tr.PayloadBytes(), uint64(len("a")+len("alpha")+len("b")+len("beta|")); got != want {
		t.Errorf("PayloadBytes = %d, want %d", got, want)
	}

	// Appends inside the object's spare capacity write into the buffer a
	// view shares, beyond the view's length; appends across a growth move
	// the object. Neither may show through a view taken before them.
	appends := []struct {
		data  string
		grows bool
	}{{"+grows-now|", true}, {"+fits", false}, {"+grows-again|", true}, {"+", false}}
	var views []Transfer
	var wants []string
	for i, a := range appends {
		view, err := g.Capture(wire.FullTransfer)
		if err != nil {
			t.Fatalf("Capture: %v", err)
		}
		views = append(views, view)
		wants = append(wants, string(g.objects["b"]))
		before := cap(g.objects["b"])
		mustApply(t, g, ev(g.NextSeq(), wire.EventUpdate, "b", a.data))
		if grew := cap(g.objects["b"]) != before; grew != a.grows {
			t.Fatalf("append %d (%q) grew the object: %v, want %v", i, a.data, grew, a.grows)
		}
	}
	for i, view := range views {
		for _, o := range view.Objects() {
			if o.ID == "b" && string(o.Data) != wants[i] {
				t.Errorf("view %d: b = %q, want %q", i, o.Data, wants[i])
			}
		}
	}
}

// TestCaptureLastNStableUnderReduce: a last-N capture shares a history
// subslice; Reduce replaces g.history, so the shared slice must survive.
func TestCaptureLastNStableUnderReduce(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "base"),
		ev(2, wire.EventUpdate, "o", "u1"),
		ev(3, wire.EventUpdate, "o", "u2"),
	)
	tr, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 2})
	if err != nil {
		t.Fatalf("Capture: %v", err)
	}
	mustApply(t, g, ev(4, wire.EventUpdate, "o", "u3"))
	g.Reduce(0)
	evs := tr.Events()
	if len(evs) != 2 || evs[0].Seq != 2 || evs[1].Seq != 3 {
		t.Fatalf("captured events = %+v, want seqs 2,3", evs)
	}
	if string(evs[0].Data) != "u1" || string(evs[1].Data) != "u2" {
		t.Errorf("captured data = %q,%q", evs[0].Data, evs[1].Data)
	}
	if tr.BaseSeq() != 1 {
		t.Errorf("BaseSeq = %d, want 1", tr.BaseSeq())
	}
}

func TestCaptureResumeGap(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "a"),
		ev(2, wire.EventUpdate, "o", "b"),
	)
	g.Reduce(1)
	_, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 1})
	if !errors.Is(err, ErrSeqGap) {
		t.Fatalf("Capture(resume from 1) err = %v, want ErrSeqGap", err)
	}
}

func TestCaptureResumeBeyondNextSeq(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "a"),
		ev(2, wire.EventUpdate, "o", "b"),
	)
	// A cursor past the sequencer is malformed, not a reduced-away suffix:
	// the error must NOT be ErrSeqGap, so callers do not fall back to a
	// full transfer but reject the join.
	_, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 500})
	if err == nil {
		t.Fatal("Capture(resume from 500) succeeded, want error")
	}
	if errors.Is(err, ErrSeqGap) {
		t.Fatalf("Capture(resume from 500) err = %v, must not be ErrSeqGap", err)
	}
	// The boundary itself is legal: resuming from nextSeq is an empty
	// suffix (a fully caught-up reconnect).
	tr, err := g.Capture(wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 3})
	if err != nil {
		t.Fatalf("Capture(resume from nextSeq) err = %v", err)
	}
	if len(tr.Events()) != 0 || tr.NextSeq() != 3 {
		t.Fatalf("caught-up resume = %d events, next %d", len(tr.Events()), tr.NextSeq())
	}
}

func TestCheckpointRoundTrip(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "a", "base"),
		ev(2, wire.EventUpdate, "a", "+u"),
		ev(3, wire.EventState, "b", "other"),
	)
	cp := g.Checkpoint()
	if cp.Digest != g.Digest() || cp.NextSeq != g.NextSeq() || cp.BaseSeq != g.BaseSeq() {
		t.Fatalf("image (base %d, next %d, digest %x) != group (%d, %d, %x)",
			cp.BaseSeq, cp.NextSeq, cp.Digest, g.BaseSeq(), g.NextSeq(), g.Digest())
	}
	if len(cp.History) != 3 || len(cp.Objects) != 2 || cp.Objects[0].ID != "a" || cp.Objects[1].ID != "b" {
		t.Fatalf("image = %+v", cp)
	}
	restored, err := RestoreMaterialized(cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != g.Digest() || restored.NextSeq() != g.NextSeq() {
		t.Fatalf("restored (seq %d, digest %x) != source (seq %d, digest %x)",
			restored.NextSeq(), restored.Digest(), g.NextSeq(), g.Digest())
	}
	if !reflect.DeepEqual(restored.Objects(), g.Objects()) {
		t.Fatalf("restored objects = %+v, want %+v", restored.Objects(), g.Objects())
	}
}

// TestCheckpointStableUnderMutation is the COW contract for the full image:
// it shares the live buffers, and nothing applied or reduced after it was
// taken may show through.
func TestCheckpointStableUnderMutation(t *testing.T) {
	g := New()
	mustApply(t, g,
		ev(1, wire.EventState, "o", "v1"),
		ev(2, wire.EventState, "log", "l|"),
	)
	cp := g.Checkpoint()
	mustApply(t, g,
		ev(3, wire.EventState, "o", "v2"),
		ev(4, wire.EventUpdate, "log", "more"),
		ev(5, wire.EventState, "new", "n"),
	)
	g.Reduce(0)
	if cp.NextSeq != 3 || len(cp.History) != 2 || cp.History[1].Seq != 2 {
		t.Fatalf("image moved: next %d, history %+v", cp.NextSeq, cp.History)
	}
	want := []wire.Object{{ID: "log", Data: []byte("l|")}, {ID: "o", Data: []byte("v1")}}
	if !reflect.DeepEqual(cp.Objects, want) {
		t.Fatalf("image objects = %+v, want %+v", cp.Objects, want)
	}
	restored, err := RestoreMaterialized(cp)
	if err != nil {
		t.Fatal(err)
	}
	if restored.Digest() != cp.Digest {
		t.Fatalf("restored digest %x, image said %x", restored.Digest(), cp.Digest)
	}

	// Images taken before appends that fit the spare capacity and before
	// appends that grow the object keep their bytes either way.
	var images []Checkpointed
	var wants []string
	for i, a := range []struct {
		data  string
		grows bool
	}{{"+", false}, {"+grows-now|", true}, {"+fits", false}, {"+grows-again|", true}} {
		images = append(images, g.Checkpoint())
		wants = append(wants, string(g.objects["log"]))
		before := cap(g.objects["log"])
		mustApply(t, g, ev(g.NextSeq(), wire.EventUpdate, "log", a.data))
		if grew := cap(g.objects["log"]) != before; grew != a.grows {
			t.Fatalf("append %d (%q) grew the object: %v, want %v", i, a.data, grew, a.grows)
		}
	}
	for i, img := range images {
		if got := string(img.Objects[0].Data); img.Objects[0].ID != "log" || got != wants[i] {
			t.Errorf("image %d: %s = %q, want log = %q", i, img.Objects[0].ID, got, wants[i])
		}
	}
	// An append to the view must not land in the live history's backing
	// array (the group has spare capacity there after Apply's appends).
	g2 := New()
	mustApply(t, g2, ev(1, wire.EventState, "o", "a"), ev(2, wire.EventState, "o", "b"), ev(3, wire.EventState, "o", "c"))
	view := g2.Checkpoint().History
	_ = append(view, ev(99, wire.EventState, "o", "stray"))
	mustApply(t, g2, ev(4, wire.EventState, "o", "d"))
	if h := g2.Checkpoint().History; h[3].Seq != 4 {
		t.Fatalf("append to a view reached the live history: %+v", h[3])
	}
}

// TestCheckpointAllocatesNoStateBytes: the image of a group holding 8 MiB of
// objects and 1,000 retained events is a view — it allocates the object index
// and nothing proportional to the state.
func TestCheckpointAllocatesNoStateBytes(t *testing.T) {
	g := New()
	seq := uint64(0)
	for i := 0; i < 8; i++ {
		seq++
		mustApply(t, g, wire.Event{Seq: seq, Kind: wire.EventState, ObjectID: fmt.Sprintf("o%d", i), Data: make([]byte, 1<<20)})
	}
	g.Reduce(0)
	for i := 0; i < 1000; i++ {
		seq++
		mustApply(t, g, wire.Event{Seq: seq, Kind: wire.EventUpdate, ObjectID: "log", Data: make([]byte, 256)})
	}
	stateBytes := uint64(8<<20 + 1000*256)
	var sink Checkpointed
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { sink = g.Checkpoint() })
	runtime.ReadMemStats(&after)
	perRun := (after.TotalAlloc - before.TotalAlloc) / (runs + 1) // AllocsPerRun warms up once
	if len(sink.Objects) != 9 || len(sink.History) != 1000 {
		t.Fatalf("image has %d objects, %d events", len(sink.Objects), len(sink.History))
	}
	if perRun > stateBytes/100 {
		t.Fatalf("Checkpoint allocates %d bytes per image of %d state bytes (>1%%)", perRun, stateBytes)
	}
	if allocs > 8 {
		t.Fatalf("Checkpoint makes %.0f allocations, want a handful (the object index)", allocs)
	}
}
