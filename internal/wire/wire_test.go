package wire

import (
	"bytes"
	"errors"
	"math"
	"os"
	"reflect"
	"regexp"
	"testing"
	"testing/quick"
)

// roundTrip marshals msg, unmarshals the bytes, and requires deep equality.
func roundTrip(t *testing.T, msg Message) {
	t.Helper()
	data := Marshal(nil, msg)
	got, err := Unmarshal(data)
	if err != nil {
		t.Fatalf("Unmarshal(%s): %v", msg.Kind(), err)
	}
	if !reflect.DeepEqual(msg, got) {
		t.Fatalf("%s round trip mismatch:\n want %#v\n got  %#v", msg.Kind(), msg, got)
	}
}

func sampleEvent(seq uint64) Event {
	return Event{
		Seq:      seq,
		Kind:     EventUpdate,
		ObjectID: "canvas",
		Data:     []byte{1, 2, 3, 4},
		Sender:   42,
		Time:     1234567890,
	}
}

// clientRoundTrips and clusterRoundTrips are the round-trip samples of the
// two kind ranges. Together they must hold every registered kind
// (TestRoundTripTablesCoverEveryKind), so a message cannot lose its sample
// and stay on the wire.
var clientRoundTrips = []Message{
	&Hello{RequestID: 1, Proto: ProtocolVersion, Name: "alice"},
	&HelloAck{RequestID: 1, ClientID: 7, ServerID: 3},
	&CreateGroup{RequestID: 2, Group: "g", Persistent: true, Initial: []Object{{ID: "o1", Data: []byte("x")}, {ID: "o2"}}},
	&CreateGroupAck{RequestID: 2},
	&DeleteGroup{RequestID: 3, Group: "g"},
	&DeleteGroupAck{RequestID: 3},
	&Join{
		RequestID: 4, Group: "g",
		Policy: TransferPolicy{Mode: TransferObjects, Objects: []string{"a", "b"}},
		Role:   RoleObserver, Notify: true, CreateIfMissing: true,
	},
	&Join{RequestID: 5, Group: "g", Policy: TransferPolicy{Mode: TransferLastN, LastN: 10}, Role: RolePrincipal},
	&Join{RequestID: 6, Group: "g", Policy: TransferPolicy{Mode: TransferResume, FromSeq: 99}, Role: RolePrincipal},
	&JoinAck{
		RequestID: 4, Group: "g", NextSeq: 11, BaseSeq: 5,
		Objects: []Object{{ID: "a", Data: []byte("aa")}},
		Events:  []Event{sampleEvent(6), sampleEvent(7)},
		Members: []MemberInfo{{ClientID: 1, Name: "alice", Role: RolePrincipal}},
	},
	&JoinAck{
		RequestID: 5, Group: "g", NextSeq: 100, BaseSeq: 99, Digest: 0xFEED,
		Members:   []MemberInfo{{ClientID: 1, Name: "alice", Role: RolePrincipal}},
		Streaming: true,
	},
	&TransferChunk{RequestID: 5, Group: "g", Offset: 512, Total: 4096, Data: []byte("chunkbytes")},
	&TransferDone{RequestID: 5, Group: "g", Bytes: 4096},
	&Leave{RequestID: 8, Group: "g"},
	&LeaveAck{RequestID: 8},
	&GetMembership{RequestID: 9, Group: "g"},
	&MembershipInfo{RequestID: 9, Group: "g", Members: []MemberInfo{{ClientID: 2, Name: "bob", Role: RoleObserver}}},
	&MembershipNotify{Group: "g", Change: MemberCrashed, Member: MemberInfo{ClientID: 2, Name: "bob", Role: RoleObserver}, Count: 3},
	&Bcast{RequestID: 10, Group: "g", EvKind: EventState, ObjectID: "o", Data: []byte("payload"), SenderInclusive: true},
	&BcastAck{RequestID: 10, Seq: 77},
	&Deliver{Group: "g", Event: sampleEvent(77)},
	&LockAcquire{RequestID: 11, Group: "g", Name: "cursor", Wait: true},
	&LockRelease{RequestID: 12, Group: "g", Name: "cursor"},
	&LockReply{RequestID: 11, Granted: false, Holder: 9},
	&ReduceLog{RequestID: 13, Group: "g", UpToSeq: 50},
	&ReduceLogAck{RequestID: 13, BaseSeq: 50, Trimmed: 49},
	&ListGroups{RequestID: 14},
	&GroupList{RequestID: 14, Groups: []string{"g", "h"}},
	&Ping{Nonce: 123},
	&Pong{Nonce: 123},
	&DeliverBatch{Group: "g", Events: []Event{sampleEvent(77), sampleEvent(78)}},
	&ErrorMsg{RequestID: 15, Code: CodeNoSuchGroup, Text: "no such group"},
}

func TestRoundTripClientMessages(t *testing.T) {
	for _, m := range clientRoundTrips {
		roundTrip(t, m)
	}
}

var clusterRoundTrips = []Message{
	&SHello{RequestID: 1, Proto: ProtocolVersion, ServerID: 2, Addr: "127.0.0.1:9000", Epoch: 3},
	&SHelloAck{
		RequestID: 1, CoordinatorID: 1, Epoch: 3, BootOrder: 2,
		Servers: []ServerInfo{{ID: 1, Addr: "a", BootOrder: 0}, {ID: 2, Addr: "b", BootOrder: 1}},
	},
	&SForward{Origin: 2, Group: "g", Event: sampleEvent(0), SenderInclusive: true, RequestID: 4},
	&SDistribute{Group: "g", Event: sampleEvent(8), SenderInclusive: false, Origin: 2, RequestID: 4},
	&SInterest{ServerID: 2, Group: "g", Interested: true, Backup: true},
	&SMemberUpdate{ServerID: 2, Group: "g", Change: MemberJoined, Member: MemberInfo{ClientID: 3, Name: "c", Role: RolePrincipal}},
	&SMemberUpdate{
		ServerID: 2, Group: "g", Change: MemberLeft, Member: MemberInfo{ClientID: 3, Name: "c"},
		Members: []MemberInfo{{ClientID: 4, Name: "d", Role: RoleObserver}},
	},
	&SMemberUpdate{ServerID: 2, Group: "g", Change: MemberJoined, Member: MemberInfo{ClientID: 3}, Code: CodeNoSuchGroup},
	&SHeartbeat{ServerID: 2, Epoch: 3, Time: 42, Load: LoadReport{Groups: 4, Sessions: 17, Bcasts: 8192}},
	&SServerList{CoordinatorID: 1, Epoch: 3, Servers: []ServerInfo{{ID: 1, Addr: "a"}}},
	&SElect{Proto: ProtocolVersion, CandidateID: 2, Epoch: 4, Addr: "127.0.0.1:9001"},
	&SElectReply{VoterID: 3, CandidateID: 2, Epoch: 4, Ack: true},
	&SStateRequest{RequestID: 5, Group: "g"},
	&SStateResponse{
		RequestID: 5, Group: "g", OK: true, Persistent: true,
		NextSeq: 12, SourceID: 3, SourceAddr: "127.0.0.1:9002",
	},
	&SStateResponse{RequestID: 5, Group: "g", Code: CodeNoSuchGroup},
	&SGroupOp{RequestID: 6, Origin: 2, Op: GroupOpCreate, Group: "g", Persistent: true, Initial: []Object{{ID: "o"}}},
	&SGroupOpAck{RequestID: 6, OK: false, Code: CodeGroupExists, Text: "exists"},
	&SSeqReport{ServerID: 2, Groups: []GroupSeq{
		{
			Group: "g", NextSeq: 12, Digest: 0xDEADBEEF, Persistent: true, Backup: true,
			Members: []MemberInfo{{ClientID: 3, Name: "c", Role: RolePrincipal}, {ClientID: 4, Name: "d", Role: RoleObserver}},
		},
		{Group: "h", NextSeq: 1},
	}},
	&SDivergence{Group: "g", Resolution: ResolutionFork, ForkName: "g.fork-2"},
	&SDivergence{Group: "g", Resolution: ResolutionRollback},
	&SGroupsQuery{RequestID: 8},
	&SGroupsReport{RequestID: 8, Groups: []string{"a", "b"}},
}

func TestRoundTripClusterMessages(t *testing.T) {
	for _, m := range clusterRoundTrips {
		roundTrip(t, m)
	}
}

// TestRoundTripTablesCoverEveryKind keeps the two tables honest: each holds
// only its own range, and between them every registered kind has a sample.
func TestRoundTripTablesCoverEveryKind(t *testing.T) {
	sampled := make(map[Kind]bool)
	for _, m := range clientRoundTrips {
		if m.Kind() >= KindSHello {
			t.Errorf("client table holds server kind %s", m.Kind())
		}
		sampled[m.Kind()] = true
	}
	for _, m := range clusterRoundTrips {
		if m.Kind() < KindSHello {
			t.Errorf("cluster table holds client kind %s", m.Kind())
		}
		sampled[m.Kind()] = true
	}
	for k, e := range kinds {
		if e.new != nil && !sampled[Kind(k)] {
			t.Errorf("kind %s has no round-trip sample", Kind(k))
		}
	}
}

// TestProtocolDocNamesEveryServerKind: PROTOCOL.md is the wire reference, so
// every server↔server message must at least be named there.
func TestProtocolDocNamesEveryServerKind(t *testing.T) {
	doc, err := os.ReadFile("../../PROTOCOL.md")
	if err != nil {
		t.Fatal(err)
	}
	for k, e := range kinds {
		if e.new != nil && Kind(k) >= KindSHello && !regexp.MustCompile(`\b`+e.name+`\b`).Match(doc) {
			t.Errorf("PROTOCOL.md never mentions %s", e.name)
		}
	}
}

func TestUnmarshalErrors(t *testing.T) {
	if _, err := Unmarshal(nil); err == nil {
		t.Error("Unmarshal(nil): want error")
	}
	if _, err := Unmarshal([]byte{0xFF}); err == nil {
		t.Error("Unmarshal(unknown kind): want error")
	}
	// Truncated body: a JoinAck cut short must error, not panic.
	full := Marshal(nil, &JoinAck{RequestID: 1, Group: "g", Objects: []Object{{ID: "o", Data: []byte("abc")}}})
	for i := 1; i < len(full); i++ {
		if _, err := Unmarshal(full[:i]); err == nil {
			t.Errorf("Unmarshal(truncated to %d bytes): want error", i)
		}
	}
	// A code wider than ErrCode's 16 bits is refused, not truncated to
	// another code (65537 would read as CodeNoSuchGroup).
	c := NewWriter([]byte{byte(KindError)})
	id, code, text := uint64(1), uint64(65537), "x"
	c.Uvarint(&id)
	c.Uvarint(&code)
	c.String(&text)
	if m, err := Unmarshal(c.Written()); !errors.Is(err, ErrFieldTooBig) {
		t.Errorf("Unmarshal(Error with code 65537) = %+v, %v; want ErrFieldTooBig", m, err)
	}
	// A frame must end where its message does.
	deliver := Marshal(nil, &Deliver{Group: "g", Event: sampleEvent(1)})
	if m, err := Unmarshal(append(deliver, 0, 0)); err == nil {
		t.Errorf("Unmarshal(Deliver with 2 trailing bytes) = %+v; want error", m)
	}
}

func TestUnmarshalCopiesData(t *testing.T) {
	payload := []byte("mutate-me")
	data := Marshal(nil, &Bcast{RequestID: 1, Group: "g", EvKind: EventState, ObjectID: "o", Data: payload})
	msg, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	for i := range data {
		data[i] = 0
	}
	b, ok := msg.(*Bcast)
	if !ok {
		t.Fatalf("got %T, want *Bcast", msg)
	}
	if !bytes.Equal(b.Data, payload) {
		t.Errorf("decoded data aliases input buffer: got %q", b.Data)
	}
}

// TestUnmarshalChunkAliasesData: TransferChunk is the one kind whose read
// does not copy its body. A decoded chunk keeps its header fields, and its
// Data is the input's own bytes.
func TestUnmarshalChunkAliasesData(t *testing.T) {
	sent := &TransferChunk{RequestID: 5, Group: "g", Offset: 512, Total: 4096, Data: []byte("chunkbytes")}
	data := Marshal(nil, sent)
	msg, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(msg, sent) {
		t.Fatalf("got %#v, want %#v", msg, sent)
	}
	if got := msg.(*TransferChunk).Data; &got[0] != &data[len(data)-len(got)] {
		t.Error("decoded Data is a copy; want it to alias the input buffer")
	}
}

func TestDecoderHostileLengths(t *testing.T) {
	// A huge element count with a tiny buffer must fail cleanly.
	c := NewWriter([]byte{byte(KindJoinAck)})
	id, group, next, base, digest, lie := uint64(1), "g", uint64(1), uint64(0), uint64(0), uint64(math.MaxUint32+1)
	c.Uvarint(&id)
	c.String(&group)
	c.Uvarint(&next)
	c.Uvarint(&base)
	c.Uint64(&digest)
	c.Uvarint(&lie) // object count
	if _, err := Unmarshal(c.Written()); err == nil {
		t.Error("hostile object count: want error")
	}
}

func TestEncoderPrimitivesRoundTrip(t *testing.T) {
	type fields struct {
		b    byte
		t, f bool
		u    uint64
		v    int64
		u32  uint32
		u64  uint64
		code ErrCode
		bs   []byte
		s    string
		ss   []string
	}
	code := func(c *Codec, x *fields) {
		Byte(c, &x.b)
		c.Bool(&x.t)
		c.Bool(&x.f)
		c.Uvarint(&x.u)
		c.Varint(&x.v)
		c.Uint32(&x.u32)
		c.Uint64(&x.u64)
		Narrow(c, &x.code)
		c.ByteCopy(&x.bs)
		c.String(&x.s)
		List(c, &x.ss, codeString)
	}
	in := fields{7, true, false, 1 << 40, -12345, 0xDEADBEEF, math.MaxUint64, CodeNotDurable, []byte("bytes"), "string", []string{"a", "bc"}}
	w := NewWriter(nil)
	code(w, &in)

	var out fields
	r := NewReader(w.Written())
	code(r, &out)
	if r.Err() != nil {
		t.Fatalf("Err = %v", r.Err())
	}
	if !reflect.DeepEqual(in, out) {
		t.Errorf("round trip:\n in  %+v\n out %+v", in, out)
	}
	if r.Remaining() != 0 {
		t.Errorf("Remaining = %d, want 0", r.Remaining())
	}
}

func TestDecoderStickyError(t *testing.T) {
	c := NewReader(nil)
	var u uint64
	c.Uint64(&u) // fails
	if c.Err() == nil {
		t.Fatal("want error after reading past end")
	}
	first := c.Err()
	var s string
	c.String(&s)
	c.Uvarint(&u)
	if c.Err() != first {
		t.Errorf("error not sticky: %v != %v", c.Err(), first)
	}
}

// TestQuickEventRoundTrip property-tests Deliver (and thus Event) encoding
// over randomized field values.
func TestQuickEventRoundTrip(t *testing.T) {
	f := func(seq, sender uint64, kindBit bool, objectID string, data []byte, tstamp int64, group string) bool {
		kind := EventState
		if kindBit {
			kind = EventUpdate
		}
		in := &Deliver{Group: group, Event: Event{
			Seq: seq, Kind: kind, ObjectID: objectID, Data: data, Sender: sender, Time: tstamp,
		}}
		// The codec decodes empty data as nil; normalize for comparison.
		if len(in.Event.Data) == 0 {
			in.Event.Data = nil
		}
		out, err := Unmarshal(Marshal(nil, in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickBcastRoundTrip property-tests the hot-path request message.
func TestQuickBcastRoundTrip(t *testing.T) {
	f := func(req uint64, group, objectID string, data []byte, inclusive bool) bool {
		in := &Bcast{
			RequestID: req, Group: group, EvKind: EventUpdate,
			ObjectID: objectID, Data: data, SenderInclusive: inclusive,
		}
		if len(in.Data) == 0 {
			in.Data = nil
		}
		out, err := Unmarshal(Marshal(nil, in))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(in, out)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestQuickDecoderNeverPanics feeds random bytes to Unmarshal; it must
// return an error or a message, never panic.
func TestQuickDecoderNeverPanics(t *testing.T) {
	f := func(data []byte) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				ok = false
			}
		}()
		_, _ = Unmarshal(data)
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
		t.Error(err)
	}
}

func TestKindStrings(t *testing.T) {
	for k, e := range kinds {
		if s := Kind(k).String(); e.new != nil && (s == "" || s[0] == 'K' && s[1] == 'i') { // "Kind(n)" fallback
			t.Errorf("kind %d has no name", k)
		}
	}
	if got := Kind(250).String(); got != "Kind(250)" {
		t.Errorf("unknown kind String = %q", got)
	}
}

func TestEnumStrings(t *testing.T) {
	cases := []struct {
		got, want string
	}{
		{EventState.String(), "state"},
		{EventUpdate.String(), "update"},
		{TransferFull.String(), "full"},
		{TransferLastN.String(), "last-n"},
		{TransferObjects.String(), "objects"},
		{TransferNone.String(), "none"},
		{TransferResume.String(), "resume"},
		{RolePrincipal.String(), "principal"},
		{RoleObserver.String(), "observer"},
		{MemberJoined.String(), "joined"},
		{MemberLeft.String(), "left"},
		{MemberCrashed.String(), "crashed"},
		{CodeNoSuchGroup.String(), "no-such-group"},
		{CodeShuttingDown.String(), "shutting-down"},
	}
	for _, c := range cases {
		if c.got != c.want {
			t.Errorf("String() = %q, want %q", c.got, c.want)
		}
	}
	if !EventState.Valid() || EventKind(9).Valid() {
		t.Error("EventKind.Valid misbehaves")
	}
	if !TransferResume.Valid() || TransferMode(0).Valid() {
		t.Error("TransferMode.Valid misbehaves")
	}
	if !RoleObserver.Valid() || Role(0).Valid() {
		t.Error("Role.Valid misbehaves")
	}
}

func TestMarshalReusesBuffer(t *testing.T) {
	buf := make([]byte, 0, 256)
	msg := &Ping{Nonce: 1}
	out := Marshal(buf, msg)
	if &out[0] != &buf[:1][0] {
		t.Error("Marshal did not reuse the provided buffer")
	}
}

// TestCodecAllocations pins the codec's allocations on the hot kinds, as
// BenchmarkMarshalBcast1000 and BenchmarkUnmarshalDeliver1000 run them: a
// Marshal into a buffer with room allocates nothing, and an Unmarshal of a
// Deliver allocates the message, its group name and its data.
func TestCodecAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	bcast := &Bcast{RequestID: 1, Group: "bench", EvKind: EventUpdate, ObjectID: "o", Data: make([]byte, 1000)}
	buf := make([]byte, 0, 2048)
	if n := testing.AllocsPerRun(1000, func() { buf = Marshal(buf[:0], bcast) }); n > 0 {
		t.Errorf("Marshal of a 1000 B Bcast allocates %.1f times, want 0", n)
	}
	deliver := Marshal(nil, &Deliver{Group: "bench", Event: Event{
		Seq: 1, Kind: EventUpdate, ObjectID: "o", Data: make([]byte, 1000), Sender: 1, Time: 1,
	}})
	n := testing.AllocsPerRun(1000, func() {
		if _, err := Unmarshal(deliver); err != nil {
			t.Fatal(err)
		}
	})
	if n > 3 {
		t.Errorf("Unmarshal of a 1000 B Deliver allocates %.1f times, want at most 3", n)
	}
}

func BenchmarkMarshalBcast1000(b *testing.B) {
	msg := &Bcast{RequestID: 1, Group: "bench", EvKind: EventUpdate, ObjectID: "o", Data: make([]byte, 1000)}
	buf := make([]byte, 0, 2048)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		buf = Marshal(buf[:0], msg)
	}
}

func BenchmarkUnmarshalDeliver1000(b *testing.B) {
	data := Marshal(nil, &Deliver{Group: "bench", Event: Event{
		Seq: 1, Kind: EventUpdate, ObjectID: "o", Data: make([]byte, 1000), Sender: 1, Time: 1,
	}})
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := Unmarshal(data); err != nil {
			b.Fatal(err)
		}
	}
}
