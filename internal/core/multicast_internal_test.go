package core

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"reflect"
	"sync"
	"testing"
	"time"

	"corona/internal/transport"
	"corona/internal/wal"
	"corona/internal/wire"
)

// White-box tests of the multicast path (multicast.go), driven without TCP:
// sessions are registered over in-memory pipes and fed through the same two
// entrances the read loop uses — HandleMessage for one request,
// dispatchBcasts for a coalesced stretch.

// rigClient is a registered session plus everything the engine sent it.
type rigClient struct {
	sess *Session

	mu     sync.Mutex
	events []wire.Event             // deliveries, in arrival order
	acks   map[uint64]uint64        // request → acked seq
	nacks  map[uint64]wire.ErrorMsg // request → its (last) error reply
	errs   map[uint64]int           // request → ErrorMsg count
}

func newRigClient(t *testing.T, e *Engine, name string) *rigClient {
	t.Helper()
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	sess, err := e.AddSession(transport.NewConn(c1), name)
	if err != nil {
		t.Fatal(err)
	}
	c := &rigClient{
		sess:  sess,
		acks:  map[uint64]uint64{},
		nacks: map[uint64]wire.ErrorMsg{},
		errs:  map[uint64]int{},
	}
	peer := transport.NewConn(c2)
	go func() {
		for {
			msg, err := peer.ReadMessage()
			if err != nil {
				return
			}
			c.mu.Lock()
			switch m := msg.(type) {
			case *wire.Deliver:
				c.events = append(c.events, ownEvent(m.Event))
			case *wire.DeliverBatch:
				for _, ev := range m.Events {
					c.events = append(c.events, ownEvent(ev))
				}
			case *wire.BcastAck:
				c.acks[m.RequestID] = m.Seq
			case *wire.ErrorMsg:
				c.nacks[m.RequestID] = *m
				c.errs[m.RequestID]++
			}
			c.mu.Unlock()
		}
	}()
	return c
}

// ownEvent detaches a decoded event from the connection's read buffer and
// drops the timestamp, which differs between engines.
func ownEvent(ev wire.Event) wire.Event {
	ev.Data = bytes.Clone(ev.Data)
	ev.Time = 0
	return ev
}

func (c *rigClient) join(t *testing.T, e *Engine, group string, role wire.Role) {
	t.Helper()
	e.HandleMessage(c.sess, &wire.Join{
		RequestID: 1 << 40, Group: group, Role: role,
		Policy: wire.TransferPolicy{Mode: wire.TransferNone},
	})
	e.mu.RLock()
	g, _ := e.reg.Get(group)
	member := g != nil && g.Has(c.sess.ID)
	e.mu.RUnlock()
	if !member {
		t.Fatalf("%s did not join %s", c.sess.Name, group)
	}
}

// replied reports whether every request in ids has been answered.
func (c *rigClient) replied(ids ...uint64) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, id := range ids {
		if _, ok := c.acks[id]; ok {
			continue
		}
		if _, ok := c.nacks[id]; !ok {
			return false
		}
	}
	return true
}

func bcast(reqID uint64, kind wire.EventKind, incl bool, data string) *wire.Bcast {
	return &wire.Bcast{RequestID: reqID, Group: "g", EvKind: kind, ObjectID: "o", Data: []byte(data), SenderInclusive: incl}
}

// TestInvalidKindAnsweredOnceUnderBackpressure: a run containing one invalid
// event kind meets a full fanout ring, waits, and retries. The malformed
// request must be answered exactly once (the batch twin used to answer it
// on every attempt), and the valid requests around it still sequence.
func TestInvalidKindAnsweredOnceUnderBackpressure(t *testing.T) {
	e := newFanoutTestEngine(t, 2)
	c := newRigClient(t, e, "sender")
	c.join(t, e, "g", wire.RolePrincipal)
	waitFor(t, "join entries to drain", func() bool { return e.gRingDepth.Load() == 0 })
	ring := drainRing(t, e, 2)

	done := make(chan struct{})
	go func() {
		defer close(done)
		e.dispatchBcasts(c.sess, []*wire.Bcast{
			bcast(1, wire.EventUpdate, true, "a"),
			bcast(2, wire.EventKind(99), true, "bad"),
			bcast(3, wire.EventUpdate, true, "b"),
		})
	}()
	select {
	case <-done:
		t.Fatal("run did not block on a full ring")
	case <-time.After(50 * time.Millisecond):
	}
	ring.release()
	<-done
	// Acks ride the same pump lane behind the error replies, so once both
	// are in, every ErrorMsg of the run has been counted.
	waitFor(t, "acks", func() bool { return c.replied(1, 3) })
	c.mu.Lock()
	defer c.mu.Unlock()
	if n := c.errs[2]; n != 1 {
		t.Fatalf("invalid-kind request answered %d times, want exactly 1", n)
	}
	if c.nacks[2].Code != wire.CodeBadRequest {
		t.Fatalf("invalid-kind request got code %v, want CodeBadRequest", c.nacks[2].Code)
	}
	if c.acks[1] != 1 || c.acks[3] != 2 {
		t.Fatalf("valid requests acked at seqs %d,%d, want 1,2", c.acks[1], c.acks[3])
	}
	ring.release()
}

// TestDistributedRunRecordsLockInstruments: every caller of the path charges
// the group-lock histograms — one wait sample per run, and the hold
// amortised to one sample per event — so lock-hold quantiles on a replica
// cover distributed runs, not only runs of one.
func TestDistributedRunRecordsLockInstruments(t *testing.T) {
	e := newFanoutTestEngine(t, 8)
	const k = 5
	items := make([]DistEvent, k)
	for i := range items {
		items[i] = DistEvent{Event: distEvent(uint64(i + 1)), SenderInclusive: true}
	}
	holdBefore := e.hLockHold.Snapshot().Count
	waitBefore := e.hLockWait.Snapshot().Count
	if n, err := e.ApplyDistributed("g", items); err != nil || n != k {
		t.Fatalf("ApplyDistributed = %d, %v", n, err)
	}
	if got := e.hLockHold.Snapshot().Count - holdBefore; got != k {
		t.Fatalf("lock-hold samples for a distributed run of %d = %d", k, got)
	}
	if got := e.hLockWait.Snapshot().Count - waitBefore; got != 1 {
		t.Fatalf("lock-wait samples for one run = %d, want 1", got)
	}

	// A run longer than maxIngestBatch is one run per chunk, each charged
	// the same way.
	items = items[:0]
	for seq := uint64(k + 1); seq <= k+maxIngestBatch+3; seq++ {
		items = append(items, DistEvent{Event: distEvent(seq), SenderInclusive: true})
	}
	holdBefore = e.hLockHold.Snapshot().Count
	waitBefore = e.hLockWait.Snapshot().Count
	if n, err := e.ApplyDistributed("g", items); err != nil || n != len(items) {
		t.Fatalf("ApplyDistributed = %d, %v", n, err)
	}
	if got := e.hLockHold.Snapshot().Count - holdBefore; got != uint64(len(items)) {
		t.Fatalf("lock-hold samples for a caught-up run of %d = %d", len(items), got)
	}
	if got := e.hLockWait.Snapshot().Count - waitBefore; got != 2 {
		t.Fatalf("lock-wait samples for a run of %d = %d, want 2 (one per chunk)", len(items), got)
	}
}

// TestApplyDistributedAllocations is a replica's allocation budget for a run
// of one distributed event to a group with one local member: the state's
// copies of the event, the delivery frame and its encoding, and the pump's
// share. The run's own scratch is recycled, so it adds nothing.
func TestApplyDistributedAllocations(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's own allocations blur the budget")
	}
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	c1, c2 := net.Pipe()
	t.Cleanup(func() { c1.Close(); c2.Close() })
	go io.Copy(io.Discard, c2)
	sess, err := e.AddSession(transport.NewConn(c1), "member")
	if err != nil {
		t.Fatal(err)
	}
	e.HandleMessage(sess, &wire.Join{Group: "g", Policy: wire.TransferPolicy{Mode: wire.TransferNone}})
	data := []byte("12345678")
	run := make([]DistEvent, 1)
	seq := uint64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seq++
		run[0] = DistEvent{Event: wire.Event{Seq: seq, Kind: wire.EventState, ObjectID: "o", Data: data, Sender: 1 << 41}, SenderInclusive: true}
		if _, err := e.ApplyDistributed("g", run); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 8 {
		t.Errorf("a distributed run of one allocates %.0f times, want ≤ 8", allocs)
	}
}

// TestDistributedRunStopsAfterRejectedEvent: an event the state rejects
// in the middle of a distributed run is consumed, counted and not applied;
// the events after it no longer continue the state, so the run ends there
// with a gap, as it does at any gap.
func TestDistributedRunStopsAfterRejectedEvent(t *testing.T) {
	e, err := NewEngine(EngineConfig{Logger: quietTestLogger()})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { e.Close() })
	if err := e.CreateGroupDirect("g", false, nil); err != nil {
		t.Fatal(err)
	}
	run := []DistEvent{
		{Event: wire.Event{Seq: 1, Kind: wire.EventState, ObjectID: "o", Data: []byte("a")}},
		{Event: wire.Event{Seq: 2, Kind: wire.EventKind(99), ObjectID: "o", Data: []byte("b")}},
		{Event: wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o", Data: []byte("c")}},
	}
	consumed, err := e.ApplyDistributed("g", run)
	if consumed != 2 || !errors.Is(err, ErrSeqGap) {
		t.Fatalf("ApplyDistributed = %d, %v; want 2, a gap", consumed, err)
	}
	if n := e.mApplyErrors.Load(); n != 1 {
		t.Errorf("apply errors = %d, want 1", n)
	}
	st := e.getState("g")
	if obj, _ := st.Object("o"); st.NextSeq() != 2 || string(obj) != "a" {
		t.Errorf("state next %d, object %q; want 2, %q", st.NextSeq(), obj, "a")
	}
}

// TestLoneExclusiveSenderPushesNothing: when no local member is owed a
// delivery — the sole member multicasting sender-exclusive — the path must
// not encode a frame or push a fanout entry, for a run of one and for a
// longer run alike, and the run's ring credit comes straight back.
func TestLoneExclusiveSenderPushesNothing(t *testing.T) {
	const ringCap = 4
	e := newFanoutTestEngine(t, ringCap)
	c := newRigClient(t, e, "lone")
	c.join(t, e, "g", wire.RolePrincipal)
	waitFor(t, "join entries to drain", func() bool { return e.gRingDepth.Load() == 0 })
	pushedBefore := e.hOfflock.Snapshot().Count
	deliveredBefore := e.mDelivered.Load()

	e.HandleMessage(c.sess, bcast(1, wire.EventUpdate, false, "x"))
	run := make([]*wire.Bcast, 8)
	ids := []uint64{1}
	for i := range run {
		run[i] = bcast(uint64(10+i), wire.EventUpdate, false, "y")
		ids = append(ids, uint64(10+i))
	}
	e.dispatchBcasts(c.sess, run)
	waitFor(t, "acks", func() bool { return c.replied(ids...) })
	waitFor(t, "pipeline idle", func() bool { return e.gRingDepth.Load() == 0 })

	if got := e.hOfflock.Snapshot().Count - pushedBefore; got != 0 {
		t.Fatalf("%d fanout entries pushed for runs nobody is owed", got)
	}
	if got := e.mDelivered.Load() - deliveredBefore; got != 0 {
		t.Fatalf("engine.delivered moved by %d", got)
	}
	ring := drainRing(t, e, ringCap)
	for i := 0; i < ringCap; i++ {
		ring.release()
	}
	e.mu.RLock()
	next := e.getState("g").NextSeq()
	e.mu.RUnlock()
	if next != 10 {
		t.Fatalf("NextSeq = %d, want 10 (all nine events applied)", next)
	}
}

// equalityOutcome is everything TestRunOfOneEqualsBatch compares between
// the two feeding modes.
type equalityOutcome struct {
	Events map[string][]wire.Event
	Acks   map[string]map[uint64]uint64
	Nacks  map[string]map[uint64]wire.ErrorMsg
	Digest uint64
	// Consumed is the replica arm's total of ApplyDistributed's consumed
	// counts.
	Consumed int
}

// TestRunOfOneEqualsBatch feeds one seeded stream of Bcasts through the
// engine twice — message by message through HandleMessage, and as coalesced
// runs through dispatchBcasts — and requires identical per-receiver
// (seq → payload) sequences, identical ack/nack sets, and identical state
// digests, memory-only and persistent + SyncAlways. Its replica arm does the
// same for a coordinator-numbered stream fed through ApplyDistributed, and
// also compares the consumed counts.
func TestRunOfOneEqualsBatch(t *testing.T) {
	type step struct {
		from int // index into the clients
		msg  *wire.Bcast
	}
	const (
		alice = iota // principal sender
		bob          // principal sender
		carol        // principal receiver, never sends
		olive        // observer, whose multicasts are denied
	)
	rng := rand.New(rand.NewSource(16))
	var stream []step
	reqID := uint64(0)
	last := alice
	for i := 0; i < 400; i++ {
		reqID++
		from := alice
		if rng.Intn(3) == 0 {
			from = bob
		}
		// Senders come in stretches, as a drained read buffer would hold.
		if rng.Intn(4) != 0 {
			from = last
		}
		last = from
		kind := wire.EventUpdate
		if rng.Intn(8) == 0 {
			kind = wire.EventState
		}
		m := bcast(reqID, kind, rng.Intn(2) == 0, fmt.Sprintf("%d|", i))
		m.ObjectID = fmt.Sprintf("o%d", rng.Intn(3))
		switch i {
		case 137:
			m.EvKind = wire.EventKind(99)
		case 211:
			from = olive
		}
		stream = append(stream, step{from, m})
	}

	feed := func(t *testing.T, dir string, coalesce bool) equalityOutcome {
		cfg := EngineConfig{Logger: quietTestLogger(), Dir: dir}
		if dir != "" {
			cfg.Sync = wal.SyncAlways
		}
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		defer e.Close()
		if err := e.CreateGroupDirect("g", dir != "", nil); err != nil {
			t.Fatal(err)
		}
		names := []string{"alice", "bob", "carol", "olive"}
		clients := make([]*rigClient, len(names))
		for i, name := range names {
			clients[i] = newRigClient(t, e, name)
			role := wire.RolePrincipal
			if i == olive {
				role = wire.RoleObserver
			}
			clients[i].join(t, e, "g", role)
		}

		chunks := rand.New(rand.NewSource(61))
		for i := 0; i < len(stream); {
			if !coalesce {
				e.HandleMessage(clients[stream[i].from].sess, stream[i].msg)
				i++
				continue
			}
			// A run is a stretch of one sender's consecutive requests.
			limit := 1 + chunks.Intn(8)
			j := i
			var run []*wire.Bcast
			for j < len(stream) && stream[j].from == stream[i].from && len(run) < limit {
				run = append(run, stream[j].msg)
				j++
			}
			e.dispatchBcasts(clients[stream[i].from].sess, run)
			i = j
		}

		sent := make([][]uint64, len(clients))
		for _, st := range stream {
			sent[st.from] = append(sent[st.from], st.msg.RequestID)
		}
		for i, c := range clients {
			c := c
			ids := sent[i]
			waitFor(t, "replies to "+names[i], func() bool { return c.replied(ids...) })
		}
		e.mu.RLock()
		st := e.getState("g")
		digest, applied := st.Digest(), int(st.NextSeq()-1)
		e.mu.RUnlock()
		// Every principal sees every applied event but its own
		// sender-exclusive ones; wait until the deliveries are all in.
		owed := func(id uint64) int {
			n := applied
			for _, s := range stream {
				if clients[s.from].sess.ID == id && !s.msg.SenderInclusive && s.msg.EvKind.Valid() && s.from != olive {
					n--
				}
			}
			return n
		}
		out := equalityOutcome{
			Events: map[string][]wire.Event{},
			Acks:   map[string]map[uint64]uint64{},
			Nacks:  map[string]map[uint64]wire.ErrorMsg{},
			Digest: digest,
		}
		for i, c := range clients {
			c := c
			want := owed(c.sess.ID)
			waitFor(t, "deliveries to "+names[i], func() bool {
				c.mu.Lock()
				defer c.mu.Unlock()
				return len(c.events) >= want
			})
			c.mu.Lock()
			out.Events[names[i]] = c.events
			out.Acks[names[i]] = c.acks
			out.Nacks[names[i]] = c.nacks
			c.mu.Unlock()
		}
		return out
	}

	for _, mode := range []struct {
		name    string
		durable bool
	}{{"memory", false}, {"persistent-syncalways", true}} {
		t.Run(mode.name, func(t *testing.T) {
			dirs := [2]string{}
			if mode.durable {
				dirs = [2]string{t.TempDir(), t.TempDir()}
			}
			single := feed(t, dirs[0], false)
			runs := feed(t, dirs[1], true)
			requireSameOutcome(t, single, runs)
			// The stream's two refusals are refused, and only those.
			if single.Nacks["alice"][138].Code != wire.CodeBadRequest && single.Nacks["bob"][138].Code != wire.CodeBadRequest {
				t.Fatalf("invalid kind not refused: %v", single.Nacks)
			}
			if got := single.Nacks["olive"][212].Code; got != wire.CodeDenied {
				t.Fatalf("observer multicast got %v, want CodeDenied", got)
			}
			if n := len(single.Nacks["alice"]) + len(single.Nacks["bob"]) + len(single.Nacks["olive"]); n != 2 {
				t.Fatalf("%d requests refused, want 2", n)
			}
		})
		// The replica arm: the coordinator-numbered stream a replica applies.
		t.Run("replica-"+mode.name, func(t *testing.T) {
			dirs := [2]string{}
			if mode.durable {
				dirs = [2]string{t.TempDir(), t.TempDir()}
			}
			single := feedReplica(t, dirs[0], false)
			runs := feedReplica(t, dirs[1], true)
			requireSameOutcome(t, single, runs)
			if got := len(single.Events["carol"]); got != replicaStreamLen {
				t.Fatalf("carol was delivered %d events, want %d", got, replicaStreamLen)
			}
			for id, seq := range single.Acks["alice"] {
				if id != seq {
					t.Fatalf("request %d acked at seq %d", id, seq)
				}
			}
		})
	}
}

// requireSameOutcome fails unless the two feeding modes agree on everything
// equalityOutcome holds, and every receiver's deliveries are gapless.
func requireSameOutcome(t *testing.T, single, runs equalityOutcome) {
	t.Helper()
	if single.Digest != runs.Digest {
		t.Fatalf("state digests differ: %x vs %x", single.Digest, runs.Digest)
	}
	if single.Consumed != runs.Consumed {
		t.Fatalf("consumed counts differ: %d vs %d", single.Consumed, runs.Consumed)
	}
	if !reflect.DeepEqual(single.Acks, runs.Acks) {
		t.Fatalf("ack sets differ:\n single %v\n runs   %v", single.Acks, runs.Acks)
	}
	if !reflect.DeepEqual(single.Nacks, runs.Nacks) {
		t.Fatalf("nack sets differ:\n single %v\n runs   %v", single.Nacks, runs.Nacks)
	}
	for name, evs := range single.Events {
		if !reflect.DeepEqual(evs, runs.Events[name]) {
			t.Fatalf("%s: delivered sequences differ (%d vs %d events)", name, len(evs), len(runs.Events[name]))
		}
		checkGapless(t, name, evs)
	}
}

// replicaStreamLen is how many events the replica arm's coordinator numbers.
const replicaStreamLen = 300

// replicaStep is one arrival on a replica's coordinator link or, when
// catchUp is set, the suffix the replica's gap catch-up brings back.
type replicaStep struct {
	ev      DistEvent
	catchUp []DistEvent
}

// replicaStream is the replica arm's seeded stream. Alice, the local sender,
// sent about half the events, some sender-exclusive, each with a pending
// request; the rest come from a remote sender. Recent events are re-sent as
// duplicates along the way. Seqs 101–180 are lost, so 181–190 hit the gap;
// then the catch-up brings back 101–190, a suffix longer than one run. It
// also returns the requests alice is acked and how many events she is
// delivered.
func replicaStream(alice uint64) (stream []replicaStep, acked []uint64, owedAlice int) {
	const lostFrom, lostTo, heldTo = 101, 180, 190
	rng := rand.New(rand.NewSource(36))
	canon := make([]DistEvent, replicaStreamLen+1)
	for seq := uint64(1); seq <= replicaStreamLen; seq++ {
		ev := DistEvent{
			Event: wire.Event{
				Seq: seq, Kind: wire.EventUpdate, ObjectID: fmt.Sprintf("o%d", rng.Intn(3)),
				Data: []byte(fmt.Sprintf("%d|", seq)), Sender: 2 << 40,
			},
			SenderInclusive: rng.Intn(2) == 0,
		}
		if rng.Intn(8) == 0 {
			ev.Event.Kind = wire.EventState
		}
		if rng.Intn(2) == 0 {
			ev.Event.Sender, ev.ReqID = alice, seq
		}
		canon[seq] = ev
	}
	var suffix []DistEvent
	for seq := uint64(lostFrom); seq <= heldTo; seq++ {
		ev := canon[seq]
		ev.SenderInclusive, ev.ReqID = true, 0
		suffix = append(suffix, ev)
	}
	lost := func(seq uint64) bool { return seq >= lostFrom && seq <= lostTo }
	for seq := uint64(1); seq <= replicaStreamLen; seq++ {
		applied := canon[seq]
		if seq >= lostFrom && seq <= heldTo {
			applied = suffix[seq-lostFrom]
		}
		if applied.SenderInclusive || applied.Event.Sender != alice {
			owedAlice++
		}
		if lost(seq) {
			continue
		}
		stream = append(stream, replicaStep{ev: canon[seq]})
		if canon[seq].ReqID != 0 {
			acked = append(acked, canon[seq].ReqID)
		}
		if dup := seq - uint64(rng.Intn(5)); rng.Intn(6) == 0 && dup >= 1 && !lost(dup) {
			stream = append(stream, replicaStep{ev: canon[dup]})
		}
		if seq == heldTo {
			stream = append(stream, replicaStep{catchUp: suffix})
		}
	}
	return stream, acked, owedAlice
}

// feedReplica applies the replica stream through ApplyDistributed the way
// the replicated frontend does: message by message, or as coalesced runs
// of up to 100 events. The first gap parks the rest of the live stream
// until the catch-up's suffix is applied, then the parked events follow —
// each as one run when coalescing, as the frontend applies them.
func feedReplica(t *testing.T, dir string, coalesce bool) equalityOutcome {
	cfg := EngineConfig{Logger: quietTestLogger(), Dir: dir}
	if dir != "" {
		cfg.Sync = wal.SyncAlways
	}
	e, err := NewEngine(cfg)
	if err != nil {
		t.Fatal(err)
	}
	defer e.Close()
	if err := e.CreateGroupDirect("g", dir != "", nil); err != nil {
		t.Fatal(err)
	}
	alice, carol := newRigClient(t, e, "alice"), newRigClient(t, e, "carol")
	alice.join(t, e, "g", wire.RolePrincipal)
	carol.join(t, e, "g", wire.RolePrincipal)
	stream, acked, owedAlice := replicaStream(alice.sess.ID)

	out := equalityOutcome{Acks: map[string]map[uint64]uint64{}, Nacks: map[string]map[uint64]wire.ErrorMsg{}, Events: map[string][]wire.Event{}}
	chunks := rand.New(rand.NewSource(63))
	var parked []DistEvent
	gapped := false
	apply := func(evs []DistEvent, whole bool) {
		for len(evs) > 0 {
			n := 1
			if coalesce {
				n = len(evs)
				if !whole {
					n = min(n, 1+chunks.Intn(100))
				}
			}
			run := evs[:n]
			evs = evs[n:]
			if gapped {
				parked = append(parked, run...)
				continue
			}
			consumed, err := e.ApplyDistributed("g", run)
			out.Consumed += consumed
			switch {
			case errors.Is(err, ErrSeqGap):
				gapped = true
				parked = append(parked, run[consumed:]...)
			case err != nil:
				t.Fatal(err)
			}
		}
	}
	var live []DistEvent
	for _, st := range stream {
		if st.catchUp == nil {
			live = append(live, st.ev)
			continue
		}
		apply(live, false)
		live = nil
		if !gapped {
			t.Fatal("the lost events left no gap")
		}
		gapped = false
		apply(st.catchUp, true)
		held := parked
		parked = nil
		apply(held, true)
	}
	apply(live, false)

	waitFor(t, "acks to alice", func() bool { return alice.replied(acked...) })
	e.mu.RLock()
	out.Digest = e.getState("g").Digest()
	e.mu.RUnlock()
	for name, c := range map[string]*rigClient{"alice": alice, "carol": carol} {
		c := c
		want := replicaStreamLen
		if c == alice {
			want = owedAlice
		}
		waitFor(t, "deliveries to "+name, func() bool {
			c.mu.Lock()
			defer c.mu.Unlock()
			return len(c.events) >= want
		})
		c.mu.Lock()
		out.Events[name], out.Acks[name], out.Nacks[name] = c.events, c.acks, c.nacks
		c.mu.Unlock()
	}
	return out
}

// checkGapless requires strictly increasing sequence numbers.
func checkGapless(t *testing.T, who string, evs []wire.Event) {
	t.Helper()
	for i := 1; i < len(evs); i++ {
		if evs[i].Seq <= evs[i-1].Seq {
			t.Fatalf("%s: seq %d delivered after %d", who, evs[i].Seq, evs[i-1].Seq)
		}
	}
}
