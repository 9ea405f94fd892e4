package core

import (
	"bytes"
	"fmt"
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
	if n, err := e.ApplyDistributeBatch("g", items); err != nil || n != k {
		t.Fatalf("ApplyDistributeBatch = %d, %v", n, err)
	}
	if got := e.hLockHold.Snapshot().Count - holdBefore; got != k {
		t.Fatalf("lock-hold samples for a distributed run of %d = %d", k, got)
	}
	if got := e.hLockWait.Snapshot().Count - waitBefore; got != 1 {
		t.Fatalf("lock-wait samples for one run = %d, want 1", got)
	}

	// A catch-up suffix is one run per chunk, charged the same way.
	holdBefore = e.hLockHold.Snapshot().Count
	if err := e.ApplyEvents("g", []wire.Event{distEvent(k + 1), distEvent(k + 2), distEvent(k + 3)}); err != nil {
		t.Fatal(err)
	}
	if got := e.hLockHold.Snapshot().Count - holdBefore; got != 3 {
		t.Fatalf("lock-hold samples for a caught-up run of 3 = %d", got)
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
}

// TestRunOfOneEqualsBatch feeds one seeded stream of Bcasts through the
// engine twice — message by message through HandleMessage, and as coalesced
// runs through dispatchBcasts — and requires identical per-receiver
// (seq → payload) sequences, identical ack/nack sets, and identical state
// digests, memory-only and persistent + SyncAlways.
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

			if single.Digest != runs.Digest {
				t.Fatalf("state digests differ: %x vs %x", single.Digest, runs.Digest)
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
	}
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
