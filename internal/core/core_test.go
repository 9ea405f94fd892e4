package core_test

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/membership"
	"corona/internal/wal"
	"corona/internal/wire"
)

// startServer boots a standalone server on an ephemeral loopback port.
func startServer(t *testing.T, cfg core.Config) *core.Server {
	t.Helper()
	srv, err := core.NewServer(cfg)
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	return srv
}

// eventSink collects deliveries for assertions.
type eventSink struct {
	mu     sync.Mutex
	events []wire.Event
	ch     chan wire.Event
}

func newEventSink() *eventSink {
	return &eventSink{ch: make(chan wire.Event, 1024)}
}

func (s *eventSink) onEvent(_ string, ev wire.Event) {
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
	s.ch <- ev
}

func (s *eventSink) wait(t *testing.T, n int) []wire.Event {
	t.Helper()
	deadline := time.After(5 * time.Second)
	for {
		s.mu.Lock()
		if len(s.events) >= n {
			out := append([]wire.Event(nil), s.events...)
			s.mu.Unlock()
			return out
		}
		s.mu.Unlock()
		select {
		case <-s.ch:
		case <-deadline:
			s.mu.Lock()
			got := len(s.events)
			s.mu.Unlock()
			t.Fatalf("timed out waiting for %d events, have %d", n, got)
		}
	}
}

func dial(t *testing.T, addr, name string, sink *eventSink) *client.Client {
	t.Helper()
	cfg := client.Config{Addr: addr, Name: name}
	if sink != nil {
		cfg.OnEvent = sink.onEvent
	}
	c, err := client.Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestCreateJoinBcastDeliver(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	sinkB := newEventSink()
	a := dial(t, addr, "alice", nil)
	b := dial(t, addr, "bob", sinkB)

	if err := a.CreateGroup("g", false, []wire.Object{{ID: "doc", Data: []byte("v0")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	res, err := b.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "v0" {
		t.Fatalf("join transfer = %+v", res.Objects)
	}
	if len(res.Members) != 2 {
		t.Fatalf("members = %+v", res.Members)
	}

	seq, err := a.BcastState("g", "doc", []byte("v1"), false)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 1 {
		t.Fatalf("first seq = %d", seq)
	}
	events := sinkB.wait(t, 1)
	if events[0].Kind != wire.EventState || string(events[0].Data) != "v1" || events[0].ObjectID != "doc" {
		t.Fatalf("delivered = %+v", events[0])
	}
	if events[0].Sender != a.ID() {
		t.Errorf("sender = %d, want %d", events[0].Sender, a.ID())
	}
	if events[0].Time == 0 {
		t.Error("server did not timestamp the event")
	}
}

func TestSenderInclusiveExclusive(t *testing.T) {
	srv := startServer(t, core.Config{})
	sink := newEventSink()
	a := dial(t, srv.Addr().String(), "a", sink)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	// Exclusive: no echo.
	if _, err := a.BcastUpdate("g", "o", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	// Inclusive: echoed with server timestamp.
	if _, err := a.BcastUpdate("g", "o", []byte("y"), true); err != nil {
		t.Fatal(err)
	}
	events := sink.wait(t, 1)
	if len(events) < 1 || string(events[0].Data) != "y" {
		t.Fatalf("echo = %+v", events)
	}
	// Give any wrong echo a chance to arrive, then confirm only one event.
	time.Sleep(50 * time.Millisecond)
	all := sink.wait(t, 1)
	if len(all) != 1 {
		t.Fatalf("got %d events, want 1 (exclusive must not echo)", len(all))
	}
}

func TestTotalOrderAcrossSenders(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	sink1, sink2 := newEventSink(), newEventSink()
	r1 := dial(t, addr, "r1", sink1)
	r2 := dial(t, addr, "r2", sink2)
	s1 := dial(t, addr, "s1", nil)
	s2 := dial(t, addr, "s2", nil)

	if err := r1.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	for _, c := range []*client.Client{r1, r2, s1, s2} {
		if _, err := c.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}

	const per = 50
	var wg sync.WaitGroup
	for _, sender := range []*client.Client{s1, s2} {
		wg.Add(1)
		go func(c *client.Client) {
			defer wg.Done()
			for i := 0; i < per; i++ {
				if _, err := c.BcastUpdate("g", "o", []byte{byte(i)}, false); err != nil {
					t.Error(err)
					return
				}
			}
		}(sender)
	}
	wg.Wait()

	ev1 := sink1.wait(t, 2*per)
	ev2 := sink2.wait(t, 2*per)
	if len(ev1) != 2*per || len(ev2) != 2*per {
		t.Fatalf("delivery counts %d/%d", len(ev1), len(ev2))
	}
	for i := range ev1 {
		if ev1[i].Seq != uint64(i+1) {
			t.Fatalf("receiver1 seq[%d] = %d (not gapless total order)", i, ev1[i].Seq)
		}
		if ev1[i].Seq != ev2[i].Seq || ev1[i].Sender != ev2[i].Sender {
			t.Fatalf("receivers disagree at %d: %+v vs %+v", i, ev1[i], ev2[i])
		}
	}
	// FIFO per sender.
	for _, evs := range [][]wire.Event{ev1, ev2} {
		last := map[uint64]byte{}
		for _, ev := range evs {
			if prev, ok := last[ev.Sender]; ok && ev.Data[0] != prev+1 {
				t.Fatalf("per-sender FIFO violated: sender %d, %d after %d", ev.Sender, ev.Data[0], prev)
			}
			last[ev.Sender] = ev.Data[0]
		}
	}
}

func TestTransferPolicies(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.BcastUpdate("g", "log", []byte(fmt.Sprintf("%d;", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := a.BcastState("g", "cfg", []byte("cfg1"), false); err != nil {
		t.Fatal(err)
	}

	t.Run("full", func(t *testing.T) {
		c := dial(t, addr, "full", nil)
		res, err := c.Join("g", client.JoinOptions{Policy: wire.FullTransfer})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) != 2 {
			t.Fatalf("objects = %+v", res.Objects)
		}
		if res.NextSeq != 12 || res.BaseSeq != 11 {
			t.Fatalf("seq bounds = %d/%d", res.BaseSeq, res.NextSeq)
		}
		if err := c.Leave("g"); err != nil {
			t.Fatal(err)
		}
	})
	t.Run("last-n", func(t *testing.T) {
		c := dial(t, addr, "lastn", nil)
		res, err := c.Join("g", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 3}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) != 0 || len(res.Events) != 3 {
			t.Fatalf("transfer = %d objects, %d events", len(res.Objects), len(res.Events))
		}
		if res.Events[2].Seq != 11 {
			t.Fatalf("last event seq = %d", res.Events[2].Seq)
		}
		_ = c.Leave("g")
	})
	t.Run("objects", func(t *testing.T) {
		c := dial(t, addr, "objs", nil)
		res, err := c.Join("g", client.JoinOptions{
			Policy: wire.TransferPolicy{Mode: wire.TransferObjects, Objects: []string{"cfg"}},
		})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) != 1 || res.Objects[0].ID != "cfg" || string(res.Objects[0].Data) != "cfg1" {
			t.Fatalf("transfer = %+v", res.Objects)
		}
		_ = c.Leave("g")
	})
	t.Run("none", func(t *testing.T) {
		c := dial(t, addr, "none", nil)
		res, err := c.Join("g", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferNone}})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Objects) != 0 || len(res.Events) != 0 {
			t.Fatalf("transfer = %+v", res)
		}
		_ = c.Leave("g")
	})
}

func TestPersistenceAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Engine: core.EngineConfig{Dir: dir, Sync: wal.SyncAlways}}
	srv := startServer(t, cfg)

	a := dial(t, srv.Addr().String(), "a", nil)
	if err := a.CreateGroup("pg", true, []wire.Object{{ID: "doc", Data: []byte("v0|")}}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("pg", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := a.BcastUpdate("pg", "doc", []byte(fmt.Sprintf("u%d|", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	a.Close()
	srv.Close()

	// Restart on the same directory: the persistent group and its state
	// must survive ("a group and its shared data should be able to
	// outlive the process members of the group").
	srv2 := startServer(t, cfg)
	b := dial(t, srv2.Addr().String(), "b", nil)
	res, err := b.Join("pg", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "v0|u0|u1|u2|u3|u4|" {
		t.Fatalf("recovered state = %+v", res.Objects)
	}
	if res.NextSeq != 6 {
		t.Fatalf("recovered NextSeq = %d", res.NextSeq)
	}
	// Sequencing continues where it left off.
	seq, err := b.BcastUpdate("pg", "doc", []byte("post|"), false)
	if err != nil {
		t.Fatal(err)
	}
	if seq != 6 {
		t.Fatalf("post-restart seq = %d", seq)
	}
}

func TestTransientGroupDoesNotSurviveRestart(t *testing.T) {
	dir := t.TempDir()
	cfg := core.Config{Engine: core.EngineConfig{Dir: dir, Sync: wal.SyncAlways}}
	srv := startServer(t, cfg)
	a := dial(t, srv.Addr().String(), "a", nil)
	if err := a.CreateGroup("tg", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("tg", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastUpdate("tg", "o", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	a.Close()
	srv.Close()

	srv2 := startServer(t, cfg)
	b := dial(t, srv2.Addr().String(), "b", nil)
	_, err := b.Join("tg", client.JoinOptions{})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeNoSuchGroup {
		t.Fatalf("join transient after restart: %v", err)
	}
}

func TestPersistentGroupSurvivesNullMembership(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("pg", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("pg", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastState("pg", "o", []byte("kept"), false); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave("pg"); err != nil {
		t.Fatal(err)
	}
	// Group has null membership now but must persist.
	b := dial(t, addr, "b", nil)
	res, err := b.Join("pg", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || string(res.Objects[0].Data) != "kept" {
		t.Fatalf("state after null membership = %+v", res.Objects)
	}
}

func TestTransientGroupDiesWithLastMember(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("tg", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("tg", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if err := a.Leave("tg"); err != nil {
		t.Fatal(err)
	}
	groups, err := a.ListGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("groups after last leave = %v", groups)
	}
}

func TestMembershipNotifications(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	notifyCh := make(chan wire.MembershipNotify, 16)
	a, err := client.Dial(client.Config{
		Addr: addr, Name: "watcher",
		OnMembership: func(n wire.MembershipNotify) { notifyCh <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{Notify: true}); err != nil {
		t.Fatal(err)
	}

	b := dial(t, addr, "joiner", nil)
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	n := waitNotify(t, notifyCh)
	if n.Change != wire.MemberJoined || n.Member.Name != "joiner" || n.Count != 2 {
		t.Fatalf("join notify = %+v", n)
	}

	if err := b.Leave("g"); err != nil {
		t.Fatal(err)
	}
	n = waitNotify(t, notifyCh)
	if n.Change != wire.MemberLeft || n.Member.Name != "joiner" {
		t.Fatalf("leave notify = %+v", n)
	}

	// A crash (abrupt close) must surface as MemberCrashed.
	c := dial(t, addr, "crasher", nil)
	if _, err := c.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	n = waitNotify(t, notifyCh) // join
	if n.Change != wire.MemberJoined {
		t.Fatalf("notify = %+v", n)
	}
	c.Close() // client.Close closes the TCP conn without a Leave
	n = waitNotify(t, notifyCh)
	if n.Member.Name != "crasher" {
		t.Fatalf("crash notify = %+v", n)
	}
}

func waitNotify(t *testing.T, ch chan wire.MembershipNotify) wire.MembershipNotify {
	t.Helper()
	select {
	case n := <-ch:
		return n
	case <-time.After(5 * time.Second):
		t.Fatal("timed out waiting for membership notification")
		return wire.MembershipNotify{}
	}
}

func TestJoinDoesNotDisturbMembers(t *testing.T) {
	// Members that did not subscribe to notifications must hear nothing
	// when someone joins (the join protocol involves only the joiner and
	// the service).
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	sink := newEventSink()
	notified := make(chan wire.MembershipNotify, 1)
	a, err := client.Dial(client.Config{
		Addr: addr, Name: "quiet",
		OnEvent:      sink.onEvent,
		OnMembership: func(n wire.MembershipNotify) { notified <- n },
	})
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{Notify: false}); err != nil {
		t.Fatal(err)
	}
	b := dial(t, addr, "newcomer", nil)
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notified:
		t.Fatalf("unsubscribed member notified: %+v", n)
	case <-time.After(100 * time.Millisecond):
	}
}

func TestObserverCannotBcast(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	obs := dial(t, addr, "obs", nil)
	if _, err := obs.Join("g", client.JoinOptions{Role: wire.RoleObserver}); err != nil {
		t.Fatal(err)
	}
	_, err := obs.BcastState("g", "o", []byte("nope"), false)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeDenied {
		t.Fatalf("observer bcast: %v", err)
	}
}

func TestNonMemberCannotBcast(t *testing.T) {
	srv := startServer(t, core.Config{})
	a := dial(t, srv.Addr().String(), "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	_, err := a.BcastState("g", "o", []byte("x"), false)
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeNotMember {
		t.Fatalf("non-member bcast: %v", err)
	}
}

func TestLocks(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	b := dial(t, addr, "b", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	granted, _, err := a.AcquireLock("g", "cursor", false)
	if err != nil || !granted {
		t.Fatalf("a acquire: %v %v", granted, err)
	}
	granted, holder, err := b.AcquireLock("g", "cursor", false)
	if err != nil || granted {
		t.Fatalf("b steal: %v %v", granted, err)
	}
	if holder != a.ID() {
		t.Fatalf("holder = %d, want %d", holder, a.ID())
	}

	// b queues; a releases; b gets the lock.
	done := make(chan error, 1)
	go func() {
		granted, _, err := b.AcquireLock("g", "cursor", true)
		if err == nil && !granted {
			err = errors.New("queued acquire returned ungranted")
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	if err := a.ReleaseLock("g", "cursor"); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("queued lock never granted")
	}
}

func TestLockReleasedOnClientCrash(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	b := dial(t, addr, "b", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if granted, _, err := a.AcquireLock("g", "l", false); err != nil || !granted {
		t.Fatalf("acquire: %v %v", granted, err)
	}
	done := make(chan error, 1)
	go func() {
		granted, _, err := b.AcquireLock("g", "l", true)
		if err == nil && !granted {
			err = errors.New("ungranted")
		}
		done <- err
	}()
	time.Sleep(50 * time.Millisecond)
	a.Close() // crash: server must release a's locks
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("lock not released on holder crash")
	}
}

func TestReduceLogAndResumeFallback(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if _, err := a.BcastUpdate("g", "o", []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	base, trimmed, err := a.ReduceLog("g", 6)
	if err != nil {
		t.Fatal(err)
	}
	if base != 6 || trimmed != 6 {
		t.Fatalf("reduce = base %d trimmed %d", base, trimmed)
	}
	// LastN bigger than the retained suffix returns just the suffix.
	c := dial(t, addr, "c", nil)
	res, err := c.Join("g", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferLastN, LastN: 100}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Events) != 4 {
		t.Fatalf("retained suffix = %d events", len(res.Events))
	}
	_ = c.Leave("g")

	// Resume from under the checkpoint falls back to a full snapshot.
	d := dial(t, addr, "d", nil)
	res, err = d.Join("g", client.JoinOptions{Policy: wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || len(res.Events) != 0 {
		t.Fatalf("fallback transfer = %+v", res)
	}
	if len(res.Objects[0].Data) != 10 {
		t.Fatalf("fallback object bytes = %d", len(res.Objects[0].Data))
	}
}

func TestReconnectResume(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	sink := newEventSink()
	a := dial(t, addr, "a", sink)
	writer := dial(t, addr, "w", nil)
	if err := writer.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.BcastUpdate("g", "o", []byte("live1"), false); err != nil {
		t.Fatal(err)
	}
	sink.wait(t, 1)

	// Simulate a network drop, miss two events, reconnect.
	a.DropConnection()
	if _, err := writer.BcastUpdate("g", "o", []byte("miss1"), false); err != nil {
		t.Fatal(err)
	}
	if _, err := writer.BcastUpdate("g", "o", []byte("miss2"), false); err != nil {
		t.Fatal(err)
	}
	results, err := a.Reconnect()
	if err != nil {
		t.Fatal(err)
	}
	res := results["g"]
	if res == nil {
		t.Fatal("no resync result for g")
	}
	if len(res.Events) != 2 || string(res.Events[0].Data) != "miss1" || string(res.Events[1].Data) != "miss2" {
		t.Fatalf("resync events = %+v", res.Events)
	}
	// Live deliveries continue after the resync.
	if _, err := writer.BcastUpdate("g", "o", []byte("live2"), false); err != nil {
		t.Fatal(err)
	}
	events := sink.wait(t, 2)
	if string(events[1].Data) != "live2" {
		t.Fatalf("post-resync delivery = %+v", events[1])
	}
}

func TestStatelessBaseline(t *testing.T) {
	srv := startServer(t, core.Config{Engine: core.EngineConfig{Stateless: true}})
	addr := srv.Addr().String()
	sink := newEventSink()
	a := dial(t, addr, "a", nil)
	b := dial(t, addr, "b", sink)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastState("g", "o", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
	// Late joiner gets no state (the server kept none) but still gets
	// sequenced live traffic.
	res, err := b.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 0 || len(res.Events) != 0 {
		t.Fatalf("stateless transfer = %+v", res)
	}
	if res.NextSeq != 2 {
		t.Fatalf("NextSeq = %d", res.NextSeq)
	}
	if _, err := a.BcastState("g", "o", []byte("y"), false); err != nil {
		t.Fatal(err)
	}
	events := sink.wait(t, 1)
	if events[0].Seq != 2 || string(events[0].Data) != "y" {
		t.Fatalf("stateless delivery = %+v", events[0])
	}
}

func TestAutoReduce(t *testing.T) {
	srv := startServer(t, core.Config{Engine: core.EngineConfig{AutoReduceThreshold: 5}})
	a := dial(t, srv.Addr().String(), "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := a.BcastUpdate("g", "o", []byte{1}, false); err != nil {
			t.Fatal(err)
		}
	}
	if n := srv.Engine().Metrics().Snapshot().Counters["engine.reductions"]; n == 0 {
		t.Error("auto-reduction never fired")
	}
	// State must still be complete.
	b := dial(t, srv.Addr().String(), "b", nil)
	res, err := b.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Objects) != 1 || len(res.Objects[0].Data) != 20 {
		t.Fatalf("state after auto-reduce = %+v", res.Objects)
	}
}

func TestDeleteGroupDisconnectsState(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	a := dial(t, addr, "a", nil)
	if err := a.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := a.BcastUpdate("g", "o", []byte("old"), false); err != nil {
			t.Fatal(err)
		}
	}
	if err := a.DeleteGroup("g"); err != nil {
		t.Fatal(err)
	}
	var se *client.ServerError
	_, err := a.Join("g", client.JoinOptions{})
	if !errors.As(err, &se) || se.Code != wire.CodeNoSuchGroup {
		t.Fatalf("join deleted group: %v", err)
	}
	if err := a.DeleteGroup("g"); !errors.As(err, &se) || se.Code != wire.CodeNoSuchGroup {
		t.Fatalf("double delete: %v", err)
	}

	// The number died with the group: a re-created group numbers from 1,
	// and NextSeq and SeqReport read the same record.
	if err := a.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if seq, err := a.BcastUpdate("g", "o", []byte("new"), false); err != nil || seq != 1 {
		t.Fatalf("first multicast to the re-created group acked at %d (%v), want 1", seq, err)
	}
	e := srv.Engine()
	report := e.SeqReport()
	if next := e.NextSeq("g"); next != 2 || len(report) != 1 || report[0].NextSeq != next {
		t.Fatalf("NextSeq = %d, SeqReport = %+v; want both at 2", next, report)
	}
}

func TestCreateDuplicateGroup(t *testing.T) {
	srv := startServer(t, core.Config{})
	a := dial(t, srv.Addr().String(), "a", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	var se *client.ServerError
	if err := a.CreateGroup("g", false, nil); !errors.As(err, &se) || se.Code != wire.CodeGroupExists {
		t.Fatalf("duplicate create: %v", err)
	}
}

func TestJoinCreateIfMissing(t *testing.T) {
	srv := startServer(t, core.Config{})
	a := dial(t, srv.Addr().String(), "a", nil)
	res, err := a.Join("auto", client.JoinOptions{CreateIfMissing: true})
	if err != nil {
		t.Fatal(err)
	}
	if res.NextSeq != 1 {
		t.Fatalf("NextSeq = %d", res.NextSeq)
	}
	if _, err := a.BcastState("auto", "o", []byte("x"), false); err != nil {
		t.Fatal(err)
	}
}

func TestSessionManagerDeniesJoin(t *testing.T) {
	srv := startServer(t, core.Config{Engine: core.EngineConfig{
		SessionManager: denyNamed{"mallory"},
	}})
	addr := srv.Addr().String()
	good := dial(t, addr, "alice", nil)
	if err := good.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := good.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	bad := dial(t, addr, "mallory", nil)
	_, err := bad.Join("g", client.JoinOptions{})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeDenied {
		t.Fatalf("denied join: %v", err)
	}
}

// denyNamed denies every action by clients with the given name.
type denyNamed struct{ name string }

func (d denyNamed) Authorize(_ membership.Action, c wire.MemberInfo, _ string) error {
	if c.Name == d.name {
		return fmt.Errorf("client %q not allowed", c.Name)
	}
	return nil
}

func TestPing(t *testing.T) {
	srv := startServer(t, core.Config{})
	a := dial(t, srv.Addr().String(), "a", nil)
	rtt, err := a.Ping()
	if err != nil {
		t.Fatal(err)
	}
	if rtt <= 0 || rtt > time.Second {
		t.Errorf("rtt = %v", rtt)
	}
}

func TestManyClientsFanout(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	const n = 20

	creator := dial(t, addr, "creator", nil)
	if err := creator.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	sinks := make([]*eventSink, n)
	for i := 0; i < n; i++ {
		sinks[i] = newEventSink()
		c := dial(t, addr, fmt.Sprintf("c%d", i), sinks[i])
		if _, err := c.Join("g", client.JoinOptions{}); err != nil {
			t.Fatal(err)
		}
	}
	sender := dial(t, addr, "sender", nil)
	if _, err := sender.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	const msgs = 10
	for i := 0; i < msgs; i++ {
		if _, err := sender.BcastUpdate("g", "o", []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
	}
	for i, sink := range sinks {
		events := sink.wait(t, msgs)
		for j, ev := range events {
			if ev.Seq != uint64(j+1) {
				t.Fatalf("client %d: seq[%d] = %d", i, j, ev.Seq)
			}
		}
	}
	if delivered := srv.Engine().Metrics().Snapshot().Counters["engine.delivered"]; delivered < uint64(n*msgs) {
		t.Errorf("engine.delivered = %d, want >= %d", delivered, n*msgs)
	}
}
