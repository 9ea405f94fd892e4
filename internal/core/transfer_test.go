package core_test

import (
	"bytes"
	"errors"
	"slices"
	"sync"
	"testing"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/wire"
)

// TestStreamingJoinLargeState: a join whose transfer exceeds the inline
// threshold arrives via TransferChunk frames, reassembled transparently by
// the client library into the same JoinResult a small join produces.
func TestStreamingJoinLargeState(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	a := dial(t, addr, "alice", nil)
	if err := a.CreateGroup("big", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("big", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	want := map[string][]byte{
		"o1": bytes.Repeat([]byte("1"), 300<<10),
		"o2": bytes.Repeat([]byte("2"), 300<<10),
		"o3": bytes.Repeat([]byte("3"), 300<<10),
	}
	for id, data := range want {
		if _, err := a.BcastState("big", id, data, false); err != nil {
			t.Fatal(err)
		}
	}

	var mu sync.Mutex
	var progress [][2]uint64
	sink := newEventSink()
	b, err := client.Dial(client.Config{
		Addr: addr, Name: "bob", OnEvent: sink.onEvent,
		OnTransferProgress: func(group string, received, total uint64) {
			if group != "big" {
				t.Errorf("progress for group %q", group)
			}
			mu.Lock()
			progress = append(progress, [2]uint64{received, total})
			mu.Unlock()
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { b.Close() })

	res, err := b.Join("big", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NextSeq != 4 || res.BaseSeq != 3 {
		t.Errorf("seqs = next %d base %d, want 4/3", res.NextSeq, res.BaseSeq)
	}
	if len(res.Objects) != len(want) {
		t.Fatalf("transferred %d objects, want %d", len(res.Objects), len(want))
	}
	for _, o := range res.Objects {
		if !bytes.Equal(o.Data, want[o.ID]) {
			t.Errorf("object %q: %d bytes, mismatched content", o.ID, len(o.Data))
		}
	}
	if len(res.Members) != 2 {
		t.Errorf("members = %+v", res.Members)
	}

	mu.Lock()
	if len(progress) < 2 {
		t.Errorf("progress callbacks = %d, want several chunks", len(progress))
	}
	for i, p := range progress {
		if i > 0 && p[0] <= progress[i-1][0] {
			t.Errorf("progress not increasing: %v", progress)
			break
		}
		if p[0] > p[1] {
			t.Errorf("received %d > total %d", p[0], p[1])
		}
	}
	if last := progress[len(progress)-1]; last[0] != last[1] {
		t.Errorf("final progress %d of %d", last[0], last[1])
	}
	mu.Unlock()

	snap := srv.Engine().Metrics().Snapshot()
	if got := snap.Counters["engine.transfer_chunks"]; got < 2 {
		t.Errorf("engine.transfer_chunks = %d, want >= 2", got)
	}
	if got := snap.Gauges["engine.transfer_inflight_bytes"]; got != 0 {
		t.Errorf("engine.transfer_inflight_bytes = %d after transfer, want 0", got)
	}

	// The streamed member is live: it receives and sends multicasts.
	if _, err := a.BcastUpdate("big", "o1", []byte("post-join"), false); err != nil {
		t.Fatal(err)
	}
	evs := sink.wait(t, 1)
	if evs[0].Seq != 4 || string(evs[0].Data) != "post-join" {
		t.Fatalf("first live delivery = %+v", evs[0])
	}
	if _, err := b.BcastUpdate("big", "o1", []byte("from-joiner"), false); err != nil {
		t.Fatal(err)
	}
}

// hookRecorder stands in for a coordinator behind Hooks.OnMembershipChange:
// it records every change the engine forwards and hands the ordered copy —
// the change and the member list after it — back to the engine's entrance,
// in order and off the engine's lock, as a cluster server's link does.
type hookRecorder struct {
	mu      sync.Mutex
	members map[string][]wire.MemberInfo
	changes []recordedChange
	copies  chan *wire.SMemberUpdate
	done    chan struct{}
}

type recordedChange struct {
	group  string
	change wire.MembershipChange
	client uint64
}

// newHookRecorder returns a recorder; start it once its engine exists.
// Register its cleanup before the server's, so it outlives the sessions'
// crash reports at shutdown.
func newHookRecorder(t *testing.T) *hookRecorder {
	r := &hookRecorder{
		members: make(map[string][]wire.MemberInfo),
		// Room for every change a test makes: forward runs under the
		// engine lock, which the applying goroutine needs.
		copies: make(chan *wire.SMemberUpdate, 64),
		done:   make(chan struct{}),
	}
	t.Cleanup(func() { close(r.done) })
	return r
}

func (r *hookRecorder) start(e *core.Engine) {
	go func() {
		for {
			select {
			case u := <-r.copies:
				e.ApplyMembership(u)
			case <-r.done:
				return
			}
		}
	}()
}

func (r *hookRecorder) forward(group string, change wire.MembershipChange, member wire.MemberInfo) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.changes = append(r.changes, recordedChange{group, change, member.ClientID})
	list := slices.DeleteFunc(slices.Clone(r.members[group]), func(m wire.MemberInfo) bool { return m.ClientID == member.ClientID })
	if change == wire.MemberJoined {
		list = append(list, member)
	}
	r.members[group] = list
	select {
	case r.copies <- &wire.SMemberUpdate{ServerID: 1, Group: group, Change: change, Member: member, Members: list}:
	case <-r.done:
	}
	return nil
}

func (r *hookRecorder) changesOf(client uint64) []wire.MembershipChange {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []wire.MembershipChange
	for _, ch := range r.changes {
		if ch.client == client {
			out = append(out, ch.change)
		}
	}
	return out
}

// TestMalformedJoinIsRefusedBeforeItIsOrdered: with the membership hook set,
// a join takes effect only through its ordered copy, and a join whose
// transfer policy is malformed is refused at the origin before anything is
// forwarded, so no change needs undoing. Without the hook the same check
// runs before a CreateIfMissing join creates anything.
func TestMalformedJoinIsRefusedBeforeItIsOrdered(t *testing.T) {
	rec := newHookRecorder(t)
	srv := startServer(t, core.Config{Engine: core.EngineConfig{
		Hooks: core.Hooks{OnMembershipChange: rec.forward},
	}})
	rec.start(srv.Engine())
	addr := srv.Addr().String()

	a := dial(t, addr, "alice", nil)
	if err := a.CreateGroup("g", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := a.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := a.BcastState("g", "o", []byte("x"), false); err != nil {
		t.Fatal(err)
	}

	b := dial(t, addr, "bob", nil)
	_, err := b.Join("g", client.JoinOptions{
		Policy: wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 500},
	})
	var se *client.ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
		t.Fatalf("join with future resume cursor: err = %v, want CodeBadRequest", err)
	}
	if got := rec.changesOf(b.ID()); len(got) != 0 {
		t.Fatalf("malformed join forwarded %v", got)
	}
	members, err := a.Membership("g")
	if err != nil {
		t.Fatal(err)
	}
	if len(members) != 1 || members[0].ClientID != a.ID() {
		t.Fatalf("membership after refused join = %+v", members)
	}

	// A well-formed join completes through its ordered copy, and so does a
	// leave.
	res, err := b.Join("g", client.JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Members) != 2 || len(res.Objects) != 1 {
		t.Fatalf("ordered join: members %+v, objects %+v", res.Members, res.Objects)
	}
	if err := a.Leave("g"); err != nil {
		t.Fatal(err)
	}
	if got := rec.changesOf(a.ID()); !slices.Equal(got, []wire.MembershipChange{wire.MemberJoined, wire.MemberLeft}) {
		t.Fatalf("alice's forwarded changes = %v", got)
	}
	if members, err = b.Membership("g"); err != nil || len(members) != 1 || members[0].ClientID != b.ID() {
		t.Fatalf("membership after ordered leave = %+v, %v", members, err)
	}

	// Without the hook: the malformed CreateIfMissing join creates nothing.
	plain := startServer(t, core.Config{})
	c := dial(t, plain.Addr().String(), "carol", nil)
	_, err = c.Join("h", client.JoinOptions{
		Policy:          wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: 500},
		CreateIfMissing: true,
	})
	if !errors.As(err, &se) || se.Code != wire.CodeBadRequest {
		t.Fatalf("join 'h': err = %v, want CodeBadRequest", err)
	}
	groups, err := c.ListGroups()
	if err != nil {
		t.Fatal(err)
	}
	if len(groups) != 0 {
		t.Fatalf("refused join left groups behind: %v", groups)
	}
}
