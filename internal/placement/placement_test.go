package placement

import (
	"fmt"
	"reflect"
	"testing"
	"testing/quick"
	"time"
)

func loads(ids ...uint64) []ServerLoad {
	out := make([]ServerLoad, 0, len(ids))
	for _, id := range ids {
		out = append(out, ServerLoad{ID: id})
	}
	return out
}

func TestDesiredDeterministic(t *testing.T) {
	p := Policy{}
	servers := loads(2, 3, 4, 5)
	first := p.Desired("g", servers, nil)
	if len(first) != 2 {
		t.Fatalf("Desired returned %d servers, want 2", len(first))
	}
	for i := 0; i < 100; i++ {
		if got := p.Desired("g", servers, nil); !reflect.DeepEqual(got, first) {
			t.Fatalf("Desired not deterministic: %v then %v", first, got)
		}
	}
}

func TestDesiredPinnedAndFactor(t *testing.T) {
	p := Policy{Replicas: 3}
	servers := loads(2, 3, 4, 5)

	got := p.Desired("g", servers, []uint64{5, 5, 3})
	if len(got) != 3 {
		t.Fatalf("Desired returned %v, want 3 servers", got)
	}
	has := map[uint64]bool{}
	for _, id := range got {
		if has[id] {
			t.Fatalf("Desired returned duplicate in %v", got)
		}
		has[id] = true
	}
	if !has[3] || !has[5] {
		t.Fatalf("Desired %v must contain pinned 3 and 5", got)
	}

	// More pins than the factor: every pin is kept.
	got = p.Desired("g", servers, []uint64{2, 3, 4, 5})
	if len(got) != 4 {
		t.Fatalf("Desired with 4 pins returned %v, want all 4", got)
	}

	// Fewer servers than the factor: the result is every live server.
	got = p.Desired("g", loads(2), nil)
	if !reflect.DeepEqual(got, []uint64{2}) {
		t.Fatalf("Desired with one server = %v, want [2]", got)
	}
}

func TestDesiredMinimalDisruption(t *testing.T) {
	// Removing one server must not move groups between surviving servers.
	p := Policy{}
	all := loads(2, 3, 4, 5)
	without5 := loads(2, 3, 4)
	for i := 0; i < 200; i++ {
		g := fmt.Sprintf("group-%d", i)
		before := p.Desired(g, all, nil)
		after := p.Desired(g, without5, nil)
		for _, id := range before {
			if id == 5 {
				continue
			}
			found := false
			for _, a := range after {
				if a == id {
					found = true
				}
			}
			if !found {
				t.Fatalf("group %s: server %d lost its replica when unrelated server 5 left (%v -> %v)", g, id, before, after)
			}
		}
	}
}

func TestDesiredLoadAware(t *testing.T) {
	// A server an order of magnitude busier must win far fewer groups.
	p := Policy{}
	servers := []ServerLoad{
		{ID: 2, Load: Load{Sessions: 200}},
		{ID: 3}, {ID: 4}, {ID: 5},
	}
	wins := map[uint64]int{}
	const groups = 1000
	for i := 0; i < groups; i++ {
		for _, id := range p.Desired(fmt.Sprintf("group-%d", i), servers, nil) {
			wins[id]++
		}
	}
	idle := (wins[3] + wins[4] + wins[5]) / 3
	if wins[2] >= idle {
		t.Fatalf("loaded server won %d groups, idle average %d — placement ignores load", wins[2], idle)
	}
}

func TestPlanGroupDesignate(t *testing.T) {
	current := map[uint64]Replica{2: {Members: 3}}
	got := PlanGroup("g", current, []uint64{2, 4})
	want := []Action{{Kind: Designate, Group: "g", Server: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanGroup = %v, want %v", got, want)
	}
}

func TestPlanGroupMigrate(t *testing.T) {
	current := map[uint64]Replica{
		2: {Members: 3},
		3: {Backup: true},
	}
	got := PlanGroup("g", current, []uint64{2, 4})
	want := []Action{{Kind: Migrate, Group: "g", Server: 4, From: 3}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanGroup = %v, want %v", got, want)
	}
}

func TestPlanGroupPinnedNeverMoves(t *testing.T) {
	// Server 3 hosts members, so even though it is not desired it must not
	// source a migration or be released.
	current := map[uint64]Replica{
		2: {Members: 3},
		3: {Members: 1},
	}
	got := PlanGroup("g", current, []uint64{2, 4})
	want := []Action{{Kind: Designate, Group: "g", Server: 4}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanGroup = %v, want %v", got, want)
	}
}

func TestPlanGroupPendingCountsAsPresent(t *testing.T) {
	current := map[uint64]Replica{
		2: {Members: 3},
		4: {Backup: true, Pending: true},
	}
	if got := PlanGroup("g", current, []uint64{2, 4}); len(got) != 0 {
		t.Fatalf("PlanGroup fired %v while a designation is already in flight", got)
	}
}

func TestPlanGroupReleaseWaitsForConfirmation(t *testing.T) {
	// Surplus replica on 5, but the desired holder on 4 is still pending:
	// releasing 5 now could dip coverage below the factor.
	current := map[uint64]Replica{
		2: {Members: 3},
		4: {Backup: true, Pending: true},
		5: {Backup: true},
	}
	if got := PlanGroup("g", current, []uint64{2, 4}); len(got) != 0 {
		t.Fatalf("PlanGroup = %v, want no actions until 4 confirms", got)
	}

	current[4] = Replica{Backup: true}
	got := PlanGroup("g", current, []uint64{2, 4})
	want := []Action{{Kind: Release, Group: "g", Server: 5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("PlanGroup = %v, want %v", got, want)
	}
}

// TestFloorPlanOnlyDesignates: when every current holder is pinned, as the
// cluster's replica floor pins them (pending ones included), the plan only
// designates — it can neither move nor drop a replica — and its targets,
// with the holders, make up min(factor, live servers) servers, or the
// holders alone when they are more.
func TestFloorPlanOnlyDesignates(t *testing.T) {
	prop := func(group string, replicas, n uint8, held, pending, backup uint16, sessions, members [16]uint8) bool {
		n = n%16 + 1
		servers := make([]ServerLoad, n)
		current := map[uint64]Replica{}
		var holders []uint64
		for i := range servers {
			id := uint64(i + 2)
			servers[i] = ServerLoad{ID: id, Load: Load{Sessions: uint64(sessions[i])}, BcastRate: float64(members[i]) * 40}
			if held>>i&1 == 1 {
				current[id] = Replica{Members: uint64(members[i] % 3), Backup: backup>>i&1 == 1, Pending: pending>>i&1 == 1}
				holders = append(holders, id)
			}
		}
		p := Policy{Replicas: int(replicas % 6)}
		placed := make(map[uint64]bool, n)
		for _, id := range holders {
			placed[id] = true
		}
		for _, a := range PlanGroup(group, current, p.Desired(group, servers, holders)) {
			if a.Kind != Designate || a.Group != group || placed[a.Server] || a.Server < 2 || a.Server > uint64(n)+1 {
				t.Logf("n=%d factor=%d holders=%v: action %+v", n, p.Factor(), holders, a)
				return false
			}
			placed[a.Server] = true
		}
		return len(placed) == max(len(holders), min(p.Factor(), int(n)))
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 2000}); err != nil {
		t.Fatal(err)
	}
}

func TestTrackerRate(t *testing.T) {
	now := time.Unix(0, 0)
	tr := NewTracker(func() time.Time { return now })

	tr.Observe(2, Load{Bcasts: 0})
	now = now.Add(time.Second)
	tr.Observe(2, Load{Bcasts: 1000})

	snap := tr.Snapshot()
	if len(snap) != 1 || snap[0].ID != 2 {
		t.Fatalf("Snapshot = %v", snap)
	}
	if r := snap[0].BcastRate; r < 400 || r > 1000 {
		t.Fatalf("BcastRate = %v, want smoothed toward 1000 ev/s", r)
	}

	// Counter moving backwards (server restart) resets the rate.
	now = now.Add(time.Second)
	tr.Observe(2, Load{Bcasts: 10})
	if r := tr.Snapshot()[0].BcastRate; r != 0 {
		t.Fatalf("BcastRate after counter reset = %v, want 0", r)
	}

	tr.Forget(2)
	if tr.Len() != 0 {
		t.Fatalf("Len after Forget = %d", tr.Len())
	}
}

func TestTrackerSnapshotSorted(t *testing.T) {
	tr := NewTracker(nil)
	for _, id := range []uint64{5, 2, 9, 3} {
		tr.Observe(id, Load{})
	}
	snap := tr.Snapshot()
	for i := 1; i < len(snap); i++ {
		if snap[i-1].ID >= snap[i].ID {
			t.Fatalf("Snapshot not sorted: %v", snap)
		}
	}
}
