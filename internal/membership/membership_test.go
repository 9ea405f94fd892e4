package membership

import (
	"errors"
	"fmt"
	"reflect"
	"testing"

	"corona/internal/wire"
)

func info(id uint64, name string) wire.MemberInfo {
	return wire.MemberInfo{ClientID: id, Name: name, Role: wire.RolePrincipal}
}

func TestCreateGetDelete(t *testing.T) {
	r := NewRegistry(nil)
	g, err := r.Create("g", true, info(1, "alice"))
	if err != nil {
		t.Fatal(err)
	}
	if !g.Persistent || g.Name != "g" {
		t.Fatalf("group = %+v", g)
	}
	if _, err := r.Create("g", false, info(1, "alice")); !errors.Is(err, ErrGroupExists) {
		t.Errorf("duplicate create: %v", err)
	}
	got, ok := r.Get("g")
	if !ok || got != g {
		t.Fatal("Get failed")
	}
	if err := r.Delete("g", info(1, "alice")); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("g", info(1, "alice")); !errors.Is(err, ErrNoSuchGroup) {
		t.Errorf("double delete: %v", err)
	}
	if r.Len() != 0 {
		t.Errorf("Len = %d", r.Len())
	}
}

func TestJoinLeave(t *testing.T) {
	r := NewRegistry(nil)
	if _, err := r.Create("g", false, info(1, "a")); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join("missing", info(1, "a"), false); !errors.Is(err, ErrNoSuchGroup) {
		t.Errorf("join missing group: %v", err)
	}
	g, err := r.Join("g", info(1, "a"), true)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Join("g", info(1, "a"), false); !errors.Is(err, ErrAlreadyMember) {
		t.Errorf("double join: %v", err)
	}
	if _, err := r.Join("g", info(2, "b"), false); err != nil {
		t.Fatal(err)
	}
	if g.Size() != 2 || !g.Has(1) || !g.Has(2) {
		t.Fatalf("membership state wrong: size %d", g.Size())
	}

	_, empty, err := r.Leave("g", 1)
	if err != nil || empty {
		t.Fatalf("leave: empty=%v err=%v", empty, err)
	}
	if _, _, err := r.Leave("g", 1); !errors.Is(err, ErrNotMember) {
		t.Errorf("double leave: %v", err)
	}
	_, empty, err = r.Leave("g", 2)
	if err != nil || !empty {
		t.Fatalf("last leave: empty=%v err=%v", empty, err)
	}
	if _, _, err := r.Leave("missing", 2); !errors.Is(err, ErrNoSuchGroup) {
		t.Errorf("leave missing group: %v", err)
	}
}

func TestJoinOrderPreserved(t *testing.T) {
	r := NewRegistry(nil)
	g, _ := r.Create("g", false, wire.MemberInfo{})
	for i := uint64(1); i <= 5; i++ {
		if _, err := r.Join("g", info(i, fmt.Sprintf("c%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	// Remove a middle member; order of the rest must hold.
	if _, _, err := r.Leave("g", 3); err != nil {
		t.Fatal(err)
	}
	want := []uint64{1, 2, 4, 5}
	if got := g.MemberIDs(); !reflect.DeepEqual(got, want) {
		t.Fatalf("MemberIDs = %v, want %v", got, want)
	}
	ms := g.Members()
	if len(ms) != 4 || ms[2].Name != "c4" {
		t.Fatalf("Members = %+v", ms)
	}
}

func TestSubscribers(t *testing.T) {
	r := NewRegistry(nil)
	g, _ := r.Create("g", false, wire.MemberInfo{})
	_, _ = r.Join("g", info(1, "a"), true)
	_, _ = r.Join("g", info(2, "b"), false)
	_, _ = r.Join("g", info(3, "c"), true)
	if got := g.Subscribers(); !reflect.DeepEqual(got, []uint64{1, 3}) {
		t.Fatalf("Subscribers = %v", got)
	}
}

func TestGroupsOf(t *testing.T) {
	r := NewRegistry(nil)
	_, _ = r.Create("g1", false, wire.MemberInfo{})
	_, _ = r.Create("g2", false, wire.MemberInfo{})
	_, _ = r.Join("g1", info(1, "a"), false)
	_, _ = r.Join("g2", info(1, "a"), false)
	_, _ = r.Join("g2", info(2, "b"), false)
	got := r.GroupsOf(1)
	if len(got) != 2 {
		t.Fatalf("GroupsOf(1) = %v", got)
	}
	if got := r.GroupsOf(2); len(got) != 1 || got[0] != "g2" {
		t.Fatalf("GroupsOf(2) = %v", got)
	}
	if got := r.GroupsOf(9); got != nil {
		t.Fatalf("GroupsOf(9) = %v", got)
	}
}

func TestNames(t *testing.T) {
	r := NewRegistry(nil)
	_, _ = r.Create("a", false, wire.MemberInfo{})
	_, _ = r.Create("b", true, wire.MemberInfo{})
	names := r.Names()
	if len(names) != 2 {
		t.Fatalf("Names = %v", names)
	}
}

// denyObservers is a session manager that rejects joins by observers and
// deletes by anyone but client 1.
type denyObservers struct{}

func (denyObservers) Authorize(a Action, c wire.MemberInfo, _ string) error {
	if a == ActionJoin && c.Role == wire.RoleObserver {
		return errors.New("observers may not join")
	}
	if a == ActionDelete && c.ClientID != 1 {
		return errors.New("only the owner deletes")
	}
	return nil
}

func TestSessionManagerEnforced(t *testing.T) {
	r := NewRegistry(denyObservers{})
	if _, err := r.Create("g", false, info(1, "a")); err != nil {
		t.Fatal(err)
	}
	obs := wire.MemberInfo{ClientID: 2, Name: "o", Role: wire.RoleObserver}
	if _, err := r.Join("g", obs, false); !errors.Is(err, ErrDenied) {
		t.Errorf("observer join: %v, want ErrDenied", err)
	}
	if err := r.Delete("g", info(2, "b")); !errors.Is(err, ErrDenied) {
		t.Errorf("non-owner delete: %v, want ErrDenied", err)
	}
	if err := r.Delete("g", info(1, "a")); err != nil {
		t.Errorf("owner delete: %v", err)
	}
	// Server-internal operations (zero MemberInfo) bypass authorization.
	if _, err := r.Create("internal", true, wire.MemberInfo{}); err != nil {
		t.Errorf("internal create: %v", err)
	}
}

func TestActionString(t *testing.T) {
	for a, want := range map[Action]string{
		ActionCreate: "create", ActionDelete: "delete",
		ActionJoin: "join", ActionLeave: "leave",
	} {
		if a.String() != want {
			t.Errorf("%d.String() = %q", a, a.String())
		}
	}
}

func TestMemberIDsCopyOnWrite(t *testing.T) {
	r := NewRegistry(nil)
	g, _ := r.Create("g", false, wire.MemberInfo{})
	for i := uint64(1); i <= 3; i++ {
		if _, err := r.Join("g", info(i, fmt.Sprintf("c%d", i)), false); err != nil {
			t.Fatal(err)
		}
	}
	snap := g.MemberIDs()
	if got := g.MemberIDs(); &got[0] != &snap[0] {
		t.Fatal("MemberIDs allocated a fresh slice between mutations")
	}
	if _, err := r.Join("g", info(4, "c4"), false); err != nil {
		t.Fatal(err)
	}
	if _, _, err := r.Leave("g", 2); err != nil {
		t.Fatal(err)
	}
	// The pre-mutation snapshot is frozen, not mutated in place.
	if want := []uint64{1, 2, 3}; !reflect.DeepEqual(snap, want) {
		t.Fatalf("old snapshot mutated: %v, want %v", snap, want)
	}
	if want := []uint64{1, 3, 4}; !reflect.DeepEqual(g.MemberIDs(), want) {
		t.Fatalf("MemberIDs = %v, want %v", g.MemberIDs(), want)
	}
}

// TestSetMembers: an ordered member list replaces the group's, keeping the
// subscriptions of members already present, subscribing the named joiner,
// and keeping an unlisted member only when keep says so.
func TestSetMembers(t *testing.T) {
	r := NewRegistry(nil)
	if _, err := r.Create("g", false, wire.MemberInfo{}); err != nil {
		t.Fatal(err)
	}
	for _, m := range []struct {
		id     uint64
		notify bool
	}{{1, true}, {2, false}, {3, false}} {
		if _, err := r.Join("g", info(m.id, fmt.Sprint(m.id)), m.notify); err != nil {
			t.Fatal(err)
		}
	}
	keep := func(id uint64) bool { return id == 3 }
	g, err := r.SetMembers("g", []wire.MemberInfo{info(4, "4"), info(1, "1"), info(4, "4")}, 4, keep)
	if err != nil {
		t.Fatal(err)
	}
	if got := g.MemberIDs(); !reflect.DeepEqual(got, []uint64{4, 1, 3}) {
		t.Fatalf("members = %v, want [4 1 3]", got)
	}
	if got := g.Subscribers(); !reflect.DeepEqual(got, []uint64{4, 1}) {
		t.Fatalf("subscribers = %v, want [4 1]", got)
	}
	if g.Has(2) {
		t.Fatal("unlisted member 2 kept")
	}
	if _, err := r.SetMembers("missing", nil, 0, keep); !errors.Is(err, ErrNoSuchGroup) {
		t.Fatalf("SetMembers on a missing group: %v", err)
	}
}
