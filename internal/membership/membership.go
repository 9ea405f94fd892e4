// Package membership implements Corona's group-membership service (paper
// §3.2): creating, deleting, joining and leaving groups; persistent vs.
// transient groups; member roles; membership queries; and the notification
// lists used to push membership changes to interested members.
//
// The registry is not self-synchronizing: the owning server serializes
// access. The engine holds its registry lock in read mode on the multicast
// hot path and in write mode for every membership mutation, so registry
// code can assume it never races itself; per-group ordering is the
// engine's per-group mutex, not the registry's concern.
package membership

import (
	"errors"
	"fmt"

	"corona/internal/wire"
)

// Membership errors.
var (
	ErrGroupExists   = errors.New("membership: group already exists")
	ErrNoSuchGroup   = errors.New("membership: no such group")
	ErrAlreadyMember = errors.New("membership: already a member")
	ErrNotMember     = errors.New("membership: not a member")
	// ErrDenied is returned when the session manager refuses an action.
	ErrDenied = errors.New("membership: denied by session manager")
)

// Action is a membership operation submitted to the session manager.
type Action int

// Actions.
const (
	ActionCreate Action = iota + 1
	ActionDelete
	ActionJoin
	ActionLeave
)

func (a Action) String() string {
	switch a {
	case ActionCreate:
		return "create"
	case ActionDelete:
		return "delete"
	case ActionJoin:
		return "join"
	case ActionLeave:
		return "leave"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// SessionManager authorizes membership actions. The paper delegates this to
// an external workspace session manager that "determines which client is
// allowed to execute these actions"; implementations plug in here.
type SessionManager interface {
	// Authorize returns nil to permit the action. A non-nil error denies
	// it and is reported to the client.
	Authorize(action Action, client wire.MemberInfo, group string) error
}

// AllowAll is the default SessionManager: every action is permitted.
type AllowAll struct{}

// Authorize implements SessionManager.
func (AllowAll) Authorize(Action, wire.MemberInfo, string) error { return nil }

// Member is one group member.
type Member struct {
	Info wire.MemberInfo
	// Notify subscribes the member to membership-change notifications.
	Notify bool
}

// Group is one communication group's membership record.
type Group struct {
	Name       string
	Persistent bool
	// members in join order; fanout iterates this slice, so delivery
	// order to members is deterministic (the evaluation's worst-case
	// client is the last to join).
	members []*Member
	byID    map[uint64]*Member
	// ids is the copy-on-write MemberIDs snapshot: rebuilt as a fresh
	// slice on every join/leave, never mutated in place, so the fanout
	// hot path can iterate it without allocating and without racing a
	// membership change it doesn't hold the write lock against.
	ids []uint64
}

// Members returns the membership snapshot in join order.
func (g *Group) Members() []wire.MemberInfo {
	out := make([]wire.MemberInfo, len(g.members))
	for i, m := range g.members {
		out[i] = m.Info
	}
	return out
}

// MemberIDs returns the member client IDs in join order. The slice is a
// shared copy-on-write snapshot — callers must treat it as read-only. It
// stays valid (frozen at this membership) across concurrent joins and
// leaves, which install a replacement rather than mutate it.
func (g *Group) MemberIDs() []uint64 { return g.ids }

// rebuildIDs installs a fresh MemberIDs snapshot. Called on every
// membership mutation; the old slice is left untouched for readers still
// iterating it.
func (g *Group) rebuildIDs() {
	ids := make([]uint64, len(g.members))
	for i, m := range g.members {
		ids[i] = m.Info.ClientID
	}
	g.ids = ids
}

// Subscribers returns the client IDs subscribed to membership
// notifications, in join order.
func (g *Group) Subscribers() []uint64 {
	var out []uint64
	for _, m := range g.members {
		if m.Notify {
			out = append(out, m.Info.ClientID)
		}
	}
	return out
}

// Size returns the current member count.
func (g *Group) Size() int { return len(g.members) }

// Has reports whether clientID is a member.
func (g *Group) Has(clientID uint64) bool {
	_, ok := g.byID[clientID]
	return ok
}

// Member returns one member's info by client ID.
func (g *Group) Member(clientID uint64) (wire.MemberInfo, bool) {
	m, ok := g.byID[clientID]
	if !ok {
		return wire.MemberInfo{}, false
	}
	return m.Info, true
}

// Registry tracks every group known to a server.
type Registry struct {
	groups map[string]*Group
	sm     SessionManager
}

// NewRegistry returns an empty registry guarded by sm (nil means AllowAll).
func NewRegistry(sm SessionManager) *Registry {
	if sm == nil {
		sm = AllowAll{}
	}
	return &Registry{groups: make(map[string]*Group), sm: sm}
}

// Create registers a new group. creator may be the zero MemberInfo for
// server-internal creation (e.g. WAL recovery), which bypasses the session
// manager.
func (r *Registry) Create(name string, persistent bool, creator wire.MemberInfo) (*Group, error) {
	if creator != (wire.MemberInfo{}) {
		if err := r.sm.Authorize(ActionCreate, creator, name); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrDenied, err)
		}
	}
	if _, ok := r.groups[name]; ok {
		return nil, fmt.Errorf("%w: %q", ErrGroupExists, name)
	}
	g := &Group{Name: name, Persistent: persistent, byID: make(map[uint64]*Member)}
	r.groups[name] = g
	return g, nil
}

// Delete removes a group; its shared state is the caller's to discard
// (paper: "the shared state of a deleted group is lost").
func (r *Registry) Delete(name string, requester wire.MemberInfo) error {
	if requester != (wire.MemberInfo{}) {
		if err := r.sm.Authorize(ActionDelete, requester, name); err != nil {
			return fmt.Errorf("%w: %w", ErrDenied, err)
		}
	}
	if _, ok := r.groups[name]; !ok {
		return fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	delete(r.groups, name)
	return nil
}

// Get returns a group by name.
func (r *Registry) Get(name string) (*Group, bool) {
	g, ok := r.groups[name]
	return g, ok
}

// Names returns all group names (unordered).
func (r *Registry) Names() []string {
	out := make([]string, 0, len(r.groups))
	for name := range r.groups {
		out = append(out, name)
	}
	return out
}

// Len returns the number of groups.
func (r *Registry) Len() int { return len(r.groups) }

// Admit checks that info may join the group without adding it: the group
// exists, the session manager allows the join, and info is not a member yet.
func (r *Registry) Admit(name string, info wire.MemberInfo) (*Group, error) {
	if err := r.sm.Authorize(ActionJoin, info, name); err != nil {
		return nil, fmt.Errorf("%w: %w", ErrDenied, err)
	}
	g, ok := r.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	if g.Has(info.ClientID) {
		return nil, fmt.Errorf("%w: client %d in %q", ErrAlreadyMember, info.ClientID, name)
	}
	return g, nil
}

// Join adds a member to a group.
func (r *Registry) Join(name string, info wire.MemberInfo, notify bool) (*Group, error) {
	g, err := r.Admit(name, info)
	if err != nil {
		return nil, err
	}
	m := &Member{Info: info, Notify: notify}
	g.members = append(g.members, m)
	g.byID[info.ClientID] = m
	g.rebuildIDs()
	return g, nil
}

// SetMembers replaces a group's member list with members, in their order:
// the list a replicated service's coordinator ordered. A member already
// present keeps its notification subscription, and subscriber (when new)
// is subscribed. A present member missing from members stays, in its old
// order after the others, when keep reports true for it.
func (r *Registry) SetMembers(name string, members []wire.MemberInfo, subscriber uint64, keep func(clientID uint64) bool) (*Group, error) {
	g, ok := r.groups[name]
	if !ok {
		return nil, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	list := make([]*Member, 0, len(members))
	byID := make(map[uint64]*Member, len(members))
	for _, info := range members {
		if _, dup := byID[info.ClientID]; dup {
			continue
		}
		m := &Member{Info: info, Notify: info.ClientID == subscriber}
		if old, ok := g.byID[info.ClientID]; ok {
			m.Notify = old.Notify
		}
		list = append(list, m)
		byID[info.ClientID] = m
	}
	for _, old := range g.members {
		if _, listed := byID[old.Info.ClientID]; !listed && keep(old.Info.ClientID) {
			list = append(list, old)
			byID[old.Info.ClientID] = old
		}
	}
	g.members, g.byID = list, byID
	g.rebuildIDs()
	return g, nil
}

// Leave removes a member from a group. It reports whether the group became
// empty, so the caller can apply the transient-group rule ("a transient
// group ceases to exist when it has no members").
func (r *Registry) Leave(name string, clientID uint64) (g *Group, empty bool, err error) {
	g, ok := r.groups[name]
	if !ok {
		return nil, false, fmt.Errorf("%w: %q", ErrNoSuchGroup, name)
	}
	if !g.Has(clientID) {
		return nil, false, fmt.Errorf("%w: client %d in %q", ErrNotMember, clientID, name)
	}
	delete(g.byID, clientID)
	for i, m := range g.members {
		if m.Info.ClientID == clientID {
			g.members = append(g.members[:i], g.members[i+1:]...)
			break
		}
	}
	g.rebuildIDs()
	return g, g.Size() == 0, nil
}

// GroupsOf returns the names of every group clientID belongs to.
func (r *Registry) GroupsOf(clientID uint64) []string {
	var out []string
	for name, g := range r.groups {
		if g.Has(clientID) {
			out = append(out, name)
		}
	}
	return out
}
