package placement

import (
	"fmt"
	"sort"
)

// Replica describes one current holder of a group's replica, as the
// coordinator sees it.
type Replica struct {
	// Members is the server's local member count for the group. A server
	// with members is pinned: its replica cannot move.
	Members uint64
	// Backup marks interest held purely as a hot-standby replica.
	Backup bool
	// Pending marks a designated backup that has not yet confirmed (its
	// state acquisition is in flight). Pending holders count toward
	// coverage — the designation will land — but cannot source or free a
	// migration.
	Pending bool
}

// ActionKind enumerates rebalance steps.
type ActionKind uint8

// Rebalance steps.
const (
	// Designate directs Server to acquire a fresh replica through the
	// ordinary backup path (state pulled from a holder).
	Designate ActionKind = iota + 1
	// Migrate designates Server a backup and, once it confirms its
	// replica, releases From.
	Migrate
	// Release directs Server to drop a surplus replica.
	Release
)

func (k ActionKind) String() string {
	switch k {
	case Designate:
		return "designate"
	case Migrate:
		return "migrate"
	case Release:
		return "release"
	default:
		return fmt.Sprintf("ActionKind(%d)", uint8(k))
	}
}

// Action is one rebalance step for one group.
type Action struct {
	Kind  ActionKind
	Group string
	// Server is the server acted on: the designation target, the
	// migration destination, or the releasing holder.
	Server uint64
	// From is the migration source (Kind == Migrate only).
	From uint64
}

// PlanGroup diffs a group's current replica set against the desired set and
// returns the actions that converge it. The plan is conservative — it never
// gives up coverage it already has:
//
//   - A desired server without a replica is paired with a movable current
//     holder (no members, not pending, not itself desired) and becomes a
//     Migrate; with no movable holder left it becomes a Designate.
//   - Surplus holders are Released only once the desired set is fully
//     present and confirmed, so coverage never dips below the factor while
//     a designation or migration is still in flight.
//
// Convergence may take several rounds (one migration frees one surplus);
// each round's output is deterministic in its inputs.
func PlanGroup(group string, current map[uint64]Replica, desired []uint64) []Action {
	want := make(map[uint64]bool, len(desired))
	for _, id := range desired {
		want[id] = true
	}

	var missing []uint64
	for _, id := range desired {
		if _, ok := current[id]; !ok {
			missing = append(missing, id)
		}
	}

	// Movable holders, most expendable first (non-backup before backup so
	// stray interest drains first; then by ID for determinism).
	var movable []uint64
	for id, r := range current {
		if r.Members == 0 && !r.Pending && !want[id] {
			movable = append(movable, id)
		}
	}
	sort.Slice(movable, func(i, j int) bool {
		ri, rj := current[movable[i]], current[movable[j]]
		if ri.Backup != rj.Backup {
			return !ri.Backup
		}
		return movable[i] < movable[j]
	})

	var actions []Action
	for _, dst := range missing {
		if len(movable) > 0 {
			src := movable[0]
			movable = movable[1:]
			actions = append(actions, Action{Kind: Migrate, Group: group, Server: dst, From: src})
		} else {
			actions = append(actions, Action{Kind: Designate, Group: group, Server: dst})
		}
	}

	if len(missing) == 0 {
		confirmed := true
		for _, id := range desired {
			if current[id].Pending {
				confirmed = false
				break
			}
		}
		if confirmed {
			for _, id := range movable {
				actions = append(actions, Action{Kind: Release, Group: group, Server: id})
			}
		}
	}
	return actions
}
