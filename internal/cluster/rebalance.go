package cluster

// Coordinator-side placement management. One planner (planLocked) decides
// where every policy-driven replica goes: it diffs a group's replica set
// against the policy-desired set (internal/placement) and returns the orders
// that carry the diff out. It runs in two places, which differ only in what
// they pin. The floor runs it for a group whenever the group's holders change
// (an answer, a registration, a server lost) and pins every live holder, so
// it can only designate; the rebalance tick runs it for every group, pinning
// the servers that host members, and also migrates — a designation of the
// target followed, once it confirms, by the release of the source — and
// releases surplus replicas as directed un-interest. The coordinator folds
// the load reports piggybacked on server heartbeats into a placement.Tracker,
// which weighs both.

import (
	"fmt"
	"slices"
	"sort"
	"time"

	"corona/internal/placement"
	"corona/internal/wire"
)

// PlacementConfig tunes the coordinator's placement manager.
type PlacementConfig struct {
	// Replicas is the target replica count per group (minimum and
	// default 2 — the paper's availability floor).
	Replicas int
	// RebalanceInterval is the cadence of placement evaluation. Zero
	// defaults to 4× the heartbeat interval; negative disables the
	// rebalance loop (the immediate ≥2-replica floor still applies).
	RebalanceInterval time.Duration
	// MigrationTimeout abandons a migration whose outcome never arrives
	// (default 30s).
	MigrationTimeout time.Duration
	// MaxMigrations caps concurrently in-flight migrations (default 2).
	MaxMigrations int
}

func (pc *PlacementConfig) applyDefaults(heartbeat time.Duration) {
	if pc.Replicas < placement.DefaultReplicas {
		pc.Replicas = placement.DefaultReplicas
	}
	if pc.RebalanceInterval == 0 {
		pc.RebalanceInterval = 4 * heartbeat
	}
	if pc.MigrationTimeout <= 0 {
		pc.MigrationTimeout = 30 * time.Second
	}
	if pc.MaxMigrations <= 0 {
		pc.MaxMigrations = 2
	}
}

// migrationRec is one in-flight migration, keyed by group (at most one per
// group at a time). The target's answer to its designation retires it
// (handleInterest).
type migrationRec struct {
	from, to uint64
	started  time.Time
}

// order is a message for one server, built under c.mu and sent after it
// (sendOrders). from names the source of the migration a designation starts.
type order struct {
	p    *peer
	msg  wire.Message
	from uint64
}

// designateLocked records a backup designation of server for the group,
// pending until the server answers with its SInterest either way, and
// returns the designation to send it. Caller holds c.mu.
func (c *Coordinator) designateLocked(group string, meta *groupMeta, server uint64) *wire.SInterest {
	meta.interest[server] = &interest{backup: true, pending: true}
	clusterBackupReassigns.Inc()
	return &wire.SInterest{ServerID: server, Group: group, Interested: true, Backup: true}
}

// sendOrders logs each designation and sends the orders, once c.mu is
// released.
func (c *Coordinator) sendOrders(orders []order) {
	for _, o := range orders {
		if in, ok := o.msg.(*wire.SInterest); ok && in.Interested {
			if o.from != 0 {
				c.log.Info("migration started", "group", in.Group, "from", o.from, "to", in.ServerID)
			} else {
				c.log.Info("backup elected", "group", in.Group, "server", in.ServerID)
			}
		}
		o.p.send(o.msg)
	}
}

// Replicas returns the IDs of the live servers holding a replica of the
// group, sorted: a designated backup counts once it has confirmed its
// replica, so each one can serve a pull or be a migration's source.
func (c *Coordinator) Replicas(group string) []uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	meta, ok := c.groups[group]
	if !ok {
		return nil
	}
	out := make([]uint64, 0, len(meta.interest))
	for id, in := range meta.interest {
		if _, live := c.peers[id]; live && !in.pending {
			out = append(out, id)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Members returns the group's member list as this coordinator ordered it.
func (c *Coordinator) Members(group string) []wire.MemberInfo {
	c.mu.Lock()
	defer c.mu.Unlock()
	if meta, ok := c.groups[group]; ok {
		return slices.Clone(meta.members)
	}
	return nil
}

// MigrateGroup triggers a live migration of the group's replica from one
// server to another. It validates the endpoints, records the migration and
// designates the target a backup; once the target confirms its replica, the
// source is directed to release its own (handleInterest).
func (c *Coordinator) MigrateGroup(group string, from, to uint64) error {
	c.mu.Lock()
	meta, ok := c.groups[group]
	if !ok {
		c.mu.Unlock()
		return fmt.Errorf("cluster: no group %q", group)
	}
	if _, busy := c.migrations[group]; busy {
		c.mu.Unlock()
		return fmt.Errorf("cluster: migration of %q already in flight", group)
	}
	in, holds := meta.interest[from]
	if !holds || in.pending {
		c.mu.Unlock()
		return fmt.Errorf("cluster: server %d holds no replica of %q", from, group)
	}
	_, srcLive := c.peers[from]
	dst, dstLive := c.peers[to]
	if !srcLive || !dstLive {
		c.mu.Unlock()
		return fmt.Errorf("cluster: migration endpoints %d→%d not live", from, to)
	}
	c.migrations[group] = &migrationRec{from: from, to: to, started: c.cfg.Now()}
	clusterMigrationsStarted.Inc()
	designation := order{dst, c.designateLocked(group, meta, to), from}
	c.mu.Unlock()

	c.sendOrders([]order{designation})
	return nil
}

// loadsLocked assembles the placement view of every live server: the
// tracker's report when one has arrived, a zero load for servers that have
// not heartbeated yet. Caller holds c.mu.
func (c *Coordinator) loadsLocked() []placement.ServerLoad {
	snap := c.place.Snapshot()
	byID := make(map[uint64]placement.ServerLoad, len(snap))
	for _, s := range snap {
		byID[s.ID] = s
	}
	out := make([]placement.ServerLoad, 0, len(c.peers))
	for id := range c.peers {
		if s, ok := byID[id]; ok {
			out = append(out, s)
		} else {
			out = append(out, placement.ServerLoad{ID: id})
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ID < out[j].ID })
	return out
}

// planLocked plans one group's replicas: it diffs the live holders against
// the policy's desired set for loads and returns the orders that converge
// them. Pinned servers are always desired. The rebalance tick pins the
// servers hosting the group's members. The floor (pinHolders) pins every
// live holder, a pending designation's included, so the plan only tops the
// group up to min(Replicas, live servers) — the paper's "at least two copies
// of the state exist at any moment" — and never moves or drops a replica. A
// migration starts only while fewer than MaxMigrations are in flight.
// Caller holds c.mu; loads come from the same hold.
func (c *Coordinator) planLocked(name string, meta *groupMeta, loads []placement.ServerLoad, pinHolders bool) []order {
	current := make(map[uint64]placement.Replica, len(meta.interest))
	var pinned []uint64
	for id, in := range meta.interest {
		if _, live := c.peers[id]; !live {
			continue
		}
		r := placement.Replica{Members: uint64(len(meta.hosted(id))), Backup: in.backup, Pending: in.pending}
		current[id] = r
		if pinHolders || r.Members > 0 {
			pinned = append(pinned, id)
		}
	}
	slices.Sort(pinned)
	// Every server in the plan is live: desired servers come from loads or
	// pinned, and sources and releases from current.
	var orders []order
	for _, act := range placement.PlanGroup(name, current, c.policy.Desired(name, loads, pinned)) {
		switch act.Kind {
		case placement.Designate:
			orders = append(orders, order{p: c.peers[act.Server], msg: c.designateLocked(name, meta, act.Server)})
		case placement.Migrate:
			if len(c.migrations) >= c.cfg.Placement.MaxMigrations {
				continue
			}
			c.migrations[name] = &migrationRec{from: act.From, to: act.Server, started: c.cfg.Now()}
			clusterMigrationsStarted.Inc()
			orders = append(orders, order{c.peers[act.Server], c.designateLocked(name, meta, act.Server), act.From})
		case placement.Release:
			// The interest entry stays until the server confirms the drop
			// with SInterest{Interested: false}; resending on later ticks
			// is idempotent.
			clusterReplicasReleased.Inc()
			orders = append(orders, order{p: c.peers[act.Server], msg: &wire.SInterest{ServerID: act.Server, Group: name, Interested: false}})
		}
	}
	return orders
}

// rebalance runs one placement evaluation: expire stale migrations, then plan
// every group without a migration in flight.
func (c *Coordinator) rebalance() {
	type migNote struct {
		group    string
		from, to uint64
	}
	var expired []migNote
	var orders []order

	c.mu.Lock()
	now := c.cfg.Now()
	for group, rec := range c.migrations {
		if now.Sub(rec.started) > c.cfg.Placement.MigrationTimeout {
			delete(c.migrations, group)
			clusterMigrationsFailed.Inc()
			expired = append(expired, migNote{group, rec.from, rec.to})
		}
	}
	loads := c.loadsLocked()
	names := make([]string, 0, len(c.groups))
	for name := range c.groups {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if _, busy := c.migrations[name]; !busy {
			orders = append(orders, c.planLocked(name, c.groups[name], loads, false)...)
		}
	}
	c.mu.Unlock()

	for _, m := range expired {
		c.log.Warn("migration timed out", "group", m.group, "from", m.from, "to", m.to)
	}
	c.sendOrders(orders)
}
