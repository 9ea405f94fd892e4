package cluster

// Coordinator-side placement management. The coordinator folds the load
// reports piggybacked on server heartbeats into a placement.Tracker, and on
// every rebalance tick diffs each group's replica set against the
// policy-desired set (internal/placement), executing the resulting actions:
// designations through the ordinary backup path, migrations as the
// designation of the target followed, once it confirms, by the release of
// the source, and releases as directed un-interest.

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

// order is a message for one server, built under c.mu and sent after it.
type order struct {
	p   *peer
	msg wire.Message
}

// designateLocked records a backup designation of server for the group,
// pending until the server answers with its SInterest either way, and
// returns the designation to send it. Caller holds c.mu.
func (c *Coordinator) designateLocked(group string, meta *groupMeta, server uint64) *wire.SInterest {
	meta.interest[server] = &interest{backup: true, pending: true}
	clusterBackupReassigns.Inc()
	return &wire.SInterest{ServerID: server, Group: group, Interested: true, Backup: true}
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
	designation := c.designateLocked(group, meta, to)
	c.mu.Unlock()

	c.log.Info("migration started", "group", group, "from", from, "to", to)
	dst.send(designation)
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

// ensureReplicas enforces the paper's availability rule as a floor: "At
// least two copies of the state exist at any moment." Whenever a group's
// replica count (live holders plus in-flight designations) drops below the
// replication factor — a holder crashed, released, or two member-hosting
// servers died inside one heartbeat window — enough fresh backups are
// designated immediately, chosen by the placement policy. The rebalance
// loop refines placement later; this path exists so coverage never waits
// for a rebalance tick or a client-driven join.
func (c *Coordinator) ensureReplicas(group string) {
	c.mu.Lock()
	meta, ok := c.groups[group]
	if !ok || len(c.peers) == 0 {
		c.mu.Unlock()
		return
	}
	want := c.cfg.Placement.Replicas
	if want > len(c.peers) {
		want = len(c.peers)
	}
	have := 0
	pinned := make([]uint64, 0, len(meta.interest))
	for id := range meta.interest {
		if _, live := c.peers[id]; live {
			have++
			pinned = append(pinned, id)
		}
	}
	if have >= want {
		c.mu.Unlock()
		return
	}
	sort.Slice(pinned, func(i, j int) bool { return pinned[i] < pinned[j] })
	var orders []order
	for _, id := range c.policy.Desired(group, c.loadsLocked(), pinned) {
		if _, holds := meta.interest[id]; holds {
			continue
		}
		if p, live := c.peers[id]; live {
			orders = append(orders, order{p, c.designateLocked(group, meta, id)})
		}
	}
	c.mu.Unlock()

	for _, o := range orders {
		c.log.Info("backup elected", "group", group, "server", o.p.info.ID)
		o.p.send(o.msg)
	}
}

// rebalance runs one placement evaluation: expire stale migrations, then
// plan and execute actions for every group.
func (c *Coordinator) rebalance() {
	now := c.cfg.Now()
	var sends []order
	type migNote struct {
		group    string
		from, to uint64
	}
	var expired, launched []migNote
	var released int

	c.mu.Lock()
	if len(c.peers) == 0 {
		c.mu.Unlock()
		return
	}
	for group, rec := range c.migrations {
		if now.Sub(rec.started) > c.cfg.Placement.MigrationTimeout {
			delete(c.migrations, group)
			clusterMigrationsFailed.Inc()
			expired = append(expired, migNote{group, rec.from, rec.to})
		}
	}
	loads := c.loadsLocked()
	budget := c.cfg.Placement.MaxMigrations - len(c.migrations)

	names := make([]string, 0, len(c.groups))
	for name := range c.groups {
		names = append(names, name)
	}
	sort.Strings(names)

	for _, name := range names {
		if _, busy := c.migrations[name]; busy {
			continue
		}
		meta := c.groups[name]
		current := make(map[uint64]placement.Replica, len(meta.interest))
		var pinned []uint64
		for id, in := range meta.interest {
			if _, live := c.peers[id]; !live {
				continue
			}
			current[id] = placement.Replica{Members: uint64(len(meta.hosted(id))), Backup: in.backup, Pending: in.pending}
			if current[id].Members > 0 {
				pinned = append(pinned, id)
			}
		}
		sort.Slice(pinned, func(i, j int) bool { return pinned[i] < pinned[j] })
		desired := c.policy.Desired(name, loads, pinned)
		for _, act := range placement.PlanGroup(name, current, desired) {
			switch act.Kind {
			case placement.Designate:
				if p, live := c.peers[act.Server]; live {
					sends = append(sends, order{p, c.designateLocked(name, meta, act.Server)})
				}
			case placement.Migrate:
				if budget <= 0 {
					continue
				}
				_, srcLive := c.peers[act.From]
				dst, dstLive := c.peers[act.Server]
				if !srcLive || !dstLive {
					continue
				}
				budget--
				c.migrations[name] = &migrationRec{from: act.From, to: act.Server, started: now}
				clusterMigrationsStarted.Inc()
				launched = append(launched, migNote{name, act.From, act.Server})
				sends = append(sends, order{dst, c.designateLocked(name, meta, act.Server)})
			case placement.Release:
				p, live := c.peers[act.Server]
				if !live {
					continue
				}
				// The interest entry stays until the server confirms the
				// drop with SInterest{Interested: false}; resending on
				// later ticks is idempotent.
				released++
				sends = append(sends, order{p, &wire.SInterest{ServerID: act.Server, Group: name, Interested: false}})
			}
		}
	}
	c.mu.Unlock()

	for _, m := range expired {
		c.log.Warn("migration timed out", "group", m.group, "from", m.from, "to", m.to)
	}
	for _, m := range launched {
		c.log.Info("migration started", "group", m.group, "from", m.from, "to", m.to)
	}
	if released > 0 {
		clusterReplicasReleased.Add(uint64(released))
	}
	for _, s := range sends {
		s.p.send(s.msg)
	}
}
