// Package core implements the Corona stateful multicast server — the
// paper's primary contribution. The Engine ties the substrates together:
// per-group shared state (internal/state), membership (internal/membership),
// locks (internal/locks), and the stable-storage message log
// (internal/wal). Server (server.go) is the standalone single-server
// frontend used by the paper's Figure 3 and Table 1 experiments; the
// replicated frontend lives in internal/cluster.
//
// The Engine shards its locking per group, because groups are independent
// ordering domains (total order is per group, paper §4.1): an engine-level
// RWMutex guards the group/session registries, and each group carries its
// own mutex serializing sequence/apply/fanout. The multicast hot path takes
// the engine lock in read mode plus one group mutex, so disjoint groups
// sequence, apply, and fan out in parallel across cores; group create and
// delete, membership changes, and lock operations take the engine lock in
// write mode, which excludes every in-flight multicast and keeps the
// ordering guarantees — total order per group, FIFO per sender, JoinAck
// before any subsequent Deliver — as auditable as the original single
// coarse mutex. WAL durability is off the apply path: appends are queued to
// the log's group-commit writer, which batches records from concurrent
// groups into one buffered write and one fsync, and under SyncAlways the
// sender's BcastAck is deferred until its record's batch is durable (the
// paper's "multicast data to a group in parallel with disk logging", §6).
// Deliveries leave the locks as non-blocking enqueues of pooled shared
// frames onto per-client write pumps.
package core

import (
	"fmt"
	"log/slog"
	"runtime"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"corona/internal/locks"
	"corona/internal/membership"
	"corona/internal/obs"
	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wal"
	"corona/internal/wire"
)

// EngineConfig configures an Engine.
type EngineConfig struct {
	// ServerID distinguishes servers of a replicated service; client IDs
	// embed it so they are globally unique. Single servers use 1.
	ServerID uint64
	// Dir is the stable-storage directory. Empty disables disk logging
	// (state is kept in memory only).
	Dir string
	// Sync is the WAL durability policy.
	Sync wal.SyncPolicy
	// SyncEvery is the flush period for wal.SyncInterval.
	SyncEvery time.Duration
	// SegmentSize is the WAL segment roll-over threshold in bytes
	// (0: wal.DefaultSegmentSize). Smaller segments let log reduction
	// reclaim disk sooner at the cost of more files.
	SegmentSize int64
	// WALFS is the filesystem the WAL runs on (nil: the real one). The
	// fault-injection seam — internal/faultfs plugs in here.
	WALFS wal.FS
	// ReopenBackoff is the initial delay between degraded-mode WAL reopen
	// attempts (0: DefaultReopenBackoff). See degraded.go.
	ReopenBackoff time.Duration
	// Stateless turns the engine into the paper's baseline: a sequencer
	// that keeps no shared state and no log. Joins transfer nothing.
	Stateless bool
	// SessionManager authorizes membership actions (nil: allow all).
	SessionManager membership.SessionManager
	// Logger receives operational logs (nil: slog.Default).
	Logger *slog.Logger
	// PumpDepth bounds each client's outbound queue.
	PumpDepth int
	// Now supplies timestamps (nil: time.Now).
	Now func() time.Time
	// AutoReduceThreshold triggers state-log reduction when a group's
	// retained history exceeds this many events (0 disables the policy).
	AutoReduceThreshold int
	// PriorityOf assigns a delivery priority per group (nil: every group
	// is PriorityNormal). High-priority groups' deliveries overtake
	// queued normal traffic on each client connection — the scheduling
	// control of the paper's QoS-adaptive server (§5.3).
	PriorityOf func(group string) Priority
	// FanoutShards sets the width of the off-lock delivery pipeline: the
	// number of fanout workers the receiver sets are sharded over. 0
	// picks a default from GOMAXPROCS; negative is a configuration error.
	FanoutShards int
	// Metrics is the registry the engine hangs its instruments on.
	// cmd/coronad passes obs.Default so they show up at -debug-addr;
	// nil gets a private registry, keeping each test engine's numbers
	// isolated.
	Metrics *obs.Registry
	// Hooks integrate the engine into a replicated service.
	Hooks Hooks
}

// Priority is a group's delivery scheduling class.
type Priority int

// Priorities.
const (
	// PriorityNormal is the default class.
	PriorityNormal Priority = iota
	// PriorityHigh deliveries are written before queued normal traffic.
	PriorityHigh
)

// Hooks are the integration points the replicated frontend plugs into. All
// hooks are invoked with the engine lock held and must not block; they
// should only enqueue onto peer connections.
type Hooks struct {
	// Forward, when set, routes a validated Bcast to the coordinator for
	// sequencing instead of sequencing locally. The BcastAck to the
	// sender is deferred until the event returns via ApplyDistributed.
	Forward func(group string, ev wire.Event, senderInclusive bool, reqID uint64) error
	// OnMembershipChange is Forward's membership twin: when set, a
	// validated join, leave or session crash is routed to the coordinator
	// to be ordered instead of taking effect here. The change takes effect
	// — and the client's Join or Leave completes — when its ordered copy
	// returns via ApplyMembership.
	OnMembershipChange func(group string, change wire.MembershipChange, member wire.MemberInfo) error
	// Intercept, when set, sees every client request before the engine.
	// Returning true consumes the message. Unlike the other hooks it runs
	// WITHOUT the engine lock (on the session's read goroutine) and may
	// block — the replicated frontend uses it to coordinate group ops
	// and state fetches before letting the engine proceed.
	Intercept func(s *Session, msg wire.Message) bool
}

// walLog is the engine's view of the stable-storage log, satisfied by
// *wal.Log. An interface rather than the concrete type so tests can
// substitute the committer — and so the blocking-ness of the log stays
// visible to lockhold through interface dispatch rather than hiding
// behind a seam.
type walLog interface {
	// AppendAsync queues a record for group commit; done runs on the
	// committer goroutine after the batch's write (and fsync, per policy).
	AppendAsync(payload []byte, done func(lsn uint64, err error)) error
	// Barrier blocks until everything queued so far is durable.
	Barrier() error
	// TruncateBefore drops whole segments strictly below lsn.
	TruncateBefore(lsn uint64) error
	// SegmentCount reports the live segment count (GC observability).
	SegmentCount() int
	// Failed reports whether the log hit a terminal storage fault and
	// rejects all writes with wal.ErrLogFailed.
	Failed() bool
	Close() error
}

// Engine is the stateful multicast service core.
//
// Locking protocol. e.mu guards the registries (reg, groups, sessions,
// locks, nextClient, closed). Operations that mutate them — group
// create/delete, join/leave, session add/drop, lock ops, log reduction —
// take it in write mode. The multicast path (multicast.go) takes it in read
// mode plus the target group's mutex from its groupRuntime, so multicasts
// to disjoint groups run in parallel while
// any write-mode operation still excludes every multicast (which is what
// makes JoinAck-before-Deliver and snapshot consistency trivial). Order:
// e.mu before a group mutex; a group mutex is only ever held together with
// the read lock, and never more than one at a time. The group critical
// section covers sequence+apply+persist-enqueue only: fanout is pushed as
// a non-blocking ring entry and runs on the fanout pool's shards off-lock
// (see fanout.go for the pipeline's own ordering argument). A group's log
// floor (groupRuntime.lowLSN) is an atomic because WAL completion callbacks
// update it from the committer goroutine.
type Engine struct {
	cfg EngineConfig
	log *slog.Logger

	mu  sync.RWMutex
	reg *membership.Registry
	// groups is the engine's one record per group (groupRuntime).
	groups   map[string]*groupRuntime
	locks    *locks.Table
	sessions map[uint64]*Session
	// pending holds the joins and leaves of local members on their way
	// through the coordinator's order (OnMembershipChange set).
	pending    map[memberKey]pendingChange
	wal        walLog // nil when Dir == "" or Stateless
	nextClient uint64
	closed     bool

	// fanout is the off-lock delivery pool. stopped is closed by Close
	// and wakes senders blocked on a full fanout ring. reporter owns the
	// single error-logging goroutine the locked paths enqueue to.
	fanout   *fanoutPool
	stopped  chan struct{}
	reporter *errReporter

	// degraded is set after a terminal WAL failure: the engine serves
	// memory-only, SyncAlways acks become CodeNotDurable nacks, and a
	// background reopen loop (tracked by bg so Close can wait for it)
	// works on replacing the log. See degraded.go.
	degraded atomic.Bool
	bg       sync.WaitGroup

	// Instruments live outside e.mu: all counters are atomic, so the
	// multicast hot path and metrics pollers never contend on the engine
	// lock.
	metrics           *obs.Registry
	mBcasts           *obs.Counter
	mDelivered        *obs.Counter
	mDropped          *obs.Counter
	mReduced          *obs.Counter
	mTransferBytes    *obs.Counter
	mTransferChunks   *obs.Counter
	mWALErrors        *obs.Counter
	mApplyErrors      *obs.Counter
	mBcastNacks       *obs.Counter
	mFloorCheckpoints *obs.Counter
	mDegradedEntries  *obs.Counter
	mDegradedRecovers *obs.Counter
	gDegraded         *obs.Gauge
	gSessions         *obs.Gauge
	gGroups           *obs.Gauge
	gTransferInflight *obs.Gauge
	mFanoutWaits      *obs.Counter
	mLogDrops         *obs.Counter
	mShardBusy        *obs.Counter
	gRingDepth        *obs.Gauge
	hFanout           *obs.Histogram
	hJoin             *obs.Histogram
	hJoinLockHold     *obs.Histogram
	hLockWait         *obs.Histogram
	hLockHold         *obs.Histogram
	hOfflock          *obs.Histogram
	hShardBatch       *obs.Histogram
	hIngestBatch      *obs.Histogram
	hDeliveryBatch    *obs.Histogram
}

// NewEngine builds an engine and, when a directory is configured, recovers
// the persistent groups from the stable-storage log.
func NewEngine(cfg EngineConfig) (*Engine, error) {
	if cfg.FanoutShards < 0 {
		return nil, fmt.Errorf("core: FanoutShards %d is negative", cfg.FanoutShards)
	}
	if cfg.ServerID == 0 {
		cfg.ServerID = 1
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	metrics := cfg.Metrics
	if metrics == nil {
		metrics = obs.NewRegistry()
	}
	e := &Engine{
		cfg:      cfg,
		log:      cfg.Logger,
		reg:      membership.NewRegistry(cfg.SessionManager),
		groups:   make(map[string]*groupRuntime),
		locks:    locks.NewTable(),
		sessions: make(map[uint64]*Session),
		pending:  make(map[memberKey]pendingChange),
		stopped:  make(chan struct{}),

		metrics:           metrics,
		mBcasts:           metrics.Counter("engine.bcasts"),
		mDelivered:        metrics.Counter("engine.delivered"),
		mDropped:          metrics.Counter("engine.dropped"),
		mReduced:          metrics.Counter("engine.reductions"),
		mTransferBytes:    metrics.Counter("engine.transfer_bytes"),
		mTransferChunks:   metrics.Counter("engine.transfer_chunks"),
		mWALErrors:        metrics.Counter("engine.wal_append_errors"),
		mApplyErrors:      metrics.Counter("engine.apply_errors"),
		mBcastNacks:       metrics.Counter("engine.bcast_nacks"),
		mFloorCheckpoints: metrics.Counter("engine.floor_checkpoints"),
		mDegradedEntries:  metrics.Counter("engine.degraded_entries"),
		mDegradedRecovers: metrics.Counter("engine.degraded_recoveries"),
		gDegraded:         metrics.Gauge("engine.degraded"),
		mFanoutWaits:      metrics.Counter("engine.fanout_backpressure_waits"),
		mLogDrops:         metrics.Counter("engine.error_log_dropped"),
		mShardBusy:        metrics.Counter("engine.fanout_shard_busy_ns"),
		gSessions:         metrics.Gauge("engine.sessions"),
		gGroups:           metrics.Gauge("engine.groups"),
		gTransferInflight: metrics.Gauge("engine.transfer_inflight_bytes"),
		gRingDepth:        metrics.Gauge("engine.fanout_ring_depth"),
		hFanout:           metrics.Histogram("engine.fanout_ns"),
		hJoin:             metrics.Histogram("engine.join_ns"),
		hJoinLockHold:     metrics.Histogram("engine.join_lock_hold_ns"),
		hLockWait:         metrics.Histogram("engine.bcast_lock_wait_ns"),
		hLockHold:         metrics.Histogram("engine.bcast_lock_hold_ns"),
		hOfflock:          metrics.Histogram("engine.fanout_offlock_ns"),
		hShardBatch:       metrics.Histogram("engine.fanout_shard_batch"),
		hIngestBatch:      metrics.Histogram("engine.ingest_batch_size"),
		hDeliveryBatch:    metrics.Histogram("engine.delivery_batch_size"),
	}
	e.reporter = newErrReporter(e.log, e.mLogDrops)
	e.fanout = newFanoutPool(e, fanoutWidth(cfg.FanoutShards))
	if cfg.Dir != "" && !cfg.Stateless {
		err := e.recover(wal.Options{
			Dir: cfg.Dir, Sync: cfg.Sync,
			SyncEvery: cfg.SyncEvery, SegmentSize: cfg.SegmentSize,
			FS: cfg.WALFS,
		})
		if err != nil {
			return nil, fmt.Errorf("core: recover: %w", err)
		}
	}
	// Health probes: /healthz goes red while the engine cannot make
	// SyncAlways durability promises.
	metrics.Probe("engine.degraded", func() error {
		if e.degraded.Load() {
			return errDegraded
		}
		return nil
	})
	if e.wal != nil {
		metrics.Probe("wal.failed", func() error {
			e.mu.RLock()
			l := e.wal
			e.mu.RUnlock()
			if l != nil && l.Failed() {
				return errWALFailed
			}
			return nil
		})
	}
	return e, nil
}

// Probe sentinel errors; /healthz reports their text.
var (
	errDegraded  = fmt.Errorf("engine degraded: serving memory-only after storage failure")
	errWALFailed = fmt.Errorf("wal failed: log rejects writes")
)

// Metrics returns the engine's instrument registry.
func (e *Engine) Metrics() *obs.Registry { return e.metrics }

// syncGroupsGauge pins the groups gauge to the registry size. Called
// after every mutation that creates or deletes groups; deriving the
// level instead of counting deltas means the gauge cannot drift. Caller
// holds e.mu (or is initializing).
func (e *Engine) syncGroupsGauge() {
	e.gGroups.Set(int64(e.reg.Len()))
}

// Close shuts the engine down: senders blocked on fanout backpressure are
// woken, every session is closed, the fanout pool drains and stops, and
// the log is flushed. Close of a degraded engine reports nil whatever its
// log's close returns: the degradation was reported when it began (nacks,
// engine.degraded, /healthz), and the log a failed reopen attempt left
// behind makes no durability promise a final fsync could keep. Safe to
// call more than once.
func (e *Engine) Close() error {
	e.mu.Lock()
	if e.closed {
		e.mu.Unlock()
		return nil
	}
	e.closed = true
	close(e.stopped)
	sessions := make([]*Session, 0, len(e.sessions))
	for _, s := range e.sessions {
		sessions = append(sessions, s)
	}
	e.mu.Unlock()

	for _, s := range sessions {
		s.close()
	}
	e.fanout.close()
	// Wait out the degraded-mode reopen loop before touching the log: it
	// may be mid-swap of e.wal. closed is set, so it exits promptly.
	e.bg.Wait()
	e.reporter.close()
	e.mu.Lock()
	l := e.wal
	e.mu.Unlock()
	if l == nil {
		return nil
	}
	err := l.Close()
	if e.degraded.Load() {
		return nil
	}
	return err
}

// Stateless reports whether the engine runs in the sequencer-only baseline
// mode.
func (e *Engine) Stateless() bool { return e.cfg.Stateless }

// ServerID returns the engine's server identity.
func (e *Engine) ServerID() uint64 { return e.cfg.ServerID }

// newClientID composes a globally unique client ID from the server ID and a
// local counter. Caller holds e.mu.
func (e *Engine) newClientID() uint64 {
	e.nextClient++
	return e.cfg.ServerID<<40 | e.nextClient
}

// getState returns the group's shared state, which exists for every
// registered group unless the engine is stateless. Caller holds e.mu.
func (e *Engine) getState(group string) *state.Group {
	if grt := e.groups[group]; grt != nil {
		return grt.st
	}
	return nil
}

// HasGroup reports whether the group is registered. Used by the replicated
// frontend to decide whether a join needs a state fetch first.
func (e *Engine) HasGroup(name string) bool {
	e.mu.RLock()
	defer e.mu.RUnlock()
	_, ok := e.reg.Get(name)
	return ok
}

// LocalMembers returns the number of the group's members connected to this
// server — its fanout's receivers — and of its joins on their way through
// the coordinator's order. In a replicated service the registry holds the
// group's global membership, members of other servers included.
func (e *Engine) LocalMembers(name string) int {
	e.mu.RLock()
	defer e.mu.RUnlock()
	n := 0
	if grt := e.groups[name]; grt != nil {
		n = grt.snap.size
	}
	for key, op := range e.pending {
		if key.group == name && op.change == wire.MemberJoined {
			n++
		}
	}
	return n
}

// InstallGroup is the replica's one entrance for a group image received
// from a peer: it replaces the registration's state, resets the sequence
// counter to the image's and takes the image's member list (members
// connected here are kept). Without rewind an image that does not advance
// the local replica — one at or behind it — is not installed, so racing
// installers (a migration stream and a concurrent join-driven acquisition)
// can both run to completion without rewinding the replica, which would
// re-apply sequenced events and deliver duplicates to local members. rewind
// installs the image whatever is held, as a divergence rollback must.
// installed reports whether it was.
func (e *Engine) InstallGroup(name string, persistent bool, cp state.Checkpointed, members []wire.MemberInfo, rewind bool) (installed bool, err error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if st := e.getState(name); !rewind && st != nil && st.NextSeq() >= cp.NextSeq {
		return false, nil
	}
	if err := e.installLocked(name, persistent, cp); err != nil {
		return false, err
	}
	_, _ = e.reg.SetMembers(name, members, 0, e.hasSession)
	e.rebuildFanoutLocked(name)
	return true, nil
}

// hasSession reports whether a client is connected here. Caller holds e.mu.
func (e *Engine) hasSession(clientID uint64) bool {
	_, ok := e.sessions[clientID]
	return ok
}

// installLocked is InstallGroup's install, under e.mu.
func (e *Engine) installLocked(name string, persistent bool, cp state.Checkpointed) error {
	st, err := state.RestoreMaterialized(cp)
	if err != nil {
		return fmt.Errorf("core: install %q: %w", name, err)
	}
	grt := e.registerLocked(name, persistent, st)
	if persistent {
		e.persistCheckpoint(grt, name)
	}
	return nil
}

// registerLocked is the one way a group enters the engine, whether created
// (createLocked), installed from a replica image (installLocked) or rebuilt
// from the log (recover). It sets the registry entry (an existing one keeps
// its members), the group's record (an existing one keeps its log floor)
// and fanout snapshot, and the record's state, whose next sequence number
// becomes the group's — a stateless engine keeps only that number. It logs
// nothing: each caller persists what its path needs, to the record it
// returns. Caller holds e.mu in write mode.
func (e *Engine) registerLocked(name string, persistent bool, st *state.Group) *groupRuntime {
	if _, ok := e.reg.Get(name); !ok {
		// Cannot fail: the name is free, and the zero creator bypasses
		// the session manager.
		_, _ = e.reg.Create(name, persistent, wire.MemberInfo{})
	}
	grt := e.ensureGroupRuntime(name)
	e.rebuildFanoutLocked(name)
	if e.cfg.Stateless {
		grt.next = st.NextSeq()
	} else {
		grt.st = st
	}
	e.syncGroupsGauge()
	return grt
}

// GroupImage exports a group's image — objects, retained history, digest —
// the one export every reader of a whole group takes: replica transfer,
// migration, divergence forks. It is taken like a multicast, under the read
// lock plus the group's mutex, in O(#objects): the image is a view sharing
// the live buffers (see state.Checkpoint), so the caller may encode or
// stream it concurrently with new updates but must never write through it.
// ok reports whether the group exists; a stateless engine's image carries
// only the sequence number.
func (e *Engine) GroupImage(name string) (persistent bool, cp state.Checkpointed, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, exists := e.reg.Get(name)
	if !exists {
		return false, state.Checkpointed{}, false
	}
	grt := e.groups[name]
	grt.mu.Lock()
	defer grt.mu.Unlock()
	if grt.st == nil {
		return g.Persistent, state.Checkpointed{NextSeq: grt.next}, true
	}
	return g.Persistent, grt.st.Checkpoint(), true
}

// replicaImage is what a replica pull is answered with (ServeReplica), read
// under one hold of the image's locks (those of GroupImage): the retained
// events from `from` on when the replica still has them all, its whole image
// otherwise — a `from` of 0 precedes every checkpoint base, so it always gets
// the image — and the group's member list. A cursor past the replica's own
// next sequence number yields an empty suffix. ok reports whether the group
// exists.
func (e *Engine) replicaImage(name string, from uint64) (cp state.Checkpointed, members []wire.MemberInfo, ok bool) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, exists := e.reg.Get(name)
	if !exists {
		return state.Checkpointed{}, nil, false
	}
	members = g.Members()
	grt := e.groups[name]
	grt.mu.Lock()
	defer grt.mu.Unlock()
	st := grt.st
	if st == nil {
		return state.Checkpointed{NextSeq: grt.next}, members, true
	}
	tr, err := st.Capture(wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: min(from, st.NextSeq())})
	if err != nil {
		return st.Checkpoint(), members, true
	}
	return state.Checkpointed{BaseSeq: tr.BaseSeq(), NextSeq: tr.NextSeq(), History: tr.Events()}, members, true
}

// NextSeq returns one group's sequencing high-water mark — the number its
// next event carries, as SeqReport would report it — without walking the
// registry or excluding the server's multicasts. 1 for an unknown group.
func (e *Engine) NextSeq(name string) uint64 {
	e.mu.RLock()
	defer e.mu.RUnlock()
	grt := e.groups[name]
	if grt == nil {
		return 1
	}
	grt.mu.Lock()
	defer grt.mu.Unlock()
	return grt.nextSeq()
}

// SeqReport returns, per group, the sequencing high-water mark, digest and
// members hosted here: what a server registers with a coordinator.
func (e *Engine) SeqReport() []wire.GroupSeq {
	e.mu.Lock()
	defer e.mu.Unlock()
	names := e.reg.Names()
	sort.Strings(names)
	out := make([]wire.GroupSeq, 0, len(names))
	for _, name := range names {
		g, ok := e.reg.Get(name)
		if !ok {
			continue
		}
		grt := e.groups[name]
		gs := wire.GroupSeq{
			Group:      name,
			NextSeq:    grt.nextSeq(),
			Persistent: g.Persistent,
			Members:    e.hostedLocked(g),
		}
		if grt.st != nil {
			gs.Digest = grt.st.Digest()
		}
		out = append(out, gs)
	}
	return out
}

// Groups returns the names of all registered groups.
func (e *Engine) Groups() []string {
	e.mu.RLock()
	defer e.mu.RUnlock()
	return e.reg.Names()
}

// failSession closes a session's connection; the frontend's read loop will
// observe the error and call DropSession. Used when a pump overflows or a
// write fails. Safe without the engine lock.
func (e *Engine) failSession(s *Session, reason error) {
	e.log.Warn("dropping session", "client", s.ID, "name", s.Name, "reason", reason)
	e.mDropped.Inc()
	e.metrics.Event("core", fmt.Sprintf("dropping session %d (%s): %v", s.ID, s.Name, reason))
	s.close()
}

// fanoutWidth resolves the FanoutShards setting: 0 means a GOMAXPROCS-
// derived default between 2 and 8, and explicit widths are clamped to
// maxFanoutShards.
func fanoutWidth(configured int) int {
	if configured == 0 {
		return min(max(runtime.GOMAXPROCS(0), 2), 8)
	}
	return min(configured, maxFanoutShards)
}

// ensureGroupRuntime returns the group's runtime, creating it (with an
// empty receiver snapshot) on first sight. Caller holds e.mu in write mode
// or is initializing.
func (e *Engine) ensureGroupRuntime(name string) *groupRuntime {
	grt := e.groups[name]
	if grt == nil {
		grt = &groupRuntime{
			ring: newFanoutRing(),
			snap: &fanoutSnap{buckets: make([][]fanoutTarget, e.fanout.width())},
		}
		grt.lowLSN.Store(noFloor)
		e.groups[name] = grt
	}
	return grt
}

// rebuildFanoutLocked replaces a group's COW receiver snapshot: the local
// members intersected with live sessions, pre-partitioned by session ID
// into one bucket per fanout shard. Called after every mutation of the
// group's membership or of the session set — the one map lookup per member
// happens here, once per membership change, instead of once per receiver
// per event on the delivery path. Caller holds e.mu in write mode (or is
// initializing), which excludes every reader of grt.snap.
func (e *Engine) rebuildFanoutLocked(name string) {
	grt := e.groups[name]
	if grt == nil {
		return
	}
	w := e.fanout.width()
	snap := &fanoutSnap{buckets: make([][]fanoutTarget, w)}
	if g, ok := e.reg.Get(name); ok {
		for _, id := range g.MemberIDs() {
			sess, ok := e.sessions[id]
			if !ok {
				continue // member lives on another server of the cluster
			}
			b := int(id % uint64(w))
			snap.buckets[b] = append(snap.buckets[b], fanoutTarget{id: id, sess: sess})
			snap.mask |= 1 << b
			snap.size++
		}
	}
	// Sorted buckets let has() binary-search on the hot path; delivery
	// order within a bucket is free (per-receiver FIFO is per receiver).
	for _, b := range snap.buckets {
		sort.Slice(b, func(i, j int) bool { return b[i].id < b[j].id })
	}
	grt.snap = snap
}

// waitResult is the outcome of one off-lock wait for fanout-ring space.
type waitResult int

const (
	// waitGot: a ring credit was acquired and is owned by the caller.
	waitGot waitResult = iota
	// waitRetry: the ring closed (group deleted, possibly re-created);
	// no credit is held and the caller must revalidate.
	waitRetry
	// waitStopped: the engine is shutting down.
	waitStopped
)

// waitFanoutSpace blocks until the group's fanout ring frees a slot — the
// backpressure half of the delivery pipeline. Must be called with no
// engine locks held.
func (e *Engine) waitFanoutSpace(r *fanoutRing) waitResult {
	e.mFanoutWaits.Inc()
	select {
	case <-r.credits:
		return waitGot
	case <-r.closed:
		return waitRetry
	case <-e.stopped:
		return waitStopped
	}
}

// releaseCredit returns a possibly-nil held ring credit; safe under the
// engine locks.
func (e *Engine) releaseCredit(r *fanoutRing) {
	if r != nil {
		r.release()
	}
}

// recordLockHold charges one group-lock hold covering n multicasts to the
// engine.bcast_lock_hold_ns histogram, amortized: hold/n recorded n times,
// so Sum stays the true lock time and the quantiles answer "what does one
// multicast cost inside the critical section" independent of how many
// events the read loop happened to coalesce into the acquisition.
func (e *Engine) recordLockHold(holdNs int64, n int) {
	if n <= 1 {
		e.hLockHold.Record(holdNs)
		return
	}
	per := holdNs / int64(n)
	for i := 0; i < n; i++ {
		e.hLockHold.Record(per)
	}
}

// sendControlLocked routes a reply through the delivery pipeline so it
// cannot overtake deliveries already pushed for the session — LeaveAck
// must come after every Deliver the member is still owed. Caller holds
// e.mu in write mode, which orders the push after every earlier fanout
// push and before every later one. Control entries bypass ring credits.
func (e *Engine) sendControlLocked(s *Session, msg wire.Message, high bool) {
	ent := newFanoutEntry()
	ent.frame = transport.NewSharedFrame(msg)
	ent.targets = append(ent.targets, fanoutTarget{id: s.ID, sess: s})
	ent.high = high
	if !e.fanout.push(ent) {
		// Pool closing: deliver directly (the pump is closing too, so
		// this degrades to a no-op rather than a lost ordering edge).
		f := ent.frame
		ent.frame = nil
		recycleFanoutEntry(ent)
		s.sendShared(f, high)
	}
}
