// Package cluster implements the replicated Corona service (paper §4): a
// star topology in which one server acts as coordinator — the sequencer
// imposing a total, causal, per-sender-FIFO order on each group's
// multicasts — and the other servers are its clients. Each group is split
// across servers: a server keeps a replica of a group's shared state only
// while it hosts members of that group (or holds an elected backup), and
// broadcasts are routed only to interested servers.
//
// Failure handling follows §4.2: heartbeats with timeouts detect crashed
// servers; the coordinator removes them and reassigns backups; when the
// coordinator itself dies, the first live server in the boot-ordered server
// list claims the role after an escalating timeout and rules once a
// majority of the remaining servers acknowledges.
package cluster

import (
	"fmt"
	"log/slog"
	"slices"
	"sort"
	"sync"
	"time"

	"corona/internal/obs"
	"corona/internal/placement"
	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// Defaults for the failure detector.
const (
	DefaultHeartbeatInterval = 250 * time.Millisecond
	DefaultPeerTimeout       = 4 * DefaultHeartbeatInterval
)

// CoordinatorConfig configures a Coordinator.
type CoordinatorConfig struct {
	// ID is the coordinator's server identity (default 1).
	ID uint64
	// PeerAddr is the address servers connect to (default "127.0.0.1:0").
	PeerAddr string
	// HeartbeatInterval is the liveness probe period.
	HeartbeatInterval time.Duration
	// PeerTimeout declares a silent server dead.
	PeerTimeout time.Duration
	// Epoch is the coordinator's ruling epoch; a freshly elected
	// coordinator passes the epoch it won.
	Epoch uint64
	// NoListen embeds the coordinator into an existing peer listener: no
	// accept loop runs, and connections arrive via ServeRegistration. A
	// promoted cluster server uses this.
	NoListen bool
	// Logger receives operational logs (nil: slog.Default).
	Logger *slog.Logger
	// Now supplies timestamps (nil: time.Now).
	Now func() time.Time
	// OnDivergence decides how a post-partition divergence is settled
	// (paper §4.2: roll back, adopt one of the updated states, or evolve
	// as two groups). Nil applies the default: roll the rejoining server
	// back when another replica holds the authoritative state, adopt the
	// server's version otherwise.
	OnDivergence func(DivergenceReport) wire.Resolution
	// Placement tunes the placement manager (see rebalance.go).
	Placement PlacementConfig
}

// DivergenceReport describes a detected post-partition divergence: a
// rejoining server reports a history for a group that cannot be an
// extension of the history this coordinator sequenced.
type DivergenceReport struct {
	Group    string
	ServerID uint64
	// ServerNextSeq/ServerDigest describe the rejoining server's replica.
	ServerNextSeq uint64
	ServerDigest  uint64
	// CoordNextSeq/CoordDigest describe the authoritative history.
	CoordNextSeq uint64
	CoordDigest  uint64
	// OtherReplicas reports how many other servers hold the group, which
	// the default resolution uses.
	OtherReplicas int
}

// peer is one registered server.
type peer struct {
	info     wire.ServerInfo
	conn     *transport.Conn
	pump     *transport.Pump
	lastSeen time.Time
	// reported is set once the link's first SSeqReport, the server's
	// registration, is taken in; a later one (a fork's) only adds groups.
	reported bool
}

// interest records that one server holds a replica of a group, and how.
type interest struct {
	backup bool
	// pending marks a stake the server has not confirmed yet, a backup
	// designation or the stream a locate started: it cannot serve state
	// requests until its replica exists.
	pending bool
	// link is the peer link a designation was sent on. That link's first
	// report may have left before the designation arrived, so the report
	// does not drop it (handleSeqReport).
	link *peer
}

// groupMeta is the coordinator's registry entry for one group.
type groupMeta struct {
	persistent bool
	// noInitial records a create that carried no initial objects: until the
	// first event is sequenced such a group provably has no state.
	noInitial bool
	// interest maps each server holding a replica to its stake.
	interest map[uint64]*interest
	// members is the global membership in the group's order. A member's
	// hosting server is hostOf its client ID, so a server crash can fail
	// its members, and a server's member count is read off this list.
	members []wire.MemberInfo
	// sequenced records whether this coordinator sequenced any event for
	// the group in its reign; only then can a server's seq report
	// conflict rather than merely recover state.
	sequenced bool
	// next is the sequence number the group's next event gets.
	next uint64
	// digest is the history digest of the authoritative event chain.
	digest uint64
	// authority, when nonzero, names the server whose replica state
	// requests should prefer (set after a divergence adoption).
	authority uint64
}

// hostOf extracts the hosting server from a client ID, which the engine
// composes as serverID<<40|counter (core.Engine.newClientID).
func hostOf(clientID uint64) uint64 { return clientID >> 40 }

// hosted lists the group's members that server hosts, in the group's order.
func (m *groupMeta) hosted(server uint64) []wire.MemberInfo {
	var out []wire.MemberInfo
	for _, mi := range m.members {
		if hostOf(mi.ClientID) == server {
			out = append(out, mi)
		}
	}
	return out
}

func newGroupMeta(persistent bool) *groupMeta {
	return &groupMeta{
		persistent: persistent,
		interest:   make(map[uint64]*interest),
		next:       1,
	}
}

// Coordinator is the sequencing hub of a replicated Corona service.
type Coordinator struct {
	cfg CoordinatorConfig
	log *slog.Logger

	listener *transport.Listener

	// place and policy are the placement manager's load view and
	// placement function; migrations tracks in-flight live migrations by
	// group (see rebalance.go).
	place  *placement.Tracker
	policy placement.Policy

	mu         sync.Mutex
	epoch      uint64
	peers      map[uint64]*peer
	nextBoot   uint64
	groups     map[string]*groupMeta
	migrations map[string]*migrationRec
	closed     bool

	// afterRegister, when a test sets it, runs right after the hold that
	// registers a server.
	afterRegister func()

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewCoordinator builds a coordinator and opens its peer listener, but does
// not start serving; call Start.
func NewCoordinator(cfg CoordinatorConfig) (*Coordinator, error) {
	if cfg.ID == 0 {
		cfg.ID = 1
	}
	if cfg.PeerAddr == "" {
		cfg.PeerAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.PeerTimeout <= 0 {
		cfg.PeerTimeout = DefaultPeerTimeout
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}
	if cfg.Now == nil {
		cfg.Now = time.Now
	}
	cfg.Placement.applyDefaults(cfg.HeartbeatInterval)
	var l *transport.Listener
	if !cfg.NoListen {
		var err error
		l, err = transport.Listen(cfg.PeerAddr)
		if err != nil {
			return nil, err
		}
	}
	c := &Coordinator{
		cfg:        cfg,
		log:        cfg.Logger,
		listener:   l,
		epoch:      cfg.Epoch,
		peers:      make(map[uint64]*peer),
		groups:     make(map[string]*groupMeta),
		place:      placement.NewTracker(cfg.Now),
		policy:     placement.Policy{Replicas: cfg.Placement.Replicas},
		migrations: make(map[string]*migrationRec),
		stop:       make(chan struct{}),
	}
	return c, nil
}

// Start begins accepting servers and running the failure detector.
func (c *Coordinator) Start() {
	if c.listener != nil {
		c.wg.Add(1)
		go c.acceptLoop()
	}
	c.wg.Add(1)
	go c.heartbeatLoop()
}

// Addr returns the peer listen address servers should dial. Embedded
// (NoListen) coordinators have no address of their own.
func (c *Coordinator) Addr() string {
	if c.listener == nil {
		return ""
	}
	return c.listener.Addr().String()
}

// Epoch returns the coordinator's ruling epoch.
func (c *Coordinator) Epoch() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// ServerCount returns the number of registered servers.
func (c *Coordinator) ServerCount() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.peers)
}

// GroupSeq returns the coordinator's next sequence number for a group, 1
// for a group it does not know.
func (c *Coordinator) GroupSeq(group string) uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if meta, ok := c.groups[group]; ok {
		return meta.next
	}
	return 1
}

// HasGroup reports whether the group is registered at the coordinator.
func (c *Coordinator) HasGroup(group string) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	_, ok := c.groups[group]
	return ok
}

// Close stops the coordinator and disconnects every server.
func (c *Coordinator) Close() error {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	c.closed = true
	peers := make([]*peer, 0, len(c.peers))
	for _, p := range c.peers {
		peers = append(peers, p)
	}
	c.mu.Unlock()

	close(c.stop)
	var err error
	if c.listener != nil {
		err = c.listener.Close()
	}
	for _, p := range peers {
		_ = p.conn.Close()
	}
	c.wg.Wait()
	return err
}

func (c *Coordinator) acceptLoop() {
	defer c.wg.Done()
	for {
		conn, err := c.listener.Accept()
		if err != nil {
			return
		}
		c.wg.Add(1)
		go func() {
			defer c.wg.Done()
			c.servePeer(conn)
		}()
	}
}

// servePeer runs one server connection: registration, then the forwarding
// loop until the link drops.
func (c *Coordinator) servePeer(conn *transport.Conn) {
	defer conn.Close()
	msg, err := conn.ReadMessage()
	if err != nil {
		return
	}
	hello, ok := msg.(*wire.SHello)
	if !ok {
		// Possibly an election probe hitting a live coordinator: nack
		// so the candidate knows the incumbent rules.
		if el, isElect := msg.(*wire.SElect); isElect && !versionRefused(conn, 0, el.Proto) {
			c.mu.Lock()
			epoch := c.epoch
			c.mu.Unlock()
			_ = conn.WriteMessage(&wire.SElectReply{
				VoterID: c.cfg.ID, CandidateID: el.CandidateID, Epoch: epoch, Ack: false,
				CoordAddr: c.Addr(),
			})
		}
		return
	}
	c.ServeRegistration(conn, hello)
}

// ServeRegistration runs a server connection whose SHello has already been
// read. A promoted cluster server routes registrations from its shared peer
// listener here; the coordinator's own accept loop uses it too. A server
// speaking another protocol version is refused with one ErrorMsg. The call
// blocks until the link drops.
func (c *Coordinator) ServeRegistration(conn *transport.Conn, hello *wire.SHello) {
	if versionRefused(conn, hello.RequestID, hello.Proto) {
		c.log.Warn("registration refused", "server", hello.ServerID, "proto", hello.Proto)
		return
	}
	p := c.register(conn, hello)
	if p == nil {
		return
	}
	c.log.Info("server registered", "server", p.info.ID, "addr", p.info.Addr, "boot", p.info.BootOrder)

	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			break
		}
		c.handlePeerMessage(p, msg)
	}
	c.deregister(p, "link lost")
}

// register adds a server, acks it and distributes the updated server list,
// all in the hold that makes the server visible: the ack is the link's first
// frame, and every server receives the lists in the order the set changed.
func (c *Coordinator) register(conn *transport.Conn, hello *wire.SHello) *peer {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return nil
	}
	var stale *peer
	if old, ok := c.peers[hello.ServerID]; ok {
		// A reconnecting server replaces its stale link; the link teardown
		// (pump drain) happens after c.mu is released.
		stale = old
		delete(c.peers, hello.ServerID)
	}
	boot := c.nextBoot
	c.nextBoot++
	p := &peer{
		info:     wire.ServerInfo{ID: hello.ServerID, Addr: hello.Addr, BootOrder: boot},
		conn:     conn,
		pump:     transport.NewPump(conn, 0),
		lastSeen: c.cfg.Now(),
	}
	c.peers[p.info.ID] = p
	c.enqueueLocked(&wire.SHelloAck{
		RequestID:     hello.RequestID,
		CoordinatorID: c.cfg.ID,
		Epoch:         c.epoch,
		BootOrder:     boot,
		Servers:       c.serverListLocked(),
	}, p, nil)
	c.broadcastServerListLocked()
	c.mu.Unlock()

	if c.afterRegister != nil {
		c.afterRegister()
	}
	if stale != nil {
		_ = stale.conn.Close()
		stale.pump.Close()
	}
	return p
}

// serverListLocked snapshots the registered servers sorted by boot order.
// Caller holds c.mu.
func (c *Coordinator) serverListLocked() []wire.ServerInfo {
	out := make([]wire.ServerInfo, 0, len(c.peers))
	for _, p := range c.peers {
		out = append(out, p.info)
	}
	sortServers(out)
	return out
}

func sortServers(ss []wire.ServerInfo) {
	for i := 1; i < len(ss); i++ {
		for j := i; j > 0 && ss[j].BootOrder < ss[j-1].BootOrder; j-- {
			ss[j], ss[j-1] = ss[j-1], ss[j]
		}
	}
}

// broadcastServerListLocked enqueues the server set as it stands in this
// hold on every registered server's link. Caller holds c.mu.
func (c *Coordinator) broadcastServerListLocked() {
	list := &wire.SServerList{CoordinatorID: c.cfg.ID, Epoch: c.epoch, Servers: c.serverListLocked()}
	for _, p := range c.peers {
		c.enqueueLocked(list, p, nil)
	}
}

// deregister removes a dead server, fails its members group by group, and
// re-elects backups.
func (c *Coordinator) deregister(p *peer, reason string) {
	c.mu.Lock()
	if c.closed {
		// Shutdown: do not cascade shrinking server lists to peers whose
		// links are about to die anyway — a crashed coordinator would
		// send nothing, and a partial list would mislead the elections
		// that follow.
		c.mu.Unlock()
		p.pump.Close()
		return
	}
	cur, ok := c.peers[p.info.ID]
	if !ok || cur != p {
		c.mu.Unlock()
		return // replaced by a reconnect; nothing to clean
	}
	delete(c.peers, p.info.ID)
	clusterServersLost.Inc()
	c.place.Forget(p.info.ID)

	// Abandon migrations whose endpoint died; the rebalance loop replans.
	for group, rec := range c.migrations {
		if rec.from == p.info.ID || rec.to == p.info.ID {
			delete(c.migrations, group)
			clusterMigrationsFailed.Inc()
		}
	}

	loads := c.loadsLocked()
	for name, meta := range c.groups {
		_, had := meta.interest[p.info.ID]
		delete(meta.interest, p.info.ID)
		for _, m := range meta.hosted(p.info.ID) {
			c.orderMemberLocked(name, meta, 0, wire.MemberCrashed, m)
		}
		if had {
			c.planLocked(name, meta, loads, true)
		}
	}
	c.broadcastServerListLocked()
	c.mu.Unlock()

	c.log.Warn("server lost", "server", p.info.ID, "reason", reason)
	p.pump.Close()
}

func (c *Coordinator) handlePeerMessage(p *peer, msg wire.Message) {
	c.mu.Lock()
	p.lastSeen = c.cfg.Now()
	c.mu.Unlock()

	switch m := msg.(type) {
	case *wire.SForward:
		c.handleForward(m)
	case *wire.SInterest:
		c.handleInterest(p, m)
	case *wire.SMemberUpdate:
		c.handleMemberUpdate(p, m)
	case *wire.SGroupOp:
		c.handleGroupOp(p, m)
	case *wire.SStateRequest:
		c.handleStateRequest(p, m)
	case *wire.SHeartbeat:
		// lastSeen already bumped. A non-zero Time is the echo of one
		// of our own heartbeats: its age against our clock is the
		// round trip to that server.
		if m.Time > 0 {
			if d := c.cfg.Now().UnixNano() - m.Time; plausibleLatency(d) {
				clusterHeartbeatRTT.Record(d)
			}
		}
		c.place.Observe(p.info.ID, placement.Load{
			Groups: m.Load.Groups, Sessions: m.Load.Sessions, Bcasts: m.Load.Bcasts,
		})
	case *wire.SSeqReport:
		c.handleSeqReport(p, m)
	case *wire.SGroupsQuery:
		c.mu.Lock()
		groups := make([]string, 0, len(c.groups))
		for name := range c.groups {
			groups = append(groups, name)
		}
		sort.Strings(groups)
		c.enqueueLocked(&wire.SGroupsReport{RequestID: m.RequestID, Groups: groups}, p, nil)
		c.mu.Unlock()
	case *wire.SElectReply:
		// Stale election traffic; ignore.
	default:
		c.log.Warn("unexpected peer message", "kind", msg.Kind().String(), "server", p.info.ID)
	}
}

// handleForward sequences one multicast and distributes it to every
// interested server. The distribute is enqueued on every target's pump
// under the same c.mu hold that numbers it, so each link carries a group's
// events in sequence order: a replica's gap is then always a lost event,
// never two forwards racing to their pumps, and it waits for one catch-up.
// A forward for an unknown group is dropped: a server reports its groups
// before it forwards, so the group ended while the forward was on its way.
func (c *Coordinator) handleForward(m *wire.SForward) {
	c.mu.Lock()
	meta, ok := c.groups[m.Group]
	if !ok {
		c.mu.Unlock()
		c.log.Warn("forward for an unknown group dropped", "group", m.Group, "server", m.Origin)
		return
	}
	ev := m.Event
	ev.Seq, ev.Time = meta.next, c.cfg.Now().UnixNano()
	meta.next++
	meta.sequenced = true
	meta.digest = state.DigestEvent(meta.digest, ev)
	c.enqueueLocked(&wire.SDistribute{
		Group:           m.Group,
		Event:           ev,
		SenderInclusive: m.SenderInclusive,
		Origin:          m.Origin,
		RequestID:       m.RequestID,
	}, nil, meta.interest)
	c.mu.Unlock()
}

// enqueueLocked enqueues msg on the pump of to, when it is not nil, and of
// every registered server in interested. It is the one way a frame leaves the
// coordinator for a server, and it runs in the c.mu hold that decided the
// frame, so each link carries its frames in the order they were decided: a
// registration's ack before any server list, a group's events, membership
// changes and designations in their places among each other. A link whose
// pump refused msg is closed off this stack, and its read loop deregisters
// the server. Caller holds c.mu.
func (c *Coordinator) enqueueLocked(msg wire.Message, to *peer, interested map[uint64]*interest) {
	f := transport.NewSharedFrame(msg)
	send := func(p *peer) {
		f.Retain()
		if err := p.pump.SendShared(f, false); err != nil {
			f.Release()
			go func() { _ = p.conn.Close() }()
		}
	}
	if to != nil {
		send(to)
	}
	for id := range interested {
		if p, ok := c.peers[id]; ok && p != to {
			send(p)
		}
	}
	f.Release()
}

// handleInterest records a change in what a server holds and keeps the
// at-least-two-replicas invariant. A server answers every designation here,
// either way, so the answer of a migration's target retires the migration:
// a target that holds the replica now has the source directed to release
// its own (a source whose clients joined meanwhile refuses, and the
// migration degrades to a copy); one that could not acquire it leaves the
// source in place.
func (c *Coordinator) handleInterest(p *peer, m *wire.SInterest) {
	c.mu.Lock()
	meta, ok := c.groups[m.Group]
	if !ok {
		if m.Interested {
			// The group was deleted (or reaped as an emptied transient
			// group) while this server raced to acquire a replica: tell
			// it to drop the zombie instead of resurrecting the group.
			c.enqueueLocked(&wire.SGroupOp{Op: wire.GroupOpDelete, Group: m.Group}, p, nil)
		}
		c.mu.Unlock()
		return
	}
	if m.Interested {
		meta.interest[m.ServerID] = &interest{backup: m.Backup}
	} else {
		if in := meta.interest[m.ServerID]; in != nil && in.backup && in.pending {
			clusterDesignationsFailed.Inc()
		}
		delete(meta.interest, m.ServerID)
	}
	rec := c.migrations[m.Group]
	migrated := rec != nil && rec.to == m.ServerID
	if migrated {
		delete(c.migrations, m.Group)
		if m.Interested {
			c.enqueueLocked(&wire.SInterest{ServerID: rec.from, Group: m.Group, Interested: false}, c.peers[rec.from], nil)
		}
	}
	c.planLocked(m.Group, meta, c.loadsLocked(), true)
	c.mu.Unlock()

	switch {
	case !migrated:
	case !m.Interested:
		clusterMigrationsFailed.Inc()
		c.log.Warn("migration failed", "group", m.Group, "from", rec.from, "to", rec.to)
	default:
		clusterMigrationsDone.Inc()
		if d := c.cfg.Now().Sub(rec.started).Nanoseconds(); plausibleLatency(d) {
			clusterMigrationNs.Record(d)
		}
	}
}

// handleMemberUpdate orders one server's membership change. A change for a
// group the coordinator does not know is refused back to its origin: a
// membership report never creates a group.
func (c *Coordinator) handleMemberUpdate(p *peer, m *wire.SMemberUpdate) {
	c.mu.Lock()
	if meta, ok := c.groups[m.Group]; ok {
		c.orderMemberLocked(m.Group, meta, m.ServerID, m.Change, m.Member)
	} else {
		c.enqueueLocked(&wire.SMemberUpdate{
			ServerID: m.ServerID, Group: m.Group, Change: m.Change, Member: m.Member, Code: wire.CodeNoSuchGroup,
		}, p, nil)
	}
	c.mu.Unlock()
}

// orderMemberLocked applies one membership change to the group's member list
// and enqueues its ordered copy — the change and the list after it — on the
// pump of every interested server and of the origin, under the c.mu hold
// that numbers the group's multicasts (handleForward), so every link carries
// the copy in its place among them. A change that changes nothing (a member
// reported again, one already failed) goes back to the origin alone.
// The leave that empties a transient group ends the group here, as its copy
// does on every replica: "a transient group ceases to exist when it has no
// members, and its shared state is lost." A crash the coordinator detects
// with the member's server (origin 0) ends no group: the group's backups
// keep its state for whoever comes back (§4.1). Caller holds c.mu.
func (c *Coordinator) orderMemberLocked(name string, meta *groupMeta, origin uint64, change wire.MembershipChange, member wire.MemberInfo) {
	i := slices.IndexFunc(meta.members, func(m wire.MemberInfo) bool { return m.ClientID == member.ClientID })
	changed := true
	switch {
	case change == wire.MemberJoined && i < 0:
		meta.members = append(meta.members, member)
	case change != wire.MemberJoined && i >= 0:
		meta.members = slices.Delete(meta.members, i, i+1)
	default:
		changed = false
	}
	var interested map[uint64]*interest
	if changed {
		interested = meta.interest
	}
	c.enqueueLocked(&wire.SMemberUpdate{
		ServerID: origin, Group: name, Change: change, Member: member, Members: meta.members,
	}, c.peers[origin], interested)
	if changed && change != wire.MemberJoined && origin != 0 && len(meta.members) == 0 && !meta.persistent {
		delete(c.groups, name)
		obs.Default.Event("cluster", fmt.Sprintf("transient group %q ceased to exist", name))
	}
}

// handleGroupOp applies a create/delete, redistributes it and acks the
// origin. The redistribution comes before the ack on the origin's link, so
// the origin installs the group before completing its client's request.
func (c *Coordinator) handleGroupOp(p *peer, m *wire.SGroupOp) {
	c.mu.Lock()
	ack := &wire.SGroupOpAck{RequestID: m.RequestID, OK: true}
	switch m.Op {
	case wire.GroupOpCreate:
		if _, exists := c.groups[m.Group]; exists {
			ack.OK = false
			ack.Code = wire.CodeGroupExists
			ack.Text = fmt.Sprintf("group %q exists", m.Group)
		} else {
			// The origin installs the group before its client is acked, so
			// it is the holder from the instant the create is ordered: a
			// state request always has a source, however late the origin's
			// own interest report arrives.
			meta := newGroupMeta(m.Persistent)
			meta.noInitial = len(m.Initial) == 0
			meta.interest[p.info.ID] = &interest{backup: true}
			c.groups[m.Group] = meta
			// Only the origin installs the new group. Other servers
			// acquire it on demand (first local join or backup
			// designation).
			c.enqueueLocked(m, c.peers[m.Origin], nil)
		}
	case wire.GroupOpDelete:
		if _, exists := c.groups[m.Group]; !exists {
			ack.OK = false
			ack.Code = wire.CodeNoSuchGroup
			ack.Text = fmt.Sprintf("no group %q", m.Group)
		} else {
			delete(c.groups, m.Group)
			// Deletes reach every server so stale replicas die.
			for _, t := range c.peers {
				c.enqueueLocked(m, t, nil)
			}
		}
	default:
		ack.OK = false
		ack.Code = wire.CodeBadRequest
		ack.Text = "unknown group op"
	}
	c.enqueueLocked(ack, p, nil)
	c.mu.Unlock()
}

// handleStateRequest tells a server where a group's state lives. The
// coordinator never originates state: the requester pulls the image from the
// named replica over a direct peer connection. An OK answer starts the
// requester's stream at the mark it reads (paper §3.2: the state, then the
// live stream from the same point): a requester with no stake yet gets a
// pending one, and the answer is enqueued in the same c.mu hold, so every
// event and membership change ordered after the mark follows it on the link.
// The requester's SInterest settles the stake either way.
func (c *Coordinator) handleStateRequest(p *peer, m *wire.SStateRequest) {
	resp := &wire.SStateResponse{RequestID: m.RequestID, Group: m.Group, Code: wire.CodeNoSuchGroup}
	c.mu.Lock()
	if meta, ok := c.groups[m.Group]; ok {
		resp.Code = wire.CodeUnknown
		resp.Persistent = meta.persistent
		resp.NextSeq = meta.next
		// Choose a source replica other than the requester, preferring the
		// post-divergence authority when one is recorded.
		source, live := c.peers[meta.authority]
		if !live || source == p {
			source = nil
			for id, in := range meta.interest {
				if id == p.info.ID || in.pending || (!in.backup && len(meta.hosted(id)) == 0) {
					continue
				}
				if sp, ok := c.peers[id]; ok {
					source = sp
					break
				}
			}
		}
		switch {
		case source != nil:
			resp.OK = true
			resp.SourceID, resp.SourceAddr = source.info.ID, source.info.Addr
		case meta.noInitial && resp.NextSeq == 1:
			// No replica anywhere and nothing to lose: created without
			// initial objects, never sequenced. The requester starts it
			// empty. A group that may hold state gets no invented image;
			// the requester asks again until a holder is back.
			resp.OK = true
		}
		if _, ok := meta.interest[p.info.ID]; resp.OK && !ok {
			meta.interest[p.info.ID] = &interest{pending: true}
		}
	}
	c.enqueueLocked(resp, p, nil)
	c.mu.Unlock()
}

// handleSeqReport takes in a server's (re-)registration, all a freshly
// elected coordinator rebuilds its registry from. The server holds each
// reported group and no other — its interest in a group the registration
// leaves out, a designation made before this link included, is dropped; a
// designation sent on this link is newer than the report and kept — and
// hosts exactly the members it lists: each is ordered as a join, each other
// member listed on that server as a crash. Its high-water marks are folded
// into the sequencer, and a server whose history cannot extend the one this
// coordinator sequenced is reconciled (paper §4.2).
func (c *Coordinator) handleSeqReport(p *peer, m *wire.SSeqReport) {
	type divergence struct {
		report     DivergenceReport
		resolution wire.Resolution
	}
	var diverged []divergence // for the log

	c.mu.Lock()
	loads := c.loadsLocked()
	if !p.reported {
		p.reported = true
		listed := make(map[string]bool, len(m.Groups))
		for _, g := range m.Groups {
			listed[g.Group] = true
		}
		for name, meta := range c.groups {
			if in, had := meta.interest[m.ServerID]; had && !listed[name] && in.link != p {
				delete(meta.interest, m.ServerID)
				c.planLocked(name, meta, loads, true)
			}
		}
	}
	for _, g := range m.Groups {
		meta, ok := c.groups[g.Group]
		if !ok {
			meta = newGroupMeta(g.Persistent)
			c.groups[g.Group] = meta
		}
		if g.Persistent {
			meta.persistent = true
		}
		meta.interest[m.ServerID] = &interest{backup: g.Backup}
		for _, mi := range meta.hosted(m.ServerID) {
			if !slices.ContainsFunc(g.Members, func(r wire.MemberInfo) bool { return r.ClientID == mi.ClientID }) {
				c.orderMemberLocked(g.Group, meta, 0, wire.MemberCrashed, mi)
			}
		}
		for _, mi := range g.Members {
			c.orderMemberLocked(g.Group, meta, m.ServerID, wire.MemberJoined, mi)
		}
		coordNext := meta.next
		conflict := meta.sequenced && g.Digest != 0 &&
			((g.NextSeq > coordNext) ||
				(g.NextSeq == coordNext && meta.digest != 0 && g.Digest != meta.digest))
		if !conflict {
			// Plain recovery: fold the server's high-water mark in.
			if g.NextSeq > coordNext {
				meta.next = g.NextSeq
				meta.digest = g.Digest
			} else if g.NextSeq == coordNext && meta.digest == 0 {
				meta.digest = g.Digest
			}
			continue
		}

		report := DivergenceReport{
			Group:         g.Group,
			ServerID:      m.ServerID,
			ServerNextSeq: g.NextSeq,
			ServerDigest:  g.Digest,
			CoordNextSeq:  coordNext,
			CoordDigest:   meta.digest,
		}
		var others []*peer
		for id := range meta.interest {
			if id == m.ServerID {
				continue
			}
			if op, live := c.peers[id]; live {
				others = append(others, op)
			}
		}
		report.OtherReplicas = len(others)
		resolution := c.resolveDivergence(report)
		// The authoritative history stays as is, and the server rolls back
		// to it or forks off it, unless the server's version wins: then
		// every other replica rolls back to that.
		div, to := &wire.SDivergence{Group: g.Group, Resolution: resolution}, []*peer{p}
		switch resolution {
		case wire.ResolutionAdopt:
			meta.next = max(meta.next, g.NextSeq)
			meta.digest = g.Digest
			meta.authority = m.ServerID
			div.Resolution, to = wire.ResolutionRollback, others
		case wire.ResolutionFork:
			div.ForkName = fmt.Sprintf("%s.fork-%d", g.Group, m.ServerID)
		}
		for _, op := range to {
			c.enqueueLocked(div, op, nil)
		}
		diverged = append(diverged, divergence{report, resolution})
	}
	for _, g := range m.Groups {
		c.planLocked(g.Group, c.groups[g.Group], loads, true)
	}
	c.mu.Unlock()

	for _, d := range diverged {
		c.log.Warn("divergence detected",
			"group", d.report.Group, "server", d.report.ServerID,
			"server-seq", d.report.ServerNextSeq, "coord-seq", d.report.CoordNextSeq,
			"resolution", d.resolution.String())
	}
}

// resolveDivergence applies the configured (or default) resolution policy.
// Caller holds c.mu.
func (c *Coordinator) resolveDivergence(r DivergenceReport) wire.Resolution {
	if c.cfg.OnDivergence != nil {
		if res := c.cfg.OnDivergence(r); res >= wire.ResolutionRollback && res <= wire.ResolutionFork {
			return res
		}
	}
	// Default: roll the rejoining server back when an authoritative
	// replica survives elsewhere; adopt its version when it holds the
	// only copy.
	if r.OtherReplicas > 0 {
		return wire.ResolutionRollback
	}
	return wire.ResolutionAdopt
}

// heartbeatLoop probes the servers, reaps the silent ones, and drives the
// placement manager's rebalance ticks.
func (c *Coordinator) heartbeatLoop() {
	defer c.wg.Done()
	t := time.NewTicker(c.cfg.HeartbeatInterval)
	defer t.Stop()
	var lastRebalance time.Time
	for {
		select {
		case <-c.stop:
			return
		case <-t.C:
		}
		c.mu.Lock()
		now := c.cfg.Now()
		hb := &wire.SHeartbeat{ServerID: c.cfg.ID, Epoch: c.epoch, Time: now.UnixNano()}
		var dead []*peer
		for _, p := range c.peers {
			if now.Sub(p.lastSeen) > c.cfg.PeerTimeout {
				dead = append(dead, p)
				continue
			}
			c.enqueueLocked(hb, p, nil)
		}
		c.mu.Unlock()
		for _, p := range dead {
			clusterHeartbeatMisses.Inc()
			_ = p.conn.Close() // the read loop deregisters
		}
		if iv := c.cfg.Placement.RebalanceInterval; iv > 0 && now.Sub(lastRebalance) >= iv {
			lastRebalance = now
			c.rebalance()
		}
	}
}
