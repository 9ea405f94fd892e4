package cluster

import (
	"cmp"
	"errors"
	"fmt"
	"log/slog"
	"slices"
	"sync"
	"time"

	"corona/internal/core"
	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// errLinkDown is the cluster.link health-probe failure.
var errLinkDown = errors.New("coordinator link down: cannot sequence")

// ServerConfig configures a member server of a replicated Corona service.
type ServerConfig struct {
	// ID is the server's stable identity (required, unique, nonzero).
	ID uint64
	// ClientAddr is the address clients connect to (default ephemeral
	// loopback).
	ClientAddr string
	// PeerAddr is the address other servers reach this one at, used for
	// election probes and, after a promotion, coordinator duty (default
	// ephemeral loopback).
	PeerAddr string
	// CoordinatorAddr is the coordinator's peer address.
	CoordinatorAddr string
	// Engine carries the engine configuration. ServerID is overwritten
	// with ID, and cluster hooks are installed.
	Engine core.EngineConfig
	// HeartbeatInterval is the liveness probe period toward the
	// coordinator.
	HeartbeatInterval time.Duration
	// CoordinatorTimeout declares a silent coordinator dead.
	CoordinatorTimeout time.Duration
	// ElectionBackoff is the per-rank escalation unit of §4.2: the
	// server ranked r in the boot-ordered list waits (r+1)·backoff
	// before claiming the coordinator role, so a system of k+1 servers
	// tolerates k simultaneous crashes.
	ElectionBackoff time.Duration
	// DisableElection keeps the server reconnecting to the configured
	// coordinator forever instead of running elections (useful for
	// benchmarks and for deployments with an external supervisor).
	DisableElection bool
	// RequestTimeout bounds coordinated operations (group ops, state
	// fetches).
	RequestTimeout time.Duration
	// Placement configures the placement manager this server runs if it
	// is ever promoted to coordinator.
	Placement PlacementConfig
	// Logger receives operational logs (nil: slog.Default).
	Logger *slog.Logger
}

// Server errors.
var (
	ErrNoCoordinator = errors.New("cluster: no coordinator link")
	ErrServerClosed  = errors.New("cluster: server closed")
	errOpTimeout     = errors.New("cluster: coordinated operation timed out")
)

// Server is one member server of a replicated Corona service: it serves
// clients like a standalone Corona server, but defers sequencing and group
// coordination to the coordinator, keeps replicas only of the groups its
// clients use, and participates in coordinator succession.
type Server struct {
	cfg ServerConfig
	log *slog.Logger

	engine   *core.Engine
	frontend *core.Server
	peerLn   *transport.Listener

	// coordChanged wakes the link loop when an election announced a new
	// coordinator.
	coordChanged chan struct{}

	mu         sync.Mutex
	link       *transport.Conn
	pump       *transport.Pump
	coordAddr  string
	coordID    uint64
	epoch      uint64
	votedEpoch uint64
	bootOrder  uint64
	servers    []wire.ServerInfo
	pendingOps map[uint64]chan wire.Message
	nextReq    uint64
	backups    map[string]bool
	// acquiring holds each group's one acquisition in flight (acquire), from
	// before its locate until what the link brought meanwhile is taken in.
	acquiring map[string]*acquisition
	promoted  *Coordinator
	linkUp    bool
	closed    bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewServer builds a member server: engine, client listener, and peer
// listener. Call Start to connect to the coordinator and begin serving.
func NewServer(cfg ServerConfig) (*Server, error) {
	if cfg.ID == 0 {
		return nil, errors.New("cluster: ServerConfig.ID is required")
	}
	if cfg.CoordinatorAddr == "" {
		return nil, errors.New("cluster: ServerConfig.CoordinatorAddr is required")
	}
	if cfg.ClientAddr == "" {
		cfg.ClientAddr = "127.0.0.1:0"
	}
	if cfg.PeerAddr == "" {
		cfg.PeerAddr = "127.0.0.1:0"
	}
	if cfg.HeartbeatInterval <= 0 {
		cfg.HeartbeatInterval = DefaultHeartbeatInterval
	}
	if cfg.CoordinatorTimeout <= 0 {
		cfg.CoordinatorTimeout = DefaultPeerTimeout
	}
	if cfg.ElectionBackoff <= 0 {
		cfg.ElectionBackoff = 500 * time.Millisecond
	}
	if cfg.RequestTimeout <= 0 {
		cfg.RequestTimeout = 10 * time.Second
	}
	if cfg.Logger == nil {
		cfg.Logger = slog.Default()
	}

	s := &Server{
		cfg:          cfg,
		log:          cfg.Logger.With("server", cfg.ID),
		coordAddr:    cfg.CoordinatorAddr,
		pendingOps:   make(map[uint64]chan wire.Message),
		backups:      make(map[string]bool),
		acquiring:    make(map[string]*acquisition),
		coordChanged: make(chan struct{}, 1),
		stop:         make(chan struct{}),
	}

	engCfg := cfg.Engine
	engCfg.ServerID = cfg.ID
	engCfg.Logger = s.log
	engCfg.Hooks = core.Hooks{
		Forward:            s.forward,
		OnMembershipChange: s.forwardMember,
		Intercept:          s.intercept,
	}
	engine, err := core.NewEngine(engCfg)
	if err != nil {
		return nil, err
	}
	s.engine = engine
	// Health probe: a replica that lost its coordinator link (and has not
	// itself been promoted) cannot sequence — /healthz should say so.
	engine.Metrics().Probe("cluster.link", func() error {
		s.mu.Lock()
		defer s.mu.Unlock()
		if s.closed || s.linkUp || s.promoted != nil {
			return nil
		}
		return errLinkDown
	})

	frontend, err := core.NewServerWithEngine(engine, cfg.ClientAddr)
	if err != nil {
		engine.Close()
		return nil, err
	}
	s.frontend = frontend

	peerLn, err := transport.Listen(cfg.PeerAddr)
	if err != nil {
		frontend.Close()
		return nil, err
	}
	s.peerLn = peerLn
	return s, nil
}

// Start connects to the coordinator and begins serving clients. It returns
// after the first registration succeeds or fails; the link is maintained in
// the background either way.
func (s *Server) Start() error {
	s.frontend.Start()
	go s.peerLn.Serve(s.cfg.RequestTimeout, s.servePeerConn)

	err := s.connectCoordinator(s.cfg.CoordinatorAddr)
	s.wg.Add(2)
	go s.linkLoop()
	go s.heartbeatLoop()
	return err
}

// ClientAddr returns the address clients should dial.
func (s *Server) ClientAddr() string { return s.frontend.Addr().String() }

// PeerAddr returns this server's peer address.
func (s *Server) PeerAddr() string { return s.peerLn.Addr().String() }

// Engine exposes the underlying engine.
func (s *Server) Engine() *core.Engine { return s.engine }

// IsCoordinator reports whether this server has been promoted.
func (s *Server) IsCoordinator() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted != nil
}

// Promoted returns the embedded coordinator after a promotion, or nil.
func (s *Server) Promoted() *Coordinator {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.promoted
}

// Epoch returns the highest coordinator epoch this server has seen.
func (s *Server) Epoch() uint64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Close stops the server: clients are disconnected, the coordinator link is
// dropped, and a promoted coordinator is shut down.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	link := s.link
	promoted := s.promoted
	s.failPendingLocked()
	s.mu.Unlock()

	close(s.stop)
	// The promoted coordinator closes first: the registration links the peer
	// listener drops are then a shutdown, not lost servers.
	if promoted != nil {
		_ = promoted.Close()
	}
	_ = s.peerLn.Close()
	if link != nil {
		_ = link.Close()
	}
	err := s.frontend.Close()
	s.wg.Wait()
	return err
}

// spawn runs f on a goroutine of its own, which Close waits for.
func (s *Server) spawn(f func()) {
	s.wg.Add(1)
	go func() {
		defer s.wg.Done()
		f()
	}()
}

func (s *Server) failPendingLocked() {
	for id, ch := range s.pendingOps {
		close(ch)
		delete(s.pendingOps, id)
	}
}

// ---- coordinator link ----

// Wire deadlines, derived from the two configured time constants instead
// of per-call-site literals, so tuning ElectionBackoff/RequestTimeout for
// a fast test cluster or a WAN deployment scales every deadline
// coherently. The defaults reproduce the old literals.

// registerTimeout bounds a registration, dial to ack (default 5s).
func (s *Server) registerTimeout() time.Duration { return s.cfg.RequestTimeout / 2 }

// voteTimeout bounds a candidate's probe of one voter, dial to vote: short,
// because a candidacy fans out to every voter and an unreachable one should
// not stall the tally (default 2s).
func (s *Server) voteTimeout() time.Duration { return 4 * s.cfg.ElectionBackoff }

// outcomeTimeout bounds a voter's wait for the election result: the full
// coordinated-operation budget, since the candidate must finish its whole
// tally first (default 10s).
func (s *Server) outcomeTimeout() time.Duration { return s.cfg.RequestTimeout }

// connectCoordinator dials addr, registers, installs the link, and catches
// every replica up.
func (s *Server) connectCoordinator(addr string) error {
	s.mu.Lock()
	epoch := s.epoch
	s.mu.Unlock()
	hello := &wire.SHello{RequestID: 1, Proto: wire.ProtocolVersion, ServerID: s.cfg.ID, Addr: s.PeerAddr(), Epoch: epoch}
	conn, msg, err := transport.Open(addr, s.registerTimeout(), hello)
	if err != nil {
		return err
	}
	ack, ok := msg.(*wire.SHelloAck)
	if !ok {
		conn.Close()
		if refusal, is := msg.(*wire.ErrorMsg); is {
			return fmt.Errorf("cluster: registration refused: %s", refusal.Text)
		}
		return fmt.Errorf("cluster: unexpected registration reply %s", msg.Kind())
	}

	report := s.engine.SeqReport() // before s.mu: the engine's hooks take s.mu
	s.mu.Lock()
	if cur := s.epoch; ack.Epoch < cur {
		// A stale incumbent (e.g. the old coordinator back from a
		// partition) must not reclaim this server.
		s.mu.Unlock()
		conn.Close()
		return fmt.Errorf("cluster: stale coordinator epoch %d < %d", ack.Epoch, cur)
	}
	if s.closed {
		s.mu.Unlock()
		conn.Close()
		return ErrServerClosed
	}
	oldLink, oldPump := s.link, s.pump
	s.link = conn
	s.pump = transport.NewPump(conn, 0)
	s.coordAddr = addr
	s.coordID = ack.CoordinatorID
	s.epoch = ack.Epoch
	s.bootOrder = ack.BootOrder
	s.servers = ack.Servers
	// The registration is one report, the link's first frame: until it is
	// enqueued the link is down to the engine's hooks, so nothing overtakes it.
	for i := range report {
		report[i].Backup = s.backups[report[i].Group]
	}
	s.linkUp = s.pump.SendMessage(&wire.SSeqReport{ServerID: s.cfg.ID, Groups: report}) == nil
	s.mu.Unlock()

	// Tear down the replaced link (pump drain) outside s.mu.
	if oldLink != nil {
		_ = oldLink.Close()
	}
	if oldPump != nil {
		oldPump.Close()
	}
	s.log.Info("registered with coordinator", "addr", addr, "epoch", ack.Epoch, "boot", ack.BootOrder)
	// Catch up every replica: events sequenced while this server was
	// disconnected (e.g. during a coordinator failover) are fetched from
	// the surviving replicas.
	for _, g := range report {
		s.spawn(func() { _ = s.acquire(g.Group, true, false) })
	}
	return nil
}

// sendToCoordinator enqueues a message on the coordinator link. It never
// blocks; failures surface as a dropped link.
func (s *Server) sendToCoordinator(msg wire.Message) bool {
	s.mu.Lock()
	pump := s.pump
	link := s.link
	up := s.linkUp
	s.mu.Unlock()
	if !up || pump == nil {
		return false
	}
	if err := pump.SendMessage(msg); err != nil {
		if link != nil {
			// Tear the link down off this stack: sendToCoordinator runs
			// under e.mu when invoked through the engine's Forward and
			// membership hooks, and a socket close is network I/O. The
			// linkLoop observes the close as a read error and reconnects.
			go func() { _ = link.Close() }()
		}
		return false
	}
	return true
}

// linkLoop owns the coordinator link: it reads messages, and on loss runs
// the reconnection/election procedure until a coordinator rules again.
func (s *Server) linkLoop() {
	defer s.wg.Done()
	for {
		s.mu.Lock()
		link := s.link
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if link != nil {
			s.readLink(link)
		}
		s.mu.Lock()
		s.linkUp = false
		s.link = nil
		closed = s.closed
		s.mu.Unlock()
		if closed {
			return
		}
		if !s.recoverCoordinator() {
			return
		}
	}
}

// readLink consumes messages from the coordinator until the link errors.
// Frames already buffered on the link are drained greedily — without
// waiting — so a burst of same-group SDistributes becomes one run, applied
// under one lock acquisition with one fanout frame per member, mirroring the
// client-facing ingest batcher. A run of one is a run like any other: every
// run goes to distribute.
//
// Replicated ingest rides the engine's delivery pipeline: ApplyDistributed
// blocks here, off every engine lock, when the target group's fanout ring
// is full. Stalling this read loop is the intended backpressure propagation
// — the link's TCP window fills and the coordinator's sends slow to the
// rate the local receivers can absorb, instead of the server buffering
// sequenced-but-undeliverable events without bound.
func (s *Server) readLink(link *transport.Conn) {
	var group string
	var run []core.DistEvent // scratch, reused for every run
	flush := func() {
		if len(run) > 0 {
			s.distribute(group, run)
			clear(run)
			run = run[:0]
		}
	}
	for {
		msg, err := link.ReadMessage()
		for {
			if err != nil {
				flush()
				return
			}
			if msg == nil {
				flush()
				break
			}
			if d, ok := msg.(*wire.SDistribute); ok {
				if d.Group != group {
					flush()
					group = d.Group
				}
				reqID := uint64(0)
				if d.Origin == s.cfg.ID {
					reqID = d.RequestID
				}
				run = append(run, core.DistEvent{Event: d.Event, SenderInclusive: d.SenderInclusive, ReqID: reqID})
			} else {
				flush()
				s.handleCoordinatorMessage(msg)
			}
			msg, err = link.ReadMessageBuffered()
		}
	}
}

// parkedItem is what the link brought for a group while its acquisition was
// in flight: a run of distributed events, or one ordered membership change.
type parkedItem struct {
	run    []core.DistEvent
	member *wire.SMemberUpdate
}

// acquisition is a group's one acquisition in flight: parked is what the link
// brought for the group meanwhile, in arrival order; done is closed when it
// ends, with its result in err.
type acquisition struct {
	parked []parkedItem
	done   chan struct{}
	err    error
}

// park queues item behind the group's acquisition in flight, copying its run
// (the caller's scratch); with start, a group with none gets one opened. It
// returns the acquisition, nil when none is in flight and start is false,
// and whether it opened it.
func (s *Server) park(group string, item parkedItem, start bool) (a *acquisition, opened bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	a = s.acquiring[group]
	if a == nil && start {
		a = &acquisition{done: make(chan struct{})}
		s.acquiring[group] = a
		opened = true
	}
	if a != nil && (item.run != nil || item.member != nil) {
		item.run = slices.Clone(item.run)
		a.parked = append(a.parked, item)
	}
	return a, opened
}

// distribute applies one drained run of a group's SDistributes. While the
// group's acquisition is in flight the run is parked behind it instead, so
// no run overtakes another; a run that stops at a gap parks its unconsumed
// suffix and starts an acquisition to heal the gap. The run is the caller's
// scratch: whatever is parked is copied.
func (s *Server) distribute(group string, run []core.DistEvent) {
	now := time.Now().UnixNano()
	for i := range run {
		if d := now - run[i].Event.Time; plausibleLatency(d) {
			clusterDistributeNs.Record(d)
		}
	}
	if a, _ := s.park(group, parkedItem{run: run}, false); a != nil {
		return
	}
	consumed, err := s.engine.ApplyDistributed(group, run)
	switch {
	case err == nil:
	case errors.Is(err, core.ErrSeqGap):
		clusterSeqGaps.Inc()
		s.log.Warn("sequence gap; catching up", "group", group, "seq", run[consumed].Event.Seq)
		if a, opened := s.park(group, parkedItem{run: run[consumed:]}, true); opened {
			s.spawn(func() { _ = s.run(a, group, true, false) })
		}
	default:
		s.log.Warn("distribute failed", "group", group, "err", err)
	}
}

func (s *Server) handleCoordinatorMessage(msg wire.Message) {
	switch m := msg.(type) {
	case *wire.SMemberUpdate:
		if a, _ := s.park(m.Group, parkedItem{member: m}, false); a == nil {
			s.applyMember(m)
		}
	case *wire.SGroupOp:
		s.applyGroupOp(m)
	case *wire.SGroupOpAck:
		s.completeOp(m.RequestID, m)
	case *wire.SStateResponse:
		s.completeOp(m.RequestID, m)
	case *wire.SGroupsReport:
		s.completeOp(m.RequestID, m)
	case *wire.SServerList:
		s.mu.Lock()
		s.servers = m.Servers
		s.epoch = m.Epoch
		s.coordID = m.CoordinatorID
		s.mu.Unlock()
	case *wire.SHeartbeat:
		// Echo the coordinator's timestamp so it can measure the round
		// trip against its own clock, carrying this server's load report
		// for the placement tracker.
		s.sendToCoordinator(&wire.SHeartbeat{
			ServerID: s.cfg.ID, Epoch: m.Epoch, Time: m.Time, Load: s.loadReport(),
		})
	case *wire.SInterest:
		// Coordinator-to-server interest is a backup designation, a
		// migration's target's included; un-interest is a directed release
		// of a replica.
		if m.Interested && m.Backup {
			s.spawn(func() { _ = s.hold(m.Group, true) })
		} else if !m.Interested {
			s.spawn(func() { s.releaseDirected(m.Group) })
		}
	case *wire.SDivergence:
		s.spawn(func() { s.settleDivergence(m) })
	default:
		s.log.Warn("unexpected coordinator message", "kind", msg.Kind().String())
	}
}

// applyMember takes in one ordered membership change, or a refusal, through
// the engine's entrance. When the change is the leave or crash of this
// server's own member, the server gives up a replica it no longer needs: no
// member left here, and no backup duty.
func (s *Server) applyMember(m *wire.SMemberUpdate) {
	s.engine.ApplyMembership(m)
	if m.Code != 0 || m.Change == wire.MemberJoined || hostOf(m.Member.ClientID) != s.cfg.ID {
		return
	}
	held := s.engine.HasGroup(m.Group)
	s.mu.Lock()
	backup := s.backups[m.Group]
	if !held {
		// The change emptied a transient group, which is gone everywhere.
		delete(s.backups, m.Group)
	}
	s.mu.Unlock()
	if !held || backup || s.engine.LocalMembers(m.Group) > 0 {
		return
	}
	s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: m.Group, Interested: false})
	if err := s.engine.DeleteGroupDirect(m.Group); err == nil {
		s.log.Debug("replica released", "group", m.Group)
	}
}

// applyGroupOp installs a coordinator-ordered group create/delete. Creates
// reach only the origin server, which becomes the group's initial replica
// holder (a standing backup, so the state survives even before any member
// joins and replica pulls have a source).
func (s *Server) applyGroupOp(m *wire.SGroupOp) {
	switch m.Op {
	case wire.GroupOpCreate:
		if err := s.engine.CreateGroupDirect(m.Group, m.Persistent, m.Initial); err != nil {
			s.log.Warn("group create failed", "group", m.Group, "err", err)
			return
		}
		s.mu.Lock()
		s.backups[m.Group] = true
		s.mu.Unlock()
		s.sendToCoordinator(&wire.SInterest{
			ServerID: s.cfg.ID, Group: m.Group, Interested: true, Backup: true,
		})
	case wire.GroupOpDelete:
		s.mu.Lock()
		delete(s.backups, m.Group)
		s.mu.Unlock()
		if err := s.engine.DeleteGroupDirect(m.Group); err != nil {
			s.log.Debug("group delete skipped", "group", m.Group, "err", err)
		}
	}
}

// ---- coordinated requests ----

func (s *Server) completeOp(id uint64, msg wire.Message) {
	s.mu.Lock()
	ch, ok := s.pendingOps[id]
	if ok {
		delete(s.pendingOps, id)
	}
	s.mu.Unlock()
	if ok {
		ch <- msg
	}
}

// request runs one coordinated operation: it sends the message build makes
// for a fresh request ID and waits for the coordinator's reply.
func (s *Server) request(build func(id uint64) wire.Message) (wire.Message, error) {
	s.mu.Lock()
	if s.closed || !s.linkUp {
		closed := s.closed
		s.mu.Unlock()
		if closed {
			return nil, ErrServerClosed
		}
		return nil, ErrNoCoordinator
	}
	s.nextReq++
	id := s.nextReq
	ch := make(chan wire.Message, 1)
	s.pendingOps[id] = ch
	s.mu.Unlock()

	err := ErrNoCoordinator
	if s.sendToCoordinator(build(id)) {
		t := time.NewTimer(s.cfg.RequestTimeout)
		defer t.Stop()
		select {
		case msg, ok := <-ch:
			if !ok {
				return nil, ErrServerClosed
			}
			return msg, nil
		case <-t.C:
			err = errOpTimeout
		case <-s.stop:
			err = ErrServerClosed
		}
	}
	s.mu.Lock()
	delete(s.pendingOps, id)
	s.mu.Unlock()
	return nil, err
}

// listGroupsGlobal queries the coordinator's group registry.
func (s *Server) listGroupsGlobal() ([]string, error) {
	msg, err := s.request(func(id uint64) wire.Message { return &wire.SGroupsQuery{RequestID: id} })
	if err != nil {
		return nil, err
	}
	report, ok := msg.(*wire.SGroupsReport)
	if !ok {
		return nil, fmt.Errorf("cluster: unexpected groups reply %s", msg.Kind())
	}
	return report.Groups, nil
}

// groupOp runs a coordinator-ordered group create/delete.
func (s *Server) groupOp(op wire.GroupOpKind, group string, persistent bool, initial []wire.Object) (*wire.SGroupOpAck, error) {
	msg, err := s.request(func(id uint64) wire.Message {
		return &wire.SGroupOp{
			RequestID: id, Origin: s.cfg.ID, Op: op,
			Group: group, Persistent: persistent, Initial: initial,
		}
	})
	if err != nil {
		return nil, err
	}
	ack, isAck := msg.(*wire.SGroupOpAck)
	if !isAck {
		return nil, fmt.Errorf("cluster: unexpected group-op reply %s", msg.Kind())
	}
	return ack, nil
}

// locate asks the coordinator where a group's state lives.
func (s *Server) locate(group string) (*wire.SStateResponse, error) {
	msg, err := s.request(func(id uint64) wire.Message { return &wire.SStateRequest{RequestID: id, Group: group} })
	if err != nil {
		return nil, err
	}
	resp, isResp := msg.(*wire.SStateResponse)
	switch {
	case !isResp:
		return nil, fmt.Errorf("cluster: unexpected state reply %s", msg.Kind())
	case resp.OK:
		return resp, nil
	case resp.Code == wire.CodeNoSuchGroup:
		return nil, fmt.Errorf("%w: %q", errUnknownGroup, group)
	default:
		return nil, fmt.Errorf("cluster: no live replica of %q", group)
	}
}

// acquireAttempts bounds an acquisition's locate-and-pull loop; the waits
// between attempts grow by 100 ms, so a source is given up on after about a
// second.
const acquireAttempts = 5

// acquire is the one way a replica is brought level with a source: a first
// acquisition, a backup designation, a gap heal, a registration's catch-up
// and a divergence rollback (rewind) all run it; held says the caller holds
// the replica. A group has one acquisition in flight at a time. A caller that
// finds one waits for it: without the replica it takes a success, and
// otherwise runs one of its own, whose mark is read after its call. A failed
// acquisition's answer may have reached the coordinator before the caller's
// designation was sent, so only the caller's own acquisition answers it.
func (s *Server) acquire(group string, held, rewind bool) error {
	for {
		a, opened := s.park(group, parkedItem{}, true)
		if opened {
			return s.run(a, group, held, rewind)
		}
		<-a.done
		if !held && a.err == nil {
			return nil
		}
	}
}

// run is the group's acquisition a, opened by park before its locate, whose
// answer starts the group's stream here at the mark it reads. What the stream
// brings is parked until level is done, then taken in through the link's own
// entrances in arrival order, which skip what the image holds; a further gap
// is healed the same way. After a failed level, what is parked is dropped at
// its first gap. An acquisition that ends without the group tells the
// coordinator so, clearing its locate's pending stake and its designation.
func (s *Server) run(a *acquisition, group string, held, rewind bool) error {
	err := s.level(group, held, rewind)
	for {
		holds := s.engine.HasGroup(group)
		if !holds {
			err = cmp.Or(err, fmt.Errorf("%w: %q was given up here meanwhile", errUnknownGroup, group))
			// Told before the acquisition closes, so it reaches the
			// coordinator ahead of the next acquisition's locate.
			s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: group, Interested: false})
		}
		s.mu.Lock()
		parked := a.parked
		a.parked = nil
		if !holds || len(parked) == 0 {
			if !holds {
				delete(s.backups, group)
			}
			delete(s.acquiring, group)
			s.mu.Unlock()
			a.err = err
			close(a.done)
			return err
		}
		s.mu.Unlock()
		for i, item := range parked {
			if item.member != nil {
				s.applyMember(item.member)
				continue
			}
			consumed, aerr := s.engine.ApplyDistributed(group, item.run)
			if aerr == nil {
				continue
			}
			s.mu.Lock()
			if errors.Is(aerr, core.ErrSeqGap) && err == nil {
				// Another event was lost further on: its successors stay
				// parked, ahead of whatever arrived since.
				clusterSeqGaps.Inc()
				parked[i].run = item.run[consumed:]
				a.parked = append(parked[i:], a.parked...)
				s.mu.Unlock()
				err = s.level(group, true, false)
				break
			}
			a.parked = nil
			s.mu.Unlock()
			s.log.Warn("parked changes dropped", "group", group, "err", aerr)
			break
		}
	}
}

// level brings the local replica of a group level with a source: ask the
// coordinator where the state lives, pull what is missing from that server,
// install it. A server without the group adopts the whole image; one that
// holds it applies the events past its own high-water mark, or adopts the
// image when those were reduced away; rewind installs the image over what is
// held (divergence rollback). Nothing is installed below the sequencer's mark
// of the first answer, where the stream here starts, so image and stream hold
// every event. Transient failures — no live holder, a source behind the mark,
// a broken stream — are retried; an unknown group is final. A replica the
// caller holds is only ever brought forward: if it is given up meanwhile (a
// directed release, a delete), the acquisition ends rather than install the
// group again. Bringing one forward without rewind is a catch-up, and
// counted.
func (s *Server) level(group string, held, rewind bool) error {
	var mark uint64
	var err error
	for attempt := 0; attempt < acquireAttempts; attempt++ {
		if attempt > 0 {
			select {
			case <-s.stop:
				return ErrServerClosed
			case <-time.After(time.Duration(attempt) * 100 * time.Millisecond):
			}
		}
		var loc *wire.SStateResponse
		if loc, err = s.locate(group); err == nil {
			if mark == 0 {
				mark = loc.NextSeq
			}
			err = s.pullFrom(loc, mark, held, rewind)
		}
		if err == nil || errors.Is(err, errUnknownGroup) || errors.Is(err, ErrServerClosed) {
			break
		}
	}
	if held && !rewind {
		if err != nil {
			s.log.Warn("catch-up failed", "group", group, "err", err)
		} else {
			clusterCatchups.Inc()
		}
	}
	return err
}

// pullFrom is one attempt of level against a located source.
func (s *Server) pullFrom(loc *wire.SStateResponse, mark uint64, held, rewind bool) error {
	group := loc.Group
	var fromSeq uint64
	if held && !rewind {
		fromSeq = s.engine.NextSeq(group)
	}
	// A group with no source provably has no state: it starts empty.
	got := pulled{Checkpointed: state.Checkpointed{NextSeq: 1}}
	var err error
	if loc.SourceID != 0 {
		if got, err = s.pullState(loc.SourceAddr, group, fromSeq); err != nil {
			return err
		}
	}
	if got.NextSeq < mark {
		return fmt.Errorf("cluster: source %d of %q is at seq %d, behind the sequencer's mark %d", loc.SourceID, group, got.NextSeq, mark)
	}
	if held && !s.engine.HasGroup(group) {
		return fmt.Errorf("%w: %q was given up here meanwhile", errUnknownGroup, group)
	}
	// The suffix asked for continues what is held: unless rewinding, it is
	// applied as a caught-up run, so local members are delivered every
	// event; installing the image instead would silently skip them.
	if !rewind && got.BaseSeq < fromSeq {
		run := make([]core.DistEvent, len(got.History))
		for i, ev := range got.History {
			run[i] = core.DistEvent{Event: ev, SenderInclusive: true}
		}
		_, err = s.engine.ApplyDistributed(group, run)
		return err
	}
	// Without rewind, an image at or behind the replica held is not
	// installed: rewinding it would re-deliver events to members.
	_, err = s.engine.InstallGroup(group, loc.Persistent, got.Checkpointed, got.members, rewind)
	return err
}

// hold makes this server a holder of an existing group's replica — for a
// joining client, or as a designated backup (a migration's target among
// them) — and answers the coordinator either way: it acquires the group
// unless it is held already, then reports its interest. The acquisition's
// stream started at its locate, so nothing sequenced in between is missing;
// one that fails was run for this call (acquire) and has told the
// coordinator the group is not held, so a designation never stays pending.
func (s *Server) hold(group string, backup bool) error {
	s.mu.Lock()
	if backup {
		s.backups[group] = true
	}
	backup = s.backups[group]
	s.mu.Unlock()
	if !s.engine.HasGroup(group) {
		if err := s.acquire(group, false, false); err != nil {
			if backup {
				s.log.Warn("backup acquisition failed", "group", group, "err", err)
			}
			return err
		}
	}
	s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: group, Interested: true, Backup: backup})
	return nil
}

// releaseDirected answers a coordinator-directed release of a replica: a
// surplus one during rebalancing, or the source's after a migration. The
// backup designation ends either way; the release itself is refused (by
// re-raising interest) when local members still use the replica, so a
// migration whose source gained members meanwhile degrades to a copy.
func (s *Server) releaseDirected(group string) {
	s.mu.Lock()
	delete(s.backups, group)
	s.mu.Unlock()
	if s.engine.LocalMembers(group) > 0 {
		s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: group, Interested: true})
		return
	}
	if err := s.engine.DeleteGroupDirect(group); err != nil {
		s.log.Debug("directed release skipped", "group", group, "err", err)
	}
	s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: group, Interested: false})
	s.log.Info("replica released on coordinator direction", "group", group)
}

// loadReport snapshots this server's load for the coordinator's placement
// tracker. A metrics snapshot is plain atomic loads — no engine lock — so
// this is safe on the heartbeat path.
func (s *Server) loadReport() wire.LoadReport {
	m := s.engine.Metrics().Snapshot()
	return wire.LoadReport{
		Groups:   uint64(m.Gauges["engine.groups"]),
		Sessions: uint64(m.Gauges["engine.sessions"]),
		Bcasts:   m.Counters["engine.bcasts"],
	}
}

// settleDivergence applies a coordinator divergence instruction to a local
// replica that evolved independently during a partition (paper §4.2).
func (s *Server) settleDivergence(m *wire.SDivergence) {
	switch m.Resolution {
	case wire.ResolutionFork:
		// Preserve the local version as a new group, then roll the
		// original back to the authoritative history.
		persistent, cp, ok := s.engine.GroupImage(m.Group)
		if ok && m.ForkName != "" {
			ack, err := s.groupOp(wire.GroupOpCreate, m.ForkName, persistent, nil)
			if err != nil {
				s.log.Warn("fork create failed", "group", m.Group, "fork", m.ForkName, "err", err)
			} else if ack.OK || ack.Code == wire.CodeGroupExists {
				if _, err := s.engine.InstallGroup(m.ForkName, persistent, cp, nil, true); err != nil {
					s.log.Warn("fork install failed", "fork", m.ForkName, "err", err)
				} else {
					s.sendToCoordinator(&wire.SSeqReport{ServerID: s.cfg.ID, Groups: []wire.GroupSeq{{
						Group: m.ForkName, NextSeq: cp.NextSeq, Digest: cp.Digest, Persistent: persistent, Backup: true,
					}}})
					s.log.Info("diverged history preserved as fork", "group", m.Group, "fork", m.ForkName)
				}
			}
		}
		s.rollbackGroup(m.Group)
	case wire.ResolutionRollback:
		s.rollbackGroup(m.Group)
	default:
		s.log.Warn("unknown divergence resolution", "group", m.Group, "resolution", m.Resolution.String())
	}
}

// rollbackGroup discards the local replica's history and re-acquires the
// authoritative state. Local members stay joined; their applications must
// refresh their materialized copies (the paper leaves post-partition repair
// "implemented in the client code").
func (s *Server) rollbackGroup(group string) {
	if err := s.acquire(group, true, true); err != nil {
		s.log.Warn("rollback failed", "group", group, "err", err)
		return
	}
	s.log.Info("replica rolled back to authoritative state", "group", group, "next-seq", s.engine.NextSeq(group))
}

// ---- engine hooks ----

// forward routes a validated client multicast to the coordinator
// (core.Hooks.Forward; called with the engine lock held — must not block).
func (s *Server) forward(group string, ev wire.Event, senderInclusive bool, reqID uint64) error {
	if !s.sendToCoordinator(&wire.SForward{
		Origin: s.cfg.ID, Group: group, Event: ev,
		SenderInclusive: senderInclusive, RequestID: reqID,
	}) {
		return ErrNoCoordinator
	}
	clusterForwarded.Inc()
	return nil
}

// forwardMember routes a validated local join, leave or crash to the
// coordinator to be ordered (core.Hooks.OnMembershipChange; called with the
// engine lock held — must not block). Its ordered copy comes back on the
// link to applyMember.
func (s *Server) forwardMember(group string, change wire.MembershipChange, member wire.MemberInfo) error {
	if !s.sendToCoordinator(&wire.SMemberUpdate{ServerID: s.cfg.ID, Group: group, Change: change, Member: member}) {
		return ErrNoCoordinator
	}
	return nil
}

// intercept coordinates group ops and replica acquisition before the
// engine sees a request (core.Hooks.Intercept; runs without the engine
// lock and may block).
func (s *Server) intercept(sess *core.Session, msg wire.Message) bool {
	switch m := msg.(type) {
	case *wire.CreateGroup:
		ack, err := s.groupOp(wire.GroupOpCreate, m.Group, m.Persistent, m.Initial)
		switch {
		case err != nil:
			sess.Send(&wire.ErrorMsg{RequestID: m.RequestID, Code: wire.CodeInternal, Text: err.Error()})
		case !ack.OK:
			sess.Send(&wire.ErrorMsg{RequestID: m.RequestID, Code: ack.Code, Text: ack.Text})
		default:
			sess.Send(&wire.CreateGroupAck{RequestID: m.RequestID})
		}
		return true
	case *wire.DeleteGroup:
		ack, err := s.groupOp(wire.GroupOpDelete, m.Group, false, nil)
		switch {
		case err != nil:
			sess.Send(&wire.ErrorMsg{RequestID: m.RequestID, Code: wire.CodeInternal, Text: err.Error()})
		case !ack.OK:
			sess.Send(&wire.ErrorMsg{RequestID: m.RequestID, Code: ack.Code, Text: ack.Text})
		default:
			sess.Send(&wire.DeleteGroupAck{RequestID: m.RequestID})
		}
		return true
	case *wire.ListGroups:
		// Answer with the coordinator's global registry, not just the
		// groups replicated locally. Fall back to the local view when
		// the coordinator is unreachable.
		if groups, err := s.listGroupsGlobal(); err == nil {
			sess.Send(&wire.GroupList{RequestID: m.RequestID, Groups: groups})
			return true
		}
		return false
	case *wire.Join:
		if s.engine.HasGroup(m.Group) {
			return false // local replica exists; the engine takes it
		}
		// Unknown locally: create through the coordinator or acquire
		// the replica, then let the engine run the join.
		if err := s.ensureGroup(m.Group, m.CreateIfMissing); err != nil {
			code := wire.CodeNoSuchGroup
			if !errors.Is(err, errUnknownGroup) {
				code = wire.CodeInternal
			}
			sess.Send(&wire.ErrorMsg{RequestID: m.RequestID, Code: code, Text: err.Error()})
			return true
		}
		return false
	default:
		return false
	}
}

var errUnknownGroup = errors.New("cluster: no such group")

// ensureGroup makes the group available locally, creating it via the
// coordinator when permitted.
func (s *Server) ensureGroup(group string, createIfMissing bool) error {
	err := s.hold(group, false)
	if !createIfMissing || !errors.Is(err, errUnknownGroup) {
		return err
	}
	ack, err := s.groupOp(wire.GroupOpCreate, group, false, nil)
	if err != nil {
		return err
	}
	if !ack.OK && ack.Code != wire.CodeGroupExists {
		return fmt.Errorf("cluster: create %q: %s", group, ack.Text)
	}
	if !s.engine.HasGroup(group) {
		return s.hold(group, false)
	}
	return nil
}

// ---- heartbeats ----

func (s *Server) heartbeatLoop() {
	defer s.wg.Done()
	t := time.NewTicker(s.cfg.HeartbeatInterval)
	defer t.Stop()
	for {
		select {
		case <-s.stop:
			return
		case <-t.C:
			s.mu.Lock()
			epoch := s.epoch
			s.mu.Unlock()
			// Time zero marks a server-initiated liveness ping (as
			// opposed to an echo of a coordinator heartbeat), so the
			// coordinator does not mistake it for an RTT sample.
			s.sendToCoordinator(&wire.SHeartbeat{ServerID: s.cfg.ID, Epoch: epoch, Load: s.loadReport()})
		}
	}
}
