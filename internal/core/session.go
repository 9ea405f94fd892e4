package core

import (
	"cmp"
	"errors"
	"fmt"
	"sync"
	"time"

	"corona/internal/locks"
	"corona/internal/membership"
	"corona/internal/transport"
	"corona/internal/wire"
)

// Session is one connected client. All server→client traffic flows through
// the session's write pump, so replies, deliveries, and notifications reach
// the client in the order the engine produced them.
type Session struct {
	// ID is the globally unique client ID.
	ID uint64
	// Name is the client-chosen display name.
	Name string

	engine *Engine
	conn   *transport.Conn
	pump   *transport.Pump

	// run is the session's multicast-path scratch, owned by its read
	// goroutine and reused across bcastRun calls so steady-state ingest
	// allocates no per-run bookkeeping. Behind a pointer so that writing
	// it per message does not bounce the cache line the fanout workers
	// read the fields above from.
	run *run

	closeOnce sync.Once
}

// AddSession registers a connection as a client session after the Hello
// exchange. The frontend supplies the negotiated name.
func (e *Engine) AddSession(conn *transport.Conn, name string) (*Session, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.closed {
		return nil, ErrEngineClosed
	}
	s := &Session{
		ID:     e.newClientID(),
		Name:   name,
		engine: e,
		conn:   conn,
		pump:   transport.NewPump(conn, e.cfg.PumpDepth),
		run:    new(run),
	}
	e.sessions[s.ID] = s
	e.gSessions.Set(int64(len(e.sessions)))
	return s, nil
}

// DropSession removes a disconnected client: it leaves every group (firing
// MemberCrashed notifications when crashed is true, MemberLeft otherwise),
// releases its locks (granting queued waiters), and applies the
// transient-group rule. The frontend calls it exactly once, after the read
// loop ends; the connection itself is closed by the caller.
func (e *Engine) DropSession(s *Session, crashed bool) {
	change := wire.MemberLeft
	if crashed {
		change = wire.MemberCrashed
	}
	e.mu.Lock()
	if _, ok := e.sessions[s.ID]; !ok {
		e.mu.Unlock()
		return
	}
	delete(e.sessions, s.ID)
	e.gSessions.Set(int64(len(e.sessions)))

	for key, op := range e.pending {
		if op.sess != s {
			continue
		}
		delete(e.pending, key)
		if op.change == wire.MemberJoined {
			// The join is on its way to be ordered; the member leaves
			// right behind it.
			_ = e.cfg.Hooks.OnMembershipChange(key.group, change, op.member)
		}
	}
	for _, name := range e.reg.GroupsOf(s.ID) {
		g, _ := e.reg.Get(name)
		info, _ := g.Member(s.ID)
		_ = e.leaveLocked(g, change, info, nil)
	}
	grants := e.locks.ReleaseAll(s.ID)
	e.sendGrantsLocked(grants)
	e.mu.Unlock()

	s.pump.Close()
}

// memberKey names one member's pending change.
type memberKey struct {
	group  string
	client uint64
}

// pendingChange is a local member's join or leave: the request it answers
// where the change takes effect.
type pendingChange struct {
	sess   *Session
	member wire.MemberInfo
	change wire.MembershipChange
	reqID  uint64
	// policy, notify and start are a join's.
	policy wire.TransferPolicy
	notify bool
	start  time.Time
}

// leaveLocked ends a leave's or crash's first half: forwarded to be ordered,
// with op (nil for a dropped session) waiting for the ordered copy, or on a
// single server the second half at once. Caller holds e.mu in write mode.
func (e *Engine) leaveLocked(g *membership.Group, change wire.MembershipChange, info wire.MemberInfo, op *pendingChange) error {
	if forward := e.cfg.Hooks.OnMembershipChange; forward != nil {
		if err := forward(g.Name, change, info); err != nil {
			return err
		}
		if op != nil {
			e.pending[memberKey{g.Name, info.ClientID}] = *op
		} else {
			// A dropped session receives nothing more, though it stays
			// in the member list until its crash is ordered.
			e.rebuildFanoutLocked(g.Name)
		}
		return nil
	}
	g, empty, _ := e.reg.Leave(g.Name, info.ClientID)
	e.memberChangedLocked(g, change, info, op, true)
	if empty && !g.Persistent {
		e.dropGroupLocked(g.Name)
	}
	return nil
}

// ApplyMembership is a replica's one entrance for an ordered membership
// change, the coordinator's copy of an SMemberUpdate. The registry's member
// list becomes the copy's — every replica holds the global membership; the
// fanout skips members connected elsewhere — and the second half runs as on
// a single server, notifying only news. A member connected here leaves the
// list only by its own change, whatever a freshly elected coordinator's
// incomplete list says. A refusal only answers its pending join or leave.
func (e *Engine) ApplyMembership(u *wire.SMemberUpdate) {
	e.mu.Lock()
	defer e.mu.Unlock()
	key := memberKey{u.Group, u.Member.ClientID}
	var op *pendingChange
	if p, ok := e.pending[key]; ok && (p.change == wire.MemberJoined) == (u.Change == wire.MemberJoined) {
		delete(e.pending, key)
		op = &p
	}
	g, ok := e.reg.Get(u.Group)
	if u.Code != 0 || !ok {
		if op != nil {
			code := cmp.Or(u.Code, wire.CodeNoSuchGroup)
			op.sess.sendErr(op.reqID, code, fmt.Sprintf("%s of %q refused", u.Change, u.Group))
		}
		return
	}
	var subscriber uint64
	if op != nil && op.notify {
		subscriber = u.Member.ClientID
	}
	had := g.Has(u.Member.ClientID)
	g, _ = e.reg.SetMembers(u.Group, u.Members, subscriber, func(id uint64) bool {
		return id != u.Member.ClientID && e.hasSession(id)
	})
	e.memberChangedLocked(g, u.Change, u.Member, op, had != g.Has(u.Member.ClientID))
	// The transient rule, on the ordered leave that emptied the list. A
	// crash the coordinator detected with the member's server (origin zero)
	// ends no group: its backups keep the state for whoever comes back.
	if u.Change != wire.MemberJoined && u.ServerID != 0 && g.Size() == 0 && !g.Persistent {
		e.dropGroupLocked(u.Group)
	}
}

// memberChangedLocked is every membership change's second half, once g's
// member list holds it: it rebuilds the fanout, answers op, the change's own
// join or leave, and notifies the local subscribers; the caller applies the
// transient rule. Caller holds e.mu in write mode.
func (e *Engine) memberChangedLocked(g *membership.Group, change wire.MembershipChange, member wire.MemberInfo, op *pendingChange, notify bool) {
	e.rebuildFanoutLocked(g.Name)
	if op != nil {
		if change == wire.MemberJoined {
			e.completeJoinLocked(g, op)
		} else {
			// The ack rides the delivery pipeline behind every Deliver
			// already pushed for the leaver, so the client observes no
			// Deliver after LeaveAck with fanout running off-lock.
			e.sendControlLocked(op.sess, &wire.LeaveAck{RequestID: op.reqID}, false)
		}
	}
	if notify {
		// A joiner learns the membership from its JoinAck.
		e.notifySubsLocked(g, change, member, member.ClientID)
	}
}

// hostedLocked lists g's members connected here and not leaving (e.mu held).
func (e *Engine) hostedLocked(g *membership.Group) (out []wire.MemberInfo) {
	for _, m := range g.Members() {
		if _, leaving := e.pending[memberKey{g.Name, m.ClientID}]; e.hasSession(m.ClientID) && !leaving {
			out = append(out, m)
		}
	}
	return out
}

// dropGroupLocked deletes a group and its shared state. Caller holds e.mu.
func (e *Engine) dropGroupLocked(name string) {
	_ = e.reg.Delete(name, wire.MemberInfo{})
	e.cleanupGroupLocked(name)
	e.syncGroupsGauge()
	e.metrics.Event("core", "group "+name+" dropped")
}

// cleanupGroupLocked discards a group's record — state, sequence number,
// log floor, mutex — and its locks, and logs the deletion; the registry
// entry is already gone. Caller holds e.mu in write mode, which excludes any
// multicast still holding the group's mutex.
func (e *Engine) cleanupGroupLocked(name string) {
	if grt := e.groups[name]; grt != nil {
		// Wake senders blocked on the ring; they revalidate and observe
		// the group gone.
		grt.ring.close()
		delete(e.groups, name)
	}
	orphans := e.locks.DropGroup(name)
	for _, o := range orphans {
		if s, ok := e.sessions[o.Client]; ok {
			s.Send(&wire.ErrorMsg{RequestID: o.Token, Code: wire.CodeNoSuchGroup, Text: "group deleted"})
		}
	}
	e.persistDelete(name)
}

// sendGrantsLocked completes queued lock acquisitions. Caller holds e.mu.
func (e *Engine) sendGrantsLocked(grants []locks.Grant) {
	for _, g := range grants {
		if s, ok := e.sessions[g.Client]; ok {
			s.Send(&wire.LockReply{RequestID: g.Token, Granted: true, Holder: g.Client})
		}
	}
}

// notifySubsLocked routes a membership notify to every subscribed local
// member except one (0: no exception). The notify rides the fanout shards
// as a control entry: the caller holds e.mu in write mode, which excludes
// every multicast, so the notify lands strictly between the deliveries
// sequenced before and after the membership change — subscribers observe
// notifies consistently ordered against the event stream.
func (e *Engine) notifySubsLocked(g *membership.Group, change wire.MembershipChange, member wire.MemberInfo, except uint64) {
	var targets []fanoutTarget
	for _, id := range g.Subscribers() {
		if id == except {
			continue
		}
		if s, ok := e.sessions[id]; ok {
			targets = append(targets, fanoutTarget{id: id, sess: s})
		}
	}
	if len(targets) == 0 {
		return
	}
	ent := newFanoutEntry()
	ent.frame = transport.NewSharedFrame(&wire.MembershipNotify{
		Group:  g.Name,
		Change: change,
		Member: member,
		Count:  uint32(g.Size()),
	})
	ent.targets = targets
	e.pushControlLocked(ent)
}

// Send marshals and enqueues one message for the client. Failures close
// the session asynchronously. The replicated frontend uses it to answer
// intercepted requests.
func (s *Session) Send(msg wire.Message) {
	f := transport.NewSharedFrame(msg)
	s.sendShared(f, false)
}

// sendShared enqueues a pooled frame, taking one of its references:
// sendSharedRun for a run of one.
func (s *Session) sendShared(f *transport.SharedFrame, high bool) {
	s.sendSharedRun([]*transport.SharedFrame{f}, high)
}

// sendSharedRun enqueues an ordered run of pooled frames with one pump
// mutex acquisition, taking one reference per frame, and reports how many
// the pump admitted. The pump keeps the prefix that fits and an overflow
// fails the session off this goroutine, so the torn suffix is never missed.
// A closed pump is a no-op: deferred WAL acknowledgements and residual
// deliveries can race session teardown, and "client already gone" is not a
// new failure.
func (s *Session) sendSharedRun(fs []*transport.SharedFrame, high bool) int {
	admitted, err := s.pump.SendSharedRun(fs, high)
	if err != nil && !errors.Is(err, transport.ErrPumpClosed) {
		go s.engine.failSession(s, err)
	}
	return admitted
}

// close closes the connection, unblocking the read loop.
func (s *Session) close() {
	s.closeOnce.Do(func() { _ = s.conn.Close() })
}
