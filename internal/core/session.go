package core

import (
	"errors"
	"sync"

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

	for _, name := range e.reg.GroupsOf(s.ID) {
		e.removeMemberLocked(name, s.ID, change)
	}
	grants := e.locks.ReleaseAll(s.ID)
	e.sendGrantsLocked(grants)
	e.mu.Unlock()

	s.pump.Close()
}

// removeMemberLocked removes a member from one group, notifies subscribers,
// reports the change to the cluster hook, and deletes an emptied transient
// group. Caller holds e.mu.
func (e *Engine) removeMemberLocked(name string, clientID uint64, change wire.MembershipChange) {
	g, ok := e.reg.Get(name)
	if !ok || !g.Has(clientID) {
		return
	}
	var info wire.MemberInfo
	for _, m := range g.Members() {
		if m.ClientID == clientID {
			info = m
			break
		}
	}
	g2, empty, err := e.reg.Leave(name, clientID)
	if err != nil {
		return
	}
	e.rebuildFanoutLocked(name)
	e.notifySubscribersLocked(g2, change, info)
	if e.cfg.Hooks.OnMembershipChange != nil {
		e.cfg.Hooks.OnMembershipChange(name, change, info, g2.Size())
	}
	if empty && !g2.Persistent {
		e.dropGroupLocked(name)
	}
}

// dropGroupLocked deletes a group and its shared state. Caller holds e.mu.
func (e *Engine) dropGroupLocked(name string) {
	_ = e.reg.Delete(name, wire.MemberInfo{})
	e.cleanupGroupLocked(name)
	e.syncGroupsGauge()
	e.metrics.Event("core", "group "+name+" dropped")
}

// cleanupGroupLocked discards a group's state, mutex, sequence counter,
// locks, and logs the deletion; the registry entry is already gone. Caller
// holds e.mu in write mode, which excludes any multicast still holding the
// group's mutex.
func (e *Engine) cleanupGroupLocked(name string) {
	delete(e.states, name)
	if grt := e.groups[name]; grt != nil {
		// Wake senders blocked on the ring; they revalidate and observe
		// the group gone.
		grt.ring.close()
		delete(e.groups, name)
	}
	e.lsnMu.Lock()
	delete(e.lowLSN, name)
	e.lsnMu.Unlock()
	e.seqr.Drop(name)
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

// notifySubscribersLocked pushes a membership change to every subscribed
// local member. Caller holds e.mu.
func (e *Engine) notifySubscribersLocked(g *membership.Group, change wire.MembershipChange, member wire.MemberInfo) {
	e.notifySubsLocked(g, change, member, 0)
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
	frame := transport.NewSharedFrame(&wire.MembershipNotify{
		Group:  g.Name,
		Change: change,
		Member: member,
		Count:  uint32(g.Size()),
	})
	ent := newFanoutEntry()
	ent.frame = frame
	ent.targets = targets
	if e.fanout.push(ent) {
		return
	}
	// Pool closing: fall through to direct sends (recycle without touching
	// the frame or the caller's slice).
	ent.frame = nil
	ent.targets = nil
	recycleFanoutEntry(ent)
	for _, t := range targets {
		frame.Retain()
		t.sess.sendShared(frame, false)
	}
	frame.Release()
}

// NotifyMembership pushes a membership change originating on another server
// of a replicated service to this server's local subscribers.
func (e *Engine) NotifyMembership(group string, change wire.MembershipChange, member wire.MemberInfo, count uint32) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, ok := e.reg.Get(group)
	if !ok {
		return
	}
	frame := transport.NewSharedFrame(&wire.MembershipNotify{
		Group: group, Change: change, Member: member, Count: count,
	})
	for _, id := range g.Subscribers() {
		if s, ok := e.sessions[id]; ok {
			frame.Retain()
			s.sendShared(frame, false)
		}
	}
	frame.Release()
}

// Send marshals and enqueues one message for the client. Failures close
// the session asynchronously. The replicated frontend uses it to answer
// intercepted requests.
func (s *Session) Send(msg wire.Message) {
	f := transport.NewSharedFrame(msg)
	s.sendShared(f, false)
}

// sendShared enqueues a pooled frame, consuming one of its references even
// on failure: sendSharedRun for a run of one.
//
//corona:owns f
func (s *Session) sendShared(f *transport.SharedFrame, high bool) {
	s.sendSharedRun([]*transport.SharedFrame{f}, high)
}

// sendSharedRun enqueues an ordered run of pooled frames with one pump
// mutex acquisition, consuming one reference per frame even on failure, and
// reports how many the pump admitted. The pump keeps the prefix that fits
// and an overflow fails the session off this goroutine, so the torn suffix
// is never missed. A closed pump is a no-op: deferred WAL acknowledgements
// and residual deliveries can race session teardown, and "client already
// gone" is not a new failure.
//
//corona:owns fs
func (s *Session) sendSharedRun(fs []*transport.SharedFrame, high bool) int {
	admitted, err := s.pump.SendSharedRun(fs, high)
	if err != nil {
		for k := admitted; k < len(fs); k++ {
			fs[k].Release()
		}
		if !errors.Is(err, transport.ErrPumpClosed) {
			go s.engine.failSession(s, err)
		}
	}
	return admitted
}

// close closes the connection, unblocking the read loop.
func (s *Session) close() {
	s.closeOnce.Do(func() { _ = s.conn.Close() })
}
