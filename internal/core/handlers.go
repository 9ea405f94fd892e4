package core

import (
	"errors"
	"fmt"
	"time"

	"corona/internal/locks"
	"corona/internal/membership"
	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// HandleMessage dispatches one client request. Bcast is included — a run of
// one on the multicast path (multicast.go): in a single server it is
// sequenced locally; when Hooks.Forward is set it is validated and
// forwarded to the coordinator. Replies flow through the session's pump.
// Unknown or malformed requests earn an ErrorMsg, never a disconnect, so
// one buggy client request cannot kill a session silently. Requests of one
// session are handled one at a time, on its read goroutine.
func (e *Engine) HandleMessage(s *Session, msg wire.Message) {
	if e.cfg.Hooks.Intercept != nil && e.cfg.Hooks.Intercept(s, msg) {
		return
	}
	switch m := msg.(type) {
	case *wire.Bcast:
		e.bcastRun(s, []*wire.Bcast{m})
	case *wire.Join:
		e.handleJoin(s, m)
	case *wire.Leave:
		e.handleLeave(s, m)
	case *wire.CreateGroup:
		e.handleCreate(s, m)
	case *wire.DeleteGroup:
		e.handleDelete(s, m)
	case *wire.GetMembership:
		e.handleGetMembership(s, m)
	case *wire.ListGroups:
		e.handleListGroups(s, m)
	case *wire.LockAcquire:
		e.handleLockAcquire(s, m)
	case *wire.LockRelease:
		e.handleLockRelease(s, m)
	case *wire.ReduceLog:
		e.handleReduceLog(s, m)
	case *wire.Ping:
		s.Send(&wire.Pong{Nonce: m.Nonce})
	case *wire.Pong:
		// Heartbeat reply; nothing to do.
	default:
		s.Send(&wire.ErrorMsg{Code: wire.CodeBadRequest, Text: fmt.Sprintf("unexpected %s", msg.Kind())})
	}
}

func (s *Session) sendErr(reqID uint64, code wire.ErrCode, text string) {
	s.Send(&wire.ErrorMsg{RequestID: reqID, Code: code, Text: text})
}

// errCode maps membership errors onto protocol codes.
func errCode(err error) wire.ErrCode {
	switch {
	case errors.Is(err, membership.ErrGroupExists):
		return wire.CodeGroupExists
	case errors.Is(err, membership.ErrNoSuchGroup):
		return wire.CodeNoSuchGroup
	case errors.Is(err, membership.ErrAlreadyMember):
		return wire.CodeAlreadyMember
	case errors.Is(err, membership.ErrNotMember):
		return wire.CodeNotMember
	case errors.Is(err, membership.ErrDenied):
		return wire.CodeDenied
	default:
		return wire.CodeInternal
	}
}

func (e *Engine) handleCreate(s *Session, m *wire.CreateGroup) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if err := e.createLocked(m.Group, m.Persistent, m.Initial, s.memberInfo(wire.RolePrincipal)); err != nil {
		s.sendErr(m.RequestID, errCode(err), err.Error())
		return
	}
	s.Send(&wire.CreateGroupAck{RequestID: m.RequestID})
}

// createLocked registers a group and its initial state. Caller holds e.mu.
func (e *Engine) createLocked(name string, persistent bool, initial []wire.Object, creator wire.MemberInfo) error {
	if name == "" {
		return fmt.Errorf("%w: empty group name", membership.ErrNoSuchGroup)
	}
	if _, err := e.reg.Create(name, persistent, creator); err != nil {
		return err
	}
	grt := e.registerLocked(name, persistent, state.NewInitial(initial))
	e.persistCreate(grt, name, persistent, initial)
	e.metrics.Event("core", fmt.Sprintf("group %q created (persistent=%v)", name, persistent))
	return nil
}

// CreateGroupDirect registers a group without a client session: the
// replicated frontend uses it to apply coordinator-ordered group ops, and
// embedders use it to pre-provision groups.
func (e *Engine) CreateGroupDirect(name string, persistent bool, initial []wire.Object) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.createLocked(name, persistent, initial, wire.MemberInfo{})
}

func (e *Engine) handleDelete(s *Session, m *wire.DeleteGroup) {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.reg.Get(m.Group); !ok {
		s.sendErr(m.RequestID, wire.CodeNoSuchGroup, "no such group")
		return
	}
	// Authorization runs through the registry's session manager.
	if err := e.reg.Delete(m.Group, s.memberInfo(wire.RolePrincipal)); err != nil {
		s.sendErr(m.RequestID, errCode(err), err.Error())
		return
	}
	e.cleanupGroupLocked(m.Group)
	e.syncGroupsGauge()
	e.metrics.Event("core", fmt.Sprintf("group %q deleted", m.Group))
	s.Send(&wire.DeleteGroupAck{RequestID: m.RequestID})
}

// DeleteGroupDirect removes a group without a client session (replicated
// frontend; coordinator-ordered op).
func (e *Engine) DeleteGroupDirect(name string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	if _, ok := e.reg.Get(name); !ok {
		return fmt.Errorf("%w: %q", membership.ErrNoSuchGroup, name)
	}
	e.dropGroupLocked(name)
	return nil
}

func (s *Session) memberInfo(role wire.Role) wire.MemberInfo {
	return wire.MemberInfo{ClientID: s.ID, Name: s.Name, Role: role}
}

// Streaming-transfer tuning.
const (
	// inlineTransferMax is the largest payload a JoinAck carries inline.
	// Larger transfers stream as TransferChunk frames so the ack — and
	// the engine write lock — stay O(membership update).
	inlineTransferMax = 64 << 10
	// transferWindow bounds the chunks in flight per transfer, so a bulk
	// transfer occupies at most this many slots of the member's pump and
	// live deliveries are never starved.
	transferWindow = 4
)

// handleJoin is a join's first half, under the engine write lock: it
// validates the join — the group, the session manager, a resume cursor — and
// then, in a replicated service, forwards it to be ordered; on a single
// server the second half (memberChangedLocked, completeJoinLocked) runs at
// once, under the same hold. A resume cursor past the group's next sequence
// number is malformed and refused here, before anything is ordered; NextSeq
// only grows, so the capture the second half takes cannot fail.
func (e *Engine) handleJoin(s *Session, m *wire.Join) {
	start := time.Now()
	role := m.Role
	if !role.Valid() {
		role = wire.RolePrincipal
	}
	op := pendingChange{sess: s, member: s.memberInfo(role), change: wire.MemberJoined,
		reqID: m.RequestID, policy: m.Policy, notify: m.Notify, start: start}
	if !op.policy.Mode.Valid() {
		op.policy = wire.FullTransfer
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	defer func() { e.hJoinLockHold.Record(time.Since(start).Nanoseconds()) }()

	next := uint64(1)
	if st := e.getState(m.Group); st != nil {
		next = st.NextSeq()
	}
	if op.policy.Mode == wire.TransferResume && op.policy.FromSeq > next {
		s.sendErr(m.RequestID, wire.CodeBadRequest, fmt.Sprintf("resume from %d beyond next seq %d", op.policy.FromSeq, next))
		return
	}
	forward := e.cfg.Hooks.OnMembershipChange
	if forward != nil {
		if _, err := e.reg.Admit(m.Group, op.member); err != nil {
			s.sendErr(m.RequestID, errCode(err), err.Error())
			return
		}
		if err := forward(m.Group, wire.MemberJoined, op.member); err != nil {
			s.sendErr(m.RequestID, wire.CodeInternal, err.Error())
			return
		}
		// A retry replaces a join whose copy was lost with a link.
		e.pending[memberKey{m.Group, s.ID}] = op
		return
	}
	if _, ok := e.reg.Get(m.Group); !ok && m.CreateIfMissing {
		if err := e.createLocked(m.Group, false, nil, wire.MemberInfo{}); err != nil {
			s.sendErr(m.RequestID, errCode(err), err.Error())
			return
		}
	}
	g, err := e.reg.Join(m.Group, op.member, m.Notify)
	if err != nil {
		s.sendErr(m.RequestID, errCode(err), err.Error())
		return
	}
	e.memberChangedLocked(g, wire.MemberJoined, op.member, &op, true)
}

// completeJoinLocked answers a join at the point the join took effect: the
// transfer is captured there, JoinAck carries the member list there, and the
// payload is deferred. The capture is O(#objects), not O(bytes)
// (state.Transfer shares the live buffers copy-on-write), so the write-lock
// hold time, which excludes every group's multicasts, does not scale with
// state size. Payloads up to inlineTransferMax are encoded into the ack while
// the lock still protects the shared buffers; larger ones stream from
// streamTransfer after unlock, concurrently with live deliveries.
//
// Ordering: the ack is enqueued on the pump's priority lane before the lock
// is released, and fanouts are excluded while it is held — so the client
// sees JoinAck before any Deliver at or past the captured NextSeq, and
// before any TransferChunk (chunks ride the normal lane, enqueued later).
// Caller holds e.mu in write mode.
func (e *Engine) completeJoinLocked(g *membership.Group, op *pendingChange) {
	ack := &wire.JoinAck{RequestID: op.reqID, Group: g.Name}
	var tr state.Transfer
	grt := e.groups[g.Name]
	if st := grt.st; st != nil {
		var err error
		if tr, err = st.Capture(op.policy); err != nil {
			// The requested suffix was reduced away: a full transfer
			// (documented resume semantics).
			tr, _ = st.Capture(wire.FullTransfer)
		}
		ack.BaseSeq = tr.BaseSeq()
		ack.NextSeq = tr.NextSeq()
		if !e.streamsTransfer(ack, tr.PayloadBytes()) {
			// Small transfer: inline. The ack is encoded under the
			// write lock (sendShared marshals at frame construction),
			// so sharing the live buffers here is race-free.
			ack.Objects = tr.Objects()
			ack.Events = tr.Events()
		}
	} else {
		// Stateless baseline: no transfer; deliveries start at the
		// group's next number.
		ack.NextSeq = grt.next
	}
	ack.Members = g.Members()
	e.hJoin.Record(time.Since(op.start).Nanoseconds())
	// Priority lane: the joiner's ack is not head-of-line-blocked behind
	// bulk traffic already queued for this client.
	op.sess.sendShared(transport.NewSharedFrame(ack), true)
	if ack.Streaming {
		go func() {
			err := e.streamTransfer(op.sess.pump, op.reqID, g.Name, wire.NewTransferStream(tr.Objects(), tr.Events()))
			if err != nil && !errors.Is(err, transport.ErrPumpClosed) {
				e.failSession(op.sess, fmt.Errorf("state transfer: %w", err))
			}
		}()
	}
}

// streamsTransfer decides how a join's payload of size bytes travels: inline
// in the ack up to inlineTransferMax, otherwise after it (streamTransfer),
// which marks the ack Streaming. It counts the payload in
// engine.transfer_bytes.
func (e *Engine) streamsTransfer(ack *wire.JoinAck, size uint64) bool {
	e.mTransferBytes.Add(size)
	ack.Streaming = size > inlineTransferMax
	return ack.Streaming
}

// streamTransfer ships a streamed join's payload on pump as TransferChunk
// frames on the normal lane, then terminates it with TransferDone; the pump
// is a client member's, or a replica pull's own. It runs with no engine
// lock: the payload's buffers are copy-on-write stable, so concurrent
// multicasts proceed untouched. A window of transferWindow chunks is kept in
// flight, each slot returned by the frame's final release (written or
// discarded by the pump), which bounds both pump occupancy and transfer
// memory. Each chunk's frame is its header around the payload's segments
// (transport.NewChunkFrame): the pump writes them with one writev, and the
// payload is never copied in user space on this side. It returns the first
// failed send's error.
func (e *Engine) streamTransfer(pump *transport.Pump, reqID uint64, group string, stream *wire.TransferStream) error {
	total := stream.Total()
	window := make(chan struct{}, transferWindow)
	for {
		chunk, off := stream.Next(wire.TransferChunkSize)
		if chunk == nil {
			break
		}
		window <- struct{}{}
		n := int64(chunk.Len())
		e.gTransferInflight.Add(n)
		f := transport.NewChunkFrame(
			&wire.TransferChunk{RequestID: reqID, Group: group, Offset: off, Total: total, Segments: chunk},
			func() {
				e.gTransferInflight.Add(-n)
				<-window
			},
		)
		if _, err := pump.SendSharedRun([]*transport.SharedFrame{f}, false); err != nil {
			return err
		}
		e.mTransferChunks.Inc()
	}
	return pump.SendMessage(&wire.TransferDone{RequestID: reqID, Group: group, Bytes: total})
}

// ServeReplica answers a replica pull: a Join read on a replicated server's
// peer listener, after a Hello that passed CheckVersion. The listener, not
// the Join, makes it a pull, so a client can never ask for this: the answer
// is replicaImage's for the join's resume cursor (no cursor, or 0, gets the
// whole image), acked and streamed like a client join's transfer — a JoinAck
// with the image's bounds, digest and member list, its payload inline up to
// inlineTransferMax and otherwise streamed after it under the transfer window
// — on a pump of its own over conn. A group not held here is refused with one
// frame. It returns once every frame is written or the connection failed;
// the caller closes conn.
func (e *Engine) ServeReplica(conn *transport.Conn, m *wire.Join) error {
	var from uint64
	if m.Policy.Mode == wire.TransferResume {
		from = m.Policy.FromSeq
	}
	cp, members, ok := e.replicaImage(m.Group, from)
	if !ok {
		return conn.WriteMessage(&wire.ErrorMsg{RequestID: m.RequestID, Code: wire.CodeNoSuchGroup,
			Text: fmt.Sprintf("no replica of %q here", m.Group)})
	}
	ack := &wire.JoinAck{RequestID: m.RequestID, Group: m.Group, BaseSeq: cp.BaseSeq, NextSeq: cp.NextSeq,
		Digest: cp.Digest, Members: members}
	stream := wire.NewTransferStream(cp.Objects, cp.History)
	if !e.streamsTransfer(ack, stream.Total()) {
		ack.Objects, ack.Events = cp.Objects, cp.History
	}
	pump := transport.NewPump(conn, 0)
	err := pump.SendMessage(ack)
	if err == nil && ack.Streaming {
		err = e.streamTransfer(pump, m.RequestID, m.Group, stream)
	}
	pump.Close()
	if err == nil {
		err = pump.Err()
	}
	return err
}

func (e *Engine) handleLeave(s *Session, m *wire.Leave) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, ok := e.reg.Get(m.Group)
	if !ok {
		s.sendErr(m.RequestID, wire.CodeNoSuchGroup, "no such group")
		return
	}
	info, member := g.Member(s.ID)
	if !member {
		s.sendErr(m.RequestID, wire.CodeNotMember, "not a member")
		return
	}
	op := pendingChange{sess: s, member: info, change: wire.MemberLeft, reqID: m.RequestID}
	if err := e.leaveLocked(g, wire.MemberLeft, info, &op); err != nil {
		s.sendErr(m.RequestID, wire.CodeInternal, err.Error())
	}
}

func (e *Engine) handleGetMembership(s *Session, m *wire.GetMembership) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	g, ok := e.reg.Get(m.Group)
	if !ok {
		s.sendErr(m.RequestID, wire.CodeNoSuchGroup, "no such group")
		return
	}
	s.Send(&wire.MembershipInfo{RequestID: m.RequestID, Group: m.Group, Members: g.Members()})
}

func (e *Engine) handleListGroups(s *Session, m *wire.ListGroups) {
	e.mu.RLock()
	defer e.mu.RUnlock()
	s.Send(&wire.GroupList{RequestID: m.RequestID, Groups: e.reg.Names()})
}

func (e *Engine) handleLockAcquire(s *Session, m *wire.LockAcquire) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, ok := e.reg.Get(m.Group)
	if !ok || !g.Has(s.ID) {
		s.sendErr(m.RequestID, wire.CodeNotMember, "lock requires group membership")
		return
	}
	granted, holder, queued := e.locks.Acquire(m.Group, m.Name, s.ID, m.RequestID, m.Wait)
	if queued {
		return // reply comes later as a granted LockReply
	}
	s.Send(&wire.LockReply{RequestID: m.RequestID, Granted: granted, Holder: holder})
}

func (e *Engine) handleLockRelease(s *Session, m *wire.LockRelease) {
	e.mu.Lock()
	defer e.mu.Unlock()
	grant, err := e.locks.Release(m.Group, m.Name, s.ID)
	if err != nil {
		s.sendErr(m.RequestID, wire.CodeLockHeld, err.Error())
		return
	}
	s.Send(&wire.LockReply{RequestID: m.RequestID, Granted: false, Holder: 0})
	if grant != nil {
		e.sendGrantsLocked([]locks.Grant{*grant})
	}
}

func (e *Engine) handleReduceLog(s *Session, m *wire.ReduceLog) {
	e.mu.Lock()
	defer e.mu.Unlock()
	g, ok := e.reg.Get(m.Group)
	if !ok {
		s.sendErr(m.RequestID, wire.CodeNoSuchGroup, "no such group")
		return
	}
	st := e.getState(m.Group)
	if st == nil {
		s.sendErr(m.RequestID, wire.CodeBadRequest, "stateless service keeps no log")
		return
	}
	trimmed := e.reduceLocked(m.Group, g, st, m.UpToSeq)
	s.Send(&wire.ReduceLogAck{RequestID: m.RequestID, BaseSeq: st.BaseSeq(), Trimmed: uint64(trimmed)})
}

// reduceLocked trims a group's history and queues the checkpoint record.
// Caller holds either e.mu in write mode or the group's mutex (with e.mu
// read-held) — both serialize against the group's multicasts.
func (e *Engine) reduceLocked(name string, g *membership.Group, st *state.Group, upToSeq uint64) int {
	trimmed := st.Reduce(upToSeq)
	if trimmed > 0 {
		e.mReduced.Inc()
		e.metrics.Event("core", fmt.Sprintf("group %q log reduced by %d events", name, trimmed))
		if g.Persistent {
			e.persistCheckpoint(e.groups[name], name)
		}
	}
	return trimmed
}
