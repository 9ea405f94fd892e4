package cluster

import (
	"fmt"
	"sort"
	"time"

	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// This file implements coordinator succession (paper §4.2): "When the
// coordinator crashes, the first server in the list becomes the new
// coordinator. ... The first server sends a message to all the other
// servers and it assumes the role of coordinator when it receives
// acknowledgments from half+1 of the remaining servers. If the first
// server wrongfully assumes that the coordinator is down, (some of) the
// other servers will notice this and will respond with a nack. ... An
// increasing timeout interval is allowed for each of the servers at the
// top of the list" — so k+1 servers tolerate k simultaneous crashes.

// servePeerConn serves one connection to this server's peer listener, whose
// opening frame is first: an election probe from a candidate, a replica pull
// from a server acquiring a group this one holds, or (after a promotion) a
// registration from another server. Each opening frame carries the protocol
// version, and a peer speaking another one is refused before anything else
// is read.
func (s *Server) servePeerConn(conn *transport.Conn, first wire.Message) {
	switch m := first.(type) {
	case *wire.SHello:
		s.mu.Lock()
		coord := s.promoted
		s.mu.Unlock()
		if coord == nil {
			_ = conn.WriteMessage(&wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "not the coordinator"})
			return
		}
		coord.ServeRegistration(conn, m) // blocks for the link's life
	case *wire.SElect:
		if !versionRefused(conn, 0, m.Proto) {
			s.handleElectionProbe(conn, m)
		}
	case *wire.Hello:
		if !versionRefused(conn, m.RequestID, m.Proto) {
			s.serveState(conn)
		}
	default:
		s.log.Warn("unexpected peer-listener message", "kind", first.Kind().String())
	}
}

// versionRefused refuses a peer-listener opening of another protocol version
// (core.CheckVersion's one Error{CodeBadVersion} frame), counts it in
// cluster.hellos_refused, and reports whether it did.
func versionRefused(conn *transport.Conn, reqID uint64, proto uint32) bool {
	if core.CheckVersion(conn, reqID, proto) {
		return false
	}
	clusterHellosRefused.Inc()
	return true
}

// handleElectionProbe votes on a candidacy and, after an ack, waits for the
// result announcement on the same connection.
func (s *Server) handleElectionProbe(conn *transport.Conn, m *wire.SElect) {
	s.mu.Lock()
	ack := !s.linkUp && s.promoted == nil && m.Epoch > s.epoch && m.Epoch > s.votedEpoch
	if ack {
		s.votedEpoch = m.Epoch
	}
	reply := &wire.SElectReply{
		VoterID: s.cfg.ID, CandidateID: m.CandidateID, Epoch: m.Epoch, Ack: ack,
	}
	if !ack {
		// Tell the candidate where the regime it missed lives.
		reply.Epoch = s.epoch
		reply.CoordAddr = s.coordAddr
	}
	s.mu.Unlock()

	_ = conn.WriteMessage(reply)
	if !ack {
		return
	}
	// The candidate announces the outcome (SServerList) if it wins.
	outcome, err := conn.ReadWithin(s.outcomeTimeout())
	if err != nil {
		return
	}
	if list, ok := outcome.(*wire.SServerList); ok && list.CoordinatorID == m.CandidateID {
		s.adoptCoordinator(m.Addr, list.Epoch)
	}
}

// adoptCoordinator records a newly elected coordinator and kicks the link
// loop to reconnect there.
func (s *Server) adoptCoordinator(addr string, epoch uint64) {
	s.mu.Lock()
	if epoch < s.epoch {
		s.mu.Unlock()
		return
	}
	s.coordAddr = addr
	s.epoch = epoch
	s.mu.Unlock()
	s.log.Info("adopting new coordinator", "addr", addr, "epoch", epoch)
	select {
	case s.coordChanged <- struct{}{}:
	default:
	}
}

// recoverCoordinator re-establishes coordinator service after a link loss:
// reconnect if possible, otherwise run the §4.2 succession. It returns
// false when the server is shutting down.
func (s *Server) recoverCoordinator() bool {
	for attempt := 0; ; attempt++ {
		s.mu.Lock()
		closed := s.closed
		addr := s.coordAddr
		s.mu.Unlock()
		if closed {
			return false
		}
		if err := s.connectCoordinator(addr); err == nil {
			return true
		}
		if s.cfg.DisableElection {
			if !s.sleepOrSignal(s.cfg.ElectionBackoff) {
				return false
			}
			continue
		}

		// Escalating delay by succession rank before claiming the role.
		delay := time.Duration(s.rank()+1) * s.cfg.ElectionBackoff
		if !s.sleepOrSignal(delay) {
			return false
		}
		// A lower-ranked candidate may have won during the wait (we
		// adopted its address), or the incumbent may be back.
		s.mu.Lock()
		addr = s.coordAddr
		s.mu.Unlock()
		if err := s.connectCoordinator(addr); err == nil {
			return true
		}
		if s.runCandidacy() {
			return s.connectSelf()
		}
	}
}

// sleepOrSignal waits for d, returning early (true) when a new coordinator
// was adopted, or false on shutdown.
func (s *Server) sleepOrSignal(d time.Duration) bool {
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-s.stop:
		return false
	case <-s.coordChanged:
		return true
	case <-t.C:
		return true
	}
}

// rank returns this server's position in the boot-ordered server list.
func (s *Server) rank() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	list := append([]wire.ServerInfo(nil), s.servers...)
	sort.Slice(list, func(i, j int) bool { return list[i].BootOrder < list[j].BootOrder })
	for i, info := range list {
		if info.ID == s.cfg.ID {
			return i
		}
	}
	return len(list)
}

// runCandidacy claims the coordinator role: probe every other server and
// promote on a majority of acks.
func (s *Server) runCandidacy() bool {
	electionStart := time.Now()
	s.mu.Lock()
	candidateEpoch := s.epoch + 1
	if candidateEpoch <= s.votedEpoch {
		// Already voted for another candidate at this epoch; claiming it
		// too could split the vote into two same-epoch winners.
		candidateEpoch = s.votedEpoch + 1
	}
	// A candidate votes for itself, so two concurrent candidates can
	// never ack each other into a same-epoch split brain.
	s.votedEpoch = candidateEpoch
	var others []wire.ServerInfo
	for _, info := range s.servers {
		if info.ID == s.cfg.ID {
			continue
		}
		if info.ID == s.coordID {
			// The crashed coordinator is not a voter: the paper's
			// quorum is "half+1 of the REMAINING servers". Counting it
			// would make a 3-server cluster unable to survive the loss
			// of a promoted coordinator.
			continue
		}
		others = append(others, info)
	}
	s.mu.Unlock()

	s.log.Info("running for coordinator", "epoch", candidateEpoch, "voters", len(others))
	probe := &wire.SElect{Proto: wire.ProtocolVersion, CandidateID: s.cfg.ID, Epoch: candidateEpoch, Addr: s.PeerAddr()}

	type voter struct {
		conn *transport.Conn
		ack  bool
		nack *wire.SElectReply
	}
	votes := make(chan voter, len(others))
	for _, info := range others {
		go func(addr string) {
			conn, msg, err := transport.Open(addr, s.voteTimeout(), probe)
			if err != nil {
				votes <- voter{}
				return
			}
			reply, ok := msg.(*wire.SElectReply)
			if !ok {
				conn.Close()
				votes <- voter{}
				return
			}
			if !reply.Ack {
				conn.Close()
				votes <- voter{nack: reply}
				return
			}
			votes <- voter{conn: conn, ack: true}
		}(info.Addr)
	}

	acks := 0
	var ackConns []*transport.Conn
	var bestNack *wire.SElectReply
	for range others {
		v := <-votes
		if v.ack {
			acks++
			ackConns = append(ackConns, v.conn)
			continue
		}
		if v.nack != nil && v.nack.CoordAddr != "" {
			if bestNack == nil || v.nack.Epoch > bestNack.Epoch {
				bestNack = v.nack
			}
		}
	}
	need := len(others)/2 + 1
	if len(others) == 0 {
		need = 0
	}
	if acks < need {
		s.log.Info("candidacy failed", "acks", acks, "need", need)
		clusterElectionsNot.Inc()
		obs.Default.Event("cluster", fmt.Sprintf("server %d lost election (epoch %d, %d/%d acks)", s.cfg.ID, candidateEpoch, acks, need))
		for _, conn := range ackConns {
			conn.Close()
		}
		// A nack may reveal the regime this server slept through (a
		// wrongful candidacy, as §4.2 anticipates): adopt it.
		if bestNack != nil {
			s.adoptCoordinator(bestNack.CoordAddr, bestNack.Epoch)
		}
		return false
	}

	s.promote(candidateEpoch)
	clusterElectionsWon.Inc()
	clusterElectionNs.Record(time.Since(electionStart).Nanoseconds())
	obs.Default.Event("cluster", fmt.Sprintf("server %d won election (epoch %d)", s.cfg.ID, candidateEpoch))

	// Announce the outcome so the voters re-register with us.
	announce := &wire.SServerList{CoordinatorID: s.cfg.ID, Epoch: candidateEpoch}
	for _, conn := range ackConns {
		_ = conn.WriteMessage(announce)
		conn.Close()
	}
	return true
}

// promote starts an embedded coordinator behind this server's peer
// listener.
func (s *Server) promote(epoch uint64) {
	coord, err := NewCoordinator(CoordinatorConfig{
		ID:                s.cfg.ID,
		Epoch:             epoch,
		NoListen:          true,
		HeartbeatInterval: s.cfg.HeartbeatInterval,
		PeerTimeout:       s.cfg.CoordinatorTimeout,
		Placement:         s.cfg.Placement,
		Logger:            s.log.With("role", "coordinator"),
	})
	if err != nil {
		// Unreachable: NoListen coordinators cannot fail to build.
		s.log.Error("promotion failed", "err", err)
		return
	}
	s.mu.Lock()
	s.promoted = coord
	s.epoch = epoch
	s.coordAddr = s.PeerAddr()
	s.mu.Unlock()
	coord.Start()
	s.log.Info("promoted to coordinator", "epoch", epoch)
}

// connectSelf registers the promoted server with its own embedded
// coordinator (through the loopback peer listener, like any other server).
func (s *Server) connectSelf() bool {
	deadline := time.Now().Add(s.registerTimeout())
	for time.Now().Before(deadline) {
		if err := s.connectCoordinator(s.PeerAddr()); err == nil {
			return true
		}
		time.Sleep(20 * time.Millisecond)
	}
	s.log.Error("self-registration after promotion failed")
	return false
}
