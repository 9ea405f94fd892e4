package cluster

// Live group migration (placement subsystem). The coordinator's placement
// manager sends the source server an SMigrate; the source captures a COW
// image of the replica (O(1) in state bytes, so the group's apply path never
// stalls), dials the target's peer listener directly, and streams the image
// in bounded chunks — the bulk transfer never transits the coordinator. The
// stream ends with a seq-numbered cutover record; the target verifies the
// reassembled payload against it, installs the replica, registers backup
// interest, and heals the seq window between capture and registration
// through the ordinary catch-up path. Per-group FIFO/total order is
// preserved throughout: the engine's gap check refuses any delivery that
// would skip a sequence number, so deliveries on the target are gapless by
// construction.

import (
	"fmt"
	"time"

	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// runMigrationOut executes one coordinator-directed migration on the source
// server and reports the outcome back to the coordinator.
func (s *Server) runMigrationOut(m *wire.SMigrate) {
	start := time.Now()
	res := &wire.SMigrated{RequestID: m.RequestID, Group: m.Group, SourceID: s.cfg.ID, TargetID: m.TargetID}
	bytes, err := s.migrateOut(m)
	res.Bytes = bytes
	if err != nil {
		res.Text = err.Error()
		s.log.Warn("migration failed", "group", m.Group, "target", m.TargetID, "err", err)
	} else {
		res.OK = true
		res.Released = s.releaseAfterMigration(m.Group)
		clusterMigrateOutNs.Record(time.Since(start).Nanoseconds())
		s.log.Info("replica migrated", "group", m.Group, "target", m.TargetID, "bytes", bytes, "released", res.Released)
	}
	s.sendToCoordinator(res)
}

// migrateOut captures the replica and streams it to the target, returning
// the payload bytes sent.
func (s *Server) migrateOut(m *wire.SMigrate) (uint64, error) {
	persistent, cp, ok := s.engine.GroupImage(m.Group)
	if !ok || s.engine.Stateless() {
		return 0, fmt.Errorf("cluster: no replica of %q to migrate", m.Group)
	}
	members, _ := s.mirror.lookup(m.Group)

	conn, err := transport.Dial(m.TargetAddr, 2*time.Second)
	if err != nil {
		return 0, err
	}
	defer conn.Close()

	stream := wire.NewTransferStream(cp.Objects, cp.History)
	offer := &wire.SMigrateOffer{
		RequestID: m.RequestID, SourceID: s.cfg.ID, Group: m.Group,
		Persistent: persistent, BaseSeq: cp.BaseSeq, NextSeq: cp.NextSeq,
		Digest: cp.Digest, Total: stream.Total(), Members: members,
	}
	if err := conn.WriteMessage(offer); err != nil {
		return 0, err
	}
	for {
		chunk, off := stream.Next(wire.TransferChunkSize)
		if chunk == nil {
			break
		}
		// WriteMessage encodes the chunk into the frame before returning,
		// so reusing the stream's chunk buffer on the next iteration is
		// safe.
		if err := conn.WriteMessage(&wire.SMigrateChunk{RequestID: m.RequestID, Offset: off, Data: chunk}); err != nil {
			return stream.Total() - stream.Remaining(), err
		}
	}
	if err := conn.WriteMessage(&wire.SMigrateCutover{RequestID: m.RequestID, NextSeq: cp.NextSeq, Digest: cp.Digest}); err != nil {
		return stream.Total(), err
	}

	_ = conn.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
	reply, err := conn.ReadMessage()
	if err != nil {
		return stream.Total(), err
	}
	result, isResult := reply.(*wire.SMigrateResult)
	if !isResult {
		return stream.Total(), fmt.Errorf("cluster: unexpected migration reply %s", reply.Kind())
	}
	if !result.OK {
		return stream.Total(), fmt.Errorf("cluster: target rejected migration: %s", result.Text)
	}
	return stream.Total(), nil
}

// releaseAfterMigration drops the source's replica once the target holds it
// — unless local members arrived while the stream was in flight, in which
// case the replica stays (members are served from the local replica) and
// the migration degrades to a copy. Reports whether the replica was
// released.
func (s *Server) releaseAfterMigration(group string) bool {
	s.mu.Lock()
	delete(s.backups, group)
	s.mu.Unlock()
	if n := s.engine.LocalMembers(group); n > 0 {
		s.sendToCoordinator(&wire.SInterest{
			ServerID: s.cfg.ID, Group: group, Interested: true, Members: uint64(n),
		})
		return false
	}
	s.mirror.drop(group)
	if err := s.engine.DeleteGroupDirect(group); err != nil {
		s.log.Debug("post-migration release skipped", "group", group, "err", err)
	}
	s.sendToCoordinator(&wire.SInterest{ServerID: s.cfg.ID, Group: group, Interested: false})
	return true
}

// handleMigrateIn receives one migration stream on the target server's peer
// listener and answers it with the install outcome.
func (s *Server) handleMigrateIn(conn *transport.Conn, offer *wire.SMigrateOffer) {
	start := time.Now()
	result := &wire.SMigrateResult{RequestID: offer.RequestID}
	nextSeq, err := s.receiveMigration(conn, offer)
	if err != nil {
		result.Text = err.Error()
		s.log.Warn("inbound migration failed", "group", offer.Group, "source", offer.SourceID, "err", err)
	} else {
		result.OK = true
		result.NextSeq = nextSeq
		clusterMigrateInNs.Record(time.Since(start).Nanoseconds())
		s.log.Info("replica received", "group", offer.Group, "source", offer.SourceID, "next-seq", nextSeq)
	}
	_ = conn.WriteMessage(result)
}

// receiveMigration reassembles the stream, verifies it against the cutover
// record, installs the replica, and registers interest. The returned value
// is the replica's next expected sequence number.
func (s *Server) receiveMigration(conn *transport.Conn, offer *wire.SMigrateOffer) (uint64, error) {
	var asm wire.TransferAssembler
	var cut *wire.SMigrateCutover
	for cut == nil {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		msg, err := conn.ReadMessage()
		if err != nil {
			return 0, err
		}
		switch m := msg.(type) {
		case *wire.SMigrateChunk:
			if err := asm.Add(m.Offset, offer.Total, m.Data); err != nil {
				return 0, err
			}
		case *wire.SMigrateCutover:
			cut = m
		default:
			return 0, fmt.Errorf("cluster: unexpected migration message %s", msg.Kind())
		}
	}
	if cut.NextSeq != offer.NextSeq || cut.Digest != offer.Digest {
		return 0, fmt.Errorf("cluster: cutover (seq %d, digest %x) does not match offer (seq %d, digest %x)",
			cut.NextSeq, cut.Digest, offer.NextSeq, offer.Digest)
	}
	objects, events, err := asm.Finish(offer.Total)
	if err != nil {
		return 0, err
	}
	cp := state.Checkpointed{
		BaseSeq: offer.BaseSeq, NextSeq: cut.NextSeq, Digest: cut.Digest,
		Objects: objects, History: events,
	}
	s.mu.Lock()
	s.backups[offer.Group] = true
	s.mu.Unlock()
	// Adopt, don't force-install: a concurrent join may have acquired a
	// newer image of the same group while the stream was in flight, and
	// rewinding it would re-deliver sequenced events to local members.
	adopted, err := s.engine.AdoptGroup(offer.Group, offer.Persistent, cp)
	if err != nil {
		return 0, err
	}
	if adopted {
		s.mirror.seed(offer.Group, offer.Members)
	}
	s.sendToCoordinator(&wire.SInterest{
		ServerID: s.cfg.ID, Group: offer.Group, Interested: true,
		Members: uint64(s.engine.LocalMembers(offer.Group)), Backup: true,
	})
	// The cutover is the stream's seq high-water mark: events sequenced
	// while the stream was in flight are fetched here, later ones arrive
	// as ordinary distributes, and the engine's gap check guarantees the
	// hand-off is seamless — deliveries on this replica stay gapless.
	s.catchUp(offer.Group)
	return s.engine.NextSeq(offer.Group), nil
}
