package cluster

// The replica stream: the one way a group's state crosses between servers.
// The server that needs the state dials the peer listener of a server that
// holds it and sends an SStateRequest; the holder captures a COW image of the
// replica (O(1) in state bytes, so the group's apply path never stalls) — or
// just the event suffix the requester is missing — and streams it back in
// bounded chunks, so the bulk transfer never transits the coordinator. The
// stream ends with a seq-numbered cutover record that the puller checks
// against the offer before it installs anything. Join-driven acquisition,
// backup designation, divergence rollback, catch-up and live migration
// (acquire at the target, then release at the source) all pull this way; see
// Server.acquire.

import (
	"fmt"
	"time"

	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// serveState answers one pull on the peer listener: the events from
// req.FromSeq on when the replica still retains them, its whole image
// otherwise. A group this server does not hold (yet) is refused with one
// small frame, and the puller asks again.
func (s *Server) serveState(conn *transport.Conn, req *wire.SStateRequest) {
	start := time.Now()
	// Capture under the engine's locks, stream outside every lock.
	cp, members, ok := s.engine.ReplicaImage(req.Group, req.FromSeq)
	if !ok {
		_ = conn.WriteMessage(&wire.ErrorMsg{Code: wire.CodeNoSuchGroup, Text: fmt.Sprintf("no replica of %q here", req.Group)})
		return
	}
	stream := wire.NewTransferStream(cp.Objects, cp.History)
	err := conn.WriteMessage(&wire.SMigrateOffer{
		BaseSeq: cp.BaseSeq, NextSeq: cp.NextSeq, Digest: cp.Digest, Total: stream.Total(), Members: members,
	})
	for err == nil {
		chunk, off := stream.Next(wire.TransferChunkSize)
		if chunk == nil {
			break
		}
		// The chunk's segments are the image's own buffers; encoding the
		// frame is the one copy.
		err = conn.WriteMessage(&wire.SMigrateChunk{Offset: off, Segments: chunk})
	}
	if err == nil {
		err = conn.WriteMessage(&wire.SMigrateCutover{NextSeq: cp.NextSeq, Digest: cp.Digest})
	}
	if err != nil {
		s.log.Warn("replica stream failed", "group", req.Group, "to", conn.RemoteAddr().String(), "err", err)
		return
	}
	clusterMigrateOutNs.Record(time.Since(start).Nanoseconds())
}

// pulled is what one replica stream delivered.
type pulled struct {
	// Checkpointed.BaseSeq tells what came: below the fromSeq asked for,
	// History is the event suffix from there; otherwise this is the source's
	// whole image.
	state.Checkpointed
	// members is the source registry's member list, read with the image.
	members []wire.MemberInfo
	// bytes is the payload size.
	bytes uint64
}

// pullState fetches group's state from the server at addr: the inverse of
// serveState. The result is installable only as a whole — every chunk in
// order, exactly the announced size, and a cutover equal to the offer.
func (s *Server) pullState(addr, group string, fromSeq uint64) (pulled, error) {
	start := time.Now()
	conn, err := transport.Dial(addr, s.peerDialTimeout())
	if err != nil {
		return pulled{}, err
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SStateRequest{Group: group, FromSeq: fromSeq}); err != nil {
		return pulled{}, err
	}
	read := func() (wire.Message, error) {
		_ = conn.SetReadDeadline(time.Now().Add(s.cfg.RequestTimeout))
		return conn.ReadMessage()
	}
	msg, err := read()
	if err != nil {
		return pulled{}, err
	}
	offer, ok := msg.(*wire.SMigrateOffer)
	if !ok {
		if refusal, is := msg.(*wire.ErrorMsg); is {
			return pulled{}, fmt.Errorf("cluster: pull of %q refused: %s", group, refusal.Text)
		}
		return pulled{}, fmt.Errorf("cluster: replica stream opened with %s", msg.Kind())
	}
	var asm wire.TransferAssembler
	for {
		if msg, err = read(); err != nil {
			return pulled{}, err
		}
		switch m := msg.(type) {
		case *wire.SMigrateChunk:
			if err := asm.Add(m.Offset, offer.Total, m.Data); err != nil {
				return pulled{}, err
			}
		case *wire.SMigrateCutover:
			if m.NextSeq != offer.NextSeq || m.Digest != offer.Digest {
				return pulled{}, fmt.Errorf("cluster: cutover (seq %d, digest %x) does not match offer (seq %d, digest %x)",
					m.NextSeq, m.Digest, offer.NextSeq, offer.Digest)
			}
			objects, events, err := asm.Finish(offer.Total)
			if err != nil {
				return pulled{}, err
			}
			clusterMigrateInNs.Record(time.Since(start).Nanoseconds())
			return pulled{
				Checkpointed: state.Checkpointed{
					BaseSeq: offer.BaseSeq, NextSeq: offer.NextSeq, Digest: offer.Digest,
					Objects: objects, History: events,
				},
				members: offer.Members, bytes: offer.Total,
			}, nil
		default:
			return pulled{}, fmt.Errorf("cluster: unexpected replica stream message %s", msg.Kind())
		}
	}
}
