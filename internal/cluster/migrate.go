package cluster

// The replica pull: the one way a group's state crosses between servers. A
// replica is a client of the service (paper §4): the server that needs the
// state dials the peer listener of a server that holds it and joins the group
// as a client does — Hello, then Join with a resume cursor — and the holder
// answers with a client join's transfer: a JoinAck carrying the image's
// bounds, digest and member list, its payload inline or streamed after it as
// TransferChunks and a TransferDone, under the join's transfer window. The
// holder captures a COW image of the replica (O(1) in state bytes, so the
// group's apply path never stalls) — or just the event suffix the puller is
// missing — and the bulk transfer never transits the coordinator. The puller
// installs nothing unless every chunk arrived in order and the stream is
// exactly the size its chunks and TransferDone announced. Join-driven
// acquisition, backup designation (a live migration's target among them),
// divergence rollback and catch-up all pull this way; see Server.acquire.

import (
	"fmt"
	"time"

	"corona/internal/state"
	"corona/internal/transport"
	"corona/internal/wire"
)

// serveState answers one pull on the peer listener, whose Hello has been
// read: it reads the puller's Join, within RequestTimeout, and hands it to
// the engine, which writes the answer.
func (s *Server) serveState(conn *transport.Conn) {
	start := time.Now()
	msg, err := conn.ReadWithin(s.cfg.RequestTimeout)
	if err != nil {
		return
	}
	join, ok := msg.(*wire.Join)
	if !ok {
		s.log.Warn("replica pull without a Join", "kind", msg.Kind().String())
		return
	}
	if err := s.engine.ServeReplica(conn, join); err != nil {
		s.log.Warn("replica pull failed", "group", join.Group, "to", conn.RemoteAddr().String(), "err", err)
		return
	}
	clusterMigrateOutNs.Record(time.Since(start).Nanoseconds())
}

// pulled is what one replica pull delivered.
type pulled struct {
	// Checkpointed.BaseSeq tells what came: below the fromSeq asked for,
	// History is the event suffix from there; otherwise this is the source's
	// whole image.
	state.Checkpointed
	// members is the source registry's member list, read with the image.
	members []wire.MemberInfo
}

// pullState fetches group's state from the server at addr: the inverse of
// serveState. The result is installable only as a whole — every chunk in
// order, and TransferDone's size equal to the chunks' announced total and to
// the bytes that arrived.
func (s *Server) pullState(addr, group string, fromSeq uint64) (pulled, error) {
	start := time.Now()
	conn, msg, err := transport.Open(addr, s.cfg.RequestTimeout,
		&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion},
		&wire.Join{RequestID: 2, Group: group, Policy: wire.TransferPolicy{Mode: wire.TransferResume, FromSeq: fromSeq}})
	if err != nil {
		return pulled{}, err
	}
	defer conn.Close()
	ack, ok := msg.(*wire.JoinAck)
	if !ok {
		if refusal, is := msg.(*wire.ErrorMsg); is {
			return pulled{}, fmt.Errorf("cluster: pull of %q refused: %s", group, refusal.Text)
		}
		return pulled{}, fmt.Errorf("cluster: replica pull answered with %s", msg.Kind())
	}
	got := pulled{
		Checkpointed: state.Checkpointed{
			BaseSeq: ack.BaseSeq, NextSeq: ack.NextSeq, Digest: ack.Digest,
			Objects: ack.Objects, History: ack.Events,
		},
		members: ack.Members,
	}
	if !ack.Streaming {
		clusterMigrateInNs.Record(time.Since(start).Nanoseconds())
		return got, nil
	}
	// Each chunk's body is read from the socket straight into asm.
	var asm wire.TransferAssembler
	var total uint64
	conn.ReadChunksInto(func(m *wire.TransferChunk, size int) ([]byte, error) {
		if m.Offset == 0 {
			total = m.Total
		}
		if m.Total != total {
			return nil, fmt.Errorf("cluster: transfer chunk announces %d bytes, the first announced %d", m.Total, total)
		}
		return asm.Reserve(m.Offset, total, size)
	})
	for {
		if msg, err = conn.ReadWithin(s.cfg.RequestTimeout); err != nil {
			return pulled{}, err
		}
		switch m := msg.(type) {
		case *wire.TransferChunk:
			// Its body is in asm already.
		case *wire.TransferDone:
			if m.Bytes != total {
				return pulled{}, fmt.Errorf("cluster: transfer done at %d bytes, its chunks announced %d", m.Bytes, total)
			}
			if got.Objects, got.History, err = asm.Finish(total); err != nil {
				return pulled{}, err
			}
			clusterMigrateInNs.Record(time.Since(start).Nanoseconds())
			return got, nil
		default:
			return pulled{}, fmt.Errorf("cluster: unexpected replica pull message %s", msg.Kind())
		}
	}
}
