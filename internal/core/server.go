package core

import (
	"errors"
	"fmt"
	"io"
	"net"
	"sync"

	"corona/internal/transport"
	"corona/internal/wire"
)

// Server is the standalone single-server frontend: it accepts client
// connections, runs the Hello exchange, and feeds requests to the Engine,
// which sequences multicasts locally. This is the configuration measured in
// the paper's Figure 3 and Table 1.
type Server struct {
	engine   *Engine
	listener *transport.Listener
	start    sync.Once
}

// Config configures a standalone Server. The zero value listens on an
// ephemeral loopback port with in-memory state.
type Config struct {
	// Addr is the listen address (default "127.0.0.1:0").
	Addr string
	// Engine carries the engine configuration.
	Engine EngineConfig
}

// NewServer builds a server and its engine (recovering persistent groups
// from disk when a directory is configured) but does not start listening.
func NewServer(cfg Config) (*Server, error) {
	engine, err := NewEngine(cfg.Engine)
	if err != nil {
		return nil, err
	}
	s, err := NewServerWithEngine(engine, cfg.Addr)
	if err != nil {
		engine.Close()
		return nil, err
	}
	return s, nil
}

// NewServerWithEngine wraps an externally built engine (used by the
// replicated frontend, which shares the engine with its peer links).
func NewServerWithEngine(engine *Engine, addr string) (*Server, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	l, err := transport.Listen(addr)
	if err != nil {
		return nil, err
	}
	return &Server{engine: engine, listener: l}, nil
}

// Start begins accepting clients. It returns immediately.
func (s *Server) Start() {
	s.start.Do(func() { go s.listener.Serve(transport.OpenTimeout, s.serveConn) })
}

// Engine exposes the underlying engine (stats, direct group management).
func (s *Server) Engine() *Engine { return s.engine }

// Addr returns the listen address, e.g. to hand to clients in tests.
func (s *Server) Addr() net.Addr { return s.listener.Addr() }

// Close shuts the engine down, which disconnects every client, then stops
// accepting. It blocks until every connection's goroutine has returned.
func (s *Server) Close() error {
	engineErr := s.engine.Close()
	if err := s.listener.Close(); err != nil {
		return err
	}
	return engineErr
}

// serveConn runs one client connection whose opening frame is first: the
// Hello exchange, then the request loop until the connection drops.
func (s *Server) serveConn(conn *transport.Conn, first wire.Message) {
	if sess := handshake(s.engine, conn, first); sess != nil {
		serveSession(s.engine, sess, conn)
	}
}

// handshake performs the server side of the Hello exchange, whose Hello is
// first, and registers the session. It returns nil when it refused the
// connection.
func handshake(e *Engine, conn *transport.Conn, first wire.Message) *Session {
	hello, ok := first.(*wire.Hello)
	if !ok {
		_ = conn.WriteMessage(&wire.ErrorMsg{Code: wire.CodeBadRequest, Text: "expected Hello"})
		return nil
	}
	if !CheckVersion(conn, hello.RequestID, hello.Proto) {
		return nil
	}
	sess, err := e.AddSession(conn, hello.Name)
	if err != nil {
		_ = conn.WriteMessage(&wire.ErrorMsg{RequestID: hello.RequestID, Code: wire.CodeShuttingDown, Text: err.Error()})
		return nil
	}
	sess.Send(&wire.HelloAck{RequestID: hello.RequestID, ClientID: sess.ID, ServerID: e.ServerID()})
	return sess
}

// CheckVersion is the version check of every connection opening — a
// client's Hello here, and a replicated server's SHello, pull Hello and SElect
// — and reports whether proto is this build's ProtocolVersion. A peer
// speaking another version is refused with one Error{CodeBadVersion} frame.
func CheckVersion(conn *transport.Conn, reqID uint64, proto uint32) bool {
	if proto == wire.ProtocolVersion {
		return true
	}
	_ = conn.WriteMessage(&wire.ErrorMsg{
		RequestID: reqID,
		Code:      wire.CodeBadVersion,
		Text:      fmt.Sprintf("protocol %d unsupported, want %d", proto, wire.ProtocolVersion),
	})
	return false
}

// serveSession runs the request loop for a registered session until the
// connection drops, then tears the session down.
//
// After every blocking read the loop greedily drains whatever frames the
// connection has already buffered (never touching the socket, so an idle
// client keeps the single-message latency), collecting consecutive Bcasts
// into a stretch that dispatchBcasts hands to the engine as same-group runs.
// Any non-Bcast flushes the run first, preserving the exact arrival order.
func serveSession(e *Engine, sess *Session, conn *transport.Conn) {
	crashed := true
	var pending []*wire.Bcast
loop:
	for {
		msg, err := conn.ReadMessage()
		for {
			if err != nil {
				e.dispatchBcasts(sess, pending)
				if errors.Is(err, io.EOF) {
					crashed = false // orderly close
				}
				break loop
			}
			if msg == nil {
				// Nothing more buffered: flush and go back to the
				// blocking read.
				e.dispatchBcasts(sess, pending)
				pending = pending[:0]
				break
			}
			if b, ok := msg.(*wire.Bcast); ok {
				pending = append(pending, b)
				if len(pending) >= maxIngestBatch {
					e.dispatchBcasts(sess, pending)
					pending = pending[:0]
				}
			} else {
				e.dispatchBcasts(sess, pending)
				pending = pending[:0]
				e.HandleMessage(sess, msg)
			}
			msg, err = conn.ReadMessageBuffered()
		}
	}
	e.DropSession(sess, crashed)
}
