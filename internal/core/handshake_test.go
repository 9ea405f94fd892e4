package core_test

import (
	"testing"
	"time"

	"corona/internal/core"
	"corona/internal/transport"
	"corona/internal/wire"
)

// rawDial opens an unadorned framed connection to the server, bypassing
// the client library, to probe the handshake edge cases.
func rawDial(t *testing.T, addr string) *transport.Conn {
	t.Helper()
	conn, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

func TestHandshakeRejectsNonHelloFirstMessage(t *testing.T) {
	srv := startServer(t, core.Config{})
	conn := rawDial(t, srv.Addr().String())
	if err := conn.WriteMessage(&wire.Ping{Nonce: 1}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatalf("expected an error reply, got %v", err)
	}
	em, ok := msg.(*wire.ErrorMsg)
	if !ok || em.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %#v", msg)
	}
	// The server must close the connection afterwards.
	if _, err := conn.ReadMessage(); err == nil {
		t.Fatal("connection survived a rejected handshake")
	}
}

func TestHandshakeRejectsWrongProtocolVersion(t *testing.T) {
	srv := startServer(t, core.Config{})
	conn := rawDial(t, srv.Addr().String())
	if err := conn.WriteMessage(&wire.Hello{RequestID: 1, Proto: 99, Name: "future"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	em, ok := msg.(*wire.ErrorMsg)
	if !ok || em.Code != wire.CodeBadVersion {
		t.Fatalf("reply = %#v", msg)
	}
}

func TestHandshakeRejectedAfterShutdown(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()
	srv.Close()
	if _, err := transport.Dial(addr, 500*time.Millisecond); err == nil {
		t.Skip("listener port was rebound by another process")
	}
}

func TestUnknownRequestGetsErrorNotDisconnect(t *testing.T) {
	srv := startServer(t, core.Config{})
	conn := rawDial(t, srv.Addr().String())
	if err := conn.WriteMessage(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion, Name: "probe"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.ReadMessage(); err != nil { // HelloAck
		t.Fatal(err)
	}
	// A server-to-server message from a client is nonsense; the server
	// answers with an error and keeps the session alive.
	if err := conn.WriteMessage(&wire.SHeartbeat{ServerID: 9}); err != nil {
		t.Fatal(err)
	}
	msg, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if em, ok := msg.(*wire.ErrorMsg); !ok || em.Code != wire.CodeBadRequest {
		t.Fatalf("reply = %#v", msg)
	}
	// Session still serves requests.
	if err := conn.WriteMessage(&wire.Ping{Nonce: 7}); err != nil {
		t.Fatal(err)
	}
	if msg, err = conn.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	if p, ok := msg.(*wire.Pong); !ok || p.Nonce != 7 {
		t.Fatalf("reply = %#v", msg)
	}
}

// TestCloseDoesNotWaitForSilentOpener: a connection that never sends its
// Hello is closed by Close, which returns promptly instead of waiting for
// the Hello.
func TestCloseDoesNotWaitForSilentOpener(t *testing.T) {
	srv := startServer(t, core.Config{})
	rawDial(t, srv.Addr().String()) // silent
	// A Hello answered on a later connection shows the silent one was
	// accepted.
	conn := rawDial(t, srv.Addr().String())
	if err := conn.WriteMessage(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion, Name: "probe"}); err != nil {
		t.Fatal(err)
	}
	_ = conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	if _, err := conn.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	closed := make(chan error, 1)
	go func() { closed <- srv.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(time.Second):
		t.Fatal("Close still waiting after 1 s on a connection that never sent Hello")
	}
}
