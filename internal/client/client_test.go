package client

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/transport"
	"corona/internal/wire"
)

// fakeServer accepts one connection and lets a test script its replies at
// the wire level, for client edge cases a real server never produces.
type fakeServer struct {
	t  *testing.T
	ln *transport.Listener

	mu   sync.Mutex
	conn *transport.Conn
	// handle maps message kinds to scripted behaviours; nil means
	// "answer like a well-behaved server would".
	handle func(conn *transport.Conn, msg wire.Message) bool
}

func newFakeServer(t *testing.T) *fakeServer {
	t.Helper()
	ln, err := transport.Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fs := &fakeServer{t: t, ln: ln}
	t.Cleanup(func() { ln.Close() })
	go fs.serve()
	return fs
}

func (fs *fakeServer) addr() string { return fs.ln.Addr().String() }

func (fs *fakeServer) setHandler(h func(conn *transport.Conn, msg wire.Message) bool) {
	fs.mu.Lock()
	fs.handle = h
	fs.mu.Unlock()
}

func (fs *fakeServer) serve() {
	for {
		conn, err := fs.ln.Accept()
		if err != nil {
			return
		}
		fs.mu.Lock()
		fs.conn = conn
		fs.mu.Unlock()
		go fs.serveConn(conn)
	}
}

func (fs *fakeServer) serveConn(conn *transport.Conn) {
	defer conn.Close()
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			return
		}
		fs.mu.Lock()
		h := fs.handle
		fs.mu.Unlock()
		if h != nil && h(conn, msg) {
			continue
		}
		switch m := msg.(type) {
		case *wire.Hello:
			_ = conn.WriteMessage(&wire.HelloAck{RequestID: m.RequestID, ClientID: 42, ServerID: 7})
		case *wire.Ping:
			_ = conn.WriteMessage(&wire.Pong{Nonce: m.Nonce})
		case *wire.CreateGroup:
			_ = conn.WriteMessage(&wire.CreateGroupAck{RequestID: m.RequestID})
		case *wire.Join:
			_ = conn.WriteMessage(&wire.JoinAck{RequestID: m.RequestID, Group: m.Group, NextSeq: 1})
		}
	}
}

func dialFake(t *testing.T, fs *fakeServer, cfg Config) *Client {
	t.Helper()
	cfg.Addr = fs.addr()
	if cfg.Timeout == 0 {
		cfg.Timeout = 2 * time.Second
	}
	c, err := Dial(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func TestDialAssignsIdentity(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x"})
	if c.ID() != 42 || c.ServerID() != 7 {
		t.Fatalf("identity = %d/%d", c.ID(), c.ServerID())
	}
}

func TestDialRefusedByServer(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		if m, ok := msg.(*wire.Hello); ok {
			_ = conn.WriteMessage(&wire.ErrorMsg{RequestID: m.RequestID, Code: wire.CodeBadVersion, Text: "nope"})
			return true
		}
		return false
	})
	_, err := Dial(Config{Addr: fs.addr(), Name: "x", Timeout: time.Second})
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeBadVersion {
		t.Fatalf("dial error = %v", err)
	}
}

func TestDialUnexpectedHandshakeReply(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		if _, ok := msg.(*wire.Hello); ok {
			_ = conn.WriteMessage(&wire.Pong{Nonce: 1})
			return true
		}
		return false
	})
	if _, err := Dial(Config{Addr: fs.addr(), Name: "x", Timeout: time.Second}); err == nil {
		t.Fatal("handshake with garbage reply succeeded")
	}
}

func TestDialConnectionRefused(t *testing.T) {
	if _, err := Dial(Config{Addr: "127.0.0.1:1", DialTimeout: 200 * time.Millisecond}); err == nil {
		t.Fatal("dial to closed port succeeded")
	}
}

func TestRequestTimeout(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		// Swallow everything but the handshake.
		_, isHello := msg.(*wire.Hello)
		return !isHello
	})
	c := dialFake(t, fs, Config{Name: "x", Timeout: 100 * time.Millisecond})
	if err := c.CreateGroup("g", false, nil); !errors.Is(err, ErrTimeout) {
		t.Fatalf("got %v, want ErrTimeout", err)
	}
}

func TestServerErrorMapped(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		if m, ok := msg.(*wire.CreateGroup); ok {
			_ = conn.WriteMessage(&wire.ErrorMsg{RequestID: m.RequestID, Code: wire.CodeDenied, Text: "not you"})
			return true
		}
		return false
	})
	c := dialFake(t, fs, Config{Name: "x"})
	err := c.CreateGroup("g", false, nil)
	var se *ServerError
	if !errors.As(err, &se) || se.Code != wire.CodeDenied || se.Text != "not you" {
		t.Fatalf("error = %v", err)
	}
	if se.Error() == "" {
		t.Error("empty error string")
	}
}

func TestUnexpectedReplyKind(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		if m, ok := msg.(*wire.CreateGroup); ok {
			// Well-formed but wrong-kind reply with a matching ID.
			_ = conn.WriteMessage(&wire.LeaveAck{RequestID: m.RequestID})
			return true
		}
		return false
	})
	c := dialFake(t, fs, Config{Name: "x"})
	if err := c.CreateGroup("g", false, nil); err == nil {
		t.Fatal("wrong-kind reply accepted")
	}
}

func TestRequestsAfterClose(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x"})
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("double close: %v", err)
	}
	if err := c.CreateGroup("g", false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
	if _, err := c.Join("g", JoinOptions{}); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed", err)
	}
}

func TestPendingFailOnConnectionLoss(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		if _, ok := msg.(*wire.CreateGroup); ok {
			conn.Close() // die mid-request
			return true
		}
		return false
	})
	disconnected := make(chan error, 1)
	c := dialFake(t, fs, Config{
		Name:         "x",
		OnDisconnect: func(err error) { disconnected <- err },
	})
	if err := c.CreateGroup("g", false, nil); !errors.Is(err, ErrClosed) {
		t.Fatalf("got %v, want ErrClosed (pending failed by read loop)", err)
	}
	select {
	case err := <-disconnected:
		if err == nil {
			t.Error("nil disconnect error")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDisconnect never fired")
	}
}

func TestNoDisconnectCallbackOnClose(t *testing.T) {
	fs := newFakeServer(t)
	fired := make(chan error, 1)
	c := dialFake(t, fs, Config{
		Name:         "x",
		OnDisconnect: func(err error) { fired <- err },
	})
	c.Close()
	select {
	case err := <-fired:
		t.Fatalf("OnDisconnect fired on explicit close: %v", err)
	case <-time.After(150 * time.Millisecond):
	}
}

func TestDeliverDispatch(t *testing.T) {
	fs := newFakeServer(t)
	events := make(chan wire.Event, 4)
	notifies := make(chan wire.MembershipNotify, 4)
	c := dialFake(t, fs, Config{
		Name:         "x",
		OnEvent:      func(_ string, ev wire.Event) { events <- ev },
		OnMembership: func(n wire.MembershipNotify) { notifies <- n },
	})
	_ = c
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()

	want := wire.Event{Seq: 9, Kind: wire.EventState, ObjectID: "o", Data: []byte("d"), Sender: 1, Time: 2}
	if err := conn.WriteMessage(&wire.Deliver{Group: "g", Event: want}); err != nil {
		t.Fatal(err)
	}
	select {
	case ev := <-events:
		if ev.Seq != 9 || string(ev.Data) != "d" {
			t.Fatalf("event = %+v", ev)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("delivery never dispatched")
	}
	if err := conn.WriteMessage(&wire.MembershipNotify{Group: "g", Change: wire.MemberLeft, Count: 1}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-notifies:
		if n.Change != wire.MemberLeft {
			t.Fatalf("notify = %+v", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("notify never dispatched")
	}
}

func TestServerPingAnsweredAutomatically(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x"})
	_ = c
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()

	pong := make(chan uint64, 1)
	fs.setHandler(func(_ *transport.Conn, msg wire.Message) bool {
		if p, ok := msg.(*wire.Pong); ok {
			pong <- p.Nonce
			return true
		}
		return false
	})
	if err := conn.WriteMessage(&wire.Ping{Nonce: 77}); err != nil {
		t.Fatal(err)
	}
	select {
	case n := <-pong:
		if n != 77 {
			t.Fatalf("pong nonce = %d", n)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("client never answered the server's ping")
	}
}

func TestUnsolicitedRepliesDropped(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x"})
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()

	// Replies nobody asked for must not break the client.
	_ = conn.WriteMessage(&wire.BcastAck{RequestID: 999, Seq: 1})
	_ = conn.WriteMessage(&wire.LockReply{RequestID: 998, Granted: true})
	if _, err := c.Ping(); err != nil {
		t.Fatalf("client broken by unsolicited replies: %v", err)
	}
}

func TestConcurrentRequests(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x"})
	const n = 50
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		go func() {
			_, err := c.Ping()
			errs <- err
		}()
	}
	for i := 0; i < n; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
}

func TestJoinTracksGroupAndLeaveForgets(t *testing.T) {
	fs := newFakeServer(t)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		switch m := msg.(type) {
		case *wire.Join:
			_ = conn.WriteMessage(&wire.JoinAck{RequestID: m.RequestID, Group: m.Group, NextSeq: 5})
			return true
		case *wire.Leave:
			_ = conn.WriteMessage(&wire.LeaveAck{RequestID: m.RequestID})
			return true
		}
		return false
	})
	c := dialFake(t, fs, Config{Name: "x"})
	res, err := c.Join("g", JoinOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.NextSeq != 5 {
		t.Fatalf("NextSeq = %d", res.NextSeq)
	}
	c.mu.Lock()
	j := c.groups["g"]
	c.mu.Unlock()
	if j == nil || j.lastSeq != 4 {
		t.Fatalf("tracked state = %+v", j)
	}
	if err := c.Leave("g"); err != nil {
		t.Fatal(err)
	}
	c.mu.Lock()
	_, still := c.groups["g"]
	c.mu.Unlock()
	if still {
		t.Fatal("left group still tracked")
	}
}

func TestDeliveryAdvancesResumeCursor(t *testing.T) {
	fs := newFakeServer(t)
	c := dialFake(t, fs, Config{Name: "x", OnEvent: func(string, wire.Event) {}})
	if _, err := c.Join("g", JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	fs.mu.Lock()
	conn := fs.conn
	fs.mu.Unlock()
	_ = conn.WriteMessage(&wire.Deliver{Group: "g", Event: wire.Event{Seq: 3, Kind: wire.EventUpdate, ObjectID: "o"}})

	deadline := time.Now().Add(2 * time.Second)
	for {
		c.mu.Lock()
		last := c.groups["g"].lastSeq
		c.mu.Unlock()
		if last == 3 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("cursor = %d, want 3", last)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestStreamedJoinRefusesHostileChunk: the read loop reserves each chunk's
// body in its transfer's assembler. A chunk for a group with no transfer is
// skipped whole; a chunk that leaves a gap or runs past the announced total
// fails the join, and the connection keeps working.
func TestStreamedJoinRefusesHostileChunk(t *testing.T) {
	for _, bad := range []*wire.TransferChunk{
		{Group: "g", Offset: 3, Total: 10, Data: []byte("abc")},
		{Group: "g", Offset: 0, Total: 2, Data: []byte("0123456789")},
	} {
		fs := newFakeServer(t)
		fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
			m, ok := msg.(*wire.Join)
			if !ok {
				return false
			}
			bad.RequestID = m.RequestID
			for _, out := range []wire.Message{
				&wire.JoinAck{RequestID: m.RequestID, Group: m.Group, NextSeq: 1, Streaming: true},
				&wire.TransferChunk{Group: "other", Total: 100 << 10, Data: make([]byte, 100<<10)},
				bad,
			} {
				_ = conn.WriteMessage(out)
			}
			return true
		})
		c := dialFake(t, fs, Config{Name: "x"})
		if _, err := c.Join("g", JoinOptions{}); err == nil || !strings.Contains(err.Error(), "transfer for \"g\"") {
			t.Fatalf("join with chunk at %d of %d = %v, want a transfer error", bad.Offset, bad.Total, err)
		}
		if _, err := c.Ping(); err != nil {
			t.Fatalf("connection after a refused chunk: %v", err)
		}
	}
}
