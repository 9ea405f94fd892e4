package transport

import (
	"net"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"corona/internal/wire"
)

// serveFirsts starts l.Serve with the given opening deadline and returns
// the channel each handled connection's opening frame arrives on.
func serveFirsts(t *testing.T, l *Listener, open time.Duration) <-chan wire.Message {
	t.Helper()
	firsts := make(chan wire.Message, 4)
	go l.Serve(open, func(_ *Conn, first wire.Message) { firsts <- first })
	t.Cleanup(func() { l.Close() })
	return firsts
}

// dialAndSay dials l and writes one Ping.
func dialAndSay(t *testing.T, l *Listener, nonce uint64) {
	t.Helper()
	if err := dial(t, l).WriteMessage(&wire.Ping{Nonce: nonce}); err != nil {
		t.Fatal(err)
	}
}

// awaitPing fails unless the next handled opening frame is Ping{nonce}.
func awaitPing(t *testing.T, firsts <-chan wire.Message, nonce uint64) {
	t.Helper()
	select {
	case m := <-firsts:
		if p, ok := m.(*wire.Ping); !ok || p.Nonce != nonce {
			t.Fatalf("handled opening %#v, want Ping{%d}", m, nonce)
		}
	case <-time.After(5 * time.Second):
		t.Fatalf("Ping{%d} was never handled", nonce)
	}
}

// failOnce is a net.Listener whose first Accept fails with EMFILE.
type failOnce struct {
	net.Listener
	failed atomic.Bool
}

func (l *failOnce) Accept() (net.Conn, error) {
	if !l.failed.Swap(true) {
		return nil, &net.OpError{Op: "accept", Net: "tcp", Err: syscall.EMFILE}
	}
	return l.Listener.Accept()
}

// TestServeOutlivesAcceptError: an Accept error other than a closed
// listener, as when the process is out of file descriptors, does not stop
// Serve; the next connection is served, and the error is counted.
func TestServeOutlivesAcceptError(t *testing.T) {
	counted := acceptErrors.Load()
	nl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	flaky := &failOnce{Listener: nl}
	l := newListener(flaky)
	firsts := serveFirsts(t, l, time.Second)
	dialAndSay(t, l, 1)
	awaitPing(t, firsts, 1)
	if !flaky.failed.Load() {
		t.Fatal("the injected Accept error never happened")
	}
	if acceptErrors.Load() == counted {
		t.Fatal("the Accept error was not counted in transport.accept_errors")
	}
}

// TestServeClosesSilentOpener: a connection that sends nothing within the
// opening deadline is closed, its handler never runs, and Serve goes on
// serving.
func TestServeClosesSilentOpener(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	firsts := serveFirsts(t, l, 50*time.Millisecond)
	silent := dial(t, l)
	_ = silent.SetReadDeadline(time.Now().Add(5 * time.Second))
	if m, err := silent.ReadMessage(); err == nil || isTimeout(err) {
		t.Fatalf("silent opener read %v, %v; want the connection closed", m, err)
	}
	// The handler would have run before the close that was just seen.
	select {
	case m := <-firsts:
		t.Fatalf("handler ran for a silent opener, with %#v", m)
	default:
	}
	dialAndSay(t, l, 2)
	awaitPing(t, firsts, 2)
}

// TestCloseClosesServedConnections: Close closes every connection Serve
// holds, those in their handlers and those yet to open, and returns once
// their handlers have; a connection taken with Accept is left alone.
func TestCloseClosesServedConnections(t *testing.T) {
	l, err := Listen("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	kept := make(chan *Conn, 1)
	go func() {
		c, _ := l.Accept()
		kept <- c
	}()
	owned := dial(t, l)
	accepted := <-kept
	if accepted == nil {
		t.Fatal("Accept failed")
	}
	defer accepted.Close()

	started := make(chan struct{})
	var returned atomic.Int32
	go l.Serve(time.Minute, func(c *Conn, _ wire.Message) {
		started <- struct{}{}
		_, _ = c.ReadMessage() // until Close closes c
		returned.Add(1)
	})
	// handled dials l and returns once its connection is in its handler.
	handled := func() *Conn {
		c := dial(t, l)
		if err := c.WriteMessage(&wire.Ping{}); err != nil {
			t.Fatal(err)
		}
		<-started
		return c
	}
	first := handled()
	silent := dial(t, l)
	handled() // accepted after the silent connection, so that one is held too

	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	if n := returned.Load(); n != 2 {
		t.Fatalf("%d handlers returned before Close did, want 2", n)
	}
	for _, c := range []*Conn{first, silent} {
		_ = c.SetReadDeadline(time.Now().Add(5 * time.Second))
		if _, err := c.ReadMessage(); err == nil || isTimeout(err) {
			t.Fatalf("served connection after Close: %v, want it closed", err)
		}
	}
	if err := owned.WriteMessage(&wire.Ping{Nonce: 3}); err != nil {
		t.Fatal(err)
	}
	if m, err := accepted.ReadMessage(); err != nil {
		t.Fatalf("accepted connection after Close: %v, %v", m, err)
	}
}

// dial dials l; the connection closes with the test.
func dial(t *testing.T, l *Listener) *Conn {
	t.Helper()
	c, err := Dial(l.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	return c
}

func isTimeout(err error) bool {
	ne, ok := err.(net.Error)
	return ok && ne.Timeout()
}
