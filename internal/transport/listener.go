package transport

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"time"

	"corona/internal/wire"
)

// OpenTimeout is the opening budget of a client's connection: the client's
// whole Hello exchange, dial to HelloAck, and the time a server gives a new
// connection to send its opening frame.
const OpenTimeout = 5 * time.Second

// Listener accepts framed connections.
type Listener struct {
	nl net.Listener

	// handlers counts Serve's loops and connection goroutines.
	handlers sync.WaitGroup

	mu    sync.Mutex
	done  chan struct{}      // closed by Close
	conns map[*Conn]struct{} // the connections Serve holds
}

// Listen opens a TCP listener on addr ("host:port"; use ":0" or
// "127.0.0.1:0" for an ephemeral port).
func Listen(addr string) (*Listener, error) {
	nl, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("transport: listen %s: %w", addr, err)
	}
	return newListener(nl), nil
}

func newListener(nl net.Listener) *Listener {
	return &Listener{nl: nl, done: make(chan struct{}), conns: make(map[*Conn]struct{})}
}

// Accept waits for the next connection. The connection is the caller's:
// Close does not touch it.
func (l *Listener) Accept() (*Conn, error) {
	nc, err := l.nl.Accept()
	if err != nil {
		return nil, err
	}
	return NewConn(nc), nil
}

// Serve accepts connections until the listener is closed. Each connection
// gets a goroutine of its own, which reads the connection's opening frame
// within open and hands it to handle with the read deadline cleared; a
// connection that sends nothing in time, or garbage, is closed without a
// call. The connection is closed when handle returns. An Accept error other
// than a closed listener is counted in transport.accept_errors and retried
// after a backoff of up to a second.
func (l *Listener) Serve(open time.Duration, handle func(conn *Conn, first wire.Message)) {
	l.mu.Lock()
	if l.closing() {
		l.mu.Unlock()
		return
	}
	l.handlers.Add(1)
	l.mu.Unlock()
	defer l.handlers.Done()
	var backoff time.Duration
	for {
		conn, err := l.Accept()
		if err != nil {
			if IsClosed(err) {
				return
			}
			acceptErrors.Inc()
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			select {
			case <-l.done:
				return
			case <-time.After(backoff):
			}
			continue
		}
		backoff = 0
		if !l.hold(conn) {
			conn.Close()
			return
		}
		go func() {
			defer l.release(conn)
			if first, err := conn.ReadWithin(open); err == nil {
				handle(conn, first)
			}
		}()
	}
}

// closing reports whether Close has begun. Caller holds l.mu.
func (l *Listener) closing() bool {
	select {
	case <-l.done:
		return true
	default:
		return false
	}
}

// hold registers conn as a connection Serve holds, and its goroutine as a
// handler, unless the listener is closed.
func (l *Listener) hold(conn *Conn) bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closing() {
		return false
	}
	l.conns[conn] = struct{}{}
	l.handlers.Add(1)
	return true
}

// release closes a connection Serve held, after its handler returned.
func (l *Listener) release(conn *Conn) {
	l.mu.Lock()
	delete(l.conns, conn)
	l.mu.Unlock()
	conn.Close()
	l.handlers.Done()
}

// Addr returns the listener's address.
func (l *Listener) Addr() net.Addr { return l.nl.Addr() }

// Close stops the listener and closes every connection Serve holds, then
// waits for Serve and its handlers to return. Blocked Accept calls return
// an error for which IsClosed reports true.
func (l *Listener) Close() error {
	l.mu.Lock()
	if l.closing() {
		l.mu.Unlock()
		return nil
	}
	close(l.done)
	held := make([]*Conn, 0, len(l.conns))
	for c := range l.conns {
		held = append(held, c)
	}
	l.mu.Unlock()

	err := l.nl.Close()
	for _, c := range held {
		c.Close()
	}
	l.handlers.Wait()
	return err
}

// IsClosed reports whether err indicates a closed listener or connection,
// the expected error during shutdown.
func IsClosed(err error) bool {
	return errors.Is(err, net.ErrClosed)
}
