package client

import (
	"encoding/binary"
	"errors"
	"fmt"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// socketWrites is transport's count of socket writes, process-wide.
var socketWrites = obs.Default.Counter("transport.writes")

// replyInBursts makes fs answer each burst of requests it reads with one
// socket write: reply gives each request's reply. It returns the number
// of requests fs has read and of bursts it has answered.
func (fs *fakeServer) replyInBursts(reply func(wire.Message) wire.Message) (requests, bursts *atomic.Int64) {
	requests, bursts = new(atomic.Int64), new(atomic.Int64)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		out := reply(msg)
		if out == nil {
			return false
		}
		replies := []wire.Message{out}
		for {
			m, err := conn.ReadMessageBuffered()
			if m == nil || err != nil {
				break
			}
			replies = append(replies, reply(m))
		}
		requests.Add(int64(len(replies)))
		bursts.Add(1)
		_ = conn.Corked(func() {
			for _, r := range replies {
				_ = conn.WriteMessage(r)
			}
		})
		return true
	})
	return requests, bursts
}

// TestBurstRepliesShareOneWrite: when one burst of acks completes several
// requests, the callers' next requests leave together. Eight goroutines
// loop BcastUpdate against a server that acks each burst with one write;
// the client must average at least two frames per socket write on one
// processor and on two (one request per write without the cork).
func TestBurstRepliesShareOneWrite(t *testing.T) {
	for _, procs := range []int{1, 2} {
		t.Run(fmt.Sprintf("GOMAXPROCS=%d", procs), func(t *testing.T) {
			defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(procs))
			fs := newFakeServer(t)
			var seq atomic.Uint64
			requests, bursts := fs.replyInBursts(func(msg wire.Message) wire.Message {
				if b, ok := msg.(*wire.Bcast); ok {
					return &wire.BcastAck{RequestID: b.RequestID, Seq: seq.Add(1)}
				}
				return nil
			})
			c := dialFake(t, fs, Config{Name: "x"})
			const senders, each = 8, 200
			before := socketWrites.Load()
			var wg sync.WaitGroup
			errs := make(chan error, senders)
			for range senders {
				wg.Add(1)
				go func() {
					defer wg.Done()
					for range each {
						if _, err := c.BcastUpdate("g", "o", []byte("d"), false); err != nil {
							errs <- err
							return
						}
					}
				}()
			}
			wg.Wait()
			close(errs)
			for err := range errs {
				t.Fatal(err)
			}
			frames := requests.Load()
			clientWrites := int64(socketWrites.Load()-before) - bursts.Load()
			if frames != senders*each || clientWrites <= 0 {
				t.Fatalf("%d frames, %d client writes", frames, clientWrites)
			}
			perWrite := float64(frames) / float64(clientWrites)
			t.Logf("%d frames in %d client writes: %.2f per write", frames, clientWrites, perWrite)
			if perWrite < 2 {
				t.Fatalf("%.2f frames per client write, want at least 2", perWrite)
			}
		})
	}
}

// TestCallbackSendsUncorked: a burst that completes two requests and then
// delivers an event makes the read loop cork after it, but not around the
// callback: a BcastUpdateNoWait made in OnEvent reaches the server before
// the callback returns.
func TestCallbackSendsUncorked(t *testing.T) {
	fs := newFakeServer(t)
	var pings []*wire.Ping
	arrived := make(chan struct{}, 1)
	fs.setHandler(func(conn *transport.Conn, msg wire.Message) bool {
		switch m := msg.(type) {
		case *wire.Ping:
			// Hold the first ping; answer both, then deliver, in one write.
			if pings = append(pings, m); len(pings) < 2 {
				return true
			}
			_ = conn.Corked(func() {
				for _, p := range pings {
					_ = conn.WriteMessage(&wire.Pong{Nonce: p.Nonce})
				}
				_ = conn.WriteMessage(&wire.Deliver{Group: "g", Event: wire.Event{Seq: 1, Kind: wire.EventUpdate, ObjectID: "o"}})
			})
			return true
		case *wire.Bcast:
			arrived <- struct{}{}
			return true
		}
		return false
	})
	var client atomic.Pointer[Client]
	sent := make(chan error, 1)
	c := dialFake(t, fs, Config{Name: "x", OnEvent: func(string, wire.Event) {
		err := client.Load().BcastUpdateNoWait("g", "o", []byte("d"), false)
		if err == nil {
			select {
			case <-arrived:
			case <-time.After(2 * time.Second):
				err = errors.New("the callback's multicast had not reached the server when the callback returned")
			}
		}
		sent <- err
	}})
	client.Store(c)
	var wg sync.WaitGroup
	for range 2 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if _, err := c.Ping(); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	select {
	case err := <-sent:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("OnEvent never ran")
	}
}

var errInjected = errors.New("injected write failure")

// failingConn fails the first socket write that carries more than one
// frame once armed — only an uncork writes several — and every write
// after it.
type failingConn struct {
	net.Conn
	armed atomic.Bool

	mu     sync.Mutex
	failed int // frames in the write that failed
}

func (fc *failingConn) Write(p []byte) (int, error) {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	if fc.failed > 0 {
		return 0, errInjected
	}
	frames := 0
	for rest := p; len(rest) >= 4 && 4+int(binary.BigEndian.Uint32(rest)) <= len(rest); rest = rest[4+binary.BigEndian.Uint32(rest):] {
		frames++
	}
	if fc.armed.Load() && frames > 1 {
		fc.failed = frames
		return 0, errInjected
	}
	return fc.Conn.Write(p)
}

func (fc *failingConn) failedFrames() int {
	fc.mu.Lock()
	defer fc.mu.Unlock()
	return fc.failed
}

// TestUncorkFailureClosesConnection: when the uncork's flush fails, the read
// loop closes the connection as on a read error. Every request whose frame
// was in that flush fails with ErrClosed, a request made after it fails with
// the flush's error, OnDisconnect reports that error, and no goroutine is
// left running.
func TestUncorkFailureClosesConnection(t *testing.T) {
	fs := newFakeServer(t)
	fs.replyInBursts(func(msg wire.Message) wire.Message {
		if p, ok := msg.(*wire.Ping); ok {
			return &wire.Pong{Nonce: p.Nonce}
		}
		return nil
	})
	baseline := runtime.NumGoroutine()
	nc, err := net.Dial("tcp", fs.addr())
	if err != nil {
		t.Fatal(err)
	}
	fc := &failingConn{Conn: nc}
	disconnected := make(chan error, 1)
	c := newClient(Config{Name: "x", Timeout: 2 * time.Second, OnDisconnect: func(err error) { disconnected <- err }})
	conn := transport.NewConn(fc)
	if err := conn.WriteMessage(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion}); err != nil {
		t.Fatal(err)
	}
	reply, err := conn.ReadMessage()
	if err != nil {
		t.Fatal(err)
	}
	if err := c.start(conn, reply); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	fc.armed.Store(true)

	const callers = 4
	results := make(chan error, callers)
	for range callers {
		go func() {
			for range 1000 {
				if _, err := c.Ping(); err != nil {
					results <- err
					return
				}
			}
			results <- nil
		}()
	}
	closed := 0
	for range callers {
		switch err := <-results; {
		case errors.Is(err, ErrClosed):
			closed++
		case errors.Is(err, errInjected):
		default:
			t.Errorf("caller ended with %v, want ErrClosed or the flush's error", err)
		}
	}
	if n := fc.failedFrames(); n < 2 || closed < n {
		t.Fatalf("a flush of %d frames failed; %d callers got ErrClosed", n, closed)
	}
	select {
	case err := <-disconnected:
		if !errors.Is(err, errInjected) {
			t.Fatalf("OnDisconnect(%v), want the flush's error", err)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("OnDisconnect never fired")
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > baseline {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines running, %d before the client started", runtime.NumGoroutine(), baseline)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
