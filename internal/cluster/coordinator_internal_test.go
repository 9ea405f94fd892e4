package cluster

import (
	"io"
	"log/slog"
	"net"
	"sync"
	"testing"
	"time"

	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

func TestHostOf(t *testing.T) {
	if hostOf(2<<40|77) != 2 || hostOf(7) != 0 {
		t.Fatal("hostOf miscomputes")
	}
}

// startQuietCoordinator starts a coordinator that logs nothing and whose
// heartbeats stay out of the way, after set has adjusted it.
func startQuietCoordinator(t *testing.T, set func(*Coordinator)) *Coordinator {
	t.Helper()
	c, err := NewCoordinator(CoordinatorConfig{
		Logger:            slog.New(slog.NewTextHandler(io.Discard, nil)),
		HeartbeatInterval: time.Hour,
	})
	if err != nil {
		t.Fatal(err)
	}
	set(c)
	c.Start()
	t.Cleanup(func() { c.Close() })
	return c
}

// firstFrame registers server id on a raw link and returns the first frame
// the coordinator sends on it.
func firstFrame(addr string, id uint64) (wire.Message, error) {
	conn, err := transport.Dial(addr, 5*time.Second)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.WriteMessage(&wire.SHello{RequestID: 1, Proto: wire.ProtocolVersion, ServerID: id, Addr: "127.0.0.1:1"}); err != nil {
		return nil, err
	}
	_ = conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	return conn.ReadMessage()
}

// TestRegistrationAckIsFirstFrame: a registration's ack is enqueued in the
// hold that makes the server visible, so a sender that enqueues to the new
// server right after that hold, here a server-list broadcast, comes after
// the ack on its link, and a server never reads another frame as its
// registration reply.
func TestRegistrationAckIsFirstFrame(t *testing.T) {
	c := startQuietCoordinator(t, func(c *Coordinator) {
		c.afterRegister = func() {
			c.mu.Lock()
			c.broadcastServerListLocked()
			c.mu.Unlock()
		}
	})
	msg, err := firstFrame(c.Addr(), 2)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := msg.(*wire.SHelloAck); !ok {
		t.Fatalf("first frame on a new link is %s, want SHelloAck", msg.Kind())
	}
}

// TestConcurrentRegistrationsAckFirst registers servers six at a time on raw
// links, each link closing once it has read its first frame, so every
// registration races others' server-list broadcasts, theirs and those of
// the links closing. Every link's first frame must be its SHelloAck.
func TestConcurrentRegistrationsAckFirst(t *testing.T) {
	const width = 6
	rounds := 1000
	if testing.Short() {
		rounds = 100
	}
	c := startQuietCoordinator(t, func(*Coordinator) {})
	var mu sync.Mutex
	notAck := map[string]int{}
	for r := 0; r < rounds; r++ {
		var wg sync.WaitGroup
		for i := 0; i < width; i++ {
			wg.Add(1)
			go func(id uint64) {
				defer wg.Done()
				msg, err := firstFrame(c.Addr(), id)
				if err != nil {
					t.Error(err)
					return
				}
				if _, ok := msg.(*wire.SHelloAck); !ok {
					mu.Lock()
					notAck[msg.Kind().String()]++
					mu.Unlock()
				}
			}(uint64(100 + r*width + i))
		}
		wg.Wait()
	}
	if len(notAck) > 0 {
		t.Fatalf("of %d registrations, first frames other than SHelloAck: %v", rounds*width, notAck)
	}
}

// TestBroadcastRefusedFrameBalance: a broadcast whose frame one peer's pump
// refuses still releases every frame it made, and the refusing link is
// closed. The live peer's pump writes the frame; the closed one's releases
// it inside the send.
func TestBroadcastRefusedFrameBalance(t *testing.T) {
	live := obs.Default.Gauge("transport.frames_live")
	start := live.Load()

	a, b := net.Pipe()
	defer b.Close()
	ca := transport.NewConn(a)
	healthy := &peer{conn: ca, pump: transport.NewPump(ca, 0)}
	read := make(chan error, 1)
	go func() {
		_, err := transport.NewConn(b).ReadMessage()
		read <- err
	}()
	x, y := net.Pipe()
	defer y.Close()
	cx := transport.NewConn(x)
	refusing := &peer{conn: cx, pump: transport.NewPump(cx, 0)}
	refusing.pump.Close()

	c := &Coordinator{peers: map[uint64]*peer{2: healthy, 3: refusing}}
	c.enqueueLocked(&wire.SServerList{}, nil, map[uint64]*interest{2: {}, 3: {}})
	if err := <-read; err != nil {
		t.Fatal(err)
	}
	healthy.pump.Close()
	if n := live.Load() - start; n != 0 {
		t.Fatalf("transport.frames_live is %+d from where it started", n)
	}
	// The refused link is closed off the sender's stack.
	_ = y.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := y.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read on the refusing link: %v, want EOF", err)
	}
}
