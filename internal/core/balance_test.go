package core_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/transport"
	"corona/internal/wire"
)

// framesLive counts the pooled frames made and not yet finally released,
// process-wide.
var framesLive = obs.Default.Gauge("transport.frames_live")

// waitFramesLive waits for transport.frames_live to come back to want:
// pumps release what they hold when their writers finish, which can trail
// the close that stopped them.
func waitFramesLive(t *testing.T, want int64) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for framesLive.Load() != want {
		if time.Now().After(deadline) {
			t.Fatalf("transport.frames_live is %+d from where it started", framesLive.Load()-want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// rawJoin joins group over the raw protocol and returns the connection and
// the JoinAck; the caller decides whether it ever reads again.
func rawJoin(t *testing.T, addr, name, group string) (*transport.Conn, *wire.JoinAck) {
	t.Helper()
	conn, err := transport.Dial(addr, time.Second)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	if err := conn.WriteMessage(&wire.Hello{RequestID: 1, Proto: wire.ProtocolVersion, Name: name}); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.ReadMessage(); err != nil { // HelloAck
		t.Fatal(err)
	}
	if err := conn.WriteMessage(&wire.Join{RequestID: 2, Group: group, Role: wire.RolePrincipal}); err != nil {
		t.Fatal(err)
	}
	for {
		msg, err := conn.ReadMessage()
		if err != nil {
			t.Fatal(err)
		}
		if ack, ok := msg.(*wire.JoinAck); ok {
			return conn, ack
		}
	}
}

// TestEngineFramesBalance: every frame an engine makes is finally released
// by the time Engine.Close is done with its sessions, on the paths where a
// pump refuses or drops frames: a receiver that stops reading has a run torn
// at its pump's overflow, a member closes its connection while multicasts
// to it are in flight, and a joiner disconnects in the middle of a streamed
// transfer. The sender subscribes to membership notifies and leaves a group,
// so control entries ride the shards too. A frame that leaks on any of
// these paths leaves transport.frames_live raised.
func TestEngineFramesBalance(t *testing.T) {
	start := framesLive.Load()
	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{PumpDepth: 16}})
	if err != nil {
		t.Fatal(err)
	}
	srv.Start()
	t.Cleanup(func() { srv.Close() })
	addr := srv.Addr().String()

	sender := dial(t, addr, "sender", nil)
	for _, g := range []string{"big", "g"} {
		if err := sender.CreateGroup(g, false, nil); err != nil {
			t.Fatal(err)
		}
		if _, err := sender.Join(g, client.JoinOptions{Notify: true}); err != nil {
			t.Fatal(err)
		}
	}

	// A streamed join whose joiner leaves after the first chunk.
	for i := 0; i < 3; i++ {
		if _, err := sender.BcastState("big", fmt.Sprint("o", i), bytes.Repeat([]byte{byte(i)}, 300<<10), false); err != nil {
			t.Fatal(err)
		}
	}
	quitter, ack := rawJoin(t, addr, "quitter", "big")
	if !ack.Streaming {
		t.Fatal("the join did not stream its transfer")
	}
	if _, err := quitter.ReadMessage(); err != nil {
		t.Fatal(err)
	}
	quitter.Close()

	// A receiver that never reads again, and a member that disconnects
	// halfway through the burst.
	rawJoin(t, addr, "sloth", "g")
	leaver := dial(t, addr, "leaver", nil)
	if _, err := leaver.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	// Bursts of pipelined multicasts reach the shards together, so the
	// receivers' runs are several frames long; each burst ends in one that
	// waits, which keeps the sender's own acks within its pump's depth.
	payload := make([]byte, 32<<10)
	stalls := obs.Default.Counter("transport.pump.stalls")
	before := stalls.Load()
	deadline := time.Now().Add(10 * time.Second)
	for i := 0; stalls.Load() == before; i++ {
		if time.Now().After(deadline) {
			t.Fatal("the pump of the receiver that stopped reading never overflowed")
		}
		if i == 2 {
			leaver.Close()
		}
		for k := 0; k < 7; k++ {
			if err := sender.BcastUpdateNoWait("g", "o", payload, false); err != nil {
				t.Fatal(err)
			}
		}
		if _, err := sender.BcastState("g", "o", payload, false); err != nil {
			t.Fatal(err)
		}
	}

	if err := sender.Leave("big"); err != nil {
		t.Fatal(err)
	}

	sender.Close()
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	waitFramesLive(t, start)
}
