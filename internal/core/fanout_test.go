package core_test

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/wire"
)

// These tests pin the ordering contract of the off-lock fanout pipeline:
// group total order and per-sender FIFO at every receiver — including slow
// ones — and no delivery after a leave is acknowledged. Each runs at two
// pipeline widths, so receivers spread over several shards and receivers
// sharing one are held to the same contract.

// orderSink records deliveries and verifies ordering invariants.
type orderSink struct {
	mu     sync.Mutex
	events []wire.Event
	// delay throttles the receiver inside the OnEvent callback, which runs
	// on the client's read loop — a crude stalled-consumer model.
	delay time.Duration
}

func (s *orderSink) onEvent(_ string, ev wire.Event) {
	if s.delay > 0 {
		time.Sleep(s.delay)
	}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

func (s *orderSink) snapshot() []wire.Event {
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]wire.Event(nil), s.events...)
}

func (s *orderSink) waitCount(t *testing.T, n int) []wire.Event {
	t.Helper()
	deadline := time.Now().Add(20 * time.Second)
	for time.Now().Before(deadline) {
		evs := s.snapshot()
		if len(evs) >= n {
			return evs
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("timed out waiting for %d events, have %d", n, len(s.snapshot()))
	return nil
}

// checkOrdering asserts group total order (arrival order equals sequence
// order) and per-sender FIFO (each sender's payload indices arrive in send
// order) over one receiver's event log.
func checkOrdering(t *testing.T, who string, evs []wire.Event) {
	t.Helper()
	lastIdx := map[uint64]int{}
	var lastSeq uint64
	for i, ev := range evs {
		if ev.Seq <= lastSeq {
			t.Fatalf("%s: total order violated at %d: seq %d after %d", who, i, ev.Seq, lastSeq)
		}
		lastSeq = ev.Seq
		parts := strings.Split(string(ev.Data), ":")
		if len(parts) != 2 {
			t.Fatalf("%s: bad payload %q", who, ev.Data)
		}
		idx, err := strconv.Atoi(parts[1])
		if err != nil {
			t.Fatalf("%s: bad payload %q", who, ev.Data)
		}
		if prev, ok := lastIdx[ev.Sender]; ok && idx != prev+1 {
			t.Fatalf("%s: sender %d FIFO violated: index %d after %d", who, ev.Sender, idx, prev)
		}
		lastIdx[ev.Sender] = idx
	}
}

func fanoutModes() map[string]int {
	// 4 shards forces multi-shard fanout even on small CI hosts; 1 puts
	// every receiver behind the same worker.
	return map[string]int{"sharded": 4, "one-shard": 1}
}

func TestFanoutOrderingStress(t *testing.T) {
	for name, shards := range fanoutModes() {
		t.Run(name, func(t *testing.T) {
			srv := startServer(t, core.Config{Engine: core.EngineConfig{FanoutShards: shards}})
			addr := srv.Addr().String()

			const (
				senders         = 3
				receivers       = 9
				eventsPerSender = 40
			)

			creator := dial(t, addr, "creator", nil)
			if err := creator.CreateGroup("wide", false, nil); err != nil {
				t.Fatal(err)
			}

			sinks := make([]*orderSink, receivers)
			for i := range sinks {
				sinks[i] = &orderSink{}
				if i < 2 {
					// Two deliberately slow receivers: the pipeline must
					// keep everyone ordered even when shards are uneven.
					sinks[i].delay = 200 * time.Microsecond
				}
				c, err := client.Dial(client.Config{
					Addr: addr, Name: fmt.Sprintf("recv-%d", i), OnEvent: sinks[i].onEvent,
				})
				if err != nil {
					t.Fatal(err)
				}
				t.Cleanup(func() { c.Close() })
				if _, err := c.Join("wide", client.JoinOptions{}); err != nil {
					t.Fatal(err)
				}
			}

			var wg sync.WaitGroup
			for sidx := 0; sidx < senders; sidx++ {
				c := dial(t, addr, fmt.Sprintf("send-%d", sidx), nil)
				if _, err := c.Join("wide", client.JoinOptions{}); err != nil {
					t.Fatal(err)
				}
				wg.Add(1)
				go func(sidx int, c *client.Client) {
					defer wg.Done()
					for i := 0; i < eventsPerSender; i++ {
						payload := []byte(fmt.Sprintf("%d:%d", sidx, i))
						if _, err := c.BcastUpdate("wide", "o", payload, false); err != nil {
							t.Errorf("sender %d: %v", sidx, err)
							return
						}
					}
				}(sidx, c)
			}
			wg.Wait()

			total := senders * eventsPerSender
			for i, sink := range sinks {
				evs := sink.waitCount(t, total)
				checkOrdering(t, fmt.Sprintf("receiver %d", i), evs)
			}
		})
	}
}

func TestNoDeliveryAfterLeave(t *testing.T) {
	for name, shards := range fanoutModes() {
		t.Run(name, func(t *testing.T) {
			srv := startServer(t, core.Config{Engine: core.EngineConfig{FanoutShards: shards}})
			addr := srv.Addr().String()

			sender := dial(t, addr, "sender", nil)
			if err := sender.CreateGroup("g", false, nil); err != nil {
				t.Fatal(err)
			}
			if _, err := sender.Join("g", client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}

			leaver := &orderSink{}
			stayer := &orderSink{}
			lc, err := client.Dial(client.Config{Addr: addr, Name: "leaver", OnEvent: leaver.onEvent})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { lc.Close() })
			if _, err := lc.Join("g", client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}
			sc, err := client.Dial(client.Config{Addr: addr, Name: "stayer", OnEvent: stayer.onEvent})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { sc.Close() })
			if _, err := sc.Join("g", client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}

			// Flood events while the leaver departs mid-stream.
			stop := make(chan struct{})
			var wg sync.WaitGroup
			wg.Add(1)
			go func() {
				defer wg.Done()
				i := 0
				for {
					select {
					case <-stop:
						return
					default:
					}
					payload := []byte(fmt.Sprintf("0:%d", i))
					if _, err := sender.BcastUpdate("g", "o", payload, false); err != nil {
						t.Errorf("sender: %v", err)
						return
					}
					i++
				}
			}()

			leaver.waitCount(t, 20) // mid-stream
			if err := lc.Leave("g"); err != nil {
				t.Fatal(err)
			}
			// LeaveAck rides the same ordered path as deliveries, so once
			// Leave returns the leaver's delivery log is final.
			atLeave := len(leaver.snapshot())

			// Keep the group hot, then verify the stayer advanced while
			// the leaver did not.
			target := len(stayer.snapshot()) + 100
			stayer.waitCount(t, target)
			close(stop)
			wg.Wait()

			if got := len(leaver.snapshot()); got != atLeave {
				t.Fatalf("delivery after LeaveAck: %d events at leave, %d after", atLeave, got)
			}
			checkOrdering(t, "leaver", leaver.snapshot())
			checkOrdering(t, "stayer", stayer.snapshot())
		})
	}
}
