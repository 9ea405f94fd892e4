package cluster_test

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/wire"
)

// TestClusterSoakChurn drives a replicated service (coordinator + 3
// servers) with randomized churn — clients joining through different
// servers, multicasting, leaving, and crashing — and audits the global
// invariants: every acked multicast is delivered to the stable auditors on
// BOTH servers, gaplessly and in the identical total order.
func TestClusterSoakChurn(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	tc := startCluster(t, 3)

	const (
		groups   = 2
		actors   = 6
		duration = 1500 * time.Millisecond
	)

	setup := dialTo(t, tc.servers[0], "setup", nil)
	for g := 0; g < groups; g++ {
		if err := setup.CreateGroup(fmt.Sprintf("sg-%d", g), true, nil); err != nil {
			t.Fatal(err)
		}
	}

	// One auditor per server, each a member of every group.
	type auditorState struct {
		mu   sync.Mutex
		seqs map[string][]uint64
	}
	auditors := make([]*auditorState, 2)
	for i := range auditors {
		st := &auditorState{seqs: make(map[string][]uint64)}
		auditors[i] = st
		a, err := client.Dial(client.Config{
			Addr: tc.servers[i].ClientAddr(),
			Name: fmt.Sprintf("auditor-%d", i),
			OnEvent: func(group string, ev wire.Event) {
				st.mu.Lock()
				st.seqs[group] = append(st.seqs[group], ev.Seq)
				st.mu.Unlock()
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { a.Close() })
		for g := 0; g < groups; g++ {
			if _, err := a.Join(fmt.Sprintf("sg-%d", g), client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var sent atomic.Uint64
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for a := 0; a < actors; a++ {
		wg.Add(1)
		go func(a int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(a)*104729 + 7))
			var c *client.Client
			joined := make(map[string]bool)
			defer func() {
				if c != nil {
					c.Close()
				}
			}()
			for {
				select {
				case <-stop:
					return
				default:
				}
				if c == nil {
					var err error
					srv := tc.servers[rng.Intn(len(tc.servers))]
					c, err = client.Dial(client.Config{Addr: srv.ClientAddr(), Name: fmt.Sprintf("actor-%d", a)})
					if err != nil {
						time.Sleep(10 * time.Millisecond)
						continue
					}
					joined = make(map[string]bool)
				}
				g := fmt.Sprintf("sg-%d", rng.Intn(groups))
				switch op := rng.Intn(10); {
				case op < 6:
					if !joined[g] {
						if _, err := c.Join(g, client.JoinOptions{}); err != nil {
							continue
						}
						joined[g] = true
					}
					if _, err := c.BcastUpdate(g, "o", []byte{byte(a)}, false); err == nil {
						sent.Add(1)
					}
				case op < 8:
					if joined[g] {
						_ = c.Leave(g)
						delete(joined, g)
					}
				default:
					c.Close()
					c = nil
				}
			}
		}(a)
	}
	time.Sleep(duration)
	close(stop)
	wg.Wait()

	if sent.Load() == 0 {
		t.Fatal("cluster soak sent nothing")
	}
	// delivered returns the deliveries both auditors saw in total, and whether
	// they agree on every group's count.
	delivered := func() (total uint64, agree bool) {
		agree = true
		for g := 0; g < groups; g++ {
			group := fmt.Sprintf("sg-%d", g)
			var counts [2]int
			for i, st := range auditors {
				st.mu.Lock()
				counts[i] = len(st.seqs[group])
				st.mu.Unlock()
			}
			total += uint64(counts[0] + counts[1])
			agree = agree && counts[0] == counts[1]
		}
		return total, agree
	}
	// Drain in-flight deliveries: every acked multicast has reached both
	// auditors, and the auditors have caught up with each other.
	deadline := time.Now().Add(10 * time.Second)
	for time.Now().Before(deadline) {
		if total, agree := delivered(); agree && total >= 2*sent.Load() {
			break
		}
		time.Sleep(20 * time.Millisecond)
	}

	// Both auditors saw identical, gapless per-group sequences.
	for g := 0; g < groups; g++ {
		group := fmt.Sprintf("sg-%d", g)
		var reference []uint64
		for i, st := range auditors {
			st.mu.Lock()
			seqs := append([]uint64(nil), st.seqs[group]...)
			st.mu.Unlock()
			for j, s := range seqs {
				if uint64(j+1) != s {
					t.Fatalf("auditor %d group %s: position %d has seq %d (gap/reorder)", i, group, j, s)
				}
			}
			if i == 0 {
				reference = seqs
				continue
			}
			if len(seqs) != len(reference) {
				t.Fatalf("auditors disagree on %s: %d vs %d deliveries", group, len(seqs), len(reference))
			}
		}
	}
	// acked ⊆ delivered: a multicast whose sender's connection closed between
	// sequencing and ack is delivered without being counted, so the auditors
	// may see more than was acked, never less.
	if total, _ := delivered(); total < 2*sent.Load() {
		t.Fatalf("auditors saw %d deliveries, fewer than %d acked multicasts (x2 auditors)", total, sent.Load())
	}
	t.Logf("cluster soak: %d multicasts, both auditors consistent", sent.Load())
}
