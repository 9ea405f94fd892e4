package core_test

import (
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/wal"
	"corona/internal/wire"
)

// TestBatchStressMixedSenders drives batched and unbatched senders into the
// same groups under SyncAlways and audits that the adaptive ingest/delivery
// batching is invisible to the ordering contract:
//
//   - per-group gapless total order at every receiver;
//   - FIFO per sender (payload counters in send order), for both the
//     synchronous ack-gated senders and the pipelined fire-and-forget
//     senders whose bursts actually exercise the coalescing drain;
//   - agreement: every receiver of a group saw the identical stream;
//   - ack-after-durability: after every synchronous ack has been received,
//     a restart from the same data directory recovers every sequenced
//     event (SyncAlways acks ride the WAL group-commit callback).
//
// Run under -race: batching shares scratch buffers across engine calls and
// piggybacks acks on the WAL writer, which is exactly where a data race
// would hide.
func TestBatchStressMixedSenders(t *testing.T) {
	const (
		groups    = 2
		members   = 3 // per group; the last one is the pipelined sender
		perSender = 150
	)
	msgsPerGroup := members * perSender

	dir := t.TempDir()
	srv := startServer(t, core.Config{Engine: core.EngineConfig{
		Dir: dir, Sync: wal.SyncAlways,
	}})
	addr := srv.Addr().String()

	batchGroup := func(g int) string { return fmt.Sprintf("batch-%d", g) }

	recorders := make([][]*streamRecorder, groups)
	clients := make([][]*client.Client, groups)
	for g := 0; g < groups; g++ {
		for i := 0; i < members; i++ {
			rec := &streamRecorder{group: batchGroup(g)}
			c, err := client.Dial(client.Config{
				Addr: addr, Name: fmt.Sprintf("bm-%d-%d", g, i),
				OnEvent: rec.onEvent,
			})
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { c.Close() })
			recorders[g] = append(recorders[g], rec)
			clients[g] = append(clients[g], c)
		}
	}
	for g := 0; g < groups; g++ {
		if err := clients[g][0].CreateGroup(batchGroup(g), true, nil); err != nil {
			t.Fatal(err)
		}
		for _, c := range clients[g] {
			if _, err := c.Join(batchGroup(g), client.JoinOptions{}); err != nil {
				t.Fatal(err)
			}
		}
	}

	var wg sync.WaitGroup
	for g := 0; g < groups; g++ {
		for i := 0; i < members; i++ {
			wg.Add(1)
			go func(g, i int) {
				defer wg.Done()
				c := clients[g][i]
				pipelined := i == members-1
				payload := make([]byte, 16)
				binary.BigEndian.PutUint64(payload[0:8], c.ID())
				for n := uint64(1); n <= perSender; n++ {
					binary.BigEndian.PutUint64(payload[8:16], n)
					if pipelined {
						// Fire-and-forget back-to-back writes: these are
						// what pile up on the socket and trigger the
						// server's greedy drain into BcastBatch.
						if err := c.BcastUpdateNoWait(batchGroup(g), "o", payload, true); err != nil {
							t.Errorf("nowait bcast group %d: %v", g, err)
							return
						}
					} else if _, err := c.BcastState(batchGroup(g), "o", payload, true); err != nil {
						t.Errorf("bcast group %d sender %d: %v", g, i, err)
						return
					}
				}
			}(g, i)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	deadline := time.Now().Add(10 * time.Second)
	for g := 0; g < groups; g++ {
		for _, rec := range recorders[g] {
			for rec.len() < msgsPerGroup {
				if time.Now().After(deadline) {
					t.Fatalf("group %d: receiver has %d/%d events", g, rec.len(), msgsPerGroup)
				}
				time.Sleep(10 * time.Millisecond)
			}
		}
	}

	for g := 0; g < groups; g++ {
		ref := recorders[g][0].snapshot()
		for ri, rec := range recorders[g] {
			evs := rec.snapshot()
			if len(evs) != msgsPerGroup {
				t.Fatalf("group %d receiver %d: got %d events, want %d", g, ri, len(evs), msgsPerGroup)
			}
			for i := 1; i < len(evs); i++ {
				if evs[i].seq != evs[i-1].seq+1 {
					t.Fatalf("group %d receiver %d: seq gap %d -> %d at %d", g, ri, evs[i-1].seq, evs[i].seq, i)
				}
			}
			last := make(map[uint64]uint64)
			for i, ev := range evs {
				if ev.counter != last[ev.sender]+1 {
					t.Fatalf("group %d receiver %d: sender %d counter %d after %d at %d",
						g, ri, ev.sender, ev.counter, last[ev.sender], i)
				}
				last[ev.sender] = ev.counter
			}
			for i := range evs {
				if evs[i] != ref[i] {
					t.Fatalf("group %d receiver %d: event %d = %+v, receiver 0 saw %+v", g, ri, i, evs[i], ref[i])
				}
			}
		}
	}

	// Durability audit: every ack above was issued, so every sequenced
	// event must survive a restart from the same directory.
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	srv2 := startServer(t, core.Config{Engine: core.EngineConfig{
		Dir: dir, Sync: wal.SyncAlways,
	}})
	for g := 0; g < groups; g++ {
		_, cp, ok := srv2.Engine().GroupImage(batchGroup(g))
		if !ok {
			t.Fatalf("group %d lost across restart", g)
		}
		if want := uint64(msgsPerGroup + 1); cp.NextSeq != want {
			t.Fatalf("group %d recovered NextSeq = %d, want %d (acked events lost)", g, cp.NextSeq, want)
		}
	}
}

// TestSingleBcastLatencyGuard proves the batching drain never waits: an
// isolated Bcast on an otherwise idle connection — the worst case for any
// timer- or threshold-based batcher — must be acknowledged and delivered
// promptly with no follow-up traffic to "complete" a batch.
func TestSingleBcastLatencyGuard(t *testing.T) {
	srv := startServer(t, core.Config{})
	addr := srv.Addr().String()

	sink := newEventSink()
	sender := dial(t, addr, "solo-sender", nil)
	receiver := dial(t, addr, "solo-receiver", sink)

	if err := sender.CreateGroup("solo", false, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := sender.Join("solo", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := receiver.Join("solo", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}

	const rounds = 10
	var worst time.Duration
	for i := 0; i < rounds; i++ {
		// Idle gap so each send really is an isolated frame, not part of
		// a prior burst still sitting in the server's read buffer.
		time.Sleep(20 * time.Millisecond)
		start := time.Now()
		if _, err := sender.BcastState("solo", "o", []byte{byte(i)}, false); err != nil {
			t.Fatal(err)
		}
		select {
		case <-sink.ch:
		case <-time.After(2 * time.Second):
			t.Fatalf("round %d: isolated Bcast not delivered — drain is waiting on more input", i)
		}
		if d := time.Since(start); d > worst {
			worst = d
		}
	}
	// Generous even for a loaded -race CI box, but far below anything a
	// batching timer would introduce deliberately.
	if worst > 500*time.Millisecond {
		t.Fatalf("worst isolated round trip %v; single-message latency regressed", worst)
	}
	t.Logf("worst isolated ack+delivery round trip: %v", worst)
}

// TestApplyDistributeBatchDupAndGap exercises the replica half of ingest
// batching directly through ApplyDistributed: duplicates are consumed and
// acknowledged, fresh events sequence in order, and the first gap stops
// consumption with ErrSeqGap so the caller's catch-up path takes over.
func TestApplyDistributeBatchDupAndGap(t *testing.T) {
	srv := startServer(t, core.Config{})
	e := srv.Engine()
	if err := e.CreateGroupDirect("d", false, nil); err != nil {
		t.Fatal(err)
	}
	mk := func(seq uint64) core.DistEvent {
		return core.DistEvent{Event: wire.Event{
			Seq: seq, Kind: wire.EventState, ObjectID: "o", Data: []byte{byte(seq)}, Sender: 99, Time: 1,
		}, SenderInclusive: true}
	}
	apply := func(seqs ...uint64) (int, error) {
		t.Helper()
		items := make([]core.DistEvent, 0, len(seqs))
		for _, s := range seqs {
			items = append(items, mk(s))
		}
		return e.ApplyDistributed("d", items)
	}
	nextSeq := func() uint64 {
		t.Helper()
		return e.NextSeq("d")
	}

	if n, err := apply(1, 2, 3, 4); n != 4 || err != nil {
		t.Fatalf("fresh batch: consumed %d, err %v", n, err)
	}
	if got := nextSeq(); got != 5 {
		t.Fatalf("next seq = %d, want 5", got)
	}

	// Pure duplicates: consumed (the sender is re-acked) but not re-applied.
	if n, err := apply(2, 3); n != 2 || err != nil {
		t.Fatalf("dup batch: consumed %d, err %v", n, err)
	}
	if got := nextSeq(); got != 5 {
		t.Fatalf("next seq after dups = %d, want 5", got)
	}

	// Mixed duplicate prefix plus fresh tail.
	if n, err := apply(4, 5, 6); n != 3 || err != nil {
		t.Fatalf("mixed batch: consumed %d, err %v", n, err)
	}
	if got := nextSeq(); got != 7 {
		t.Fatalf("next seq after mixed = %d, want 7", got)
	}

	// A gap at the head consumes nothing.
	if n, err := apply(9, 10); n != 0 || !errors.Is(err, core.ErrSeqGap) {
		t.Fatalf("gap batch: consumed %d, err %v", n, err)
	}
	if got := nextSeq(); got != 7 {
		t.Fatalf("next seq after gap = %d, want 7", got)
	}

	// An in-order prefix before a gap is consumed; the gap tail is left to
	// the caller.
	if n, err := apply(7, 8, 11); n != 2 || !errors.Is(err, core.ErrSeqGap) {
		t.Fatalf("prefix+gap batch: consumed %d, err %v", n, err)
	}
	if got := nextSeq(); got != 9 {
		t.Fatalf("next seq after prefix+gap = %d, want 9", got)
	}
}
