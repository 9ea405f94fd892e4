package main

import (
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// The Table 1 experiment: two member connections each keep eight
// sender-exclusive multicasts outstanding (eight lanes, each sending its
// next message when the previous one is acked), so the server's ingest path
// is the only thing between an ack and the next send.
const (
	blastGroup = "blast"
	blastConns = 2
	blastLanes = 8 // per connection
)

// blastEnv is a set-up blast.
type blastEnv struct {
	svc     *service
	opts    serverOpts
	dir     string
	members []*member
	epoch   time.Time
	stream  *stream
	next    [maxLanes]uint64   // each lane's next counter
	acks    [maxLanes][]ackRec // owned by the lane's goroutine while it runs
	win     atomic.Pointer[window]
}

func (e *blastEnv) closeClients() {
	for _, m := range e.members {
		m.c.close()
	}
}

func (e *blastEnv) close() {
	e.closeClients()
	if e.svc != nil {
		_ = e.svc.Close()
	}
	if e.dir != "" {
		removeAll(e.dir)
	}
}

// runLanes drives all sixteen lanes until each has sent quota messages
// (quota > 0) or stop is set (quota == 0).
func (e *blastEnv) runLanes(quota int, stop *atomic.Bool, led *ledger) {
	var wg sync.WaitGroup
	for l := 0; l < blastConns*blastLanes; l++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c := e.members[l/blastLanes].c
			buf := make([]byte, payloadSize)
			for sent := 0; (quota > 0 && sent < quota) || (quota == 0 && !stop.Load()); sent++ {
				i := e.next[l]
				e.next[l]++
				t0 := time.Now()
				due := t0.Sub(e.epoch).Nanoseconds()
				m := e.stream.msg(uint32(l), i, due, buf)
				seq, err := c.bcast(blastGroup, m.kind, m.object, m.data, false)
				t1 := time.Now()
				if led != nil {
					led.op(err)
				}
				if err != nil {
					continue
				}
				done := t1.Sub(e.epoch).Nanoseconds()
				e.acks[l] = append(e.acks[l], ackRec{Seq: seq, I: i, Due: due, Done: done, Lane: uint32(l)})
				if w := e.win.Load(); w != nil && w.traced(t0) {
					w.tr.add("client.bcast", "", uint64(l)<<48|i, due, done)
				}
			}
		}()
	}
	wg.Wait()
}

func setupBlast(rc runConfig, durable bool) (*blastEnv, error) {
	e := &blastEnv{epoch: time.Now(), stream: newStream(rc.seed, 8)}
	var err error
	if durable {
		if e.dir, err = rc.scratch("blast"); err != nil {
			return nil, err
		}
		e.opts = serverOpts{dir: e.dir, syncAlways: true, fs: newFixedSyncFS(modelledSync)}
	}
	if e.svc, err = startSingle(e.opts); err != nil {
		e.close()
		return nil, err
	}
	// Room for a fast run; a log that outgrows it just reallocates.
	capacity := int(rc.window.Seconds()*120_000) + rc.size.warmup + 64
	for k := 0; k < blastConns; k++ {
		m := &member{name: fmt.Sprintf("blaster-%d", k), log: newRecvLog(capacity / blastConns)}
		for l := 0; l < blastLanes; l++ {
			m.lanes |= 1 << (k*blastLanes + l)
			e.acks[k*blastLanes+l] = make([]ackRec, 0, capacity/(blastConns*blastLanes))
		}
		if m.c, err = dial(e.svc.addrs[0], m.name, func(ev event) { m.log.on(ev, 0, nil) }); err != nil {
			e.close()
			return nil, err
		}
		e.members = append(e.members, m)
		if k == 0 {
			if err = m.c.createGroup(blastGroup, durable, nil); err != nil {
				e.close()
				return nil, err
			}
		}
		res, err := m.c.join(blastGroup)
		if err != nil {
			e.close()
			return nil, err
		}
		m.joinNext = res.NextSeq
	}
	warm := &ledger{}
	e.runLanes(max(rc.size.warmup/2, 1), nil, warm)
	if warm.failed() > 0 {
		e.close()
		return nil, fmt.Errorf("blast warm-up: %d of %d multicasts failed", warm.failed(), warm.attempted.Load())
	}
	return e, nil
}

// allAcks merges the lanes' records.
func (e *blastEnv) allAcks() []ackRec {
	var all []ackRec
	for l := range e.acks {
		all = append(all, e.acks[l]...)
	}
	return all
}

func runBlast(rc runConfig, durable bool) (*outcome, error) {
	e, err := setupBlast(rc, durable)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setupS := time.Since(e.epoch).Seconds()
	o := newOutcome(rc, e.epoch)
	live, err := beginLive()
	if err != nil {
		return nil, err
	}
	win := window{start: time.Now(), len: rc.window, tr: o.tr}
	e.win.Store(&win)
	var stop atomic.Bool
	timer := time.AfterFunc(rc.window, func() { stop.Store(true) })
	e.runLanes(0, &stop, o.led)
	timer.Stop()
	if err := live.end(); err != nil {
		return nil, err
	}

	acks := e.allAcks()
	var counts [windowSlices]float64
	var lat []float64
	for _, a := range acks {
		k := win.slice(e.epoch.Add(time.Duration(a.Done)))
		if k < 0 {
			continue
		}
		counts[k]++
		lat = append(lat, float64(a.Done-a.Due)/1e6)
	}
	rate, overhead := sliceRates(counts, win)
	ack := o.timing("ack latency (issued -> positive ack)", "ms", lat)
	o.e2e["latency_p50_ms"] = ack.P50
	o.e2e["throughput_per_s"] = rate
	o.e2e["setup_s"] = setupS

	// Every lane has stopped and holds all its acks; wait for the other
	// blaster's deliveries of them.
	sort.Slice(acks, func(a, b int) bool { return acks[a].Seq < acks[b].Seq })
	quiesce(e.members, func(m *member) uint64 {
		for k := len(acks) - 1; k >= 0; k-- {
			if m.lanes&(1<<acks[k].Lane) == 0 {
				return acks[k].Seq
			}
		}
		return 0
	}, quiesceTimeout)
	verifyGroup(e.stream, blastGroup, acks, e.members, true, o.led)
	o.checks = append(o.checks, "acked seqs are 1..N", "each blaster: strictly increasing seq, gapless once its own are added back",
		"payload bytes equal the sender's per (group, seq)", "per-lane FIFO counters", "no sender-exclusive event came back")
	if durable {
		e.verifyDurable(acks, o)
	}

	if rc.trace {
		live.liveLayers(o.layer, float64(len(lat)))
		o.layer["trace.overhead_frac"] = overhead
		o.layer["client.rtt_p50_ms"], o.layer["client.rtt_p99_ms"] = ack.P50, ack.P99
		if err := replayLayers(rc, layerPlan{path: true, fanout: 1}, e.stream, o, 0); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// verifyDurable closes the server, re-opens it over the same log, and checks
// that every durably acknowledged event is there: the recovered group must
// reach the highest acked seq, and its history digest must equal the one
// folded here over the acked events in seq order.
func (e *blastEnv) verifyDurable(acks []ackRec, o *outcome) {
	o.checks = append(o.checks, "after close and re-open: every durably acked seq present, recovered digest equals the harness's")
	e.closeClients()
	if err := e.svc.Close(); err != nil {
		o.led.problem("closing the durable server: %v", err)
	}
	e.svc = nil
	var digest uint64
	buf := make([]byte, payloadSize)
	for _, a := range acks {
		m := e.stream.msg(a.Lane, a.I, a.Due, buf)
		digest = digestEvent(digest, event{Seq: a.Seq, Kind: m.kind, ObjectID: m.object, Data: m.data})
	}
	svc, _, err := openSingle(e.opts)
	if err != nil {
		o.led.problem("re-opening the durable log: %v", err)
		return
	}
	defer svc.Close()
	for _, g := range svc.marks() {
		if g.Group != blastGroup {
			continue
		}
		if g.NextSeq != uint64(len(acks))+1 {
			o.led.problem("recovered %s reaches seq %d, durably acked up to %d", blastGroup, g.NextSeq-1, len(acks))
		}
		if g.Digest != digest {
			o.led.problem("recovered %s digest %x differs from the acked history's %x", blastGroup, g.Digest, digest)
		}
		return
	}
	o.led.problem("group %s was not recovered", blastGroup)
}
