package main

import (
	"fmt"
	"runtime"
	"sync"
	"time"
)

// rttShape is the Fig. 3 / Table 2 experiment: passive receivers plus one
// probe that joins last — the worst position in the fanout — and sends
// sender-inclusive multicasts on a fixed schedule, timing each from the
// instant it was due to its own delivery callback.
type rttShape struct {
	cluster   bool
	receivers int
	rate      int // multicasts per second
}

const (
	rttGroup  = "rtt"
	probeLane = 0
	// quiesceTimeout is how long a run waits for owed deliveries before
	// counting them as failed.
	quiesceTimeout = 5 * time.Second
)

// rttSample is one probe multicast seen coming back, in ns since the epoch.
type rttSample struct {
	i         uint64
	due, done int64
}

// rttEnv is a set-up rtt experiment.
type rttEnv struct {
	group   string
	svc     *service
	members []*member // receivers, then the probe
	probe   *member
	epoch   time.Time
	stream  *stream
	acks    []ackRec
	buf     []byte

	mu      sync.Mutex
	win     window // zero until measuring starts
	samples []rttSample
}

func (e *rttEnv) close() {
	for _, m := range e.members {
		m.c.close()
	}
	if e.svc != nil {
		_ = e.svc.Close()
	}
}

// onEvent is every member's delivery callback.
func (e *rttEnv) onEvent(m *member, ev event) {
	now := time.Since(e.epoch).Nanoseconds()
	e.mu.Lock()
	win := e.win
	e.mu.Unlock()
	lane, i, due := m.log.on(ev, now, func(due int64) bool { return win.traced(e.epoch.Add(time.Duration(due))) })
	if m == e.probe && lane == probeLane {
		e.mu.Lock()
		e.samples = append(e.samples, rttSample{i: i, due: due, done: now})
		e.mu.Unlock()
	}
}

// send multicasts probe message i, due at the given instant, and records the
// outcome.
func (e *rttEnv) send(i uint64, due time.Time, led *ledger) {
	m := e.stream.msg(probeLane, i, due.Sub(e.epoch).Nanoseconds(), e.buf)
	seq, err := e.probe.c.bcast(e.group, m.kind, m.object, m.data, true)
	if led != nil {
		led.op(err)
	}
	if err == nil {
		e.acks = append(e.acks, ackRec{Seq: seq, I: i, Due: due.Sub(e.epoch).Nanoseconds(), Done: time.Since(e.epoch).Nanoseconds(), Lane: probeLane})
	}
}

func setupRTT(rc runConfig, shape rttShape) (*rttEnv, error) {
	e := &rttEnv{group: rttGroup, epoch: time.Now(), stream: newStream(rc.seed, 8), buf: make([]byte, payloadSize)}
	var err error
	if shape.cluster {
		e.svc, err = startCluster(2)
	} else {
		e.svc, err = startSingle(serverOpts{})
	}
	if err != nil {
		return nil, err
	}
	capacity := rc.size.warmup + int(rc.window.Seconds()*float64(shape.rate)) + 64
	e.samples = make([]rttSample, 0, capacity)
	e.acks = make([]ackRec, 0, capacity)
	for k := 0; k <= shape.receivers; k++ {
		m := &member{name: fmt.Sprintf("recv-%d", k), log: newRecvLog(capacity)}
		// Receivers alternate over the servers; the probe takes the
		// server that does not host receiver 0.
		addr := e.svc.addrs[k%len(e.svc.addrs)]
		if k == shape.receivers {
			m.name, m.lanes = "probe", 1<<probeLane
			addr = e.svc.addrs[len(e.svc.addrs)-1]
			e.probe = m
		}
		if m.c, err = dial(addr, m.name, func(ev event) { e.onEvent(m, ev) }); err != nil {
			e.close()
			return nil, err
		}
		e.members = append(e.members, m)
		if k == 0 {
			if err = m.c.createGroup(rttGroup, false, nil); err != nil {
				e.close()
				return nil, err
			}
		}
		res, err := m.c.join(rttGroup)
		if err != nil {
			e.close()
			return nil, err
		}
		m.joinNext = res.NextSeq
	}
	// Warm-up: back-to-back round trips, so caches, pools and the TCP
	// windows are in their steady state before the first timed multicast.
	for i := 0; i < rc.size.warmup; i++ {
		e.send(uint64(i), time.Now(), nil)
	}
	if len(e.acks) != rc.size.warmup {
		e.close()
		return nil, fmt.Errorf("rtt warm-up: %d of %d multicasts acknowledged", len(e.acks), rc.size.warmup)
	}
	e.quiesce()
	return e, nil
}

func (e *rttEnv) quiesce() {
	last := uint64(len(e.acks))
	quiesce(e.members, func(*member) uint64 { return last }, quiesceTimeout)
}

// delivered counts the deliveries every member has seen so far.
func (e *rttEnv) delivered() float64 {
	var n float64
	for _, m := range e.members {
		n += float64(m.log.count())
	}
	return n
}

// rttMeasured is one timed window of the open loop.
type rttMeasured struct {
	rtt, late  []float64 // ms, one per timed multicast that came back
	spans      []rttSample
	deliveries float64
	elapsed    time.Duration
	n          int
}

// measure runs the open loop for the window and waits for the deliveries.
func (e *rttEnv) measure(win window, rate int, led *ledger) rttMeasured {
	n := int(win.len.Seconds() * float64(rate))
	base := uint64(len(e.acks))
	e.mu.Lock()
	e.win = win
	first := len(e.samples)
	e.mu.Unlock()
	p := &pacer{start: win.start, period: time.Second / time.Duration(rate), spin: 200 * time.Microsecond,
		now: time.Now, sleep: preciseSleep, yield: runtime.Gosched}
	res := rttMeasured{n: n}
	delivered0 := e.delivered()
	for k := 0; k < n; k++ {
		due, late := p.wait(k)
		sent := due.Add(late)
		e.send(base+uint64(k), due, led)
		res.late = append(res.late, late.Seconds()*1e3)
		if win.traced(due) {
			win.tr.add("client.bcast", "e2e.rtt", base+uint64(k), sent.Sub(e.epoch).Nanoseconds(), time.Since(e.epoch).Nanoseconds())
		}
	}
	e.quiesce()
	e.mu.Lock()
	res.spans = append(res.spans, e.samples[first:]...)
	e.mu.Unlock()
	var lastDone int64
	for _, s := range res.spans {
		res.rtt = append(res.rtt, float64(s.done-s.due)/1e6)
		lastDone = max(lastDone, s.done)
	}
	res.deliveries = e.delivered() - delivered0
	res.elapsed = e.epoch.Add(time.Duration(lastDone)).Sub(win.start)
	return res
}

// tracedSplit separates round trips by whether their slice was traced.
func tracedSplit(e *rttEnv, win window, m rttMeasured) (traced, untraced []float64) {
	for _, s := range m.spans {
		ms := float64(s.done-s.due) / 1e6
		if win.traced(e.epoch.Add(time.Duration(s.due))) {
			traced = append(traced, ms)
			win.tr.add("e2e.rtt", "", s.i, s.due, s.done)
		} else {
			untraced = append(untraced, ms)
		}
	}
	return traced, untraced
}

// fanoutSpread returns, for traced multicasts, the time between the first
// and the last member's delivery callback, in microseconds, and records one
// client.deliver span per member.
func (e *rttEnv) fanoutSpread(tr *tracer) []float64 {
	type ends struct{ first, last int64 }
	bySeq := map[uint64]*ends{}
	for _, m := range e.members {
		m.log.mu.Lock()
		for k, at := range m.log.times {
			if at == 0 {
				continue
			}
			seq := m.log.seqs[k]
			if seq > uint64(len(e.acks)) {
				continue
			}
			tr.add("client.deliver", "e2e.rtt", e.acks[seq-1].I, at, at)
			if s := bySeq[seq]; s == nil {
				bySeq[seq] = &ends{at, at}
			} else {
				s.first, s.last = min(s.first, at), max(s.last, at)
			}
		}
		m.log.mu.Unlock()
	}
	var out []float64
	for _, s := range bySeq {
		out = append(out, float64(s.last-s.first)/1e3)
	}
	return out
}

func runRTT(rc runConfig, shape rttShape) (*outcome, error) {
	e, err := setupRTT(rc, shape)
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
	win := window{start: time.Now().Add(2 * time.Millisecond), len: rc.window, tr: o.tr}
	m := e.measure(win, shape.rate, o.led)
	if err := live.end(); err != nil {
		return nil, err
	}

	all := o.timing("rtt (due -> own delivery)", "ms", m.rtt)
	late := o.timing("generator lateness", "ms", m.late)
	o.e2e["latency_p50_ms"] = all.P50
	o.e2e["throughput_per_s"] = m.deliveries / m.elapsed.Seconds()
	o.e2e["setup_s"] = setupS

	verifyGroup(e.stream, rttGroup, e.acks, e.members, false, o.led)
	o.checks = append(o.checks, "acked seqs are 1..N", "every member: strictly increasing gapless seq",
		"every member: payload bytes equal the sender's per (group, seq)", "per-sender FIFO counters")
	if shape.cluster {
		o.checks = append(o.checks, "members on both servers agree")
	}

	if rc.trace {
		live.liveLayers(o.layer, float64(m.n))
		traced, untraced := tracedSplit(e, win, m)
		o.layer["trace.overhead_frac"] = ratio(median(traced), median(untraced)) - 1
		o.layer["client.rtt_p50_ms"], o.layer["client.rtt_p99_ms"] = all.P50, all.P99
		o.layer["gen.late_p99_ms"] = late.P99
		o.layer["core.fanout_spread_us"] = median(e.fanoutSpread(o.tr))
		plan := layerPlan{path: true, fanout: shape.receivers + 1}
		if shape.cluster {
			plan.fanout = (shape.receivers+1)/2 + 1 // each member server fans out to its own half
			single, err := singleServerRTT(rc, shape)
			if err != nil {
				return nil, err
			}
			o.layer["cluster.hop_us"] = (all.P50 - single) * 1e3
			plan.extraHops = 2
			plan.extraNs = o.layer["cluster.distribute_p50_ns"]
		}
		if err := replayLayers(rc, plan, e.stream, o, all.P50); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// singleServerRTT runs the cluster workload's probe against one plain
// server for a quarter of the window and returns its median round trip in
// ms; cluster.hop_us is the difference.
func singleServerRTT(rc runConfig, shape rttShape) (float64, error) {
	shape.cluster = false
	e, err := setupRTT(rc, shape)
	if err != nil {
		return 0, err
	}
	defer e.close()
	win := window{start: time.Now().Add(2 * time.Millisecond), len: rc.window / 4}
	return summarize(e.measure(win, shape.rate, &ledger{}).rtt).P50, nil
}
