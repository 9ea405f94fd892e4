package main

import (
	"bytes"
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"
)

// join_under_load: a sender multicasts to one hot object at a fixed rate
// while, on a second connection, a joiner keeps joining with a full state
// transfer and leaving again. Both touch the same group state: the gated
// latency is the join's, the gated rate is the multicasts' goodput, and what
// a join costs the multicasts that overlap it is reported beside them.
const (
	joinGroup     = "pad"
	joinReceivers = 4
	joinRate      = 500 // sender multicasts per second
	joinsPerSec   = 20
	staticObjects = 8
)

// viewFeed wires a client's deliveries into its view. Deliveries that
// arrive before the join's transfer has been applied are held back and
// applied after it — the application's half of "transfer + live suffix".
type viewFeed struct {
	mu      sync.Mutex
	view    *clientView
	primed  bool
	pending []event
	gaps    int
}

func (f *viewFeed) onEvent(ev event) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if !f.primed {
		f.pending = append(f.pending, ev)
		return
	}
	if f.view.applyEvent(ev) != nil {
		f.gaps++
	}
}

// applyJoin installs a join's transfer, then the deliveries held back.
func (f *viewFeed) applyJoin(res *joinResult) error {
	if err := f.view.applyJoin(res); err != nil {
		return err
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, ev := range f.pending {
		if f.view.applyEvent(ev) != nil {
			f.gaps++
		}
	}
	f.pending, f.primed = nil, true
	return nil
}

func (f *viewFeed) gapCount() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.gaps
}

// reset empties the view after a leave.
func (f *viewFeed) reset() {
	f.mu.Lock()
	defer f.mu.Unlock()
	f.view.reset()
	f.primed, f.pending = false, nil
}

// joinSpan is one timed join in ns since the epoch: when it was due, when the
// call started, when the transfer was installed.
type joinSpan struct{ due, start, end int64 }

// joinEnv is a set-up join_under_load.
type joinEnv struct {
	rtt    *rttEnv // the sender and the receivers; group joinGroup
	first  *viewFeed
	joiner *conn
	feed   *viewFeed
}

func (e *joinEnv) close() {
	if e.joiner != nil {
		e.joiner.close()
	}
	e.rtt.close()
}

func setupJoin(rc runConfig) (*joinEnv, error) {
	// The sender's stream has one object: the hot one. The static objects
	// are pre-loaded and never written again.
	r := &rttEnv{group: joinGroup, epoch: time.Now(), stream: newStream(rc.seed, 1), buf: make([]byte, payloadSize)}
	e := &joinEnv{rtt: r, first: &viewFeed{view: newClientView()}, feed: &viewFeed{view: newClientView()}}
	var err error
	if r.svc, err = startSingle(serverOpts{}); err != nil {
		return nil, err
	}
	initial := make([]object, staticObjects)
	for k := range initial {
		initial[k] = object{ID: fmt.Sprintf("static-%d", k), Data: blob(rc.seed+int64(k)+1, rc.size.staticObjBytes)}
	}
	capacity := rc.size.warmup + int(rc.window.Seconds()*joinRate) + 128
	r.samples = make([]rttSample, 0, capacity)
	r.acks = make([]ackRec, 0, capacity)
	for k := 0; k <= joinReceivers; k++ {
		m := &member{name: fmt.Sprintf("recv-%d", k), log: newRecvLog(capacity)}
		onEvent := func(ev event) { r.onEvent(m, ev) }
		switch k {
		case 0: // the long-lived receiver whose view is the reference
			onEvent = func(ev event) {
				r.onEvent(m, ev)
				e.first.onEvent(ev)
			}
		case joinReceivers:
			m.name, m.lanes = "sender", 1<<probeLane
			r.probe = m
		}
		if m.c, err = dial(r.svc.addrs[0], m.name, onEvent); err != nil {
			e.close()
			return nil, err
		}
		r.members = append(r.members, m)
		if k == 0 {
			if err = m.c.createGroup(joinGroup, false, initial); err != nil {
				e.close()
				return nil, err
			}
		}
		res, err := m.c.join(joinGroup)
		if err != nil {
			e.close()
			return nil, err
		}
		m.joinNext = res.NextSeq
		if k == 0 {
			if err = e.first.applyJoin(res); err != nil {
				e.close()
				return nil, err
			}
		}
	}
	if e.joiner, err = dial(r.svc.addrs[0], "joiner", e.feed.onEvent); err != nil {
		e.close()
		return nil, err
	}
	for i := 0; i < rc.size.warmup; i++ {
		r.send(uint64(i), time.Now(), nil)
	}
	for i := 0; i < 3; i++ {
		if err := e.joinOnce(); err != nil {
			e.close()
			return nil, err
		}
		if err := e.leave(); err != nil {
			e.close()
			return nil, err
		}
	}
	r.quiesce()
	return e, nil
}

// joinOnce is the timed operation: a full join plus installing the transfer
// in the client's view.
func (e *joinEnv) joinOnce() error {
	res, err := e.joiner.join(joinGroup)
	if err != nil {
		return err
	}
	return e.feed.applyJoin(res)
}

func (e *joinEnv) leave() error {
	err := e.joiner.leave(joinGroup)
	e.feed.reset()
	return err
}

// joinLoop is the joiner's open loop: a join is due every 1/joinsPerSec
// seconds and is timed from then; the leave that follows is not timed.
func (e *joinEnv) joinLoop(win window, led *ledger) (joins []joinSpan, late []float64) {
	n := int(win.len.Seconds() * joinsPerSec)
	p := &pacer{start: win.start, period: time.Second / joinsPerSec, spin: 200 * time.Microsecond,
		now: time.Now, sleep: preciseSleep, yield: runtime.Gosched}
	epoch := e.rtt.epoch
	for k := 0; k < n; k++ {
		due, lateBy := p.wait(k)
		start := due.Add(lateBy)
		err := e.joinOnce()
		end := time.Now()
		led.op(err)
		if err != nil {
			continue
		}
		joins = append(joins, joinSpan{due.Sub(epoch).Nanoseconds(), start.Sub(epoch).Nanoseconds(), end.Sub(epoch).Nanoseconds()})
		late = append(late, lateBy.Seconds()*1e3)
		if win.traced(due) {
			win.tr.add("client.join", "", uint64(k), start.Sub(epoch).Nanoseconds(), end.Sub(epoch).Nanoseconds())
		}
		led.op(e.leave())
	}
	return joins, late
}

// overlapping returns the round trips whose due -> delivered interval
// intersects a join in progress. Both inputs are in time order.
func overlapping(samples []rttSample, joins []joinSpan) []float64 {
	var out []float64
	j := 0
	for _, s := range samples {
		for j < len(joins) && joins[j].end < s.due {
			j++
		}
		if j < len(joins) && joins[j].start <= s.done {
			out = append(out, float64(s.done-s.due)/1e6)
		}
	}
	return out
}

func runJoin(rc runConfig) (*outcome, error) {
	e, err := setupJoin(rc)
	if err != nil {
		return nil, err
	}
	defer e.close()
	r := e.rtt
	setupS := time.Since(r.epoch).Seconds()
	o := newOutcome(rc, r.epoch)
	live, err := beginLive()
	if err != nil {
		return nil, err
	}
	win := window{start: time.Now().Add(2 * time.Millisecond), len: rc.window, tr: o.tr}
	var joins []joinSpan
	var joinLate []float64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		joins, joinLate = e.joinLoop(win, o.led)
	}()
	m := r.measure(win, joinRate, o.led)
	wg.Wait()
	if err := live.end(); err != nil {
		return nil, err
	}

	sort.Slice(m.spans, func(a, b int) bool { return m.spans[a].due < m.spans[b].due })
	var joinMs []float64
	for _, j := range joins {
		joinMs = append(joinMs, float64(j.end-j.due)/1e6)
	}
	join := o.timing("join (due -> Join(full) + View.ApplyJoin returned)", "ms", joinMs)
	overlap := o.timing("rtt, multicasts overlapping a join (due -> own delivery)", "ms", overlapping(m.spans, joins))
	all := o.timing("rtt, all multicasts", "ms", m.rtt)
	o.timing("join generator lateness", "ms", joinLate)
	o.e2e["latency_p50_ms"] = join.P50
	o.e2e["throughput_per_s"] = m.deliveries / m.elapsed.Seconds()
	o.e2e["setup_s"] = setupS

	e.verifyViews(o)
	verifyGroup(r.stream, joinGroup, r.acks, r.members, false, o.led)
	o.checks = append(o.checks, "acked seqs are 1..N", "every receiver: strictly increasing gapless seq, sender's bytes, FIFO",
		"last joiner's view (transfer + live suffix) equals the long-lived receiver's at the same LastSeq")

	if rc.trace {
		live.liveLayers(o.layer, float64(m.n))
		traced, untraced := tracedSplit(r, win, m)
		o.layer["trace.overhead_frac"] = ratio(median(traced), median(untraced)) - 1
		o.layer["client.rtt_p50_ms"], o.layer["client.rtt_p99_ms"] = all.P50, all.P99
		o.layer["client.rtt_overlap_p50_ms"] = overlap.P50
		o.layer["client.join_p50_ms"], o.layer["client.join_p90_ms"] = join.P50, join.P90
		o.layer["gen.late_p99_ms"] = summarize(m.late).P99
		plan := layerPlan{path: true, fanout: joinReceivers + 1, joinBytes: staticObjects * rc.size.staticObjBytes}
		if err := replayLayers(rc, plan, r.stream, o, all.P50); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// verifyViews joins one last time and keeps the membership, sends a few more
// multicasts so the joiner's view is transfer plus a live suffix, and then
// compares it with the long-lived receiver's view at the same LastSeq.
func (e *joinEnv) verifyViews(o *outcome) {
	r := e.rtt
	if err := e.joinOnce(); err != nil {
		o.led.problem("final join: %v", err)
		return
	}
	for k := 0; k < 20; k++ {
		r.send(uint64(len(r.acks)), time.Now(), o.led)
	}
	r.quiesce()
	last := uint64(len(r.acks))
	deadline := time.Now().Add(quiesceTimeout)
	for (e.feed.view.lastSeq() < last || e.first.view.lastSeq() < last) && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	a, b := e.feed.view.objects(), e.first.view.objects()
	if e.feed.view.lastSeq() != last || e.first.view.lastSeq() != last {
		o.led.problem("views did not reach seq %d: joiner at %d, receiver at %d", last, e.feed.view.lastSeq(), e.first.view.lastSeq())
		return
	}
	if gaps := e.feed.gapCount() + e.first.gapCount(); gaps > 0 {
		o.led.problem("views saw %d gaps in their delivery streams", gaps)
	}
	if len(a) != len(b) {
		o.led.problem("joiner's view holds %d objects, receiver's %d", len(a), len(b))
		return
	}
	for k := range a {
		if a[k].ID != b[k].ID || !bytes.Equal(a[k].Data, b[k].Data) {
			o.led.problem("joiner's view differs from the receiver's at object %s", a[k].ID)
			return
		}
	}
}
