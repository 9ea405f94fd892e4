package main

import (
	"fmt"
	"reflect"
	"runtime"
	"sync"
	"time"
)

// recover_cold: how long the service is away after a restart. Set-up writes
// a fixed log through a real server; the timed part opens a new server over
// it again and again. The files stay in the page cache and fsync is
// modelled, so this is the program's replay, decode and restore work, not
// the disk's.
const recoverGroups = 8

// recoverEnv is a written, cleanly closed log.
type recoverEnv struct {
	opts   serverOpts
	marks  []groupMark // what the writing server reported before closing
	events int
}

func (e *recoverEnv) close() { removeAll(e.opts.dir) }

// setupRecover writes the log: two connections, four lanes each, every lane
// the only sender of one persistent group.
func setupRecover(rc runConfig) (*recoverEnv, error) {
	dir, err := rc.scratch("recover")
	if err != nil {
		return nil, err
	}
	e := &recoverEnv{opts: serverOpts{dir: dir, fs: newFixedSyncFS(modelledSync)}, events: recoverGroups * rc.size.logEvents}
	svc, err := startSingle(e.opts)
	if err != nil {
		e.close()
		return nil, err
	}
	s := newStream(rc.seed, 8)
	conns := make([]*conn, 2)
	for k := range conns {
		if conns[k], err = dial(svc.addrs[0], fmt.Sprintf("writer-%d", k), nil); err != nil {
			break
		}
		defer conns[k].close()
	}
	var wg sync.WaitGroup
	errs := make([]error, recoverGroups)
	for g := 0; g < recoverGroups && err == nil; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			c, group := conns[g%len(conns)], fmt.Sprintf("log-%d", g)
			if errs[g] = c.createGroup(group, true, nil); errs[g] != nil {
				return
			}
			if _, errs[g] = c.join(group); errs[g] != nil {
				return
			}
			buf := make([]byte, payloadSize)
			for i := 0; i < rc.size.logEvents && errs[g] == nil; i++ {
				m := s.msg(uint32(g), uint64(i), 0, buf)
				_, errs[g] = c.bcast(group, m.kind, m.object, m.data, false)
			}
		}()
	}
	wg.Wait()
	for _, werr := range errs {
		if err == nil {
			err = werr
		}
	}
	e.marks = svc.marks()
	if cerr := svc.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		e.close()
		return nil, fmt.Errorf("writing the log: %w", err)
	}
	return e, nil
}

func runRecover(rc runConfig) (*outcome, error) {
	start := time.Now()
	e, err := setupRecover(rc)
	if err != nil {
		return nil, err
	}
	defer e.close()
	setupS := time.Since(start).Seconds()
	epoch := time.Now()
	o := newOutcome(rc, epoch)
	live, err := beginLive()
	if err != nil {
		return nil, err
	}
	win := window{start: epoch, len: rc.window, tr: o.tr}
	var ms, traced, untraced []float64
	for k := 0; k < rc.size.minReopens || time.Since(epoch) < rc.window; k++ {
		// Each re-open builds and then drops the whole recovered state;
		// collect it outside the timed call, so one re-open's garbage is
		// not the next one's collection.
		runtime.GC()
		t0 := time.Now()
		svc, _, err := openSingle(e.opts)
		t1 := time.Now()
		o.led.op(err)
		if err != nil {
			o.led.problem("re-open %d: %v", k, err)
			break
		}
		took := t1.Sub(t0).Seconds() * 1e3
		ms = append(ms, took)
		if win.traced(t0) {
			traced = append(traced, took)
			o.tr.add("core.new_server", "", uint64(k), t0.Sub(epoch).Nanoseconds(), t1.Sub(epoch).Nanoseconds())
		} else {
			untraced = append(untraced, took)
		}
		if got := svc.marks(); !reflect.DeepEqual(got, e.marks) {
			o.led.problem("re-open %d recovered %v, the writer closed at %v", k, got, e.marks)
		}
		if err := svc.Close(); err != nil {
			o.led.problem("closing after re-open %d: %v", k, err)
		}
	}
	if err := live.end(); err != nil {
		return nil, err
	}
	if len(e.marks) != recoverGroups {
		o.led.problem("the writer reported %d groups, want %d", len(e.marks), recoverGroups)
	}
	for _, g := range e.marks {
		if g.NextSeq != uint64(rc.size.logEvents)+1 {
			o.led.problem("group %s was written up to seq %d, want %d", g.Group, g.NextSeq-1, rc.size.logEvents)
		}
	}
	o.checks = append(o.checks, "every re-open: each group's NextSeq and history digest equal those the writing server reported")

	open := o.timing("cold core.NewServer over the log", "ms", ms)
	o.e2e["latency_p50_ms"] = open.P50
	o.e2e["throughput_per_s"] = float64(e.events) / (open.P50 / 1e3)
	o.e2e["setup_s"] = setupS

	if rc.trace {
		live.liveLayers(o.layer, float64(len(ms)*e.events))
		o.layer["trace.overhead_frac"] = ratio(median(traced), median(untraced)) - 1
		if err := replayLayers(rc, layerPlan{logDir: e.opts.dir, logFS: e.opts.fs}, newStream(rc.seed, 8), o, 0); err != nil {
			return nil, err
		}
	}
	return o, nil
}
