package main

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"testing"
	"time"
)

// testSizing shrinks the fixed amounts of work so that every workload, with
// all its correctness checks and the traced replay, runs in a fraction of a
// second even under the race detector. The static objects still exceed the
// inline-transfer limit, so joins stream.
var testSizing = sizing{rounds: 1, warmup: 32, staticObjBytes: 16 << 10, logEvents: 64, replayMsgs: 40, minReopens: 2}

// TestWorkloads runs every workload for 300 ms in a traced pass: the live
// window with every correctness check, then the layer replay and the span
// file.
func TestWorkloads(t *testing.T) {
	for _, w := range workloads {
		t.Run(w.name, func(t *testing.T) {
			rc := runConfig{seed: 7, window: 300 * time.Millisecond, trace: true, size: testSizing, outDir: t.TempDir()}
			o, err := execute(w, rc)
			if err != nil {
				t.Fatal(err)
			}
			if !o.led.correct() {
				t.Fatalf("correctness checks failed: %v", o.led.problems)
			}
			if f := o.led.failed(); f != 0 || o.led.attempted.Load() == 0 {
				t.Fatalf("failed %d of %d operations", f, o.led.attempted.Load())
			}
			for _, m := range endToEnd {
				if o.e2e[m.Name] <= 0 {
					t.Errorf("%s = %v, want > 0", m.Name, o.e2e[m.Name])
				}
			}
			defined := map[string]bool{}
			for _, m := range perLayer {
				defined[m.Name] = true
			}
			for name := range o.layer {
				if !defined[name] {
					t.Errorf("per-layer metric %q is reported but not defined in perLayer", name)
				}
			}
			path, err := o.tr.write(rc.outDir, w.name, rc.seed, o.layer)
			if err != nil {
				t.Fatal(err)
			}
			var tf traceFile
			b, err := os.ReadFile(path)
			if err == nil {
				err = json.Unmarshal(b, &tf)
			}
			if err != nil || len(tf.Spans) == 0 {
				t.Fatalf("trace file %s: %d spans, err %v", path, len(tf.Spans), err)
			}
			if left, _ := filepath.Glob(filepath.Join(rc.outDir, "*-*")); len(left) > 0 {
				t.Errorf("scratch data left behind: %v", left)
			}
		})
	}
}

// TestBenchmarkJSON holds BENCHMARK.json to the tables the program reports
// from, so the two cannot drift apart.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name, Why string }
		EndToEnd  []metricDef `json:"end_to_end"`
		PerLayer  []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &doc); err != nil {
		t.Fatal(err)
	}
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the program has %d", len(doc.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if doc.Workloads[i].Name != w.name || doc.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the program %q: %q", i, doc.Workloads[i], w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("%s: why is %d characters, the contract allows 200", w.name, len(w.why))
		}
	}
	for _, c := range []struct {
		kind      string
		doc, prog []metricDef
	}{{"end_to_end", doc.EndToEnd, endToEnd}, {"per_layer", doc.PerLayer, perLayer}} {
		if len(c.doc) != len(c.prog) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the program has %d", c.kind, len(c.doc), len(c.prog))
		}
		for i := range c.prog {
			if c.doc[i] != c.prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json has %+v, the program %+v", c.kind, i, c.doc[i], c.prog[i])
			}
		}
	}
}

func TestTailQuantile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
	}{
		{1, 0.5}, {19, 0.5}, {20, 0.5}, // p50 leaves 10 of 20 beyond
		{99, 0.5}, {100, 0.9}, // p90 leaves 10 of 100 beyond
		{999, 0.9}, {1000, 0.99},
		{25_000, 0.999}, // 25 beyond p99.9, 2.5 beyond p99.99
		{100_000, 0.9999},
	} {
		if got := tailQuantile(c.n); got != c.want {
			t.Errorf("tailQuantile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	samples := make([]float64, 1000)
	for i := range samples {
		samples[i] = float64(i + 1)
	}
	s := summarize(samples)
	if s.P50 != 500 || s.TailQ != 0.99 || s.Tail != 990 || s.P90 != 900 || s.N != 1000 {
		t.Errorf("summarize(1..1000) = %+v", s)
	}
	// With 50 samples p99 has no ten samples beyond it: the fixed-name
	// metrics fall back to the median rather than report a tail of one.
	if s := summarize(samples[:50]); s.P99 != s.P50 || s.P90 != s.P50 {
		t.Errorf("summarize(1..50) = %+v, want P90 and P99 at the median", s)
	}
}

// TestPacerStall injects a stall into an open loop and checks the schedule
// does not slip: operations delayed by the stall stay due at their original
// instants, so timing them from due charges the stall to them.
func TestPacerStall(t *testing.T) {
	start := time.Unix(1000, 0)
	now := start
	p := &pacer{start: start, period: time.Millisecond, spin: 100 * time.Microsecond,
		now:   func() time.Time { return now },
		sleep: func(d time.Duration) { now = now.Add(d) },
		yield: func() { now = now.Add(10 * time.Microsecond) },
	}
	var lates []time.Duration
	for i := 0; i < 8; i++ {
		due, late := p.wait(i)
		if want := start.Add(time.Duration(i) * time.Millisecond); !due.Equal(want) {
			t.Fatalf("op %d due at %v, want %v", i, due.Sub(start), want.Sub(start))
		}
		if now.Before(due) {
			t.Fatalf("op %d released %v early", i, due.Sub(now))
		}
		lates = append(lates, late)
		if i == 2 {
			now = now.Add(3500 * time.Microsecond) // the operation stalls for 3.5 periods
		}
	}
	// Op 2 went out at 2 ms and held the loop until 5.5 ms: ops 3, 4 and 5
	// are late by 2.5, 1.5 and 0.5 ms; the loop has caught up by op 6.
	want := []time.Duration{0, 0, 0, 2500 * time.Microsecond, 1500 * time.Microsecond, 500 * time.Microsecond, 0, 0}
	for i := range want {
		if lates[i] != want[i] {
			t.Errorf("op %d late by %v, want %v", i, lates[i], want[i])
		}
	}
}

// failingSyncFS makes every fsync fail, so a SyncAlways server must nack.
type failingSyncFS struct{ walFS }

func (fs failingSyncFS) Create(path string) (walFile, error) {
	f, err := fs.walFS.Create(path)
	return failingSyncFile{f}, err
}

type failingSyncFile struct{ walFile }

func (failingSyncFile) Sync() error { return errors.New("injected fsync failure") }

// TestFailedFrac drives one refused operation, one nacked operation and one
// dropped delivery through the ledger and checks each raises failed_frac.
func TestFailedFrac(t *testing.T) {
	svc, err := startSingle(serverOpts{dir: t.TempDir(), syncAlways: true, fs: failingSyncFS{osFS}})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	c, err := dial(svc.addrs[0], "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer c.close()
	data := make([]byte, payloadSize)

	led := &ledger{}
	_, err = c.bcast("no-such-group", kindUpdate, "o", data, false)
	led.op(err)
	if classify(err) != failRefused || led.refused.Load() != 1 || led.failedFrac() != 1 {
		t.Errorf("multicast to a missing group: err %v, ledger refused=%d failed_frac=%v", err, led.refused.Load(), led.failedFrac())
	}

	if err := c.createGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.join("g"); err != nil {
		t.Fatal(err)
	}
	_, err = c.bcast("g", kindUpdate, "o", data, false)
	led.op(err)
	if classify(err) != failNacked || led.nacked.Load() != 1 {
		t.Errorf("multicast over a failing fsync: err %v classified %v, want a durability nack", err, classify(err))
	}

	// A receiver that saw seqs 1 and 2 of 3 acked is owed one delivery; one
	// that saw 1 and 3 has a gap, which is an ordering failure.
	s := newStream(1, 8)
	acks := []ackRec{{Seq: 1, I: 0}, {Seq: 2, I: 1}, {Seq: 3, I: 2}}
	deliver := func(m *member, a ackRec) {
		m.log.on(event{Seq: a.Seq, Data: append([]byte(nil), s.msg(a.Lane, a.I, a.Due, data).data...)}, 0, nil)
	}
	short := &member{name: "short", log: newRecvLog(4), joinNext: 1}
	deliver(short, acks[0])
	deliver(short, acks[1])
	led = &ledger{}
	verifyGroup(s, "g", acks, []*member{short}, false, led)
	if !led.correct() || led.undelivered.Load() != 1 || led.failedFrac() != 1.0/3 {
		t.Errorf("one dropped delivery: problems %v, undelivered %d, failed_frac %v", led.problems, led.undelivered.Load(), led.failedFrac())
	}
	gappy := &member{name: "gappy", log: newRecvLog(4), joinNext: 1}
	deliver(gappy, acks[0])
	deliver(gappy, acks[2])
	led = &ledger{}
	verifyGroup(s, "g", acks, []*member{gappy}, false, led)
	if led.correct() || led.failedFrac() != 1 {
		t.Errorf("a gap in deliveries: correct=%v failed_frac=%v, want an ordering failure", led.correct(), led.failedFrac())
	}
}

// TestFixedSync checks the modelled-sync filesystem: the program reaches it
// for every fsync it counts, and the data still goes through to the real
// file, which the durable workload's re-open check depends on.
func TestFixedSync(t *testing.T) {
	fs := newFixedSyncFS(10 * time.Microsecond)
	opts := serverOpts{dir: t.TempDir(), syncAlways: true, fs: fs}
	svc, err := startSingle(opts)
	if err != nil {
		t.Fatal(err)
	}
	c, err := dial(svc.addrs[0], "t", nil)
	if err != nil {
		t.Fatal(err)
	}
	before, err := snapshotMetrics()
	if err != nil {
		t.Fatal(err)
	}
	syncs0 := fs.syncs.Load()
	if err := c.createGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := c.join("g"); err != nil {
		t.Fatal(err)
	}
	const n = 50
	data := make([]byte, payloadSize)
	for i := 0; i < n; i++ {
		if _, err := c.bcast("g", kindUpdate, "o", data, false); err != nil {
			t.Fatal(err)
		}
	}
	after, err := snapshotMetrics()
	if err != nil {
		t.Fatal(err)
	}
	counted := int64(after.Counters[obsWALFsyncs] - before.Counters[obsWALFsyncs])
	if modelled := fs.syncs.Load() - syncs0; modelled != counted || counted < n {
		t.Errorf("%d modelled syncs, the program counted %d fsyncs for %d durable multicasts", modelled, counted, n)
	}
	c.close()
	if err := svc.Close(); err != nil {
		t.Fatal(err)
	}
	svc, _, err = openSingle(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	if m := svc.marks(); len(m) != 1 || m[0].NextSeq != n+1 {
		t.Errorf("re-opened log holds %+v, want group g at seq %d", m, n+1)
	}
}

// TestRefusesTooManyConnections: a workload needing more load connections
// than the host has processors does not run.
func TestRefusesTooManyConnections(t *testing.T) {
	w := workloadDef{name: "wide", loadConns: 1 << 20, run: func(runConfig) (*outcome, error) {
		t.Error("the workload ran")
		return nil, errors.New("ran")
	}}
	if _, err := execute(w, runConfig{}); err == nil {
		t.Error("execute accepted a workload wider than the host")
	}
}
