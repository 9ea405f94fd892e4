// Command benchmark is Corona's one seeded, self-checking benchmark: six
// named workloads, three gated end-to-end metrics, and an outside-in
// per-layer ledger. See README.md in this directory.
//
//	benchmark -workload fanout_rtt -seed 1 -seconds 10 -trace 0
//	benchmark -seed 1              # all six workloads, one after another
//	benchmark -selfcheck           # the full set twice, compared against the bounds
//
// The last line of standard output is one JSON object: correct, attempted,
// failed, and the metrics — end-to-end ones with -trace 0, per-layer ones
// with -trace 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

func main() {
	workload := flag.String("workload", "", "workload to run (default: all six in turn)")
	seed := flag.Int64("seed", 1, "seed every input is generated from")
	seconds := flag.Int("seconds", 10, "length of the timed window of each workload")
	trace := flag.Int("trace", 0, "1: traced pass (per-layer metrics, span file); 0: untraced pass (end-to-end metrics)")
	selfcheck := flag.Bool("selfcheck", false, "run the full set twice with different seeds and compare against the bounds")
	flag.Parse()
	if flag.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	rc := runConfig{seed: *seed, window: time.Duration(*seconds) * time.Second, trace: *trace == 1, size: fullSizing, outDir: filepath.Join("benchmark", "out")}
	var err error
	switch {
	case *selfcheck:
		err = selfCheck(os.Stdout, rc)
	case *workload == "":
		err = runAll(os.Stdout, rc)
	default:
		err = runOne(os.Stdout, *workload, rc)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// resultLine is the contract's last line of output.
type resultLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// errIncorrect marks a run whose correctness checks failed.
var errIncorrect = fmt.Errorf("correctness checks failed")

// execute runs one workload after checking it fits the host.
func execute(w workloadDef, rc runConfig) (*outcome, error) {
	if w.loadConns > runtime.NumCPU() {
		return nil, fmt.Errorf("%s drives %d load connections but the host has %d processors", w.name, w.loadConns, runtime.NumCPU())
	}
	// A traced pass is one round: its live window only feeds the per-layer
	// metrics, and the layer replay need not run five times.
	n := rc.size.rounds
	if rc.trace {
		n = 1
	}
	rc.window /= time.Duration(n)
	var rounds []*outcome
	for k := 0; k < n; k++ {
		o, err := w.run(rc)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", w.name, err)
		}
		rounds = append(rounds, o)
	}
	o := mergeRounds(rounds)
	for _, m := range endToEnd {
		if v := o.e2e[m.Name]; v <= 0 || math.IsNaN(v) || math.IsInf(v, 0) {
			o.led.problem("%s measured %v", m.Name, v)
		}
	}
	return o, nil
}

// report prints one run for a reader and returns the contract's line.
func report(out io.Writer, w workloadDef, rc runConfig, o *outcome) resultLine {
	fmt.Fprintf(out, "workload %s  seed=%d  window=%s  trace=%v\n", w.name, rc.seed, rc.window, rc.trace)
	if !rc.trace {
		fmt.Fprintf(out, "  every metric below is the median over %d rounds, each a fresh set-up timing 1/%d of the window\n", rc.size.rounds, rc.size.rounds)
	}
	fmt.Fprintf(out, "  why:   %s\n  shape: %s\n  loop:  %s\n", w.why, w.shape, w.loop)
	line := resultLine{Correct: o.led.correct(), Attempted: o.led.attempted.Load(), Failed: o.led.failed(), Metrics: map[string]metricValue{}}
	if rc.trace {
		for _, m := range perLayer {
			fmt.Fprintf(out, "  %-38s %14.4f %s\n", m.Name, o.layer[m.Name], m.Unit)
			line.Metrics[m.Name] = metricValue{o.layer[m.Name], m.Unit}
		}
	} else {
		meaning := map[string]string{"latency_p50_ms": w.latency, "throughput_per_s": w.throughput,
			"setup_s": "server boot, dials, joins, pre-load, warm-up"}
		for _, m := range endToEnd {
			fmt.Fprintf(out, "  %-18s %14.4f %-6s bound=%.2f  %s\n", m.Name, o.e2e[m.Name], m.Unit, m.Bound, meaning[m.Name])
			fmt.Fprintf(out, "  %-18s rounds: %.4f\n", "", o.rounds[m.Name])
			line.Metrics[m.Name] = metricValue{o.e2e[m.Name], m.Unit}
		}
	}
	for _, t := range o.timings {
		fmt.Fprintf(out, "  timing  %s: %s %s\n", t.name, summarize(t.xs), t.unit)
	}
	fmt.Fprintf(out, "  failed_frac %.6f (%d of %d: %d refused, %d nacked, %d timed out, %d errored, %d undelivered)\n",
		o.led.failedFrac(), line.Failed, line.Attempted, o.led.refused.Load(), o.led.nacked.Load(),
		o.led.timedOut.Load(), o.led.errored.Load(), o.led.undelivered.Load())
	for _, c := range o.checks {
		fmt.Fprintf(out, "  check   %s\n", c)
	}
	for _, p := range o.led.problems {
		fmt.Fprintf(out, "  FAILED  %s\n", p)
	}
	return line
}

func preamble(out io.Writer) {
	h, _ := json.Marshal(host())
	fmt.Fprintf(out, "host %s\n", h)
	fmt.Fprintf(out, "note servers and clients run in one process over loopback TCP: no injected network delay, link rates not measured;\n"+
		"note every WAL fsync is modelled at %s, real disk latency is not measured; load is sized for %d processors\n", modelledSync, runtime.NumCPU())
}

// runAndReport executes one workload, writes its trace file if it was
// traced, and prints the report.
func runAndReport(out io.Writer, w workloadDef, rc runConfig) (*outcome, resultLine, error) {
	o, err := execute(w, rc)
	if err != nil {
		return nil, resultLine{}, err
	}
	if o.tr != nil {
		path, err := o.tr.write(rc.outDir, w.name, rc.seed, o.layer)
		if err != nil {
			return nil, resultLine{}, err
		}
		fmt.Fprintf(out, "trace %s\n", path)
	}
	return o, report(out, w, rc, o), nil
}

// runOne is the driver's entry: one workload, the contract's line last.
func runOne(out io.Writer, name string, rc runConfig) error {
	w, ok := findWorkload(name)
	if !ok {
		return fmt.Errorf("unknown workload %q", name)
	}
	preamble(out)
	_, line, err := runAndReport(out, w, rc)
	if err != nil {
		return err
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintf(out, "%s\n", b)
	if !line.Correct {
		return errIncorrect
	}
	return nil
}

// runAll runs every workload in turn and prints each report.
func runAll(out io.Writer, rc runConfig) error {
	preamble(out)
	var failed error
	for _, w := range workloads {
		_, line, err := runAndReport(out, w, rc)
		if err != nil {
			return err
		}
		if !line.Correct {
			failed = errIncorrect
		}
	}
	return failed
}

// selfCheck runs the full untraced set twice, with the given seed and the
// next, and holds every gated metric's difference against its bound: the
// benchmark's own test that its numbers repeat on this host.
func selfCheck(out io.Writer, rc runConfig) error {
	preamble(out)
	rc.trace = false
	var runs [2]map[string]*outcome
	for k := range runs {
		runs[k] = map[string]*outcome{}
		cfg := rc
		cfg.seed += int64(k)
		for _, w := range workloads {
			o, _, err := runAndReport(out, w, cfg)
			if err != nil {
				return err
			}
			runs[k][w.name] = o
		}
	}
	fmt.Fprintf(out, "selfcheck seeds %d and %d\n%-16s %-18s %14s %14s %8s %6s  verdict\n", rc.seed, rc.seed+1,
		"workload", "metric", "first", "second", "diff", "bound")
	var failed error
	for _, w := range workloads {
		a, b := runs[0][w.name], runs[1][w.name]
		for _, m := range endToEnd {
			diff := math.Abs(b.e2e[m.Name]-a.e2e[m.Name]) / a.e2e[m.Name]
			verdict := "PASS"
			if diff > m.Bound {
				verdict, failed = "FAIL", fmt.Errorf("selfcheck: a gated metric moved by more than its bound between two runs of the same code")
			}
			fmt.Fprintf(out, "%-16s %-18s %14.4f %14.4f %7.2f%% %5.0f%%  %s\n", w.name, m.Name, a.e2e[m.Name], b.e2e[m.Name], diff*100, m.Bound*100, verdict)
		}
		if a.led.failed()+b.led.failed() > 0 {
			fmt.Fprintf(out, "%-16s failed_frac %.6f and %.6f  FAIL\n", w.name, a.led.failedFrac(), b.led.failedFrac())
			failed = errIncorrect
		}
	}
	return failed
}
