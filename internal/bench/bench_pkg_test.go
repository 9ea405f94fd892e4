package bench

import (
	"bytes"
	"testing"
	"time"
)

// The experiment drivers run with tiny parameters here; the real sweeps
// run through cmd/corona-bench and the top-level benchmarks.

func TestSummarize(t *testing.T) {
	if s := Summarize(nil); s.Count != 0 {
		t.Fatal("empty sample summarized wrong")
	}
	samples := []time.Duration{
		3 * time.Millisecond, 1 * time.Millisecond, 2 * time.Millisecond,
	}
	s := Summarize(samples)
	if s.Count != 3 || s.Min != time.Millisecond || s.Max != 3*time.Millisecond {
		t.Fatalf("stats = %+v", s)
	}
	if s.Mean != 2*time.Millisecond || s.P50 != 2*time.Millisecond {
		t.Fatalf("mean/p50 = %v/%v", s.Mean, s.P50)
	}
}

func TestMillis(t *testing.T) {
	if got := Millis(1500 * time.Microsecond); got != "1.500" {
		t.Fatalf("Millis = %q", got)
	}
}

func TestRunSingleServerRTTSmoke(t *testing.T) {
	for _, stateful := range []bool{true, false} {
		st, err := RunSingleServerRTT(RTTConfig{
			Clients: 3, MsgSize: 200, Messages: 5, Warmup: 1, Stateful: stateful,
		})
		if err != nil {
			t.Fatalf("stateful=%v: %v", stateful, err)
		}
		if st.Count != 5 || st.Mean <= 0 {
			t.Fatalf("stateful=%v stats = %+v", stateful, st)
		}
	}
}

func TestRunFig3Smoke(t *testing.T) {
	points, err := RunFig3(Fig3Config{ClientCounts: []int{2, 4}, MsgSize: 100, Messages: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	var buf bytes.Buffer
	PrintFig3(&buf, points, 100)
	if buf.Len() == 0 {
		t.Fatal("empty fig3 output")
	}
}

func TestRunSizeSweepSmoke(t *testing.T) {
	points, err := RunSizeSweep(2, []int{100, 1000}, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != 2 {
		t.Fatalf("points = %d", len(points))
	}
	var buf bytes.Buffer
	PrintSizeSweep(&buf, points, 2)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestRunThroughputSmoke(t *testing.T) {
	res, err := RunThroughput(ThroughputConfig{
		Clients: 2, MsgSize: 500, Duration: 200 * time.Millisecond, Pipeline: 2,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Messages == 0 || res.IngestedKBps <= 0 {
		t.Fatalf("result = %+v", res)
	}
}

func TestRunTable1Smoke(t *testing.T) {
	rows, err := RunTable1(2, 150*time.Millisecond, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	var buf bytes.Buffer
	PrintTable1(&buf, rows, 2)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestRunReplicatedRTTSmoke(t *testing.T) {
	st, err := RunReplicatedRTT(2, RTTConfig{
		Clients: 4, MsgSize: 200, Messages: 4, Warmup: 1, Stateful: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if st.Count != 4 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestRunJoinTransferSmoke(t *testing.T) {
	rows, err := RunJoinTransfer(JoinTransferConfig{
		History: 50, UpdateSize: 100, Objects: 4, LastN: 5, Joins: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 4 {
		t.Fatalf("rows = %d", len(rows))
	}
	// The full transfer must move more bytes than last-N and the single
	// object.
	if rows[0].Bytes <= rows[1].Bytes || rows[0].Bytes <= rows[2].Bytes {
		t.Fatalf("transfer byte ordering wrong: %+v", rows)
	}
	if rows[3].Bytes != 0 {
		t.Fatalf("no-transfer moved %d bytes", rows[3].Bytes)
	}
	var buf bytes.Buffer
	PrintJoinTransfer(&buf, rows, JoinTransferConfig{History: 50, UpdateSize: 100, Objects: 4})
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestRunLogReductionSmoke(t *testing.T) {
	res, err := RunLogReduction(60, 100, 3, t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if res.HistoryAfter != 0 {
		t.Fatalf("history after reduce = %d", res.HistoryAfter)
	}
	var buf bytes.Buffer
	PrintLogReduction(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}

func TestRunRelaxedSmoke(t *testing.T) {
	res, err := RunRelaxed(4)
	if err != nil {
		t.Fatal(err)
	}
	if res.StrictData.Count == 0 || res.MemberNotify.Count == 0 {
		t.Fatalf("result = %+v", res)
	}
	var buf bytes.Buffer
	PrintRelaxed(&buf, res)
	if buf.Len() == 0 {
		t.Fatal("empty output")
	}
}
