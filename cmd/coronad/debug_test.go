package main

import (
	"encoding/json"
	"fmt"
	"net/http"
	"testing"
	"time"

	"corona/internal/client"
	"corona/internal/core"
	"corona/internal/obs"
	"corona/internal/wal"
)

// TestDebugEndpointEndToEnd exercises the exact wiring `coronad -role
// single -debug-addr :0` sets up — an engine on obs.Default plus the
// debug HTTP server — and asserts that after one end-to-end client
// session /metrics reports non-zero transport, WAL and engine
// instruments.
func TestDebugEndpointEndToEnd(t *testing.T) {
	ds, err := obs.ServeDebug("127.0.0.1:0", obs.Default)
	if err != nil {
		t.Fatal(err)
	}
	defer ds.Close()

	srv, err := core.NewServer(core.Config{Engine: core.EngineConfig{
		Dir: t.TempDir(), Sync: wal.SyncAlways, Metrics: obs.Default,
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srv.Start()

	cl, err := client.Dial(client.Config{Addr: srv.Addr().String(), Name: "e2e"})
	if err != nil {
		t.Fatal(err)
	}
	defer cl.Close()
	if err := cl.CreateGroup("g", true, nil); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Join("g", client.JoinOptions{}); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.BcastUpdate("g", "o", []byte("payload"), true); err != nil {
		t.Fatal(err)
	}

	// The engine counts a multicast and its deliveries beside the path that
	// acknowledges it, not before it, so the instruments are read until
	// they all report the session, or a deadline passes.
	url := "http://" + ds.Addr() + "/metrics"
	deadline := time.Now().Add(5 * time.Second)
	missing := missingInstruments(t, url)
	for len(missing) > 0 && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
		missing = missingInstruments(t, url)
	}
	for _, m := range missing {
		t.Errorf("%s after an end-to-end session", m)
	}
}

// missingInstruments lists the instruments the /metrics snapshot at url
// does not yet report as moved.
func missingInstruments(t *testing.T, url string) (missing []string) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var snap obs.Snapshot
	if err := json.NewDecoder(resp.Body).Decode(&snap); err != nil {
		t.Fatalf("metrics not JSON: %v", err)
	}
	for _, counter := range []string{
		"transport.bytes_in", "transport.bytes_out", "transport.pump.enqueued",
		"wal.appends", "engine.bcasts", "engine.delivered",
	} {
		if snap.Counters[counter] == 0 {
			missing = append(missing, "counter "+counter+" is zero")
		}
	}
	if snap.Gauges["engine.sessions"] < 1 || snap.Gauges["engine.groups"] < 1 {
		missing = append(missing, fmt.Sprintf("gauges = sessions %d, groups %d", snap.Gauges["engine.sessions"], snap.Gauges["engine.groups"]))
	}
	for _, hist := range []string{"wal.append_ns", "engine.fanout_ns", "engine.join_ns"} {
		if snap.Histograms[hist].Count == 0 {
			missing = append(missing, "histogram "+hist+" is empty")
		}
	}
	return missing
}
