package chaos

import (
	"testing"
)

// TestChaosDurabilityHonesty is the headline chaos run: full fault arc
// (network cut, sticky fsync fault, degraded entry, recovery, power cut)
// with every audit on. Any acked-but-lost event, order or gap violation,
// or replay divergence fails the run. On a pre-fsyncgate WAL — one that
// retries fsync on the same file and acks — the durability audit fails.
func TestChaosDurabilityHonesty(t *testing.T) {
	rep, err := Run(Config{
		Seed:     42,
		Dir:      t.TempDir(),
		Groups:   2,
		Clients:  6,
		Rounds:   12,
		NetChaos: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
	if rep.Nacked == 0 {
		t.Error("storage chaos produced no honest nacks")
	}
}

// TestChaosSeeds runs shorter arcs under several seeds so the fault
// points, crash cuts, and schedules vary.
func TestChaosSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-seed chaos is not -short")
	}
	for _, seed := range []int64{7, 1001, 31337} {
		rep, err := Run(Config{
			Seed:     seed,
			Dir:      t.TempDir(),
			Groups:   2,
			Clients:  4,
			Rounds:   8,
			NetChaos: seed%2 == 1,
		})
		if err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		assertClean(t, rep)
	}
}

// TestChaosSmoke is the storage-fault acceptance test: one small seeded
// arc — fsync fault, degraded mode, recovery, power cut — with the
// durability-honesty, ordering and replay audits on, fast enough for every
// pre-merge run (it is not skipped in -short).
func TestChaosSmoke(t *testing.T) {
	rep, err := Run(Config{
		Seed:    3,
		Dir:     t.TempDir(),
		Groups:  1,
		Clients: 3,
		Rounds:  6,
	})
	if err != nil {
		t.Fatal(err)
	}
	assertClean(t, rep)
}

func assertClean(t *testing.T, rep *Report) {
	t.Helper()
	for _, f := range rep.Failures {
		t.Errorf("audit (seed %d): %s", rep.Seed, f)
	}
	if rep.AckedLost > 0 {
		t.Errorf("seed %d: %d durably-acked events lost", rep.Seed, rep.AckedLost)
	}
	if !rep.DegradedSeen || !rep.Recovered {
		t.Errorf("seed %d: fault arc incomplete: degraded=%v recovered=%v", rep.Seed, rep.DegradedSeen, rep.Recovered)
	}
	if !rep.HealthRedSeen || !rep.HealthGreenAfter {
		t.Errorf("seed %d: healthz did not track the arc: red=%v green=%v", rep.Seed, rep.HealthRedSeen, rep.HealthGreenAfter)
	}
	if !rep.ReplayIdentical {
		t.Errorf("seed %d: recoveries diverged", rep.Seed)
	}
	if rep.Acked == 0 {
		t.Errorf("seed %d: no acked load", rep.Seed)
	}
	if rep.Delivered == 0 {
		t.Errorf("seed %d: no deliveries recorded", rep.Seed)
	}
	t.Logf("seed %d: attempted=%d acked=%d nacked=%d errors=%d delivered=%d",
		rep.Seed, rep.Attempted, rep.Acked, rep.Nacked, rep.SendErrors, rep.Delivered)
}
