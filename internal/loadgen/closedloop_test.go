package loadgen_test

import (
	"bytes"
	"context"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/loadgen"
	"filealloc/internal/transport"
)

// newCluster builds a live in-process serving cluster sized for the spec:
// per-node service rate 2.2x the peak tick rate divided across nodes, so
// capacity comfortably exceeds demand even one node down.
func newCluster(t *testing.T, spec loadgen.Spec, faults *transport.FaultConfig) *agent.ServeCluster {
	t.Helper()
	peak := 0.0
	for _, p := range spec.Phases {
		if p.RPS > peak {
			peak = p.RPS
		}
	}
	mu := make([]float64, spec.Nodes)
	rates := make([]float64, spec.Nodes)
	for i := range mu {
		mu[i] = 2.2 * peak / float64(spec.Nodes)
		rates[i] = spec.Phases[0].RPS / float64(spec.Nodes)
	}
	sc, err := agent.NewServeCluster(context.Background(), agent.ServeClusterConfig{
		N:              spec.Nodes,
		Mu:             mu,
		K:              1,
		InitRates:      rates,
		RequestTimeout: 400 * time.Millisecond,
		Retries:        2,
		DownAfter:      2,
		Seed:           spec.Seed,
		Faults:         faults,
	})
	if err != nil {
		t.Fatalf("serve cluster: %v", err)
	}
	t.Cleanup(func() {
		if err := sc.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	return sc
}

func runSpec(t *testing.T, spec loadgen.Spec, workers int, faults *transport.FaultConfig) *loadgen.Report {
	t.Helper()
	sc := newCluster(t, spec, faults)
	rep, err := loadgen.Run(context.Background(), loadgen.Config{Spec: spec, Target: sc, Workers: workers})
	if err != nil {
		t.Fatalf("run (workers=%d): %v", workers, err)
	}
	return rep
}

// TestPhaseReportDeterministicAcrossWorkers is the determinism contract:
// the same spec and seed produce byte-identical JSON and CSV reports
// whether the batches are fired by 1 worker or 8.
func TestPhaseReportDeterministicAcrossWorkers(t *testing.T) {
	spec := loadgen.DefaultSpec()
	r1 := runSpec(t, spec, 1, nil)
	r8 := runSpec(t, spec, 8, nil)

	j1, err := r1.JSON()
	if err != nil {
		t.Fatal(err)
	}
	j8, err := r8.JSON()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(j1, j8) {
		t.Fatalf("JSON reports differ between workers 1 and 8:\n--- workers=1\n%s\n--- workers=8\n%s", j1, j8)
	}
	if !bytes.Equal(r1.CSV(), r8.CSV()) {
		t.Fatal("CSV reports differ between workers 1 and 8")
	}
}

// TestClosedLoopSmoke is the end-to-end gate (run under -race by
// scripts/check.sh): a steady phase then a crash phase over a live 5-node
// cluster. Degraded-mode serving must keep the error count at zero, the
// crash must produce a certified degraded re-plan within the lag ceiling,
// and no request may ever fail with a stale-plan (served_error) class.
func TestClosedLoopSmoke(t *testing.T) {
	spec := loadgen.Spec{
		Name:  "smoke",
		Seed:  1,
		Nodes: 5,
		Phases: []loadgen.Phase{
			{Name: "steady", Kind: loadgen.PhaseSteady, Ticks: 6, RPS: 30},
			{Name: "crash", Kind: loadgen.PhaseCrash, Ticks: 8, RPS: 30, Kill: []int{1}},
		},
	}
	rep := runSpec(t, spec, 4, nil)

	for _, p := range rep.Phases {
		if p.Errors != 0 {
			t.Errorf("phase %s: %d/%d requests failed (%v)", p.Name, p.Errors, p.Requests, p.ErrorClasses)
		}
		if _, ok := p.ErrorClasses["served_error"]; ok {
			t.Errorf("phase %s returned stale-plan errors", p.Name)
		}
		if p.Replans != p.CertifiedReplans {
			t.Errorf("phase %s: %d re-plans but only %d certified", p.Name, p.Replans, p.CertifiedReplans)
		}
	}
	crash := rep.Phases[1]
	if crash.AliveEnd != 4 {
		t.Errorf("crash phase ends with %d alive nodes, want 4", crash.AliveEnd)
	}
	if crash.CertifiedReplans == 0 {
		t.Error("crash phase never adopted a certified degraded re-plan")
	}
	if crash.ConvergenceLagTicks == 0 || crash.ConvergenceLagTicks > 6 {
		t.Errorf("crash convergence lag = %d ticks, want 1..6", crash.ConvergenceLagTicks)
	}
	if crash.Degraded == 0 {
		t.Error("no request was served in degraded mode after the crash")
	}
}

// TestChaosDegradedServing layers seeded message faults (dropped requests,
// dropped and delayed replies) on top of a crash. Retries, rerouting, and
// degraded mode must absorb everything: zero failed requests, no
// stale-plan errors, and every adopted plan certified.
func TestChaosDegradedServing(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run burns real deadline time")
	}
	spec := loadgen.Spec{
		Name:  "chaos",
		Seed:  7,
		Nodes: 5,
		Phases: []loadgen.Phase{
			{Name: "steady", Kind: loadgen.PhaseSteady, Ticks: 5, RPS: 20},
			{Name: "shift", Kind: loadgen.PhaseShift, Ticks: 5, RPS: 20, Weights: []float64{0.4, 0.3, 0.1, 0.1, 0.1}},
			{Name: "crash", Kind: loadgen.PhaseCrash, Ticks: 8, RPS: 20, Weights: []float64{0.4, 0.3, 0.1, 0.1, 0.1}, Kill: []int{2}},
		},
	}
	faults := &transport.FaultConfig{
		Seed: 11,
		Rules: []transport.FaultRule{
			// 2% of incoming requests vanish (client burns a deadline and
			// retries); 2% of outgoing replies are dropped; 10% of replies
			// are delayed but well inside the deadline.
			{Kind: transport.FaultDrop, Direction: transport.DirRecv, Probability: 0.02},
			{Kind: transport.FaultDrop, Direction: transport.DirSend, Probability: 0.02},
			{Kind: transport.FaultDelay, Direction: transport.DirSend, Probability: 0.10, Delay: 2 * time.Millisecond},
		},
	}
	rep := runSpec(t, spec, 4, faults)

	if rep.Totals.Errors != 0 {
		for _, p := range rep.Phases {
			if p.Errors > 0 {
				t.Errorf("phase %s: %d/%d failed (%v)", p.Name, p.Errors, p.Requests, p.ErrorClasses)
			}
		}
		t.Fatalf("chaos run failed %d/%d requests", rep.Totals.Errors, rep.Totals.Requests)
	}
	for _, p := range rep.Phases {
		if _, ok := p.ErrorClasses["served_error"]; ok {
			t.Errorf("phase %s returned stale-plan errors", p.Name)
		}
		if p.Replans != p.CertifiedReplans {
			t.Errorf("phase %s: %d re-plans, %d certified", p.Name, p.Replans, p.CertifiedReplans)
		}
	}
	crash := rep.Phases[2]
	if crash.CertifiedReplans == 0 {
		t.Error("chaos crash phase never adopted a certified re-plan")
	}
	if crash.Degraded == 0 {
		t.Error("chaos crash phase served nothing in degraded mode")
	}
}

// TestHedgedServing exercises the hedged client path end to end. Hedging
// races wall-clock timers, so this run asserts service quality (all
// requests served) rather than byte determinism.
func TestHedgedServing(t *testing.T) {
	spec := loadgen.Spec{
		Name:  "hedged",
		Seed:  3,
		Nodes: 3,
		Phases: []loadgen.Phase{
			{Name: "steady", Kind: loadgen.PhaseSteady, Ticks: 4, RPS: 15},
		},
	}
	mu := []float64{11, 11, 11}
	rates := []float64{5, 5, 5}
	sc, err := agent.NewServeCluster(context.Background(), agent.ServeClusterConfig{
		N:              3,
		Mu:             mu,
		K:              1,
		InitRates:      rates,
		RequestTimeout: 400 * time.Millisecond,
		Retries:        1,
		DownAfter:      2,
		Seed:           3,
		HedgeDelay:     time.Millisecond,
	})
	if err != nil {
		t.Fatalf("serve cluster: %v", err)
	}
	t.Cleanup(func() {
		if err := sc.Close(); err != nil {
			t.Errorf("cluster close: %v", err)
		}
	})
	rep, err := loadgen.Run(context.Background(), loadgen.Config{Spec: spec, Target: sc, Workers: 4})
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if rep.Totals.Errors != 0 {
		t.Fatalf("hedged run failed %d/%d requests", rep.Totals.Errors, rep.Totals.Requests)
	}
}
