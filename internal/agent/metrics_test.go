package agent

import (
	"context"
	"testing"

	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/topology"
)

func metricsTestModel(t *testing.T, n int) []LocalModel {
	t.Helper()
	g, err := topology.Ring(n, 1)
	if err != nil {
		t.Fatalf("ring: %v", err)
	}
	access, err := topology.AccessCosts(g, topology.UniformRates(n, 1), topology.RoundTrip)
	if err != nil {
		t.Fatalf("access costs: %v", err)
	}
	model, err := costmodel.NewSingleFile(access, []float64{1.5}, 1, 1)
	if err != nil {
		t.Fatalf("model: %v", err)
	}
	return ModelsFromSingleFile(model)
}

// TestMetricsObserverRecordsRun checks the adapter end to end: a converged
// cluster run must leave consistent per-node counters and final gauges in
// the registry.
func TestMetricsObserverRecordsRun(t *testing.T) {
	const n = 4
	reg := metrics.New()
	res, err := RunCluster(context.Background(), ClusterConfig{
		Agent:  Config{Alpha: 0.3, Epsilon: 1e-3, Observer: NewMetricsObserver(reg)},
		Models: metricsTestModel(t, n),
		Init:   []float64{0.7, 0.1, 0.1, 0.1},
	})
	if err != nil {
		t.Fatalf("RunCluster: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cluster did not converge")
	}
	snap := reg.Snapshot()
	counters := make(map[string]int64)
	for _, c := range snap.Counters {
		counters[c.Name] += c.Value
	}
	if got := counters["fap_agent_runs_finished_total"]; got != n {
		t.Errorf("runs finished = %d, want %d", got, n)
	}
	if got := counters["fap_agent_runs_converged_total"]; got != n {
		t.Errorf("runs converged = %d, want %d", got, n)
	}
	wantRounds := int64(n) * int64(res.Rounds+1)
	if got := counters["fap_agent_rounds_started_total"]; got != wantRounds {
		t.Errorf("rounds started = %d, want %d (n=%d, rounds=%d)", got, wantRounds, n, res.Rounds)
	}
	// Every round before the terminal one applies a step on every node.
	wantApplied := int64(n) * int64(res.Rounds)
	if got := counters["fap_agent_steps_applied_total"]; got != wantApplied {
		t.Errorf("steps applied = %d, want %d", got, wantApplied)
	}
	for _, g := range snap.Gauges {
		switch g.Name {
		case "fap_agent_final_rounds":
			if int(g.Value) != res.Rounds {
				t.Errorf("final rounds gauge %v = %v, want %d", g.Labels, g.Value, res.Rounds)
			}
		case "fap_agent_active_set":
			if int(g.Value) != n {
				t.Errorf("active set gauge %v = %v, want %d", g.Labels, g.Value, n)
			}
		case "fap_agent_delta_u":
			if g.Value < 0 {
				t.Errorf("delta_u gauge %v = %v, want ≥ 0 (Theorem 2)", g.Labels, g.Value)
			}
		}
	}
}

// TestMetricsObserverReasonLabels pins the reason-token mapping used for
// discard labels.
func TestMetricsObserverReasonLabels(t *testing.T) {
	reg := metrics.New()
	o := NewMetricsObserver(reg)
	o.MessageDiscarded(2, 5, "stale report")
	snap := reg.Snapshot()
	if len(snap.Counters) != 1 {
		t.Fatalf("got %d counters, want 1", len(snap.Counters))
	}
	c := snap.Counters[0]
	want := []metrics.Label{metrics.L("node", "2"), metrics.L("reason", "stale_report")}
	if len(c.Labels) != len(want) || c.Labels[0] != want[0] || c.Labels[1] != want[1] {
		t.Errorf("labels = %v, want %v", c.Labels, want)
	}
}
