package recovery

import (
	"testing"

	"filealloc/internal/agent"
	"filealloc/internal/metrics"
	"filealloc/internal/transport"
)

// TestChurnMetricsSurviveRestart is the counter-reset regression test: a
// node that crashes and resumes must report cumulative counts — its
// supervised outcome's MessagesSent must equal the metered transport's
// send counter for that node, which by construction (endpoints are
// wrapped once, outside the restart loop) spans every attempt. Before the
// fix, RunSupervisedAgent kept only the final attempt's outcome, so the
// pre-crash messages vanished from the total.
func TestChurnMetricsSurviveRestart(t *testing.T) {
	m := ringModel(t)
	cfg := churnConfig(t, m)
	reg := metrics.New()
	obs := &agent.CounterObserver{}
	cfg.Agent.Observer = obs
	cfg.Metrics = reg
	cfg.Faults = &transport.FaultConfig{
		Rules: []transport.FaultRule{{
			Kind: transport.FaultCrash, Direction: transport.DirSend,
			Nodes: []int{2}, FromRound: 5, ToRound: 5,
		}},
	}
	res, err := runChurn(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range res.Errs {
		if e != nil {
			t.Fatalf("node %d failed: %v", i, e)
		}
	}
	if got := res.Restarts[2]; got != 1 {
		t.Fatalf("node 2 restarts = %d, want 1 (fault rule did not fire)", got)
	}

	snap := reg.Snapshot()
	sends := map[string]int64{}
	for _, c := range snap.Counters {
		if c.Name != "fap_transport_sends_total" {
			continue
		}
		for _, l := range c.Labels {
			if l.Key == "node" {
				sends[l.Value] = c.Value
			}
		}
	}
	for i, o := range res.Outcomes {
		node := string(rune('0' + i))
		if sends[node] != int64(o.MessagesSent) {
			t.Errorf("node %d: metered sends = %d but outcome reports %d messages (pre-crash counts dropped?)",
				i, sends[node], o.MessagesSent)
		}
	}
	// The round-5 checkpoint was saved before the crash fired on the
	// round's first send, so the resumed run replays round 5 with no
	// extra traffic: cumulatively the crashed node sends exactly what an
	// uninterrupted node does. A restart-reset count would report only
	// the post-resume rounds and come up short.
	if res.Outcomes[2].MessagesSent != res.Outcomes[0].MessagesSent {
		t.Errorf("crashed node reports %d cumulative messages, survivor %d; counts must match across the crash",
			res.Outcomes[2].MessagesSent, res.Outcomes[0].MessagesSent)
	}
	// Checkpoint saves flow through the observer: node 2 re-saves round 5
	// on resume, so the cluster total exceeds rounds×nodes by at least 1.
	if obs.Counters().CheckpointSaves == 0 {
		t.Error("no checkpoint saves observed")
	}
	// Fault counters are published into the registry after the run.
	var crashes int64
	for _, c := range snap.Counters {
		if c.Name == "fap_transport_faults_total" {
			for _, l := range c.Labels {
				if l.Key == "kind" && l.Value == "crashes" {
					crashes += c.Value
				}
			}
		}
	}
	if crashes != 1 {
		t.Errorf("published crash fault counters sum to %d, want 1", crashes)
	}
}
