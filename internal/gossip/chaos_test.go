package gossip

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// chaosConfig builds a cluster config over a fixed 6-node topology so
// every chaos case and its clean reference share the same instance.
func chaosConfig(t *testing.T, mode Mode) ClusterConfig {
	t.Helper()
	g, err := topology.RandomConnected(6, 6, 0.1, 1, 21)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(21))
	cfg := ClusterConfig{
		Graph:  g,
		Models: testModels(6, rng),
		Init:   uniformInit(6),
		Mode:   mode,
		Alpha:  0.1, Epsilon: 1e-3, MaxRounds: 4000,
	}
	if mode == ModeGossip {
		cfg.Epsilon = 5e-3
		cfg.KKTTol = 0.05
	}
	return cfg
}

// TestChaosMatrix drives the cluster through every injectable fault
// class. The contract under chaos is absolute: a run either converges
// to a KKT-certified allocation or fails loudly with a typed error —
// it never hangs (each case runs under its own deadline) and never
// hands back an uncertified plan.
func TestChaosMatrix(t *testing.T) {
	cases := []struct {
		name  string
		mode  Mode
		rules []transport.FaultRule
		// tuning
		roundTimeout time.Duration
		retryBudget  int
		// expectations
		wantConverged bool // must converge (and therefore certify)
		wantIdentical bool // trajectory bit-identical to the fault-free run
		wantLoudErr   bool // must fail with ErrRoundTimeout
		wantDead      int  // node that must end up dead, -1 if none
		// firedStat proves the rule actually bit; a silently dead rule
		// would make the whole case vacuous.
		firedStat func(transport.FaultStats) int64
		// firedOneRound requires firedStat to equal the frame count of
		// one fault-free round: the rule must have bitten every frame.
		firedOneRound bool
	}{
		{
			// Transient loss on the wire in early rounds: stalled rounds
			// time out, the supervisor retries, and once the loss window
			// passes the protocol runs clean to a certified fixed point.
			name: "drop",
			rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend,
				Probability: 0.04, FromRound: 1, ToRound: 6,
			}},
			roundTimeout: 200 * time.Millisecond, retryBudget: 8,
			wantConverged: true, wantDead: -1,
			firedStat: func(s transport.FaultStats) int64 { return s.SendDropped },
		},
		{
			// Latency changes nothing but the clock: the trajectory must
			// be bit-identical to the fault-free run.
			name: "delay",
			rules: []transport.FaultRule{{
				Kind: transport.FaultDelay, Delay: time.Millisecond,
			}},
			wantConverged: true, wantIdentical: true, wantDead: -1,
			firedStat: func(s transport.FaultStats) int64 { return s.SendDelayed + s.RecvDelayed },
		},
		{
			// Every frame delivered three times: the engines' staleness
			// filter must absorb the copies without perturbing a single bit.
			name: "duplicate",
			rules: []transport.FaultRule{{
				Kind: transport.FaultDuplicate, Direction: transport.DirRecv, Copies: 2,
			}},
			wantConverged: true, wantIdentical: true, wantDead: -1,
			firedStat: func(s transport.FaultStats) int64 { return s.RecvDuplicated },
		},
		{
			// Adjacent deliveries swapped: aggregation folds by sender id,
			// not arrival order, so reordering is invisible.
			name: "reorder",
			rules: []transport.FaultRule{{
				Kind: transport.FaultReorder, Direction: transport.DirRecv,
			}},
			wantConverged: true, wantIdentical: true, wantDead: -1,
			firedStat: func(s transport.FaultStats) int64 { return s.RecvReordered },
		},
		{
			// A clean bisection never heals: the run must fail loudly with
			// ErrRoundTimeout once the retry budget is spent, not hang.
			name: "partition",
			rules: []transport.FaultRule{
				{Kind: transport.FaultPartition, Nodes: []int{0, 1, 2}, Peers: []int{3, 4, 5}},
				{Kind: transport.FaultPartition, Nodes: []int{3, 4, 5}, Peers: []int{0, 1, 2}},
			},
			roundTimeout: 200 * time.Millisecond, retryBudget: 2,
			wantLoudErr: true, wantDead: -1,
		},
		{
			// A non-root node dies mid-protocol: the survivors re-root,
			// absorb its share and still certify.
			name: "crash",
			rules: []transport.FaultRule{{
				Kind: transport.FaultCrash, Nodes: []int{4}, FromRound: 3, ToRound: 4,
			}},
			roundTimeout:  2 * time.Second,
			wantConverged: true, wantDead: 4,
			firedStat: func(s transport.FaultStats) int64 { return s.Crashes },
		},
		{
			// Loss under the randomized exchange: push-sum ticks stall and
			// time out, retries ride through the window, the epidemic still
			// certifies.
			name: "gossip-drop",
			mode: ModeGossip,
			rules: []transport.FaultRule{{
				Kind: transport.FaultDrop, Direction: transport.DirSend,
				Probability: 0.001,
			}},
			roundTimeout: 300 * time.Millisecond, retryBudget: 8,
			wantConverged: true, wantDead: -1,
			firedStat: func(s transport.FaultStats) int64 { return s.SendDropped },
		},
		{
			// A round-scoped rule must see every push-sum frame of its
			// round: each one carries the round, share or not. The copies
			// are absorbed, so the trajectory stays bit-identical.
			name: "gossip-duplicate-round",
			mode: ModeGossip,
			rules: []transport.FaultRule{{
				Kind: transport.FaultDuplicate, Direction: transport.DirSend,
				FromRound: 1, ToRound: 1,
			}},
			wantConverged: true, wantIdentical: true, wantDead: -1,
			firedStat:     func(s transport.FaultStats) int64 { return s.SendDuplicated },
			firedOneRound: true,
		},
	}

	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			ctx, cancel := context.WithTimeout(context.Background(), 90*time.Second)
			defer cancel()

			cfg := chaosConfig(t, tc.mode)
			cfg.RoundTimeout = tc.roundTimeout
			cfg.RetryBudget = tc.retryBudget
			cfg.Faults = &transport.FaultConfig{Seed: 77, Rules: tc.rules}
			res, err := RunCluster(ctx, cfg)

			// The universal invariant first: no silent uncertified success.
			if err == nil && res.Converged && !res.Certified {
				t.Fatal("converged run handed back an uncertified plan")
			}
			if tc.firedStat != nil && tc.firedStat(res.Faults) == 0 {
				t.Fatalf("fault rule never fired: %+v", res.Faults)
			}
			if tc.firedOneRound {
				if got, want := tc.firedStat(res.Faults), roundFrames(t, cfg.Graph); got != want {
					t.Errorf("rule fired %d times, want one round's %d frames", got, want)
				}
			}
			if tc.wantLoudErr {
				if !errors.Is(err, ErrRoundTimeout) {
					t.Fatalf("err = %v, want ErrRoundTimeout", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			if tc.wantConverged && (!res.Converged || !res.Certified) {
				t.Fatalf("converged=%v certified=%v after %d rounds / %d epochs",
					res.Converged, res.Certified, res.Rounds, res.Epochs)
			}
			sum := 0.0
			for _, x := range res.X {
				sum += x
			}
			tol := 1e-9
			if tc.mode == ModeGossip {
				tol = 0.02 // push-sum repairs feasibility approximately
			}
			if math.Abs(sum-1) > tol {
				t.Errorf("Σx = %.17g after chaos", sum)
			}
			if tc.wantDead >= 0 {
				if res.Alive[tc.wantDead] {
					t.Errorf("node %d should have crashed", tc.wantDead)
				}
				if res.X[tc.wantDead] != 0 {
					t.Errorf("dead node %d holds %.3g", tc.wantDead, res.X[tc.wantDead])
				}
				if res.Faults.Crashes == 0 {
					t.Error("fault stats recorded no crash")
				}
			}
			if tc.wantIdentical {
				clean, err := RunCluster(ctx, chaosConfig(t, tc.mode))
				if err != nil {
					t.Fatal(err)
				}
				if res.Rounds != clean.Rounds {
					t.Errorf("fault changed round count: %d vs clean %d", res.Rounds, clean.Rounds)
				}
				for i := range res.X {
					if res.X[i] != clean.X[i] {
						t.Errorf("node %d: %.17g under faults vs clean %.17g", i, res.X[i], clean.X[i])
					}
				}
			}
		})
	}
}
