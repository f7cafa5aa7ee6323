package gossip

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/metrics"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// testModels builds n stable local models with varied costs and rates.
func testModels(n int, rng *rand.Rand) []agent.LocalModel {
	models := make([]agent.LocalModel, n)
	for i := range models {
		models[i] = agent.LocalModel{
			AccessCost:  0.5 + 2*rng.Float64(),
			ServiceRate: 1.5 + rng.Float64(),
			Lambda:      1,
			K:           1,
		}
	}
	return models
}

func uniformInit(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = 1 / float64(n)
	}
	return xs
}

func TestTreeClusterMatchesBroadcast(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g, err := topology.RandomConnected(8, 5, 0.1, 1, 7)
	if err != nil {
		t.Fatal(err)
	}
	models := testModels(8, rng)
	init := uniformInit(8)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()

	res, err := RunCluster(ctx, ClusterConfig{
		Graph:  g,
		Models: models,
		Init:   init,
		Alpha:  0.1, Epsilon: 1e-4, MaxRounds: 5000,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("converged=%v certified=%v, want both", res.Converged, res.Certified)
	}
	sum := 0.0
	for _, x := range res.X {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σx = %.17g, want 1", sum)
	}

	ref, err := agent.RunCluster(ctx, agent.ClusterConfig{
		Agent:  agent.Config{Alpha: 0.1, Epsilon: 1e-4, MaxRounds: 5000, Mode: agent.Broadcast},
		Models: models,
		Init:   init,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !ref.Converged {
		t.Fatal("broadcast reference did not converge")
	}
	for i := range res.X {
		if math.Abs(res.X[i]-ref.X[i]) > 1e-9 {
			t.Errorf("node %d: tree %.17g vs broadcast %.17g", i, res.X[i], ref.X[i])
		}
	}
	if res.Rounds != ref.Rounds {
		t.Errorf("tree took %d rounds, broadcast %d", res.Rounds, ref.Rounds)
	}

	// The message bill is the point of the exercise: a tree round costs
	// passes·2·(N−1) messages. Interior rounds take two passes (aggregate
	// + confirm); rounds with boundary drop/readmit churn take a few
	// more, but the count stays O(N) per round regardless of N.
	perRound := res.Bill.MessagesPerRound()
	if limit := float64(10 * (8 - 1)); perRound > limit {
		t.Errorf("tree bill %.1f messages/round exceeds %g", perRound, limit)
	}
	if bc := float64(BroadcastMessages(8)); perRound >= bc {
		t.Errorf("tree bill %.1f not below broadcast %g", perRound, bc)
	}
}

func TestSingleNodeCluster(t *testing.T) {
	g := topology.New(1)
	res, err := RunCluster(context.Background(), ClusterConfig{
		Graph:  g,
		Models: []agent.LocalModel{{AccessCost: 1, ServiceRate: 2, Lambda: 1, K: 1}},
		Init:   []float64{1},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("converged=%v certified=%v", res.Converged, res.Certified)
	}
	if res.X[0] != 1 || res.Bill.Messages != 0 {
		t.Errorf("X=%v messages=%d, want the whole file and silence", res.X, res.Bill.Messages)
	}
}

func TestGossipModeConvergesCertified(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g, err := topology.RandomConnected(10, 12, 0.1, 1, 3)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	res, err := RunCluster(context.Background(), ClusterConfig{
		Graph:  g,
		Models: testModels(10, rng),
		Init:   uniformInit(10),
		Mode:   ModeGossip,
		Alpha:  0.1, Epsilon: 5e-3, MaxRounds: 4000,
		KKTTol:  0.05,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("converged=%v certified=%v rounds=%d", res.Converged, res.Certified, res.Rounds)
	}
	sum := 0.0
	for _, x := range res.X {
		sum += x
	}
	// Push-sum feasibility repair is approximate; the drift must stay
	// bounded well inside the repair's own tolerance.
	if math.Abs(sum-1) > 0.02 {
		t.Errorf("Σx = %.6f drifted beyond the repair bound", sum)
	}
	// One frame per neighbor per tick in every round run, the converged
	// round included: the bill follows from the schedule alone.
	if res.Epochs != 1 {
		t.Fatalf("epochs = %d, want 1 on a fault-free run", res.Epochs)
	}
	want := roundFrames(t, g) * int64(res.Rounds+1)
	if res.Bill.Messages != want || res.Bill.Frames != want {
		t.Errorf("bill: %d messages in %d frames, want %d of each", res.Bill.Messages, res.Bill.Frames, want)
	}
}

func TestClusterChurnRerootsAndCertifies(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g, err := topology.RandomConnected(8, 8, 0.1, 1, 5)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunCluster(context.Background(), ClusterConfig{
		Graph:  g,
		Models: testModels(8, rng),
		Init:   uniformInit(8),
		Alpha:  0.1, Epsilon: 1e-3, MaxRounds: 5000,
		RoundTimeout: 2 * time.Second,
		Faults: &transport.FaultConfig{
			Seed: 5,
			Rules: []transport.FaultRule{
				// The root dies mid-protocol: the hardest churn case, the
				// whole tree re-roots around the survivor set.
				{Kind: transport.FaultCrash, Nodes: []int{0}, FromRound: 2, ToRound: 3},
			},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Alive[0] {
		t.Fatal("crashed root still marked alive")
	}
	if res.Epochs < 2 {
		t.Errorf("epochs = %d, want ≥ 2 (churn forces a new epoch)", res.Epochs)
	}
	if !res.Converged || !res.Certified {
		t.Fatalf("converged=%v certified=%v after churn", res.Converged, res.Certified)
	}
	if res.X[0] != 0 {
		t.Errorf("dead node still holds %.3g of the file", res.X[0])
	}
	sum := 0.0
	for _, x := range res.X {
		sum += x
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("survivor mass Σx = %.17g, want 1", sum)
	}
	if res.Faults.Crashes == 0 {
		t.Error("fault stats recorded no crash")
	}
}

func TestClusterPartitionFailsLoudly(t *testing.T) {
	g, err := topology.Ring(6, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(9))
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	_, err = RunCluster(ctx, ClusterConfig{
		Graph:  g,
		Models: testModels(6, rng),
		Init:   uniformInit(6),
		Alpha:  0.1, Epsilon: 1e-3, MaxRounds: 100,
		RoundTimeout: 300 * time.Millisecond,
		Faults: &transport.FaultConfig{
			Rules: []transport.FaultRule{
				// Black-hole everything between the two halves, both ways.
				{Kind: transport.FaultPartition, Nodes: []int{0, 1, 2}, Peers: []int{3, 4, 5}},
				{Kind: transport.FaultPartition, Nodes: []int{3, 4, 5}, Peers: []int{0, 1, 2}},
			},
		},
	})
	if !errors.Is(err, ErrRoundTimeout) {
		t.Fatalf("err = %v, want ErrRoundTimeout", err)
	}
}
