package gossip

import (
	"context"
	"math"
	"math/big"
	"math/rand"
	"sync"
	"testing"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/topology"
)

// ulpsApart counts how many representable doubles separate a from b
// (0 = identical bits, 1 = adjacent floats, capped at 16).
func ulpsApart(a, b float64) int {
	if a == b {
		return 0
	}
	steps := 0
	x := a
	for steps < 16 {
		steps++
		x = math.Nextafter(x, b)
		if x == b {
			return steps
		}
	}
	return steps
}

// TestPropertyTreeMeanWithinOneUlp is the numeric headline: folding any
// tree shape of double-double partial aggregates yields a mean within
// one ulp of the exact (big-float) mean. 1000 random instances, each
// folding up to a thousand terms through a random recursive partition —
// the adversarial version of every spanning-tree shape BuildTree could
// produce.
func TestPropertyTreeMeanWithinOneUlp(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 100
	}
	for inst := 0; inst < instances; inst++ {
		rng := rand.New(rand.NewSource(int64(inst)))
		n := 2 + rng.Intn(999)
		gs := make([]float64, n)
		for i := range gs {
			// Marginal utilities live on wildly different scales when
			// queues approach saturation; spread exponents accordingly.
			gs[i] = -(0.1 + rng.Float64()) * math.Ldexp(1, rng.Intn(30))
		}
		var fold func(lo, hi int) (float64, float64)
		fold = func(lo, hi int) (float64, float64) {
			if hi-lo == 1 {
				return gs[lo], 0
			}
			cut := lo + 1 + rng.Intn(hi-lo-1)
			ah, al := fold(lo, cut)
			bh, bl := fold(cut, hi)
			return ddAdd(ah, al, bh, bl)
		}
		hi, lo := fold(0, n)
		got := ddValue(hi, lo) / float64(n)

		exact := new(big.Float).SetPrec(200)
		for _, g := range gs {
			exact.Add(exact, new(big.Float).SetPrec(200).SetFloat64(g))
		}
		exact.Quo(exact, new(big.Float).SetPrec(200).SetInt64(int64(n)))
		want, _ := exact.Float64()
		if d := ulpsApart(got, want); d > 1 {
			t.Fatalf("instance %d (n=%d): tree mean %g is %d ulps from exact %g", inst, n, got, d, want)
		}
	}
}

// TestPropertyPushSumMassConserved checks the gossip mode's invariant:
// however the hashed exchange schedule shuffles shares around, the
// total double-double mass over all nodes never moves by more than one
// ulp. Serial simulation of the tick dynamics, 1000 random instances.
func TestPropertyPushSumMassConserved(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 100
	}
	for inst := 0; inst < instances; inst++ {
		rng := rand.New(rand.NewSource(int64(1_000_000 + inst)))
		n := 4 + rng.Intn(29)
		g, err := topology.RandomConnected(n, n/2, 0.1, 1, int64(inst))
		if err != nil {
			t.Fatal(err)
		}
		adj := aliveAdjacency(g, nil)
		his := make([]float64, n)
		los := make([]float64, n)
		for i := range his {
			his[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(24))
		}
		total := func() float64 {
			var th, tl float64
			for i := range his {
				th, tl = ddAdd(th, tl, his[i], los[i])
			}
			return ddValue(th, tl)
		}
		want := total()
		for tick := 0; tick < 30; tick++ {
			// All sends leave from pre-tick state, like a real tick.
			type share struct {
				to     int
				hi, lo float64
			}
			shares := make([]share, 0, n)
			for i := 0; i < n; i++ {
				to := pickPeer(int64(inst), 0, 0, tick, i, adj[i])
				his[i], los[i] = his[i]/2, los[i]/2
				shares = append(shares, share{to: to, hi: his[i], lo: los[i]})
			}
			for _, s := range shares {
				his[s.to], los[s.to] = ddAdd(his[s.to], los[s.to], s.hi, s.lo)
			}
			if d := ulpsApart(total(), want); d > 1 {
				t.Fatalf("instance %d (n=%d): mass drifted %d ulps by tick %d", inst, n, d, tick)
			}
		}
	}
}

// TestPropertyTreeTrajectoryMatchesBroadcast runs full tree-mode
// clusters against the broadcast reference over random topologies and
// models. Every converged run must be certified (RunCluster enforces
// it); where the double-double mean rounds identically to the
// reference's naive sum — the common case — the entire trajectory,
// round count and final allocation are bit-identical. Per-round
// invariants are pinned along the way: Σx stays 1 and the utility never
// decreases.
func TestPropertyTreeTrajectoryMatchesBroadcast(t *testing.T) {
	instances := 40
	if testing.Short() {
		instances = 8
	}
	ctx, cancel := context.WithTimeout(context.Background(), 120*time.Second)
	defer cancel()
	identical := 0
	for inst := 0; inst < instances; inst++ {
		rng := rand.New(rand.NewSource(int64(inst)))
		n := 2 + rng.Intn(7)
		g, err := topology.RandomConnected(n, rng.Intn(n+1), 0.1, 1, int64(inst))
		if err != nil {
			t.Fatal(err)
		}
		models := testModels(n, rng)
		init := uniformInit(n)

		// Collect the trajectory: one allocation vector per round.
		var mu sync.Mutex
		traj := map[int][]float64{}
		onRound := func(epoch, round, node int, x float64) {
			mu.Lock()
			defer mu.Unlock()
			row := traj[round]
			if row == nil {
				row = make([]float64, n)
				for i := range row {
					row[i] = math.NaN()
				}
				traj[round] = row
			}
			row[node] = x
		}

		alpha := 0.03 // inside the Theorem-2 monotonicity bound for these models
		res, err := RunCluster(ctx, ClusterConfig{
			Graph:  g,
			Models: models,
			Init:   init,
			Alpha:  alpha, Epsilon: 1e-3, MaxRounds: 4000,
			OnRound: onRound,
		})
		if err != nil {
			t.Fatalf("instance %d (n=%d): %v", inst, n, err)
		}
		if !res.Converged {
			t.Fatalf("instance %d (n=%d): no convergence in %d rounds", inst, n, res.Rounds)
		}
		if !res.Certified {
			t.Fatalf("instance %d (n=%d): converged but uncertified", inst, n)
		}

		ref, err := agent.RunCluster(ctx, agent.ClusterConfig{
			Agent:  agent.Config{Alpha: alpha, Epsilon: 1e-3, MaxRounds: 4000, Mode: agent.Broadcast},
			Models: models,
			Init:   init,
		})
		if err != nil {
			t.Fatalf("instance %d: broadcast reference: %v", inst, err)
		}
		// The tree's double-double mean is at least as accurate as the
		// reference's naive sum, so the trajectories can part ways only in
		// the last ulp of the shared average — never in the round count,
		// and never beyond rounding noise in the allocation.
		if res.Rounds != ref.Rounds {
			t.Fatalf("instance %d (n=%d): tree took %d rounds, broadcast %d", inst, n, res.Rounds, ref.Rounds)
		}
		same := true
		for i := 0; i < n; i++ {
			if d := math.Abs(res.X[i] - ref.X[i]); d > 1e-12 {
				t.Fatalf("instance %d node %d: tree %.17g vs broadcast %.17g", inst, i, res.X[i], ref.X[i])
			}
			same = same && res.X[i] == ref.X[i]
		}
		if same {
			identical++
		}
		if n == 2 && !same {
			// Two terms sum exactly in both schemes; any divergence here is
			// a real mirroring bug, not rounding.
			t.Fatalf("instance %d (n=2): allocations differ where sums are exact", inst)
		}

		// Per-round invariants over the recorded trajectory.
		access := make([]float64, n)
		rates := make([]float64, n)
		for i, m := range models {
			access[i] = m.AccessCost
			rates[i] = m.ServiceRate
		}
		sf, err := costmodel.NewSingleFile(access, rates, models[0].Lambda, models[0].K)
		if err != nil {
			t.Fatal(err)
		}
		prevU := math.Inf(-1)
		if u, err := sf.Utility(init); err == nil {
			prevU = u
		}
		for round := 0; round < res.Rounds; round++ {
			row, ok := traj[round]
			if !ok {
				t.Fatalf("instance %d: round %d missing from trajectory", inst, round)
			}
			sum := 0.0
			for node, x := range row {
				if math.IsNaN(x) {
					t.Fatalf("instance %d: round %d missing node %d", inst, round, node)
				}
				sum += x
			}
			if math.Abs(sum-1) > 1e-9 {
				t.Fatalf("instance %d: round %d has Σx = %.17g", inst, round, sum)
			}
			u, err := sf.Utility(row)
			if err != nil {
				t.Fatalf("instance %d: round %d utility: %v", inst, round, err)
			}
			if u < prevU-1e-9 {
				t.Fatalf("instance %d: utility fell %.3g at round %d", inst, prevU-u, round)
			}
			prevU = u
		}
	}
	// A healthy fraction of instances must be bit-for-bit identical end to
	// end, so a regression in the mirroring (wrong drop order, wrong
	// tie-break) cannot hide behind the certified-fallback path.
	if identical*8 < instances {
		t.Errorf("only %d/%d instances bit-identical to broadcast", identical, instances)
	}
}
