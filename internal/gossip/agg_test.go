package gossip

import (
	"math"
	"math/big"
	"math/rand"
	"slices"
	"testing"

	"filealloc/internal/protocol"
)

func TestTwoSumIsErrorFree(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	exact := func(vs ...float64) *big.Float {
		sum := new(big.Float).SetPrec(300)
		for _, v := range vs {
			sum.Add(sum, new(big.Float).SetPrec(300).SetFloat64(v))
		}
		return sum
	}
	for i := 0; i < 1000; i++ {
		a := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
		b := (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(40)-20)
		s, e := twoSum(a, b)
		if s != a+b {
			t.Fatalf("head %g != fl(%g+%g)", s, a, b)
		}
		// Error-free: s+e must equal a+b exactly, verified in big floats.
		if exact(s, e).Cmp(exact(a, b)) != 0 {
			t.Fatalf("twoSum(%g, %g) = (%g, %g) is not error-free", a, b, s, e)
		}
	}
}

// The double-double sum must be independent of association order: fold
// the same values left-to-right and in a balanced tree and compare bits.
func TestDDAddOrderIndependent(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 100; trial++ {
		vals := make([]float64, 257)
		for i := range vals {
			vals[i] = (rng.Float64() - 0.5) * math.Ldexp(1, rng.Intn(60)-30)
		}
		var hi, lo float64
		for _, v := range vals {
			hi, lo = ddAdd(hi, lo, v, 0)
		}
		var tree func(lo, hi int) (float64, float64)
		tree = func(a, b int) (float64, float64) {
			if b-a == 1 {
				return vals[a], 0
			}
			m := (a + b) / 2
			lh, ll := tree(a, m)
			rh, rl := tree(m, b)
			return ddAdd(lh, ll, rh, rl)
		}
		th, tl := tree(0, len(vals))
		if ddValue(hi, lo) != ddValue(th, tl) {
			t.Fatalf("trial %d: sequential %g != tree %g", trial, ddValue(hi, lo), ddValue(th, tl))
		}
	}
}

func TestCombineAggregateCommutes(t *testing.T) {
	a := protocol.Aggregate{
		SumG: 1.5, SumH: -0.25, SumX: 0.5, Count: 2,
		MinG: -3, MaxG: -1,
		BoundCount: 1, BoundMinG: -3,
		OutNode: 4, OutG: -2.5,
		Changed: 1, RatioCount: 1, MinRatio: 0.7,
	}
	b := protocol.Aggregate{
		SumG: -0.5, SumH: -0.5, SumX: 0.5, Count: 1,
		MinG: -0.5, MaxG: -0.5,
		OutNode: 2, OutG: -2.5, // exact OutG tie: lower id must win
		RatioCount: 2, MinRatio: 0.4,
	}
	ab, ba := a, b
	combineAggregate(&ab, b)
	combineAggregate(&ba, a)
	if ab != ba {
		t.Fatalf("combine not commutative:\n a+b = %+v\n b+a = %+v", ab, ba)
	}
	if ab.Count != 3 || ab.MinG != -3 || ab.MaxG != -0.5 {
		t.Errorf("extrema wrong: %+v", ab)
	}
	if ab.OutNode != 2 {
		t.Errorf("OutNode = %d, want 2 (lower id wins the exact tie)", ab.OutNode)
	}
	if ab.BoundCount != 1 || ab.BoundMinG != -3 {
		t.Errorf("boundary fold wrong: %+v", ab)
	}
	if ab.RatioCount != 3 || ab.MinRatio != 0.4 {
		t.Errorf("ratio fold wrong: %+v", ab)
	}
	if ab.Changed != 1 {
		t.Errorf("Changed = %d, want 1", ab.Changed)
	}
}

func TestCombineAggregateEmptySides(t *testing.T) {
	// An all-excluded subtree contributes only its nomination; folding it
	// in must not disturb extrema validity.
	empty := protocol.Aggregate{OutNode: 7, OutG: -1.25}
	full := protocol.Aggregate{SumG: -2, SumX: 1, Count: 1, MinG: -2, MaxG: -2, OutNode: -1}
	acc := full
	combineAggregate(&acc, empty)
	if acc.Count != 1 || acc.MinG != -2 || acc.MaxG != -2 {
		t.Errorf("extrema corrupted by empty side: %+v", acc)
	}
	if acc.OutNode != 7 || acc.OutG != -1.25 {
		t.Errorf("nomination lost: %+v", acc)
	}
	acc = empty
	combineAggregate(&acc, full)
	if acc.Count != 1 || acc.MinG != -2 || acc.MaxG != -2 {
		t.Errorf("extrema not adopted from full side: %+v", acc)
	}
}

func TestMergeExtremaIdempotent(t *testing.T) {
	a := protocol.GossipExtrema{HasInt: true, IntMinG: -4, IntMaxG: -1, BoundOK: true, OutNode: -1}
	b := protocol.GossipExtrema{HasInt: true, IntMinG: -2, IntMaxG: -0.5, BoundOK: false,
		HasOut: true, OutG: -3, OutNode: 5}
	merged := a
	mergeExtrema(&merged, b)
	again := merged
	mergeExtrema(&again, b)
	if merged != again {
		t.Fatalf("merge not idempotent: %+v vs %+v", merged, again)
	}
	if merged.IntMinG != -4 || merged.IntMaxG != -0.5 || merged.BoundOK {
		t.Errorf("merge wrong: %+v", merged)
	}
	if !merged.HasOut || merged.OutNode != 5 {
		t.Errorf("nomination lost: %+v", merged)
	}
}

func TestPickPeerDeterministicAndInRange(t *testing.T) {
	neighbors := []int{3, 9, 12}
	seen := map[int]bool{}
	for tick := 0; tick < 64; tick++ {
		p := pickPeer(42, 0, 1, tick, 7, neighbors)
		if p != pickPeer(42, 0, 1, tick, 7, neighbors) {
			t.Fatal("pickPeer not deterministic")
		}
		if !slices.Contains(neighbors, p) {
			t.Fatalf("pick %d outside neighbor set", p)
		}
		seen[p] = true
	}
	if len(seen) != len(neighbors) {
		t.Errorf("64 ticks hit only %d of %d neighbors", len(seen), len(neighbors))
	}
	if pickPeer(42, 0, 0, 0, 0, nil) != -1 {
		t.Error("empty neighbor set must yield -1")
	}
}
