package catalog

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// TestWarmResolveMatchesColdProperty is the correctness property behind
// the warm path: across a thousand randomized drift instances, a warm
// re-solve seeded from the stale optimum lands on the same allocation as
// a cold solve of the drifted problem from scratch, and every warm
// early-exit carries a KKT certificate.
func TestWarmResolveMatchesColdProperty(t *testing.T) {
	instances := 1000
	if testing.Short() {
		instances = 100
	}
	rng := rand.New(rand.NewSource(7))
	ctx := context.Background()
	warmScratch, coldScratch := core.NewScratch(), core.NewScratch()
	warmCount, certified := 0, 0

	for inst := 0; inst < instances; inst++ {
		n := 2 + rng.Intn(7)
		access := make([]float64, n)
		for i := range access {
			access[i] = 3 * rng.Float64()
		}
		mu := 1.2 + rng.Float64() // λ = 1, so every allocation is stable
		k := 0.1 + 1.9*rng.Float64()
		model, err := costmodel.NewSingleFile(access, []float64{mu}, 1, k)
		if err != nil {
			t.Fatalf("instance %d: NewSingleFile: %v", inst, err)
		}
		// The catalog's own solver: Newton steps under the backtracking
		// guard.
		alloc, err := core.NewAllocator(model,
			core.WithSecondOrder(),
			core.WithEpsilon(1e-6),
			core.WithKKTCheck())
		if err != nil {
			t.Fatalf("instance %d: NewAllocator: %v", inst, err)
		}
		warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
			MaxSteps: 32,
			Certify: func(x []float64, q float64) error {
				certified++
				return model.VerifyKKT(x, q, 1e-5)
			},
		})
		if err != nil {
			t.Fatalf("instance %d: NewWarmSolver: %v", inst, err)
		}

		uniform := make([]float64, n)
		for i := range uniform {
			uniform[i] = 1 / float64(n)
		}
		staleRes, err := alloc.Solve(ctx, uniform, coldScratch)
		if err != nil {
			t.Fatalf("instance %d: pre-drift solve: %v", inst, err)
		}
		stale := append([]float64(nil), staleRes.X...)

		// Drift: re-scale every access cost by a random factor in
		// [0.25, 1.75] — a large move of the communication geometry.
		drifted := make([]float64, n)
		for i := range drifted {
			drifted[i] = access[i] * (0.25 + 1.5*rng.Float64())
		}
		if err := model.SetAccessCosts(drifted); err != nil {
			t.Fatalf("instance %d: SetAccessCosts: %v", inst, err)
		}

		certBefore := certified
		warmRes, fellBack, err := warm.SolveWarm(ctx, stale, warmScratch)
		if err != nil {
			t.Fatalf("instance %d: warm solve: %v", inst, err)
		}
		if !warmRes.Converged {
			t.Fatalf("instance %d: warm solve did not converge: %+v", inst, warmRes)
		}
		if !fellBack {
			warmCount++
			if certified != certBefore+1 {
				t.Fatalf("instance %d: warm early-exit without exactly one KKT certificate (%d calls)",
					inst, certified-certBefore)
			}
		}
		warmX := append([]float64(nil), warmRes.X...)

		coldRes, err := alloc.Solve(ctx, uniform, coldScratch)
		if err != nil {
			t.Fatalf("instance %d: cold re-solve: %v", inst, err)
		}
		for i := range warmX {
			if d := math.Abs(warmX[i] - coldRes.X[i]); d > 1e-4 {
				t.Fatalf("instance %d: warm and cold disagree at node %d: %v vs %v (Δ=%v)",
					inst, i, warmX[i], coldRes.X[i], d)
			}
		}
	}

	// The warm path must be the common case, or the catalog's speedup
	// story is fiction.
	if warmCount < instances/2 {
		t.Errorf("only %d of %d instances converged on the warm path", warmCount, instances)
	}
	t.Logf("warm path: %d/%d instances, %d certificates", warmCount, instances, certified)
}
