package core_test

// Property tests for the two theorems the whole mechanism rests on,
// checked after EVERY iteration of 1000 seeded random systems rather than
// only at convergence: Theorem 1 (the step construction conserves Σx = 1
// and non-negativity, so every iterate is a feasible allocation) and
// Theorem 2 (under the derived stepsize bound, evaluated dynamically each
// iteration, the utility never decreases) — plus, at exit, agreement with
// costmodel's independent water-filling optimum. The package is core_test
// because the instances are real M/M/1 cost models from costmodel, which
// itself imports core.

import (
	"context"
	"math"
	"math/rand"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// propertyInstance is one randomly drawn single-file system plus a
// feasible starting allocation.
type propertyInstance struct {
	model *costmodel.SingleFile
	x0    []float64
}

// randomInstance draws (N, λ, μ, C, x₀) with λ bounded away from the
// slowest node's service rate, so every point of the simplex is a stable
// M/M/1 configuration and the utility stays finite along any trajectory.
func randomInstance(t *testing.T, r *rand.Rand) propertyInstance {
	t.Helper()
	n := 2 + r.Intn(7)
	access := make([]float64, n)
	service := make([]float64, n)
	minMu := math.Inf(1)
	for i := range access {
		access[i] = 0.1 + 9.9*r.Float64()
		service[i] = 1.2 + 3.8*r.Float64()
		if service[i] < minMu {
			minMu = service[i]
		}
	}
	lambda := (0.1 + 0.7*r.Float64()) * minMu
	k := 0.5 + 1.5*r.Float64()
	m, err := costmodel.NewSingleFile(access, service, lambda, k)
	if err != nil {
		t.Fatalf("drawing instance: %v", err)
	}
	x0 := make([]float64, n)
	group := make([]int, n)
	for i := range x0 {
		group[i] = i
		x0[i] = 0.05 + r.Float64()
		// Start some instances on the boundary: zero fragments exercise
		// the active-set re-admission path of PlanStep.
		if r.Float64() < 0.15 {
			x0[i] = 0
		}
	}
	if err := core.Renormalize(x0, group); err != nil {
		t.Fatalf("normalizing start: %v", err)
	}
	return propertyInstance{model: m, x0: x0}
}

// TestTheoremInvariantsRandomized is the solver's differential oracle. It
// runs every solver combination — first order at a fixed α, first order
// at the dynamic Theorem-2 α, the section 8.2 second-order direction, and
// a warm solve under its step budget with a VerifyKKT certificate — on
// the same 1000 seeded random systems and asserts:
//
//   - after every iteration, Σx = 1 to within 1e-12 and x ≥ 0
//     (Theorem 1);
//   - after every iteration of the combinations whose ascent is
//     guaranteed (the dynamic α and the second-order step, whose
//     backtracking guard enforces it), U(x_t) ≥ U(x_{t-1}) up to
//     1-ulp-scale rounding (Theorem 2);
//   - at exit, the run converged and its allocation matches the
//     independent water-filling optimum of costmodel.SolveKKT to within
//     oracleTol in every coordinate.
func TestTheoremInvariantsRandomized(t *testing.T) {
	// ε = 1e-6 on the marginal-utility spread leaves at most ~2e-5 of
	// allocation error on these draws (ε over the smallest curvature);
	// oracleTol is five times that.
	const (
		epsilon   = 1e-6
		oracleTol = 1e-4
		trials    = 1000
	)
	combos := []struct {
		name     string
		opts     []core.Option
		warm     bool // solve through a WarmSolver certified by VerifyKKT
		monotone bool // Theorem 2 holds at every iteration
	}{
		{name: "first-order fixed alpha", opts: []core.Option{core.WithAlpha(0.05)}},
		{name: "first-order dynamic alpha", opts: []core.Option{core.WithDynamicAlpha(0.5)}, monotone: true},
		{name: "second-order", opts: []core.Option{core.WithSecondOrder()}, monotone: true},
		{name: "warm budget with VerifyKKT", opts: []core.Option{core.WithDynamicAlpha(0.5)}, warm: true, monotone: true},
	}
	r := rand.New(rand.NewSource(1986))
	instances := make([]propertyInstance, trials)
	for i := range instances {
		instances[i] = randomInstance(t, r)
	}
	for _, combo := range combos {
		t.Run(combo.name, func(t *testing.T) {
			for trial, inst := range instances {
				var (
					prevU    float64
					worstSum float64
				)
				trace := func(it core.Iteration) {
					var sum float64
					for i, v := range it.X {
						if v < 0 || math.IsNaN(v) {
							t.Fatalf("trial %d iter %d: x[%d] = %v violates Theorem 1 non-negativity", trial, it.Index, i, v)
						}
						sum += v
					}
					if d := math.Abs(sum - 1); d > worstSum {
						worstSum = d
					}
					// Index 0 opens a solve (a warm fallback opens a second
					// one from the warm iterate).
					if combo.monotone && it.Index > 0 {
						tol := 1e-12 * math.Max(1, math.Abs(prevU))
						if it.Utility < prevU-tol {
							t.Fatalf("trial %d iter %d: utility fell %v -> %v under the Theorem-2 stepsize bound",
								trial, it.Index, prevU, it.Utility)
						}
					}
					prevU = it.Utility
				}
				opts := append([]core.Option{
					core.WithEpsilon(epsilon),
					core.WithMaxIterations(20000),
					core.WithKKTCheck(),
					core.WithTrace(trace),
				}, combo.opts...)
				alloc, err := core.NewAllocator(inst.model, opts...)
				if err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				var res core.Result
				if combo.warm {
					warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
						Certify: func(x []float64, q float64) error { return inst.model.VerifyKKT(x, q, 1e-4) },
					})
					if err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
					res, err = warm.Solve(context.Background(), inst.x0, nil)
					if err != nil {
						t.Fatalf("trial %d: %v", trial, err)
					}
				} else if res, err = alloc.Run(context.Background(), inst.x0); err != nil {
					t.Fatalf("trial %d: %v", trial, err)
				}
				if worstSum > 1e-12 {
					t.Fatalf("trial %d: Σx drifted %g from 1 after %d iterations", trial, worstSum, res.Iterations)
				}
				if !res.Converged {
					t.Fatalf("trial %d: stopped %v after %d iterations", trial, res.Reason, res.Iterations)
				}
				want, err := inst.model.SolveKKT(1e-12)
				if err != nil {
					t.Fatalf("trial %d: SolveKKT: %v", trial, err)
				}
				for i := range want.X {
					if d := math.Abs(res.X[i] - want.X[i]); d > oracleTol {
						t.Fatalf("trial %d: x[%d] = %v, water-filling optimum %v (|Δ| = %g > %g)",
							trial, i, res.X[i], want.X[i], d, oracleTol)
					}
				}
			}
		})
	}
}

// TestRenormalizeGroupOrderInvariant proves Renormalize is a function of
// the group as a SET: 1000 seeded random allocations, each renormalized
// under two different permutations of the same survivor group, must agree
// bit for bit — the cross-node determinism membership churn depends on —
// and pin the survivor sum to 1 within 1 ulp.
func TestRenormalizeGroupOrderInvariant(t *testing.T) {
	r := rand.New(rand.NewSource(424242))
	for trial := 0; trial < 1000; trial++ {
		n := 1 + r.Intn(10)
		x := make([]float64, n)
		for i := range x {
			x[i] = r.Float64() * math.Pow(10, float64(r.Intn(7)-3))
			if r.Float64() < 0.2 {
				x[i] = 0
			}
		}
		group := r.Perm(n)[:1+r.Intn(n)]
		shuffled := append([]int(nil), group...)
		r.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

		a := append([]float64(nil), x...)
		b := append([]float64(nil), x...)
		if err := core.Renormalize(a, group); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if err := core.Renormalize(b, shuffled); err != nil {
			t.Fatalf("trial %d (shuffled): %v", trial, err)
		}
		for i := range a {
			if math.Float64bits(a[i]) != math.Float64bits(b[i]) {
				t.Fatalf("trial %d: group order changed the result at x[%d]: %v vs %v (group %v vs %v)",
					trial, i, a[i], b[i], group, shuffled)
			}
		}
		var sum float64
		for _, gi := range group {
			sum += a[gi]
		}
		// Sum the canonical ascending order like Renormalize's own
		// post-condition does; 1 ulp around 1 is 2^-52.
		var ascSum float64
		for i := 0; i < n; i++ {
			for _, gi := range group {
				if gi == i {
					ascSum += a[gi]
				}
			}
		}
		if d := math.Abs(ascSum - 1); d > 0x1p-52 {
			t.Fatalf("trial %d: survivor sum %v is %g off 1 (unordered sum %v)", trial, ascSum, d, sum)
		}
	}
}
