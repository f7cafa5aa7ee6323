package core_test

// Regression tests for domain-overshoot recovery: a dynamically sized
// step can land the iterate outside the cost model's domain entirely
// (λ·xᵢ ≥ μᵢ drives a queue unstable, so Utility errors rather than
// returning a low number). Cold and warm solves must treat that exactly
// like a utility decrease — backtrack from the saved iterate — instead of
// aborting the solve. Before the fix the warm path surfaced
// "core: warm step N: costmodel: queue unstable at allocation" and a
// live re-plan under a demand shift could never adopt a plan.

import (
	"context"
	"math"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

// overshootInstance is a 5-node system whose demand exceeds any single
// node's capacity, with access costs that pull most mass onto node 0:
// the utility-maximizing trajectory presses against node 0's stability
// boundary, and the Theorem-2 stepsize (evaluated at the pre-step
// point, where curvature is still mild) overshoots straight past it.
func overshootInstance(t *testing.T) *costmodel.SingleFile {
	t.Helper()
	acc := []float64{0.1, 0.5, 2, 2, 2}
	svc := []float64{39.6, 39.6, 39.6, 39.6, 39.6}
	m, err := costmodel.NewSingleFile(acc, svc, 40, 1)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	return m
}

func overshootAllocator(t *testing.T, m *costmodel.SingleFile) *core.Allocator {
	t.Helper()
	a, err := core.NewAllocator(m,
		core.WithDynamicAlpha(0.9),
		core.WithEpsilon(1e-9),
		core.WithKKTCheck())
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	return a
}

// requireStable asserts the returned allocation is inside the model's
// domain: a solve that recovered from an overshoot must hand back a
// feasible, queue-stable plan, never the overshot iterate.
func requireStable(t *testing.T, x []float64, lambda, mu float64) {
	t.Helper()
	sum := 0.0
	for i, xi := range x {
		if xi < 0 {
			t.Errorf("x[%d] = %v is negative", i, xi)
		}
		if lambda*xi >= mu {
			t.Errorf("x[%d] = %v puts λ·x = %v at or past μ = %v", i, xi, lambda*xi, mu)
		}
		sum += xi
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("Σx = %v, want 1", sum)
	}
}

// TestWarmSolveRecoversFromDomainOvershoot is the live re-plan scenario:
// warm-start from the stale (uniform-demand) optimum after the access
// costs shifted to favor node 0. The incremental trajectory overshoots
// node 0 into queue instability mid-budget; the solve must backtrack or
// escalate to the cold fallback and still land on a stable optimum.
func TestWarmSolveRecoversFromDomainOvershoot(t *testing.T) {
	m := overshootInstance(t)
	warm, err := core.NewWarmSolver(overshootAllocator(t, m), core.WarmConfig{MaxSteps: 32})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	stale := []float64{0.2, 0.2, 0.2, 0.2, 0.2}
	res, _, err := warm.SolveWarm(context.Background(), stale, core.NewScratch())
	if err != nil {
		t.Fatalf("SolveWarm: %v", err)
	}
	if !res.Converged {
		t.Fatalf("warm solve did not converge: %+v", res)
	}
	requireStable(t, res.X, 40, 39.6)
	if res.X[0] < res.X[1] || res.X[1] < res.X[2] {
		t.Errorf("allocation %v does not favor the cheap nodes", res.X)
	}
}

// TestColdSolveRecoversFromDomainOvershoot pins the same guard in a cold
// solve, which the warm path escalates to.
func TestColdSolveRecoversFromDomainOvershoot(t *testing.T) {
	m := overshootInstance(t)
	res, err := overshootAllocator(t, m).Run(context.Background(), []float64{0.2, 0.2, 0.2, 0.2, 0.2})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("cold solve did not converge: %+v", res)
	}
	requireStable(t, res.X, 40, 39.6)
}

// TestSecondOrderGuardOnServingInstance is the serving re-planner's
// shape: every node's service rate is below the total demand (μ_i < λ),
// so a full Newton step — exact only for a quadratic — can lower U or
// drive a queue past its service rate. The backtracking guard must keep
// every iteration an ascent, up to rounding, inside the domain, and the
// warm re-solve from the stale uniform plan must end converged, on the
// warm path, and certified by costmodel.VerifyKKT. The second instance
// is a live re-plan whose Newton steps near the optimum gain less than
// U's rounding: a guard that backtracked those drops halved α until
// nothing moved and burned the whole iteration budget.
func TestSecondOrderGuardOnServingInstance(t *testing.T) {
	for _, tc := range []struct {
		name     string
		acc, svc []float64
		lambda   float64
	}{
		{"overshoot", []float64{0.1, 0.5, 2, 2, 2}, []float64{39.6, 39.6, 39.6, 39.6, 39.6}, 40},
		{"rounding-level gains",
			[]float64{2.4999999999999996, 2.55, 2.1999999999999997, 2.2499999999999996, 2.5},
			[]float64{39.60000000000001, 39.60000000000001, 39.60000000000001, 39.60000000000001, 39.60000000000001},
			47.331050091768766},
	} {
		t.Run(tc.name, func(t *testing.T) {
			m, err := costmodel.NewSingleFile(tc.acc, tc.svc, tc.lambda, 1)
			if err != nil {
				t.Fatalf("NewSingleFile: %v", err)
			}
			prevU := math.Inf(-1)
			a, err := core.NewAllocator(m,
				core.WithSecondOrder(),
				core.WithEpsilon(1e-9),
				core.WithKKTCheck(),
				core.WithTrace(func(it core.Iteration) {
					if it.Index > 0 && it.Utility < prevU-1e-12*math.Max(1, math.Abs(prevU)) {
						t.Errorf("iteration %d: utility fell %v -> %v", it.Index, prevU, it.Utility)
					}
					prevU = it.Utility
				}))
			if err != nil {
				t.Fatalf("NewAllocator: %v", err)
			}
			warm, err := core.NewWarmSolver(a, core.WarmConfig{
				MaxSteps: 32,
				Certify:  func(x []float64, q float64) error { return m.VerifyKKT(x, q, 1e-6) },
			})
			if err != nil {
				t.Fatalf("NewWarmSolver: %v", err)
			}
			res, fellBack, err := warm.SolveWarm(context.Background(), []float64{0.2, 0.2, 0.2, 0.2, 0.2}, core.NewScratch())
			if err != nil {
				t.Fatalf("SolveWarm: %v", err)
			}
			if fellBack || !res.Converged {
				t.Fatalf("fellBack=%v, result %+v; want a converged warm exit", fellBack, res)
			}
			requireStable(t, res.X, tc.lambda, tc.svc[0])
			want, err := m.SolveKKT(1e-12)
			if err != nil {
				t.Fatalf("SolveKKT: %v", err)
			}
			if err := m.VerifyKKT(res.X, want.Q, 1e-6); err != nil {
				t.Errorf("plan %v not certified: %v", res.X, err)
			}
		})
	}
}
