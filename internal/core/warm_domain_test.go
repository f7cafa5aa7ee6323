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
