package core

import (
	"context"
	"errors"
	"math"
	"testing"
)

func warmPair(t *testing.T, n int, opts ...Option) (*Allocator, *WarmSolver) {
	t.Helper()
	if len(opts) == 0 {
		// α = 0.4/n puts the quad objective's per-step contraction factor
		// at |1 − 2nα| = 0.2: fast, monotone, no boundary overshoot.
		opts = []Option{WithAlpha(0.4 / float64(n)), WithEpsilon(1e-6), WithKKTCheck()}
	}
	cold, err := NewAllocator(quad{n}, opts...)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	warm, err := NewWarmSolver(cold, WarmConfig{})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	return cold, warm
}

func uniformInit(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return x
}

func maxAbsDiff(a, b []float64) float64 {
	var m float64
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > m {
			m = d
		}
	}
	return m
}

// TestAllocatorSolveMatchesRunWithScratch pins the cold Solve:
// Allocator.Solve is RunWithScratch under the name WarmSolver.Solve shares.
func TestAllocatorSolveMatchesRunWithScratch(t *testing.T) {
	cold, _ := warmPair(t, 5)
	init := uniformInit(5)
	got, err := cold.Solve(context.Background(), init, nil)
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	want, err := cold.RunWithScratch(context.Background(), init, nil)
	if err != nil {
		t.Fatalf("RunWithScratch: %v", err)
	}
	if got.Utility != want.Utility || got.Iterations != want.Iterations || got.Reason != want.Reason {
		t.Errorf("Solve = %+v, RunWithScratch = %+v", got, want)
	}
	if d := maxAbsDiff(got.X, want.X); d != 0 {
		t.Errorf("allocations differ by %v", d)
	}
}

// TestWarmSolveFromStaleAllocation is the warm-start contract: seeded
// near the optimum, the incremental path converges to the cold solve's
// allocation in a handful of steps without falling back.
func TestWarmSolveFromStaleAllocation(t *testing.T) {
	const n = 6
	cold, warm := warmPair(t, n)
	ctx := context.Background()
	coldRes, err := cold.Run(ctx, uniformInit(n))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}

	// A stale allocation: the optimum with mass shifted between the two
	// best-endowed nodes (high indices hold the mass for quad).
	stale := append([]float64(nil), coldRes.X...)
	shift := math.Min(0.02, stale[n-2])
	stale[n-1] += shift
	stale[n-2] -= shift

	res, fellBack, err := warm.SolveWarm(ctx, stale, NewScratch())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if fellBack {
		t.Errorf("warm solve fell back to cold for a %v-shift stale start", shift)
	}
	if !res.Converged || res.Reason != StopConverged {
		t.Errorf("warm result not converged: %+v", res)
	}
	if res.Iterations >= coldRes.Iterations {
		t.Errorf("warm took %d steps, cold took %d — no warm-start advantage", res.Iterations, coldRes.Iterations)
	}
	if d := maxAbsDiff(res.X, coldRes.X); d > 1e-5 {
		t.Errorf("warm and cold optima differ by %v", d)
	}
}

// TestWarmSolveAlreadyOptimal: re-solving from the optimum itself takes
// zero steps.
func TestWarmSolveAlreadyOptimal(t *testing.T) {
	const n = 4
	cold, warm := warmPair(t, n)
	ctx := context.Background()
	coldRes, err := cold.Run(ctx, uniformInit(n))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	res, fellBack, err := warm.SolveWarm(ctx, coldRes.X, NewScratch())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if fellBack || res.Iterations != 0 || !res.Converged {
		t.Errorf("re-solve of the optimum: fellBack=%v iterations=%d converged=%v, want false/0/true",
			fellBack, res.Iterations, res.Converged)
	}
}

// TestWarmSolveFallsBackWhenBudgetExhausted: a distant start cannot
// converge in one step, so the solve escalates to the cold path and still
// lands on the optimum.
func TestWarmSolveFallsBackWhenBudgetExhausted(t *testing.T) {
	const n = 6
	cold, _ := warmPair(t, n)
	warm, err := NewWarmSolver(cold, WarmConfig{MaxSteps: 1})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	ctx := context.Background()
	coldRes, err := cold.Run(ctx, uniformInit(n))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	far := make([]float64, n)
	far[0] = 1
	res, fellBack, err := warm.SolveWarm(ctx, far, NewScratch())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !fellBack {
		t.Error("one-step budget from a concentrated start did not fall back")
	}
	if !res.Converged {
		t.Errorf("fallback did not converge: %+v", res)
	}
	if d := maxAbsDiff(res.X, coldRes.X); d > 1e-5 {
		t.Errorf("fallback and cold optima differ by %v", d)
	}
}

// TestWarmSolveFallbackCountsWarmSteps: after a fallback, Iterations
// totals the warm steps and the cold continuation's, here counted
// independently by the trace hook. A one-step budget falls back after
// one warm step; a vetoed certificate after every warm step it took.
func TestWarmSolveFallbackCountsWarmSteps(t *testing.T) {
	const n = 6
	steps := 0
	cold, _ := warmPair(t, n, WithAlpha(0.4/float64(n)), WithEpsilon(1e-6), WithKKTCheck(),
		WithTrace(func(it Iteration) {
			if it.Index > 0 {
				steps++
			}
		}))
	far := make([]float64, n)
	far[0] = 1
	for _, tc := range []struct {
		name string
		cfg  WarmConfig
	}{
		{"budget 1", WarmConfig{MaxSteps: 1}},
		{"vetoed certificate", WarmConfig{Certify: func([]float64, float64) error { return errors.New("veto") }}},
	} {
		warm, err := NewWarmSolver(cold, tc.cfg)
		if err != nil {
			t.Fatalf("%s: NewWarmSolver: %v", tc.name, err)
		}
		steps = 0
		res, fellBack, err := warm.SolveWarm(context.Background(), far, NewScratch())
		if err != nil {
			t.Fatalf("%s: warm: %v", tc.name, err)
		}
		if !fellBack || !res.Converged {
			t.Errorf("%s: fellBack=%v converged=%v, want a converged fallback", tc.name, fellBack, res.Converged)
		}
		if res.Iterations != steps {
			t.Errorf("%s: Iterations = %d, the solve stepped %d times", tc.name, res.Iterations, steps)
		}
	}
}

// TestWarmSolveCertification exercises the Certify hook on both sides: a
// passing certificate keeps the warm exit; a vetoing one forces the cold
// fallback even though the internal criterion held.
func TestWarmSolveCertification(t *testing.T) {
	const n = 5
	cold, _ := warmPair(t, n)
	ctx := context.Background()
	coldRes, err := cold.Run(ctx, uniformInit(n))
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	stale := append([]float64(nil), coldRes.X...)
	stale[n-1] += 0.01
	stale[n-2] -= 0.01

	calls := 0
	var gotQ float64
	pass, err := NewWarmSolver(cold, WarmConfig{Certify: func(x []float64, q float64) error {
		calls++
		gotQ = q
		var sum float64
		for _, xi := range x {
			sum += xi
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Errorf("certify saw an infeasible allocation (sum %v)", sum)
		}
		return nil
	}})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	res, fellBack, err := pass.SolveWarm(ctx, stale, NewScratch())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if calls != 1 || fellBack || !res.Converged {
		t.Errorf("passing certificate: calls=%d fellBack=%v converged=%v, want 1/false/true", calls, fellBack, res.Converged)
	}
	if math.IsNaN(gotQ) || math.IsInf(gotQ, 0) {
		t.Errorf("certify saw q = %v", gotQ)
	}

	veto, err := NewWarmSolver(cold, WarmConfig{Certify: func([]float64, float64) error {
		return errors.New("not optimal enough")
	}})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	res, fellBack, err = veto.SolveWarm(ctx, stale, NewScratch())
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if !fellBack {
		t.Error("vetoed certificate did not force the cold fallback")
	}
	if d := maxAbsDiff(res.X, coldRes.X); d > 1e-5 {
		t.Errorf("vetoed solve diverged from the cold optimum by %v", d)
	}
}

func TestWarmSolveInfeasibleInit(t *testing.T) {
	_, warm := warmPair(t, 4)
	bad := []float64{0.5, 0.5, 0.5, -0.5}
	if _, _, err := warm.SolveWarm(context.Background(), bad, nil); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative init: err = %v, want ErrInfeasible", err)
	}
}

func TestWarmSolveCanceled(t *testing.T) {
	_, warm := warmPair(t, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	res, fellBack, err := warm.SolveWarm(ctx, uniformInit(4), nil)
	if err != nil {
		t.Fatalf("warm: %v", err)
	}
	if res.Reason != StopCanceled || fellBack {
		t.Errorf("canceled solve: reason=%v fellBack=%v, want canceled/false", res.Reason, fellBack)
	}
}

func TestNewWarmSolverValidation(t *testing.T) {
	if _, err := NewWarmSolver(nil, WarmConfig{}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("nil allocator: err = %v, want ErrBadConfig", err)
	}
	cold, _ := warmPair(t, 3)
	if _, err := NewWarmSolver(cold, WarmConfig{MaxSteps: -2}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("negative budget: err = %v, want ErrBadConfig", err)
	}
}

// TestWarmSolveSteadyStateAllocFree pins the warm-solve hot path at zero
// heap allocations once the scratch is warm — the catalog's re-solve loop
// relies on it (satellite of the //fap:zeroalloc annotation on iterate).
func TestWarmSolveSteadyStateAllocFree(t *testing.T) {
	const n = 32
	cold, err := NewAllocator(quad{n}, WithAlpha(0.4/n), WithEpsilon(1e-6))
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	warm, err := NewWarmSolver(cold, WarmConfig{})
	if err != nil {
		t.Fatalf("NewWarmSolver: %v", err)
	}
	ctx := context.Background()
	s := NewScratch()
	coldRes, err := cold.RunWithScratch(ctx, uniformInit(n), s)
	if err != nil {
		t.Fatalf("cold: %v", err)
	}
	stale := append([]float64(nil), coldRes.X...)
	stale[n-1] += 0.005
	stale[n-2] -= 0.005
	if _, _, err := warm.SolveWarm(ctx, stale, s); err != nil {
		t.Fatalf("warm-up solve: %v", err)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := warm.SolveWarm(ctx, stale, s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm SolveWarm allocated %.1f objects per call, want 0", allocs)
	}
	if allocs := testing.AllocsPerRun(100, func() {
		if _, _, err := cold.iterate(ctx, s, 0, warm); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("warm phase of iterate allocated %.1f objects per call, want 0", allocs)
	}
}
