package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"testing"
)

// quadObjective is a simple separable concave test utility
// U(x) = −Σ w_i (x_i − t_i)², whose unconstrained optimum is x = t.
type quadObjective struct {
	weights []float64
	targets []float64
	groups  [][]int
	gradErr error
}

func (q *quadObjective) Dim() int { return len(q.weights) }

func (q *quadObjective) Utility(x []float64) (float64, error) {
	var u float64
	for i, w := range q.weights {
		d := x[i] - q.targets[i]
		u -= w * d * d
	}
	return u, nil
}

func (q *quadObjective) Gradient(grad, x []float64) error {
	if q.gradErr != nil {
		return q.gradErr
	}
	for i, w := range q.weights {
		grad[i] = -2 * w * (x[i] - q.targets[i])
	}
	return nil
}

func (q *quadObjective) SecondDerivative(hess, x []float64) error {
	for i, w := range q.weights {
		hess[i] = -2 * w
	}
	return nil
}

func (q *quadObjective) Groups() [][]int {
	if q.groups == nil {
		return nil
	}
	return q.groups
}

func uniformQuad(n int) *quadObjective {
	q := &quadObjective{weights: make([]float64, n), targets: make([]float64, n)}
	for i := range q.weights {
		q.weights[i] = 1
		q.targets[i] = 0.1 * float64(i+1)
	}
	return q
}

func TestAllocatorConvergesToInteriorOptimum(t *testing.T) {
	// Equal weights: the constrained optimum equalizes gradients,
	// x_i = t_i + c with c chosen so Σx = 1.
	q := uniformQuad(4) // targets 0.1..0.4, sum 1.0 → optimum exactly t
	alloc, err := NewAllocator(q, WithAlpha(0.2), WithEpsilon(1e-9))
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(context.Background(), []float64{0.25, 0.25, 0.25, 0.25})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	for i, want := range q.targets {
		if math.Abs(res.X[i]-want) > 1e-6 {
			t.Errorf("x[%d] = %g, want %g", i, res.X[i], want)
		}
	}
}

func TestAllocatorMonotoneUtility(t *testing.T) {
	q := uniformQuad(5)
	var utilities []float64
	alloc, err := NewAllocator(q,
		WithAlpha(0.1),
		WithEpsilon(1e-8),
		WithTrace(func(it Iteration) { utilities = append(utilities, it.Utility) }),
	)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	if _, err := alloc.Run(context.Background(), []float64{1, 0, 0, 0, 0}); err != nil {
		t.Fatalf("Run: %v", err)
	}
	if len(utilities) < 3 {
		t.Fatalf("trace too short: %d entries", len(utilities))
	}
	for i := 1; i < len(utilities); i++ {
		if utilities[i] < utilities[i-1]-1e-12 {
			t.Errorf("utility decreased at iteration %d: %g -> %g", i, utilities[i-1], utilities[i])
		}
	}
}

func TestAllocatorRespectsGroups(t *testing.T) {
	// Two independent constraint groups; each must conserve its own
	// total (0.6 and 0.4 here).
	q := uniformQuad(4)
	q.groups = [][]int{{0, 1}, {2, 3}}
	alloc, err := NewAllocator(q, WithAlpha(0.2), WithEpsilon(1e-10))
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	init := []float64{0.6, 0.0, 0.0, 0.4}
	res, err := alloc.Run(context.Background(), init)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if got := res.X[0] + res.X[1]; math.Abs(got-0.6) > 1e-9 {
		t.Errorf("group 0 total = %g, want 0.6", got)
	}
	if got := res.X[2] + res.X[3]; math.Abs(got-0.4) > 1e-9 {
		t.Errorf("group 1 total = %g, want 0.4", got)
	}
}

func TestAllocatorInfeasibleStart(t *testing.T) {
	q := uniformQuad(3)
	alloc, err := NewAllocator(q)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	if _, err := alloc.Run(context.Background(), []float64{0.5, -0.1, 0.6}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative start: error = %v, want ErrInfeasible", err)
	}
	if _, err := alloc.Run(context.Background(), []float64{0.5, 0.5}); !errors.Is(err, ErrDimension) {
		t.Errorf("short start: error = %v, want ErrDimension", err)
	}
}

func TestAllocatorGradientErrorPropagates(t *testing.T) {
	q := uniformQuad(3)
	q.gradErr = fmt.Errorf("synthetic: %w", ErrUnstable)
	alloc, err := NewAllocator(q)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	if _, err := alloc.Run(context.Background(), []float64{0.4, 0.3, 0.3}); !errors.Is(err, ErrUnstable) {
		t.Errorf("error = %v, want wrapped ErrUnstable", err)
	}
}

func TestAllocatorMaxIterations(t *testing.T) {
	q := uniformQuad(4)
	alloc, err := NewAllocator(q, WithAlpha(0.001), WithEpsilon(1e-12), WithMaxIterations(5))
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(context.Background(), []float64{1, 0, 0, 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reason != StopMaxIterations || res.Iterations != 5 {
		t.Errorf("got %v after %d iterations, want max-iterations after 5", res.Reason, res.Iterations)
	}
	// Premature termination still yields a feasible allocation (the
	// paper's background-execution property).
	if got := sum(res.X); math.Abs(got-1) > 1e-9 {
		t.Errorf("premature allocation sums to %g, want 1", got)
	}
}

func TestAllocatorContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q := uniformQuad(4)
	alloc, err := NewAllocator(q)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(ctx, []float64{1, 0, 0, 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reason != StopCanceled {
		t.Errorf("reason = %v, want canceled", res.Reason)
	}
}

func TestAllocatorDynamicAlpha(t *testing.T) {
	q := uniformQuad(4)
	alloc, err := NewAllocator(q, WithEpsilon(1e-8), WithDynamicAlpha(0.5))
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(context.Background(), []float64{1, 0, 0, 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("dynamic alpha did not converge: %+v", res)
	}
	// For the quadratic with equal weights, the Theorem-2 expression is
	// 2Σd²/|Σh d²| = 2/(2w) = 1/w = 1; safety 0.5 halves it. The solver
	// must converge quickly with that stepsize.
	if res.Iterations > 100 {
		t.Errorf("dynamic alpha took %d iterations", res.Iterations)
	}
}

func TestAllocatorAdaptiveAlphaStopsOnCostDelta(t *testing.T) {
	q := uniformQuad(4)
	alloc, err := NewAllocator(q,
		WithAlpha(0.3),
		WithEpsilon(1e-300), // unreachable: force the cost-delta rule to fire
		WithAdaptiveAlpha(1e-12),
		WithMaxIterations(100000),
	)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(context.Background(), []float64{1, 0, 0, 0})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if res.Reason != StopCostDelta {
		t.Errorf("reason = %v, want cost-delta", res.Reason)
	}
}

func TestAllocatorKKTCheck(t *testing.T) {
	// Weighted quadratic whose optimum pins one variable to zero:
	// target -0.5 for variable 0 pulls it negative, so the constrained
	// optimum has x_0 = 0.
	q := &quadObjective{
		weights: []float64{1, 1, 1},
		targets: []float64{-0.5, 0.7, 0.8},
	}
	alloc, err := NewAllocator(q, WithAlpha(0.2), WithEpsilon(1e-9), WithKKTCheck())
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(context.Background(), []float64{0.4, 0.3, 0.3})
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if !res.Converged {
		t.Fatalf("did not converge: %+v", res)
	}
	if res.X[0] > 1e-9 {
		t.Errorf("x[0] = %g, want 0 (boundary optimum)", res.X[0])
	}
	// Interior variables share resource 1 equally offset from targets:
	// x_1 − 0.7 = x_2 − 0.8 with x_1 + x_2 = 1 → x = (0.45, 0.55).
	if math.Abs(res.X[1]-0.45) > 1e-6 || math.Abs(res.X[2]-0.55) > 1e-6 {
		t.Errorf("interior allocation = %v, want (0, 0.45, 0.55)", res.X)
	}
}

func TestNewAllocatorValidation(t *testing.T) {
	q := uniformQuad(3)
	tests := []struct {
		name string
		obj  Objective
		opts []Option
	}{
		{"nil objective", nil, nil},
		{"negative alpha", q, []Option{WithAlpha(-1)}},
		{"zero epsilon", q, []Option{WithEpsilon(0)}},
		{"zero iterations", q, []Option{WithMaxIterations(0)}},
		{"bad safety", q, []Option{WithDynamicAlpha(2)}},
		{"dynamic alpha without curvature", &noCurvature{}, []Option{WithDynamicAlpha(0.5)}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewAllocator(tt.obj, tt.opts...); !errors.Is(err, ErrBadConfig) {
				t.Errorf("error = %v, want ErrBadConfig", err)
			}
		})
	}
}

// noCurvature is an Objective that does not implement Curvature.
type noCurvature struct{}

func (*noCurvature) Dim() int                             { return 2 }
func (*noCurvature) Utility(x []float64) (float64, error) { return 0, nil }
func (*noCurvature) Gradient(grad, x []float64) error     { return nil }

type badGroups struct {
	*quadObjective
	groups [][]int
}

func (b *badGroups) Groups() [][]int { return b.groups }

func TestGroupValidation(t *testing.T) {
	tests := []struct {
		name   string
		groups [][]int
	}{
		{"empty group", [][]int{{0, 1}, {}, {2}}},
		{"duplicate variable", [][]int{{0, 1}, {1, 2}}},
		{"uncovered variable", [][]int{{0, 1}}},
		{"out of range", [][]int{{0, 1, 7}, {2}}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			obj := &badGroups{quadObjective: uniformQuad(3), groups: tt.groups}
			if _, err := NewAllocator(obj); err == nil {
				t.Error("expected validation error, got nil")
			}
		})
	}
}

func TestStopReasonStrings(t *testing.T) {
	tests := []struct {
		r    StopReason
		want string
	}{
		{StopConverged, "converged"},
		{StopMaxIterations, "max-iterations"},
		{StopStalled, "stalled"},
		{StopCostDelta, "cost-delta"},
		{StopCanceled, "canceled"},
		{StopReason(99), "StopReason(99)"},
	}
	for _, tt := range tests {
		if got := tt.r.String(); got != tt.want {
			t.Errorf("%d.String() = %q, want %q", int(tt.r), got, tt.want)
		}
	}
}

// TestAllocatorRandomProblemsReachKKT verifies on random separable
// quadratics that the algorithm's fixed point satisfies the optimality
// conditions of section 5.3: equal gradients on the support, no better
// gradient off the support.
func TestAllocatorRandomProblemsReachKKT(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	for trial := 0; trial < 50; trial++ {
		n := 2 + rng.Intn(8)
		q := &quadObjective{weights: make([]float64, n), targets: make([]float64, n)}
		for i := 0; i < n; i++ {
			q.weights[i] = 0.5 + rng.Float64()*4
			q.targets[i] = rng.Float64()*1.4 - 0.4 // may force boundary optima
		}
		init := make([]float64, n)
		for i := range init {
			init[i] = rng.Float64()
		}
		total := sum(init)
		for i := range init {
			init[i] /= total
		}
		alloc, err := NewAllocator(q, WithAlpha(0.05), WithEpsilon(1e-9), WithKKTCheck(), WithMaxIterations(200000))
		if err != nil {
			t.Fatalf("trial %d: NewAllocator: %v", trial, err)
		}
		res, err := alloc.Run(context.Background(), init)
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: stopped with %v after %d iterations", trial, res.Reason, res.Iterations)
		}
		grad := make([]float64, n)
		if err := q.Gradient(grad, res.X); err != nil {
			t.Fatal(err)
		}
		// Reference multiplier: max gradient over the support.
		qStar := math.Inf(-1)
		for i, xi := range res.X {
			if xi > 1e-9 && grad[i] > qStar {
				qStar = grad[i]
			}
		}
		for i, xi := range res.X {
			if xi > 1e-9 {
				if math.Abs(grad[i]-qStar) > 1e-6 {
					t.Errorf("trial %d: support gradient %d = %g, want %g", trial, i, grad[i], qStar)
				}
			} else if grad[i] > qStar+1e-6 {
				t.Errorf("trial %d: boundary variable %d has gradient %g > q %g", trial, i, grad[i], qStar)
			}
		}
	}
}
