package core_test

// Tests for the section 8.2 second-derivative direction (WithSecondOrder,
// PlanSecondOrderStep): the pilot-study properties the paper reports —
// scale resilience and stepsize tolerance — plus convergence to the same
// optimum as the first-order algorithm, boundary optima, and the solver's
// budget and cancellation exits.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"testing"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
)

func mustModel(t *testing.T, access []float64, mu []float64, lambda, k float64) *costmodel.SingleFile {
	t.Helper()
	m, err := costmodel.NewSingleFile(access, mu, lambda, k)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	return m
}

// secondOrderRun solves m from init with the second-order direction.
func secondOrderRun(t *testing.T, ctx context.Context, m core.Objective, init []float64, opts ...core.Option) core.Result {
	t.Helper()
	alloc, err := core.NewAllocator(m, append([]core.Option{core.WithSecondOrder()}, opts...)...)
	if err != nil {
		t.Fatalf("NewAllocator: %v", err)
	}
	res, err := alloc.Run(ctx, init)
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	return res
}

func TestSecondOrder(t *testing.T) {
	fig := mustModel(t, []float64{2, 1, 3, 2}, []float64{1.5}, 1, 1)
	illConditioned := mustModel(t, []float64{1, 1, 1, 1}, []float64{2, 4, 8, 16}, 1, 1)
	var utilities []float64
	canceled, cancel := context.WithCancel(context.Background())
	cancel()

	type testCase struct {
		name  string
		model *costmodel.SingleFile
		opts  []core.Option
		init  []float64
		ctx   context.Context // nil means context.Background()
		check func(t *testing.T, res core.Result)
	}
	cases := []testCase{
		{
			name:  "converges to same optimum",
			model: fig, opts: []core.Option{core.WithEpsilon(1e-8)},
			init: []float64{0.25, 0.25, 0.25, 0.25},
			check: func(t *testing.T, res core.Result) {
				sol, err := fig.SolveKKT(1e-12)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Converged {
					t.Fatalf("did not converge: %+v", res)
				}
				if math.Abs(-res.Utility-sol.Cost) > 1e-6*(1+sol.Cost) {
					t.Errorf("cost %g vs KKT %g", -res.Utility, sol.Cost)
				}
			},
		},
		{
			// Section 8.2's claim: the second-derivative algorithm is
			// "resilient to changes in the scale of the problem, such as
			// would be caused by increasing the link costs". Scaling k and
			// all C_i by 100 must not change the iteration count, whereas
			// the first-order algorithm at a fixed α slows down or
			// diverges. ε scales with the utility so termination tests the
			// same relative accuracy.
			name:  "scale resilience",
			model: fig, opts: []core.Option{core.WithEpsilon(1e-6), core.WithMaxIterations(5000)},
			init: []float64{0.7, 0.1, 0.1, 0.1},
			check: func(t *testing.T, resBase core.Result) {
				scaled := mustModel(t, []float64{200, 100, 300, 200}, []float64{1.5}, 1, 100)
				resScaled := secondOrderRun(t, context.Background(), scaled, []float64{0.7, 0.1, 0.1, 0.1},
					core.WithEpsilon(1e-4), core.WithMaxIterations(5000))
				if !resBase.Converged || !resScaled.Converged {
					t.Fatalf("convergence failed: base %+v scaled %+v", resBase.Reason, resScaled.Reason)
				}
				diff := resBase.Iterations - resScaled.Iterations
				if diff < -2 || diff > 2 {
					t.Errorf("iteration counts diverge under scaling: %d vs %d", resBase.Iterations, resScaled.Iterations)
				}
				for i := range resBase.X {
					if math.Abs(resBase.X[i]-resScaled.X[i]) > 1e-3 {
						t.Errorf("x[%d]: %g vs %g", i, resBase.X[i], resScaled.X[i])
					}
				}
			},
		},
		{
			// Heterogeneous service rates make the curvature wildly
			// uneven; the Newton-like scaling should then need far fewer
			// iterations than the first-order algorithm at its best fixed
			// stepsize.
			name:  "faster than first order on ill-conditioned",
			model: illConditioned,
			opts:  []core.Option{core.WithEpsilon(1e-8)},
			init:  []float64{0.25, 0.25, 0.25, 0.25},
			check: func(t *testing.T, resSecond core.Result) {
				if !resSecond.Converged {
					t.Fatalf("second order did not converge: %+v", resSecond)
				}
				bestFirst := math.MaxInt
				for _, alpha := range []float64{0.05, 0.1, 0.2, 0.5, 1, 2} {
					first, err := core.NewAllocator(illConditioned, core.WithAlpha(alpha), core.WithEpsilon(1e-8), core.WithMaxIterations(100000))
					if err != nil {
						t.Fatal(err)
					}
					res, err := first.Run(context.Background(), []float64{0.25, 0.25, 0.25, 0.25})
					if err != nil || !res.Converged {
						continue
					}
					if res.Iterations < bestFirst {
						bestFirst = res.Iterations
					}
				}
				if bestFirst == math.MaxInt {
					t.Fatal("first-order algorithm never converged")
				}
				if resSecond.Iterations > bestFirst {
					t.Errorf("second order took %d iterations, first order best %d", resSecond.Iterations, bestFirst)
				}
			},
		},
		{
			// One node too expensive to host anything: second order must
			// land on the same boundary optimum.
			name:  "boundary optimum",
			model: mustModel(t, []float64{0, 0, 100}, []float64{3}, 1, 1),
			opts:  []core.Option{core.WithEpsilon(1e-9)},
			init:  []float64{0.3, 0.3, 0.4},
			check: func(t *testing.T, res core.Result) {
				if !res.Converged {
					t.Fatalf("did not converge: %+v", res)
				}
				if res.X[2] > 1e-9 {
					t.Errorf("x[2] = %g, want 0", res.X[2])
				}
				if math.Abs(res.X[0]-0.5) > 1e-6 || math.Abs(res.X[1]-0.5) > 1e-6 {
					t.Errorf("X = %v, want (0.5, 0.5, 0)", res.X)
				}
			},
		},
		{
			name:  "trace and monotonicity",
			model: fig,
			opts: []core.Option{
				core.WithAlpha(1),
				core.WithEpsilon(1e-8),
				core.WithTrace(func(it core.Iteration) { utilities = append(utilities, it.Utility) }),
			},
			init: []float64{0.7, 0.1, 0.1, 0.1},
			check: func(t *testing.T, _ core.Result) {
				if len(utilities) < 2 {
					t.Fatalf("trace too short: %d", len(utilities))
				}
				for i := 1; i < len(utilities); i++ {
					if utilities[i] < utilities[i-1]-1e-12 {
						t.Errorf("utility decreased at %d: %g -> %g", i, utilities[i-1], utilities[i])
					}
				}
			},
		},
		{
			name:  "max iterations",
			model: fig,
			opts:  []core.Option{core.WithAlpha(0.001), core.WithEpsilon(1e-15), core.WithMaxIterations(3)},
			init:  []float64{1, 0, 0, 0},
			check: func(t *testing.T, res core.Result) {
				if res.Reason != core.StopMaxIterations || res.Iterations != 3 {
					t.Errorf("got %v after %d iterations", res.Reason, res.Iterations)
				}
				var sum float64
				for _, v := range res.X {
					sum += v
				}
				if math.Abs(sum-1) > 1e-9 {
					t.Errorf("feasibility lost: sum = %g", sum)
				}
			},
		},
		{
			name:  "context cancel",
			model: fig,
			init:  []float64{1, 0, 0, 0},
			ctx:   canceled,
			check: func(t *testing.T, res core.Result) {
				if res.Reason != core.StopCanceled {
					t.Errorf("reason = %v, want canceled", res.Reason)
				}
			},
		},
	}
	// Stepsize tolerance: any α in (0, 2) must converge — the wide-window
	// property. The first-order algorithm at α = 1.9 diverges on the same
	// problem (its stability window is α < 2/s ≈ 1.3).
	wide := mustModel(t, []float64{2, 2, 2, 2}, []float64{1.5}, 1, 1)
	for _, alpha := range []float64{0.2, 0.5, 1, 1.5, 1.9} {
		cases = append(cases, testCase{
			name:  fmt.Sprintf("stepsize tolerance alpha=%g", alpha),
			model: wide,
			opts:  []core.Option{core.WithAlpha(alpha), core.WithEpsilon(1e-6), core.WithMaxIterations(100000)},
			init:  []float64{0.8, 0.1, 0.1, 0},
			check: func(t *testing.T, res core.Result) {
				if !res.Converged {
					t.Errorf("alpha %g: %v after %d iterations", alpha, res.Reason, res.Iterations)
				}
			},
		})
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			ctx := tc.ctx
			if ctx == nil {
				ctx = context.Background()
			}
			tc.check(t, secondOrderRun(t, ctx, tc.model, tc.init, tc.opts...))
		})
	}
}

func TestPlanSecondOrderStepFeasibilityAndDirection(t *testing.T) {
	x := []float64{0.4, 0.3, 0.3}
	grad := []float64{-1, -2, -3}
	hess := []float64{-2, -2, -2}
	st, err := core.PlanSecondOrderStep(x, grad, hess, []int{0, 1, 2}, 0.5)
	if err != nil {
		t.Fatalf("PlanSecondOrderStep: %v", err)
	}
	var total float64
	for _, d := range st.Delta {
		total += d
	}
	if math.Abs(total) > 1e-12 {
		t.Errorf("deltas sum to %g, want 0", total)
	}
	if st.Delta[0] <= 0 || st.Delta[2] >= 0 {
		t.Errorf("direction wrong: %v", st.Delta)
	}
	// With uniform curvature the weighted average equals the plain
	// average and the step reduces to the first-order step scaled by
	// 1/|h|.
	first, err := core.PlanStep(x, grad, []int{0, 1, 2}, 0.5/2)
	if err != nil {
		t.Fatal(err)
	}
	for i := range st.Delta {
		if math.Abs(st.Delta[i]-first.Delta[i]) > 1e-12 {
			t.Errorf("uniform-curvature step differs from scaled first-order: %v vs %v", st.Delta, first.Delta)
		}
	}
}

// flatObjective exposes no curvature.
type flatObjective struct{}

func (*flatObjective) Dim() int                             { return 2 }
func (*flatObjective) Utility(x []float64) (float64, error) { return 0, nil }
func (*flatObjective) Gradient(grad, x []float64) error     { return nil }

// overlapObjective is a curved, Grouped objective whose two constraint
// groups share variable 1.
type overlapObjective struct{ *costmodel.SingleFile }

func (overlapObjective) Groups() [][]int { return [][]int{{0, 1}, {1, 2}} }

func TestSecondOrderValidation(t *testing.T) {
	m := mustModel(t, []float64{1, 2}, []float64{3}, 1, 1)
	overlap := overlapObjective{mustModel(t, []float64{1, 2, 3}, []float64{3}, 1, 1)}
	newCases := []struct {
		name string
		obj  core.Objective
		opts []core.Option
		want error
	}{
		{"nil objective", nil, nil, core.ErrBadConfig},
		{"curvature-free objective", &flatObjective{}, nil, core.ErrBadConfig},
		{"negative alpha", m, []core.Option{core.WithAlpha(-1)}, core.ErrBadConfig},
		{"dynamic alpha", m, []core.Option{core.WithDynamicAlpha(0.5)}, core.ErrBadConfig},
		{"overlapping groups", overlap, nil, core.ErrBadConfig},
	}
	for _, tt := range newCases {
		t.Run(tt.name, func(t *testing.T) {
			opts := append([]core.Option{core.WithSecondOrder()}, tt.opts...)
			if _, err := core.NewAllocator(tt.obj, opts...); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}

	alloc, err := core.NewAllocator(m, core.WithSecondOrder())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := alloc.Run(context.Background(), []float64{0.5}); !errors.Is(err, core.ErrDimension) {
		t.Error("short init accepted")
	}
	if _, err := alloc.Run(context.Background(), []float64{-0.5, 1.5}); !errors.Is(err, core.ErrInfeasible) {
		t.Error("negative init accepted")
	}
}

func TestSecondOrderMoreValidation(t *testing.T) {
	m := mustModel(t, []float64{1, 2}, []float64{3}, 1, 1)
	if _, err := core.NewAllocator(m, core.WithSecondOrder(), core.WithEpsilon(-1)); !errors.Is(err, core.ErrBadConfig) {
		t.Error("negative epsilon accepted")
	}
	if _, err := core.NewAllocator(m, core.WithSecondOrder(), core.WithMaxIterations(0)); !errors.Is(err, core.ErrBadConfig) {
		t.Error("zero iterations accepted")
	}
}

func TestPlanSecondOrderStepValidation(t *testing.T) {
	x := []float64{0.5, 0.5}
	grad := []float64{-1, -2}
	tests := []struct {
		name  string
		hess  []float64
		group []int
		alpha float64
		want  error
	}{
		{"positive curvature", []float64{1, -1}, []int{0, 1}, 1, core.ErrBadConfig},
		{"zero curvature", []float64{0, -1}, []int{0, 1}, 1, core.ErrBadConfig},
		{"infinite curvature", []float64{math.Inf(-1), -1}, []int{0, 1}, 1, core.ErrBadConfig},
		{"length mismatch", []float64{-1}, []int{0, 1}, 1, core.ErrDimension},
		{"zero alpha", []float64{-1, -1}, []int{0, 1}, 0, core.ErrBadConfig},
		{"empty group", []float64{-1, -1}, nil, 1, core.ErrBadConfig},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := core.PlanSecondOrderStep(x, grad, tt.hess, tt.group, tt.alpha); !errors.Is(err, tt.want) {
				t.Errorf("error = %v, want %v", err, tt.want)
			}
		})
	}
}
