package core

import (
	"context"
	"math"
	"reflect"
	"testing"
)

// quad is a strictly concave test objective with per-variable optima,
// evaluated without allocating.
type quad struct{ n int }

func (q quad) Dim() int { return q.n }

func (q quad) Utility(x []float64) (float64, error) {
	var u float64
	for i, xi := range x {
		u += float64(i+1)*xi - float64(q.n)*xi*xi
	}
	return u, nil
}

func (q quad) Gradient(grad, x []float64) error {
	for i, xi := range x {
		grad[i] = float64(i+1) - 2*float64(q.n)*xi
	}
	return nil
}

func (q quad) SecondDerivative(hess, x []float64) error {
	for i := range x {
		hess[i] = -2 * float64(q.n)
	}
	return nil
}

// TestPlanStepIntoAllocFree pins the zero-allocation contract of the
// planning hot path: with caller-owned buffers, PlanStepInto performs no
// heap allocations, in the interior and in the boundary-handling case.
func TestPlanStepIntoAllocFree(t *testing.T) {
	const n = 64
	group := seq(n)
	grad := make([]float64, n)

	interior := make([]float64, n)
	boundary := make([]float64, n)
	boundary[0] = 1
	for i := range interior {
		interior[i] = 1.0 / n
		grad[i] = -float64(i % 7)
	}
	for name, x := range map[string][]float64{"interior": interior, "boundary": boundary} {
		st := Step{Delta: make([]float64, n), Active: make([]bool, n)}
		if allocs := testing.AllocsPerRun(100, func() {
			if err := PlanStepInto(&st, x, grad, group, 0.1); err != nil {
				t.Fatal(err)
			}
		}); allocs != 0 {
			t.Errorf("%s: PlanStepInto allocated %.1f objects per call, want 0", name, allocs)
		}
	}
}

// TestPlanStepIntoMatchesPlanStep checks the buffer-reusing API plans
// byte-identical steps to PlanStep, including when a Step is reused
// across groups of different sizes.
func TestPlanStepIntoMatchesPlanStep(t *testing.T) {
	cases := []struct {
		x, grad []float64
		alpha   float64
	}{
		{[]float64{0.8, 0.1, 0.1, 0}, []float64{-4, -2, -3, -1}, 0.3},
		{[]float64{0.8, 0.1, 0.1, 0}, []float64{-4, -2, -3, -1}, 0.67},
		{[]float64{1, 0, 0}, []float64{-5, -1, -2}, 0.1},
		{[]float64{0.5, 0.5}, []float64{-1, -1}, 0.2},
		{[]float64{0, 0, 0, 0, 1}, []float64{-1, -2, -3, -4, -5}, 0.05},
	}
	var reused Step
	for ci, tc := range cases {
		want, err := PlanStep(tc.x, tc.grad, seq(len(tc.x)), tc.alpha)
		if err != nil {
			t.Fatalf("case %d: PlanStep: %v", ci, err)
		}
		if err := PlanStepInto(&reused, tc.x, tc.grad, seq(len(tc.x)), tc.alpha); err != nil {
			t.Fatalf("case %d: PlanStepInto: %v", ci, err)
		}
		if !reflect.DeepEqual(want.Delta, reused.Delta) ||
			!reflect.DeepEqual(want.Active, reused.Active) ||
			want.Truncation != reused.Truncation ||
			(want.AvgMarginal != reused.AvgMarginal && !(math.IsNaN(want.AvgMarginal) && math.IsNaN(reused.AvgMarginal))) {
			t.Errorf("case %d: PlanStepInto = %+v, PlanStep = %+v", ci, reused, want)
		}
	}
}

// runAllocs measures the heap allocations of one full Run with the given
// iteration budget.
func runAllocs(t *testing.T, opts []Option, init []float64, obj Objective) float64 {
	t.Helper()
	alloc, err := NewAllocator(obj, opts...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	return testing.AllocsPerRun(10, func() {
		if _, err := alloc.Run(ctx, init); err != nil {
			t.Fatal(err)
		}
	})
}

// TestRunInnerLoopAllocFree asserts the allocator's iteration loop does
// not allocate: a run 80× longer must allocate exactly as much as a
// short one (Run's fixed setup — the x copy, gradient, and per-group
// step buffers — is all there is).
func TestRunInnerLoopAllocFree(t *testing.T) {
	obj := quad{n: 16}
	init := make([]float64, 16)
	init[0] = 1

	base := []Option{WithAlpha(0.001), WithEpsilon(1e-12)}
	short := runAllocs(t, append([]Option{WithMaxIterations(5)}, base...), init, obj)
	long := runAllocs(t, append([]Option{WithMaxIterations(400)}, base...), init, obj)
	if short != long {
		t.Errorf("allocations grew with iterations: %.0f for 5 iterations, %.0f for 400 — inner loop allocates", short, long)
	}

	// The dynamic-alpha path reuses its Hessian scratch too.
	dynBase := []Option{WithAlpha(0.0001), WithEpsilon(1e-12), WithDynamicAlpha(0.001)}
	shortDyn := runAllocs(t, append([]Option{WithMaxIterations(5)}, dynBase...), init, obj)
	longDyn := runAllocs(t, append([]Option{WithMaxIterations(400)}, dynBase...), init, obj)
	if shortDyn != longDyn {
		t.Errorf("dynamic-alpha allocations grew with iterations: %.0f for 5, %.0f for 400", shortDyn, longDyn)
	}
}

// TestSecondOrderInnerLoopAllocFree is TestRunInnerLoopAllocFree for the
// section 8.2 direction: the curvature lands in the scratch and the
// weighted plan reuses each group's step buffers, so a long run allocates
// exactly as much as a short one, and a warm scratch allocates nothing.
func TestSecondOrderInnerLoopAllocFree(t *testing.T) {
	obj := quad{n: 16}
	init := make([]float64, 16)
	init[0] = 1

	base := []Option{WithSecondOrder(), WithAlpha(0.001), WithEpsilon(1e-12)}
	short := runAllocs(t, append([]Option{WithMaxIterations(5)}, base...), init, obj)
	long := runAllocs(t, append([]Option{WithMaxIterations(400)}, base...), init, obj)
	if short != long {
		t.Errorf("allocations grew with iterations: %.0f for 5 iterations, %.0f for 400 — inner loop allocates", short, long)
	}

	alloc, err := NewAllocator(obj, append([]Option{WithMaxIterations(400)}, base...)...)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	s := NewScratch()
	if _, err := alloc.RunWithScratch(ctx, init, s); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(10, func() {
		if _, err := alloc.RunWithScratch(ctx, init, s); err != nil {
			t.Fatal(err)
		}
	}); allocs != 0 {
		t.Errorf("second-order RunWithScratch allocated %.1f objects per call, want 0", allocs)
	}
}
