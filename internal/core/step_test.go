package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func seq(n int) []int {
	s := make([]int, n)
	for i := range s {
		s[i] = i
	}
	return s
}

func sum(xs []float64) float64 {
	var t float64
	for _, x := range xs {
		t += x
	}
	return t
}

func TestPlanStepPreservesFeasibility(t *testing.T) {
	// Theorem 1: deltas sum to zero, so group totals are conserved.
	tests := []struct {
		name  string
		x     []float64
		grad  []float64
		alpha float64
	}{
		{"interior", []float64{0.4, 0.3, 0.3}, []float64{-1, -2, -3}, 0.05},
		{"boundary", []float64{1, 0, 0}, []float64{-5, -1, -2}, 0.1},
		{"uniform gradient", []float64{0.5, 0.25, 0.25}, []float64{-2, -2, -2}, 0.5},
		{"huge step", []float64{0.8, 0.1, 0.1}, []float64{-9, -1, -1}, 10},
		{"two vars", []float64{0.7, 0.3}, []float64{-3, -1}, 0.2},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			st, err := plan(tt.x, tt.grad, nil, seq(len(tt.x)), tt.alpha)
			if err != nil {
				t.Fatalf("plan: %v", err)
			}
			if got := sum(st.Delta); math.Abs(got) > 1e-12 {
				t.Errorf("deltas sum to %g, want 0", got)
			}
			x := append([]float64(nil), tt.x...)
			if err := st.Apply(x, seq(len(tt.x))); err != nil {
				t.Fatalf("Apply: %v", err)
			}
			if got, want := sum(x), sum(tt.x); math.Abs(got-want) > 1e-9 {
				t.Errorf("total after step = %g, want %g", got, want)
			}
			for i, xi := range x {
				if xi < 0 {
					t.Errorf("x[%d] = %g went negative", i, xi)
				}
			}
		})
	}
}

func TestPlanStepDirection(t *testing.T) {
	// Resource moves toward above-average marginal utility.
	x := []float64{0.25, 0.25, 0.25, 0.25}
	grad := []float64{-1, -2, -3, -4} // variable 0 most valuable
	st, err := plan(x, grad, nil, seq(4), 0.01)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if st.Delta[0] <= 0 {
		t.Errorf("Delta[0] = %g, want positive (above-average marginal utility)", st.Delta[0])
	}
	if st.Delta[3] >= 0 {
		t.Errorf("Delta[3] = %g, want negative (below-average marginal utility)", st.Delta[3])
	}
	// The update is exactly α(g_i − ḡ) when no clamping occurs.
	avg := -2.5
	for i, d := range st.Delta {
		want := 0.01 * (grad[i] - avg)
		if math.Abs(d-want) > 1e-15 {
			t.Errorf("Delta[%d] = %g, want %g", i, d, want)
		}
	}
}

func TestPlanStepExcludesShrinkingBoundaryVariable(t *testing.T) {
	// A variable at zero with below-average marginal utility must be
	// excluded (paper step i) and stay at zero.
	x := []float64{0.5, 0.5, 0}
	grad := []float64{-1, -1, -10}
	st, err := plan(x, grad, nil, seq(3), 0.1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if st.Active[2] {
		t.Error("boundary variable with below-average utility still active")
	}
	if st.Delta[2] != 0 {
		t.Errorf("Delta[2] = %g, want 0", st.Delta[2])
	}
	// The remaining two have equal marginal utilities: no movement.
	if !st.IsNoOp() {
		t.Errorf("expected no-op step, got deltas %v", st.Delta)
	}
}

func TestPlanStepReadmitsValuableBoundaryVariable(t *testing.T) {
	// Paper step (iv): an excluded variable whose marginal utility
	// exceeds the active-set average must be re-admitted. Here variable 2
	// is at zero but is the most valuable, so it must receive resource.
	x := []float64{0.5, 0.5, 0}
	grad := []float64{-3, -2, -1}
	st, err := plan(x, grad, nil, seq(3), 0.05)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !st.Active[2] {
		t.Error("most valuable boundary variable not in active set")
	}
	if st.Delta[2] <= 0 {
		t.Errorf("Delta[2] = %g, want positive", st.Delta[2])
	}
}

func TestPlanStepRatioTest(t *testing.T) {
	// The paper's α=0.67 scenario: the raw step would drive variable 0
	// (allocation 0.8) to −0.37. The ratio test must scale the step so it
	// lands exactly at zero instead of freezing it at 0.8.
	x := []float64{0.8, 0.1, 0.1, 0}
	grad := []float64{-5.0612, -2.7653, -2.7653, -2.6667}
	st, err := plan(x, grad, nil, seq(4), 0.67)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if st.Truncation >= 1 {
		t.Fatalf("Truncation = %g, want < 1", st.Truncation)
	}
	if got := x[0] + st.Delta[0]; math.Abs(got) > 1e-12 {
		t.Errorf("binding variable lands at %g, want 0", got)
	}
	if math.Abs(sum(st.Delta)) > 1e-12 {
		t.Errorf("truncated deltas sum to %g, want 0", sum(st.Delta))
	}
	// Ascent is preserved: ⟨grad, Δ⟩ > 0.
	var dot float64
	for i, d := range st.Delta {
		dot += grad[i] * d
	}
	if dot <= 0 {
		t.Errorf("⟨grad, Δ⟩ = %g, want positive", dot)
	}
}

func TestPlanStepSubgroup(t *testing.T) {
	// Only the group's variables move; outsiders keep zero delta
	// implicitly (they are simply not part of the step).
	x := []float64{0.5, 0.5, 0.9, 0.1}
	grad := []float64{-1, -2, -100, -200}
	group := []int{0, 1}
	st, err := plan(x, grad, nil, group, 0.1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if len(st.Delta) != 2 {
		t.Fatalf("delta length = %d, want 2", len(st.Delta))
	}
	if err := st.Apply(x, group); err != nil {
		t.Fatalf("Apply: %v", err)
	}
	if x[2] != 0.9 || x[3] != 0.1 {
		t.Errorf("outside variables moved: %v", x)
	}
	if math.Abs(x[0]+x[1]-1) > 1e-12 {
		t.Errorf("group total = %g, want 1", x[0]+x[1])
	}
}

func TestPlanStepAllAtBoundary(t *testing.T) {
	// Pathological: every variable at zero and wanting to shrink except
	// one. The active set collapses; the step must be a harmless no-op.
	x := []float64{1, 0, 0}
	grad := []float64{-1, -5, -7}
	st, err := plan(x, grad, nil, seq(3), 0.1)
	if err != nil {
		t.Fatalf("plan: %v", err)
	}
	if !st.IsNoOp() {
		t.Errorf("expected no-op, got %v", st.Delta)
	}
}

func TestPlanStepErrors(t *testing.T) {
	tests := []struct {
		name  string
		x     []float64
		grad  []float64
		group []int
		alpha float64
		want  error
	}{
		{"dim mismatch", []float64{1}, []float64{1, 2}, []int{0}, 0.1, ErrDimension},
		{"bad alpha zero", []float64{1, 0}, []float64{-1, -2}, []int{0, 1}, 0, ErrBadConfig},
		{"bad alpha nan", []float64{1, 0}, []float64{-1, -2}, []int{0, 1}, math.NaN(), ErrBadConfig},
		{"empty group", []float64{1}, []float64{-1}, nil, 0.1, ErrBadConfig},
		{"index out of range", []float64{1, 0}, []float64{-1, -2}, []int{0, 5}, 0.1, ErrDimension},
		{"nan gradient", []float64{0.5, 0.5}, []float64{math.NaN(), -1}, []int{0, 1}, 0.1, ErrDiverged},
		{"inf gradient", []float64{0.5, 0.5}, []float64{math.Inf(1), -1}, []int{0, 1}, 0.1, ErrDiverged},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			_, err := plan(tt.x, tt.grad, nil, tt.group, tt.alpha)
			if !errors.Is(err, tt.want) {
				t.Errorf("plan error = %v, want %v", err, tt.want)
			}
		})
	}
}

func TestApplyErrors(t *testing.T) {
	st := Step{Delta: []float64{0.1, -0.1}}
	if err := st.Apply([]float64{0.5, 0.5}, []int{0}); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched group: error = %v, want ErrDimension", err)
	}
	if err := st.Apply([]float64{0.5, 0.5}, []int{0, 9}); !errors.Is(err, ErrDimension) {
		t.Errorf("bad index: error = %v, want ErrDimension", err)
	}
}

func TestSpread(t *testing.T) {
	// Variable 1 sits on the boundary and wants to shrink, so it leaves
	// the active set and its marginal utility leaves the spread.
	grad := []float64{-1, -4, -2}
	var st Step
	spread, moves, err := PlanStepInto(&st, []float64{0.5, 0, 0.5}, grad, nil, seq(3), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if spread != 1 || !moves {
		t.Errorf("spread, moves = %g, %v, want 1, true (inactive variable ignored)", spread, moves)
	}
	spread, moves, err = PlanStepInto(&st, []float64{0, 0, 0}, []float64{-1, -1, -1}, nil, seq(3), 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if spread != 0 || moves {
		t.Errorf("empty active set: spread, moves = %g, %v, want 0, false", spread, moves)
	}
}

// plan plans one step into a fresh Step.
func plan(x, grad, hess []float64, group []int, alpha float64) (Step, error) {
	var st Step
	_, _, err := PlanStepInto(&st, x, grad, hess, group, alpha)
	return st, err
}

// TestPlanStepPropertyFeasibility hammers the planner with random instances:
// deltas must sum to zero, allocations must stay non-negative, and the
// planned direction must not decrease the linearized utility.
func TestPlanStepPropertyFeasibility(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	prop := func(raw rawInstance) bool {
		x, grad, alpha := raw.normalize(rng)
		st, err := plan(x, grad, nil, seq(len(x)), alpha)
		if err != nil {
			return false
		}
		if math.Abs(sum(st.Delta)) > 1e-9 {
			return false
		}
		var dot float64
		applied := append([]float64(nil), x...)
		if err := st.Apply(applied, seq(len(x))); err != nil {
			return false
		}
		for i, v := range applied {
			if v < 0 {
				return false
			}
			dot += grad[i] * st.Delta[i]
		}
		return dot >= -1e-12
	}
	cfg := &quick.Config{MaxCount: 500, Rand: rng}
	if err := quick.Check(prop, cfg); err != nil {
		t.Error(err)
	}
}

// rawInstance is a quick-generated random allocation problem instance.
type rawInstance struct {
	X     []float64
	Grad  []float64
	Alpha float64
}

// normalize maps arbitrary generated values into a valid instance: a
// feasible allocation (non-negative, sum 1), finite gradients, and a
// positive stepsize.
func (r rawInstance) normalize(rng *rand.Rand) (x, grad []float64, alpha float64) {
	n := len(r.X)
	if n < 2 {
		n = 2 + rng.Intn(6)
	}
	if n > 12 {
		n = 12
	}
	x = make([]float64, n)
	grad = make([]float64, n)
	var total float64
	for i := 0; i < n; i++ {
		var v float64
		if i < len(r.X) {
			v = math.Abs(r.X[i])
		}
		if math.IsNaN(v) || math.IsInf(v, 0) || v > 1e6 {
			v = rng.Float64()
		}
		// A quarter of variables sit exactly on the boundary.
		if rng.Intn(4) == 0 {
			v = 0
		}
		x[i] = v
		total += v
	}
	if total == 0 {
		x[0] = 1
		total = 1
	}
	for i := range x {
		x[i] /= total
	}
	for i := 0; i < n; i++ {
		var g float64
		if i < len(r.Grad) {
			g = r.Grad[i]
		}
		if math.IsNaN(g) || math.IsInf(g, 0) || math.Abs(g) > 1e6 {
			g = -rng.Float64() * 10
		}
		grad[i] = g
	}
	alpha = math.Abs(r.Alpha)
	if math.IsNaN(alpha) || math.IsInf(alpha, 0) || alpha == 0 || alpha > 100 {
		alpha = 0.01 + rng.Float64()
	}
	return x, grad, alpha
}
