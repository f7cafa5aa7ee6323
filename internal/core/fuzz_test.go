package core

import (
	"encoding/binary"
	"math"
	"testing"
)

// FuzzPlanStep feeds arbitrary 4-variable instances to the step planner:
// whatever it accepts must produce zero-sum deltas that keep the
// allocation non-negative and never decrease the linearized utility.
func FuzzPlanStep(f *testing.F) {
	f.Add(0.8, 0.1, 0.1, 0.0, -5.0, -2.7, -2.7, -2.6, 0.67)
	f.Add(0.25, 0.25, 0.25, 0.25, -1.0, -2.0, -3.0, -4.0, 0.1)
	f.Add(1.0, 0.0, 0.0, 0.0, -1.0, -1.0, -1.0, -1.0, 10.0)
	f.Add(0.0, 0.0, 0.0, 0.0, 1.0, 2.0, 3.0, 4.0, 0.5)

	f.Fuzz(func(t *testing.T, x0, x1, x2, x3, g0, g1, g2, g3, alpha float64) {
		x := []float64{x0, x1, x2, x3}
		grad := []float64{g0, g1, g2, g3}
		// Sanitize into the planner's documented domain: the planner
		// requires a non-negative allocation, finite gradients, and a
		// positive finite alpha; anything else must be rejected with an
		// error (also exercised here).
		valid := !(alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0))
		for _, v := range grad {
			if math.IsNaN(v) || math.IsInf(v, 0) {
				valid = false
			}
		}
		for i, v := range x {
			if math.IsNaN(v) || math.IsInf(v, 0) || v < 0 {
				// Clamp: PlanStep does not validate x signs itself
				// (the solver does); keep the fuzz inside the
				// non-negative domain.
				x[i] = math.Abs(v)
				if math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
					x[i] = 0
				}
			}
		}
		st, err := PlanStep(x, grad, []int{0, 1, 2, 3}, alpha)
		if !valid {
			if err == nil {
				t.Fatalf("invalid input accepted: x=%v g=%v α=%v", x, grad, alpha)
			}
			return
		}
		if err != nil {
			t.Fatalf("valid input rejected: %v (x=%v g=%v α=%v)", err, x, grad, alpha)
		}
		var sum, dot float64
		for i, d := range st.Delta {
			sum += d
			dot += grad[i] * d
			if after := x[i] + d; after < -1e-9*(1+x[i]) {
				t.Fatalf("variable %d driven to %g (x=%v Δ=%v)", i, after, x, st.Delta)
			}
		}
		scale := 0.0
		for _, d := range st.Delta {
			scale += math.Abs(d)
		}
		if math.Abs(sum) > 1e-9*(1+scale) {
			t.Fatalf("deltas sum to %g (Δ=%v)", sum, st.Delta)
		}
		if dot < -1e-6*(1+scale) {
			t.Fatalf("descent direction: ⟨g,Δ⟩ = %g", dot)
		}
	})
}

// planFuzzInput packs an 8-variable second-order instance for
// FuzzPlanSecondOrderStep: allocation, marginal utilities and curvatures,
// little-endian, eight of each.
func planFuzzInput(x, grad, hess [8]float64) []byte {
	b := make([]byte, 0, 24*8)
	for _, v := range [][8]float64{x, grad, hess} {
		for _, f := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(f))
		}
	}
	return b
}

// FuzzPlanSecondOrderStep feeds arbitrary 8-variable instances with
// curvature to the step planner, the shape of a catalog object. Every
// instance must plan bit-identically to planRef, error included. An
// accepted instance inside a moderate range — marginal utilities and
// shares up to 1e6, curvatures between 1e-6 and 1e6, α up to 10, where
// no delta can overflow or underflow — must also be feasible (zero-sum
// deltas that keep the allocation non-negative) and an ascent: every
// variable moves along g_i − ν, so each term (g_i − ν)·Δ_i is
// non-negative.
func FuzzPlanSecondOrderStep(f *testing.F) {
	f.Add(planFuzzInput(
		[8]float64{0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125, 0.125},
		[8]float64{-3.5, -3.4, -4.0, -4.9, -6.1, -6.2, -5.5, -4.6},
		[8]float64{-1.6, -1.7, -1.4, -1.1, -0.9, -0.9, -0.9, -1.2}), 1.0)
	f.Add(planFuzzInput(
		[8]float64{0.28, 0.28, 0.21, 0.09, 0, 0, 0, 0.14},
		[8]float64{-3.53, -3.50, -4.04, -4.96, -6.14, -6.18, -5.53, -4.60},
		[8]float64{-1.65, -1.67, -1.41, -1.06, -0.89, -0.89, -0.89, -1.19}), 1.0)
	f.Add(planFuzzInput(
		[8]float64{1, 0, 0, 0, 0, 0, 0, 0},
		[8]float64{-1, -1, -1, -1, -1, -1, -1, -1},
		[8]float64{-1e-6, -1e6, -1, -2, -3, -4, -5, -6}), 10.0)
	f.Add(planFuzzInput(
		[8]float64{0.5, 0.5, 0, 0, 0, 0, 0, 0},
		[8]float64{-1, -1, -1 + 0x1p-52, -2, -2, -2, -2, -2},
		[8]float64{-1, -1, -1e308, -1, -1, -1, -1, -1}), 1e-10)
	f.Add(planFuzzInput(
		[8]float64{0.5, 0.5, 0, 0, 0, 0, 0, 0},
		[8]float64{-1, math.NaN(), -1, -1, -1, -1, -1, -1},
		[8]float64{-1, -1, 0, -1, -1, -1, -1, -1}), 0.5)

	group := seq(8)
	f.Fuzz(func(t *testing.T, data []byte, alpha float64) {
		if len(data) < 24*8 {
			return
		}
		var v [24]float64
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		x, grad, hess := v[0:8], v[8:16], v[16:24]
		for i, xi := range x {
			// The planner does not validate x (the solver does); keep
			// it a non-negative allocation.
			if x[i] = math.Abs(xi); math.IsNaN(x[i]) || math.IsInf(x[i], 0) {
				x[i] = 0
			}
		}

		var want Step
		wantErr := planRef(&want, x, grad, hess, group, alpha)
		st, err := PlanSecondOrderStep(x, grad, hess, group, alpha)
		if !sameError(err, wantErr) {
			t.Fatalf("error %v, want %v (x=%v g=%v h=%v α=%v)", err, wantErr, x, grad, hess, alpha)
		}
		if err != nil {
			return
		}
		if d := diffPlan(&st, &want); d != "" {
			t.Fatalf("%s (x=%v g=%v h=%v α=%v)", d, x, grad, hess, alpha)
		}

		if !(alpha <= 10) {
			return
		}
		for i := range x {
			if h := -hess[i]; x[i] > 1e6 || !(math.Abs(grad[i]) <= 1e6) || h < 1e-6 || h > 1e6 {
				return
			}
		}
		var sum, scale float64
		for i, d := range st.Delta {
			sum += d
			scale += math.Abs(d)
			if after := x[i] + d; after < -1e-9*(1+x[i]) {
				t.Fatalf("variable %d driven to %g (x=%v Δ=%v)", i, after, x, st.Delta)
			}
			if term := (grad[i] - st.AvgMarginal) * d; term < 0 {
				t.Fatalf("variable %d moves against g−ν: (g−ν)·Δ = %g (g=%v ν=%v Δ=%v)", i, term, grad, st.AvgMarginal, st.Delta)
			}
		}
		// The mean ν carries a rounding error of a few ulps of the
		// largest |g|, which every delta inherits in proportion to its
		// weight; the ratio test's exact landing on zero moves a
		// delta by up to BoundaryTol more.
		var bound float64
		for i, on := range st.Active {
			if on {
				bound += alpha * (math.Abs(grad[i]) + math.Abs(st.AvgMarginal)) / -hess[i]
			}
		}
		if tol := 1e-9*(1+scale) + 1e-12*bound + 8*BoundaryTol; math.Abs(sum) > tol {
			t.Fatalf("deltas sum to %g, beyond %g (Δ=%v)", sum, tol, st.Delta)
		}
	})
}
