package core

import (
	"fmt"
	"math"
)

// BoundaryTol is the allocation level at or below which a variable counts
// as sitting on the non-negativity boundary: for the active-set rule, the
// boundary KKT check, and every distributed planner that mirrors them.
const BoundaryTol = 1e-12

// residueTol bounds the negative float residue Apply clamps to zero.
const residueTol = 1e-9

// ClampResidue returns v, or 0 when v is the tiny negative residue (above
// −1e-9) that float addition leaves on a variable planned to land exactly
// on the boundary. Every apply of a planned delta goes through it, so a
// node updating only its own coordinate stays bit-identical to Apply.
func ClampResidue(v float64) float64 {
	if v < 0 && v > -residueTol {
		return 0
	}
	return v
}

// Step is the outcome of planning one iteration over one constraint group:
// the per-variable deltas and the active set A that produced them. Deltas of
// variables outside A are zero, and the deltas always sum to zero, so
// applying a Step preserves feasibility (Theorem 1).
type Step struct {
	// Delta has one entry per variable in the group's index order.
	Delta []float64
	// Active marks, per variable in group order, membership in the
	// active set A.
	Active []bool
	// AvgMarginal is the mean marginal utility over the final active set.
	AvgMarginal float64
	// Truncation is the feasible-step scaling factor applied (1 when the
	// full step was feasible; see below).
	Truncation float64
}

// PlanStep computes the re-allocation for one constraint group following
// the paper's section 5.2 procedure:
//
//	Δx_i = α·(∂U/∂x_i − avg_{j∈A} ∂U/∂x_j),  i ∈ A
//
// x and grad are the full allocation and marginal-utility vectors; group
// lists the variable indices belonging to this constraint; alpha is the
// stepsize.
//
// The active set A starts as the whole group and is refined to a fixed
// point by the paper's steps (i)–(v): variables on the non-negativity
// boundary whose share would shrink are excluded (their allocation is
// frozen at zero), and the excluded variable with the highest marginal
// utility is re-admitted whenever it exceeds the average over A.
//
// One deliberate refinement of the paper's literal step (i): when a large
// stepsize would drive a variable with a substantial positive allocation
// below zero (e.g. the paper's own α = 0.67 run from x⁰ = (0.8, 0.1, 0.1, 0),
// whose first step asks node 1 for 1.17 of its 0.8), excluding that
// variable from A would freeze its allocation and prevent convergence.
// Instead PlanStep applies the classical feasible-direction ratio test:
// the whole step is scaled by the largest t ≤ 1 keeping every allocation
// non-negative, so the binding variable lands exactly on the boundary and
// is handled by the exclusion rule on the next iteration. Scaling the whole
// step preserves both feasibility (the deltas still sum to zero) and the
// ascent property (⟨∇U, Δx⟩ = t·α·Σ(g_i − ḡ)² ≥ 0, Lemma 1). For stepsizes
// in the regime of the paper's theorems the test never fires and the
// procedure is exactly the paper's.
//
// PlanStep is deterministic: the decentralized runtime relies on every node
// planning byte-identical steps from identical round data.
func PlanStep(x, grad []float64, group []int, alpha float64) (Step, error) {
	var step Step
	if err := PlanStepInto(&step, x, grad, group, alpha); err != nil {
		return Step{}, err
	}
	return step, nil
}

// growFloats returns s resized to n entries, reusing its backing array
// when capacity allows.
//
//fap:allocok make fires only when the buffer must grow; steady-state rounds reuse capacity, pinned by the AllocsPerRun tests
func growFloats(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// growBools returns s resized to n entries, reusing its backing array
// when capacity allows.
//
//fap:allocok make fires only when the buffer must grow; steady-state rounds reuse capacity, pinned by the AllocsPerRun tests
func growBools(s []bool, n int) []bool {
	if cap(s) < n {
		return make([]bool, n)
	}
	return s[:n]
}

// PlanStepInto is PlanStep writing into a caller-owned Step: step.Delta
// and step.Active are reused when their capacity suffices, so a solver
// iterating over the same groups plans every step allocation-free after
// the first. On error step's contents are unspecified. The planned result
// is byte-identical to PlanStep's.
//
//fap:zeroalloc
func PlanStepInto(step *Step, x, grad []float64, group []int, alpha float64) error {
	return planInto(step, x, grad, nil, group, alpha)
}

// PlanSecondOrderStep plans the section 8.2 second-derivative step over
// one group: each deviation is scaled by the local curvature,
//
//	Δx_i = α·(g_i − ν)/|h_i|,   ν = Σ_{j∈A} (g_j/|h_j|) / Σ_{j∈A} (1/|h_j|)
//
// where h_i = ∂²U/∂x_i². ν is the curvature-weighted average that makes
// the deltas sum to zero (Theorem 1), and α = 1 is the projected Newton
// step on separable quadratics. The active set and the ratio test are
// PlanStep's, with ν in place of the plain average. Multiplying U by a
// constant rescales g and h together and leaves the step unchanged — the
// scale resilience section 8.2 reports. Every h_i in the group must be
// finite and strictly negative.
func PlanSecondOrderStep(x, grad, hess []float64, group []int, alpha float64) (Step, error) {
	var step Step
	if len(hess) != len(x) {
		return Step{}, fmt.Errorf("%w: len(x)=%d len(hess)=%d", ErrDimension, len(x), len(hess))
	}
	if err := planInto(&step, x, grad, hess, group, alpha); err != nil {
		return Step{}, err
	}
	return step, nil
}

// planInto is the one implementation of the section 5.2 step: the
// active-set fixed point and the feasible-direction ratio test, as a
// curvature-weighted plan. With hess == nil every weight is 1 and the step
// is the first-order one; otherwise variable i carries weight 1/|h_i| and
// the step is PlanSecondOrderStep's: the weighted mean replaces the plain
// one and each delta is divided by |h_i|. With weight 1 those are exactly
// the unweighted sums (g·1 = g, Σ1 = |A|), so the first-order path skips
// them and takes no per-variable division. The caller guarantees
// len(hess) == len(x) when hess is non-nil.
//
//fap:zeroalloc
func planInto(step *Step, x, grad, hess []float64, group []int, alpha float64) error {
	if step == nil {
		return fmt.Errorf("%w: nil step", ErrBadConfig)
	}
	if len(x) != len(grad) {
		return fmt.Errorf("%w: len(x)=%d len(grad)=%d", ErrDimension, len(x), len(grad))
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return fmt.Errorf("%w: alpha = %v", ErrBadConfig, alpha)
	}
	m := len(group)
	if m == 0 {
		return fmt.Errorf("%w: empty constraint group", ErrBadConfig)
	}
	for _, gi := range group {
		if gi < 0 || gi >= len(x) {
			return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, len(x))
		}
		if math.IsNaN(grad[gi]) || math.IsInf(grad[gi], 0) {
			return fmt.Errorf("%w: non-finite marginal utility at variable %d", ErrDiverged, gi)
		}
	}
	if hess != nil {
		for _, gi := range group {
			if !(hess[gi] < 0) || math.IsInf(hess[gi], 0) {
				return fmt.Errorf("%w: second-order step needs strictly negative curvature, h[%d] = %v", ErrBadConfig, gi, hess[gi])
			}
		}
	}

	step.Delta = growFloats(step.Delta, m)
	step.Active = growBools(step.Active, m)
	step.AvgMarginal = 0
	step.Truncation = 1
	for k := range step.Active {
		step.Active[k] = true
	}

	// Fixed-point refinement of the active set. Each pass either drops
	// boundary variables that would shrink, re-admits the best excluded
	// variable whose marginal utility beats the A average, or terminates.
	// Drops and re-admissions each happen at most once per variable per
	// monotone phase, so 4m+4 passes are ample; exceeding the cap means a
	// logic error, not a hard problem instance.
	for pass := 0; ; pass++ {
		if pass > 4*m+4 {
			return fmt.Errorf("%w: active-set computation did not reach a fixed point", ErrDiverged)
		}
		active := 0
		avg := 0.0
		for k, on := range step.Active {
			if on {
				active++
				avg += grad[group[k]]
			}
		}
		if active == 0 {
			// Everything sits on the boundary and wants to shrink;
			// no move is possible this iteration.
			for k := range step.Delta {
				step.Delta[k] = 0
			}
			step.AvgMarginal = math.NaN()
			return nil
		}
		if hess == nil {
			avg /= float64(active)
		} else {
			avg = curvedMean(step.Active, grad, hess, group)
		}
		step.AvgMarginal = avg

		for k, on := range step.Active {
			if on {
				step.Delta[k] = alpha * (grad[group[k]] - avg)
			} else {
				step.Delta[k] = 0
			}
		}
		if hess != nil {
			for k, gi := range group {
				step.Delta[k] /= -hess[gi] // off A, 0/|h| stays 0
			}
		}
		if active == 1 {
			// A singleton active set cannot move (its delta is zero
			// by construction); the plan is a no-op.
			return nil
		}

		// Paper step (i), boundary case: exclude variables at zero
		// whose share would shrink further.
		dropped := false
		for k, on := range step.Active {
			if on && x[group[k]] <= BoundaryTol && step.Delta[k] <= 0 {
				step.Active[k] = false
				dropped = true
			}
		}
		if dropped {
			continue
		}

		// Paper steps (ii)–(iv): re-admit the excluded variable with
		// the highest marginal utility if it beats the average over A.
		best := -1
		for k, on := range step.Active {
			if !on && (best < 0 || grad[group[k]] > grad[group[best]]) {
				best = k
			}
		}
		if best >= 0 && grad[group[best]] > avg {
			step.Active[best] = true
			continue
		}
		break
	}

	// Feasible-direction ratio test: scale the step so no interior
	// variable is driven below zero, landing the binding variable on
	// exactly zero (TruncatedDelta).
	t := 1.0
	for k, gi := range group {
		if d := step.Delta[k]; d < 0 {
			if ratio := x[gi] / -d; ratio < t {
				t = ratio
			}
		}
	}
	if t < 1 {
		step.Truncation = t
		for k, gi := range group {
			step.Delta[k] = TruncatedDelta(x[gi], step.Delta[k]*t)
		}
	}
	return nil
}

// TruncatedDelta returns the delta that a step scaled down by the ratio
// test applies to a variable at x whose scaled delta is d: d itself, or
// exactly −x when x + d would be at or below BoundaryTol. That is the
// binding variable, and any other whose ratio ties it up to rounding.
// x + d rounds, and a positive residue such as 1e-17 survives
// ClampResidue; it would leave a variable that every solver decision
// treats as boundary but that costmodel.VerifyKKT counts as support.
// The gossip tree's nodes apply their own deltas through it too, so the
// tree's trajectory stays bit-identical to the broadcast reference.
//
//fap:zeroalloc
func TruncatedDelta(x, d float64) float64 {
	if d < 0 && x+d <= BoundaryTol {
		return -x
	}
	return d
}

// curvedMean returns the curvature-weighted average over the active set,
// ν = Σ_{i∈A} w_i·g_i / Σ_{i∈A} w_i with w_i = 1/|h_i|: the second-order
// direction's counterpart of the plain mean. It is kept out of planInto's
// loop so the first-order path compiles to the unweighted loops alone.
//
//fap:zeroalloc
func curvedMean(active []bool, grad, hess []float64, group []int) float64 {
	var num, den float64
	for k, on := range active {
		if on {
			w := 1 / -hess[group[k]]
			num += grad[group[k]] * w
			den += w
		}
	}
	return num / den
}

// Apply adds the planned deltas for group into x in place, clamping the
// tiny negative residue float addition can leave on a variable planned to
// land exactly on the boundary.
//
//fap:zeroalloc
func (s Step) Apply(x []float64, group []int) error {
	if len(s.Delta) != len(group) {
		return fmt.Errorf("%w: step for %d variables applied to group of %d", ErrDimension, len(s.Delta), len(group))
	}
	for k, gi := range group {
		if gi < 0 || gi >= len(x) {
			return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, len(x))
		}
		x[gi] = ClampResidue(x[gi] + s.Delta[k])
	}
	return nil
}

// IsNoOp reports whether the step moves nothing.
func (s Step) IsNoOp() bool {
	for _, d := range s.Delta {
		if d != 0 {
			return false
		}
	}
	return true
}

// Spread returns the largest pairwise difference of marginal utilities over
// the active set, the quantity compared against ε in the termination test
// (section 5.2's UNTIL clause).
//
//fap:zeroalloc
func (s Step) Spread(grad []float64, group []int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for k, gi := range group {
		if !s.Active[k] {
			continue
		}
		g := grad[gi]
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}

// GradientSpread returns the largest pairwise difference of marginal
// utilities over an entire group, ignoring active-set membership.
//
//fap:zeroalloc
func GradientSpread(grad []float64, group []int) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, gi := range group {
		g := grad[gi]
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}
