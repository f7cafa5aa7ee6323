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

// PlanStepInto plans the re-allocation for one constraint group into the
// caller-owned step, following the paper's section 5.2 procedure:
//
//	Δx_i = α·(∂U/∂x_i − avg_{j∈A} ∂U/∂x_j),  i ∈ A
//
// x and grad are the full allocation and marginal-utility vectors; group
// lists the variable indices belonging to this constraint; alpha is the
// stepsize. step.Delta and step.Active are reused when their capacity
// suffices, so a solver iterating over the same groups plans every step
// allocation-free after the first. On error step's contents are
// unspecified.
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
// Instead the plan applies the classical feasible-direction ratio test:
// the whole step is scaled by the largest t ≤ 1 keeping every allocation
// non-negative, so the binding variable lands exactly on the boundary and
// is handled by the exclusion rule on the next iteration. Scaling the whole
// step preserves both feasibility (the deltas still sum to zero) and the
// ascent property (⟨∇U, Δx⟩ = t·α·Σ(g_i − ḡ)² ≥ 0, Lemma 1). For stepsizes
// in the regime of the paper's theorems the test never fires and the
// procedure is exactly the paper's.
//
// With hess == nil the step is that first-order one. Otherwise hess holds
// h_i = ∂²U/∂x_i² for every variable (len(hess) == len(x)) and the step is
// section 8.2's second-derivative step, each deviation scaled by the local
// curvature:
//
//	Δx_i = α·(g_i − ν)/|h_i|,   ν = Σ_{j∈A} (g_j/|h_j|) / Σ_{j∈A} (1/|h_j|)
//
// ν is the curvature-weighted average that makes the deltas sum to zero
// (Theorem 1), and α = 1 is the projected Newton step on separable
// quadratics. The active set and the ratio test are the first-order
// step's, with ν in place of the plain average. Multiplying U by a
// constant rescales g and h together and leaves the step unchanged — the
// scale resilience section 8.2 reports. Every h_i in the group must be
// finite and strictly negative.
//
// It returns the spread of the marginal utilities over the final active
// set, the quantity compared against ε in the termination test (section
// 5.2's UNTIL clause, 0 for an empty set), and whether any delta is
// non-zero. The plan is deterministic: the decentralized runtime relies on
// every node planning byte-identical steps from identical round data.
//
// Both orders are one curvature-weighted plan: variable i carries weight
// 1/|h_i|, or 1 without curvature. With weight 1 the weighted sums are
// exactly the unweighted ones (g·1 = g, Σ1 = |A|), and the first-order
// path takes no per-variable division.
//
// A plan does each piece of work once. One pass validates the group,
// stores every weight in step.Delta, which is free until the active set
// settles, and sums the first weighted mean. A fixed-point pass is then
// one loop: the drop test, which needs a trial delta only for an active
// variable on the boundary, and the sums of the next pass's mean over the
// variables that stay; once no active variable is left on the boundary,
// nothing can drop and a pass goes straight to the re-admission test. A
// variable outside A carries weight 0, so the sums run over the whole
// group: it adds g·0 = ±0, and a sum that starts at +0 is never −0 when
// rounding to nearest, so adding ±0 leaves it unchanged and every mean is
// bit-identical to a sum over A alone. The deltas are written once, by the
// loop that also takes the ratio test, the spread and whether anything
// moves.
//
//fap:zeroalloc
func PlanStepInto(step *Step, x, grad, hess []float64, group []int, alpha float64) (spread float64, moves bool, err error) {
	if step == nil {
		return 0, false, fmt.Errorf("%w: nil step", ErrBadConfig)
	}
	if len(x) != len(grad) {
		return 0, false, fmt.Errorf("%w: len(x)=%d len(grad)=%d", ErrDimension, len(x), len(grad))
	}
	if hess != nil && len(hess) != len(x) {
		return 0, false, fmt.Errorf("%w: len(x)=%d len(hess)=%d", ErrDimension, len(x), len(hess))
	}
	if alpha <= 0 || math.IsNaN(alpha) || math.IsInf(alpha, 0) {
		return 0, false, fmt.Errorf("%w: alpha = %v", ErrBadConfig, alpha)
	}
	m := len(group)
	if m == 0 {
		return 0, false, fmt.Errorf("%w: empty constraint group", ErrBadConfig)
	}

	step.Delta = growFloats(step.Delta, m)
	step.Active = growBools(step.Active, m)
	wt, act := step.Delta, step.Active
	var num, den float64
	bound := 0 // active variables on the boundary, the only ones a pass can drop
	for k, gi := range group {
		if uint(gi) >= uint(len(x)) || !(math.Abs(grad[gi]) <= math.MaxFloat64) {
			return 0, false, groupError(x, grad, hess, group)
		}
		w := 1.0
		if hess != nil {
			h := hess[gi]
			if !(h < 0 && h >= -math.MaxFloat64) {
				return 0, false, groupError(x, grad, hess, group)
			}
			w = 1 / -h
		}
		wt[k] = w
		num += grad[gi] * w
		den += w
		act[k] = true
		if x[gi] <= BoundaryTol {
			bound++
		}
	}

	// Fixed-point refinement of the active set. Each pass either drops
	// boundary variables that would shrink, re-admits the best excluded
	// variable whose marginal utility beats the A average, or terminates.
	// Drops and re-admissions each happen at most once per variable per
	// monotone phase, so 4m+4 passes are ample unless rounding makes the
	// set cycle. A cycle through one variable ends below; a longer one
	// (ties among many marginal utilities) reaches the cap and is
	// rejected.
	var avg float64
	active := m
	readmitted := -1 // the variable the previous pass re-admitted, if any
	for pass := 0; ; pass++ {
		if pass > 4*m+4 {
			return 0, false, fmt.Errorf("%w: active-set computation did not reach a fixed point", ErrDiverged)
		}
		if active == 0 {
			// Everything sits on the boundary and wants to shrink;
			// no move is possible this iteration.
			clear(wt)
			step.AvgMarginal = math.NaN()
			step.Truncation = 1
			return 0, false, nil
		}
		avg = num / den
		if active == 1 {
			// A singleton active set cannot move (its delta is zero
			// up to rounding); nothing is dropped or re-admitted.
			break
		}

		// Paper step (i), boundary case: exclude variables at zero
		// whose share would shrink further. With none of them left in
		// A, nothing can drop and the sums stand.
		drops := 0
		if bound > 0 {
			num, den = 0, 0
			for k, gi := range group {
				w, g := wt[k], grad[gi]
				if x[gi] <= BoundaryTol && act[k] {
					d := alpha * (g - avg)
					if hess != nil {
						d /= -hess[gi]
					}
					if d <= 0 {
						act[k] = false
						wt[k], w = 0, 0
						drops++
					}
				}
				num += g * w
				den += w
			}
		}
		if drops > 0 {
			active -= drops
			bound -= drops
			if drops == 1 && readmitted >= 0 && !act[readmitted] {
				// The pass dropped only the variable the previous one
				// re-admitted: A and its sums are again those of the
				// pass that re-admitted it, so the pair would repeat
				// until the cap. A rounding tie does this (the newcomer
				// beats the mean without it, and its trial delta with it
				// rounds to ≤ 0); A without it is the fixed point.
				avg = num / den
				break
			}
			readmitted = -1
			continue
		}

		// Paper steps (ii)–(iv): re-admit the excluded variable with
		// the highest marginal utility if it beats the average over A.
		if active == m {
			break // every variable is in A: none to re-admit
		}
		best := -1
		var bestG float64
		for k, on := range act {
			if !on {
				if g := grad[group[k]]; best < 0 || g > bestG {
					best, bestG = k, g
				}
			}
		}
		if !(bestG > avg) {
			break
		}
		act[best] = true
		readmitted = best
		wt[best] = 1
		if hess != nil {
			wt[best] = 1 / -hess[group[best]]
		}
		active++
		bound++ // only a variable on the boundary is ever excluded
		// Sum again in group order: adding the newcomer's terms last
		// would round differently.
		num, den = 0, 0
		for k, gi := range group {
			num += grad[gi] * wt[k]
			den += wt[k]
		}
	}
	step.AvgMarginal = avg
	step.Truncation = 1

	// The deltas, the spread and the ratio test: scale the step so no
	// interior variable is driven below zero, landing the binding variable
	// on exactly zero (TruncatedDelta). A singleton active set takes no
	// ratio test. Delta now takes the deltas in place of the weights.
	delta := step.Delta
	lo, hi, t := math.Inf(1), math.Inf(-1), 1.0
	for k, gi := range group {
		if !act[k] {
			delta[k] = 0
			continue
		}
		g := grad[gi]
		d := alpha * (g - avg)
		if hess != nil {
			d /= -hess[gi]
		}
		delta[k] = d
		if g < lo {
			lo = g
		}
		if g > hi {
			hi = g
		}
		if d != 0 {
			moves = true
		}
		if d < 0 {
			if ratio := x[gi] / -d; ratio < t {
				t = ratio
			}
		}
	}
	spread = hi - lo
	if active == 1 || t >= 1 {
		return spread, moves, nil
	}
	step.Truncation = t
	moves = false
	for k, gi := range group {
		d := TruncatedDelta(x[gi], delta[k]*t)
		delta[k] = d
		if d != 0 {
			moves = true
		}
	}
	return spread, moves, nil
}

// PlanRound plans every group's step into steps (steps[i] for groups[i],
// reused from round to round) and decides the round. spread is the largest
// active-set spread; converged reports that every group's spread is below
// eps and, with kkt, that every variable held at zero outside its active
// set satisfies the boundary KKT condition (kktHolds); movable reports
// that some delta is non-zero. Allocator runs and the agent's planning
// rounds both decide here, so both stop on the same test.
//
//fap:zeroalloc
func PlanRound(steps []Step, x, grad, hess []float64, groups [][]int, alpha, eps float64, kkt bool) (spread float64, converged, movable bool, err error) {
	converged = true
	for gi, g := range groups {
		st := &steps[gi]
		sp, moves, err := PlanStepInto(st, x, grad, hess, g, alpha)
		if err != nil {
			return 0, false, false, err
		}
		if sp > spread {
			spread = sp
		}
		if sp >= eps || kkt && !kktHolds(st, grad, x, g, eps) {
			converged = false
		}
		movable = movable || moves
	}
	return spread, converged, movable, nil
}

// groupError returns the error for a group that PlanStepInto's validation
// pass rejected: the first out-of-range index or non-finite marginal
// utility in group order, else the first bad curvature, so the error
// does not depend on how the checks were fused.
func groupError(x, grad, hess []float64, group []int) error {
	for _, gi := range group {
		if gi < 0 || gi >= len(x) {
			return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, len(x))
		}
		if math.IsNaN(grad[gi]) || math.IsInf(grad[gi], 0) {
			return fmt.Errorf("%w: non-finite marginal utility at variable %d", ErrDiverged, gi)
		}
	}
	for _, gi := range group {
		if !(hess[gi] < 0) || math.IsInf(hess[gi], 0) {
			return fmt.Errorf("%w: second-order step needs strictly negative curvature, h[%d] = %v", ErrBadConfig, gi, hess[gi])
		}
	}
	// Unreachable: the validation pass tests the same conditions.
	return fmt.Errorf("%w: group rejected without a bad entry", ErrBadConfig)
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
