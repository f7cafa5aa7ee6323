package core

import (
	"fmt"
	"math"
	"sort"
)

// Renormalize rescales the allocation mass held by the variables in group
// so they sum to exactly 1, and zeroes every variable outside the group —
// the feasibility-preserving redistribution step of membership churn: when
// a node departs, the survivors (the group) absorb its fraction in
// proportion to their current holdings, so Theorem 1's Σx_i = 1 invariant
// is restored on the reduced support without disturbing the relative
// allocation the iteration has built up.
//
// The proportional scale is followed by an exact residual fix-up on the
// largest surviving variable, so the post-condition Σ_{i∈group} x_i = 1
// holds to within 1 ulp (property-tested). Variables already at zero stay
// at zero — they re-enter through the active-set mechanics of PlanStepInto if
// the optimum wants mass there.
//
// When every surviving variable is zero (nothing to scale), the whole unit
// of mass is placed on the lowest-indexed group member; every caller on
// every node makes this identical deterministic choice.
func Renormalize(x []float64, group []int) error {
	if len(group) == 0 {
		return fmt.Errorf("%w: empty survivor group", ErrBadConfig)
	}
	seen := make(map[int]bool, len(group))
	for _, gi := range group {
		if gi < 0 || gi >= len(x) {
			return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, len(x))
		}
		if seen[gi] {
			return fmt.Errorf("%w: duplicate group index %d", ErrBadConfig, gi)
		}
		seen[gi] = true
		if x[gi] < 0 || math.IsNaN(x[gi]) || math.IsInf(x[gi], 0) {
			return fmt.Errorf("%w: x[%d] = %v", ErrInfeasible, gi, x[gi])
		}
	}
	// ALL arithmetic — including the pre-scale sum — iterates in ascending
	// index order, whatever order the caller listed the group in: float
	// summation rounds per-order, and the 1-ulp post-condition (and its
	// identical outcome on every node) requires one canonical order.
	// Summing in caller order would make the divisor, and so every rescaled
	// value, differ by an ulp between nodes that list the same survivor set
	// differently (caught by TestRenormalizeGroupOrderInvariant).
	asc := append([]int(nil), group...)
	sort.Ints(asc)
	var sum float64
	for _, gi := range asc {
		sum += x[gi]
	}
	for i := range x {
		if !seen[i] {
			x[i] = 0
		}
	}
	if sum == 0 {
		x[asc[0]] = 1
		return nil
	}
	for _, gi := range asc {
		x[gi] /= sum
	}
	// Exact residual fix-up: float division leaves the rescaled sum a few
	// ulps off 1; absorb the residual into the largest survivor (the one
	// whose relative perturbation is smallest), iterating to the fixed
	// point where the ascending-order sum is exactly 1 — or the residual
	// is too small to change the survivor, which bounds it under 1 ulp.
	for pass := 0; pass < 32; pass++ {
		var total float64
		for _, gi := range asc {
			total += x[gi]
		}
		if total == 1 {
			return nil
		}
		big := asc[0]
		for _, gi := range asc {
			if x[gi] > x[big] {
				big = gi
			}
		}
		prev := x[big]
		x[big] += 1 - total
		if x[big] < 0 {
			return fmt.Errorf("%w: renormalization residual %v exceeds largest survivor", ErrInfeasible, 1-total)
		}
		if x[big] == prev {
			return nil // correction below representable precision
		}
	}
	return nil
}

// Ascent reports the predicted objective change ⟨∇U, Δx⟩ of a planned step
// over its group — the Theorem-2 monotonicity certificate. PlanStepInto's
// construction makes it t·α·Σ(g−ḡ)² ≥ 0; quorum rounds re-check it before
// applying a step planned from a partial report set and reject any step
// that would decrease U.
func Ascent(grad []float64, group []int, s Step) (float64, error) {
	if len(s.Delta) != len(group) {
		return 0, fmt.Errorf("%w: step for %d variables over group of %d", ErrDimension, len(s.Delta), len(group))
	}
	var du float64
	for k, gi := range group {
		if gi < 0 || gi >= len(grad) {
			return 0, fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, len(grad))
		}
		du += grad[gi] * s.Delta[k]
	}
	return du, nil
}
