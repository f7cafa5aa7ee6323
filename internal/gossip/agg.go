package gossip

import (
	"filealloc/internal/protocol"
)

// Double-double (compensated) arithmetic. A value is carried as an
// unevaluated pair hi+lo with |lo| ≤ ½ulp(hi); additions use the
// error-free TwoSum transformation, so a tree of additions accumulates
// error of order 2⁻¹⁰⁴ relative — the rounded result is the correctly
// rounded sum for any realistic operand count, independent of
// association order. That independence is what makes the tree mean
// deterministic across tree shapes and bit-comparable to the broadcast
// reference.

// twoSum returns the exact sum a+b as a rounded head s and exact tail e
// (Knuth's branch-free error-free transformation: s+e == a+b exactly).
func twoSum(a, b float64) (s, e float64) {
	s = a + b
	bv := s - a
	e = (a - (s - bv)) + (b - bv)
	return s, e
}

// ddAdd adds the double-double (bhi, blo) into (ahi, alo), returning a
// renormalized pair.
func ddAdd(ahi, alo, bhi, blo float64) (hi, lo float64) {
	s, e := twoSum(ahi, bhi)
	e += alo + blo
	return twoSum(s, e)
}

// ddValue rounds a double-double pair to the nearest float64.
func ddValue(hi, lo float64) float64 { return hi + lo }

// combineAggregate folds src into dst. The operation is commutative and
// associative up to double-double rounding (2⁻¹⁰⁴ relative), and every
// guarded field (extrema, best-excluded, ratio) combines exactly, so any
// fold order over the same contributions yields the same decision at the
// root; the engine still folds children in ascending id order to make
// the sum bits themselves reproducible run-to-run.
func combineAggregate(dst *protocol.Aggregate, src protocol.Aggregate) {
	dst.SumG, dst.SumGC = ddAdd(dst.SumG, dst.SumGC, src.SumG, src.SumGC)
	dst.SumH, dst.SumHC = ddAdd(dst.SumH, dst.SumHC, src.SumH, src.SumHC)
	dst.SumX, dst.SumXC = ddAdd(dst.SumX, dst.SumXC, src.SumX, src.SumXC)
	if src.Count > 0 {
		if dst.Count == 0 || src.MinG < dst.MinG {
			dst.MinG = src.MinG
		}
		if dst.Count == 0 || src.MaxG > dst.MaxG {
			dst.MaxG = src.MaxG
		}
	}
	if src.BoundCount > 0 {
		if dst.BoundCount == 0 || src.BoundMinG < dst.BoundMinG {
			dst.BoundMinG = src.BoundMinG
		}
		dst.BoundCount += src.BoundCount
	}
	// Best excluded node: highest marginal utility wins, exact ties go to
	// the lower id — the commutative equivalent of core.PlanStepInto's
	// first-strict-max scan in ascending node order.
	if src.OutNode >= 0 {
		if dst.OutNode < 0 || src.OutG > dst.OutG ||
			(src.OutG == dst.OutG && src.OutNode < dst.OutNode) {
			dst.OutNode, dst.OutG = src.OutNode, src.OutG
		}
	}
	if src.RatioCount > 0 {
		if dst.RatioCount == 0 || src.MinRatio < dst.MinRatio {
			dst.MinRatio = src.MinRatio
		}
		dst.RatioCount += src.RatioCount
	}
	dst.Changed += src.Changed
	dst.Count += src.Count
}

// mergeExtrema folds src into dst. Idempotent and commutative (min, max,
// AND), so re-delivered or duplicated floods cannot corrupt the state —
// after diameter ticks every node holds the exact global extrema.
func mergeExtrema(dst *protocol.GossipExtrema, src protocol.GossipExtrema) {
	if src.HasInt {
		if !dst.HasInt || src.IntMinG < dst.IntMinG {
			dst.IntMinG = src.IntMinG
		}
		if !dst.HasInt || src.IntMaxG > dst.IntMaxG {
			dst.IntMaxG = src.IntMaxG
		}
		dst.HasInt = true
	}
	dst.BoundOK = dst.BoundOK && src.BoundOK
	if src.HasOut {
		if !dst.HasOut || src.OutG > dst.OutG ||
			(src.OutG == dst.OutG && src.OutNode < dst.OutNode) {
			dst.OutG, dst.OutNode = src.OutG, src.OutNode
		}
		dst.HasOut = true
	}
}
