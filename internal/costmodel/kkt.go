package costmodel

import (
	"fmt"
	"math"
)

// KKTSolution is the water-filling optimum of the single-file problem.
type KKTSolution struct {
	// X is the optimal allocation.
	X []float64
	// Q is the common marginal cost level q = ∂C/∂x_i on the support
	// (the Lagrange multiplier of section 5.3).
	Q float64
	// Cost is C(X).
	Cost float64
}

// SolveKKT computes the exact optimum of the single-file objective by
// bisection on the Lagrange multiplier q. At the optimum (section 5.3),
// every node with x_i > 0 has marginal cost C_i + k·μ_i/(μ_i − λ·x_i)² = q
// and every node with x_i = 0 has marginal cost ≥ q. Inverting the marginal
// cost gives the demand
//
//	x_i(q) = (μ_i − sqrt(k·μ_i/(q − C_i)))/λ     for q > C_i + k/μ_i
//
// which is continuous and strictly increasing in q, so the feasibility
// equation Σ_i x_i(q) = 1 has a unique root found by bisection. This solver
// is independent of the iterative algorithm and is used in tests and
// experiments to certify the optima the algorithm converges to.
//
// With k = 0 the delay term vanishes and the optimum concentrates the file
// on the cheapest node(s); that case is handled directly.
func (m *SingleFile) SolveKKT(tol float64) (KKTSolution, error) {
	if tol <= 0 {
		return KKTSolution{}, fmt.Errorf("%w: tolerance = %v", ErrBadParam, tol)
	}
	n := len(m.access)
	if m.k == 0 {
		return m.solveLinear()
	}

	demand := func(q float64) []float64 {
		x := make([]float64, n)
		for i := 0; i < n; i++ {
			floor := m.access[i] + m.k/m.service[i] // marginal cost at x_i = 0
			if q <= floor {
				continue
			}
			xi := (m.service[i] - math.Sqrt(m.k*m.service[i]/(q-m.access[i]))) / m.lambda
			if xi < 0 {
				xi = 0
			}
			if xi > 1 {
				xi = 1
			}
			x[i] = xi
		}
		return x
	}
	sum := func(x []float64) float64 {
		var s float64
		for _, v := range x {
			s += v
		}
		return s
	}

	// Bracket the multiplier: at q = min marginal cost at zero, demand is
	// 0; grow q until demand reaches 1.
	lo := math.Inf(1)
	for i := 0; i < n; i++ {
		lo = math.Min(lo, m.access[i]+m.k/m.service[i])
	}
	hi := lo + m.k
	for iter := 0; sum(demand(hi)) < 1; iter++ {
		if iter > 200 {
			return KKTSolution{}, fmt.Errorf("%w: cannot bracket KKT multiplier (total capacity too small?)", ErrUnstable)
		}
		hi = lo + (hi-lo)*2
	}
	for iter := 0; iter < 200 && hi-lo > tol*math.Max(1, math.Abs(hi)); iter++ {
		mid := lo + (hi-lo)/2
		if sum(demand(mid)) < 1 {
			lo = mid
		} else {
			hi = mid
		}
	}
	q := lo + (hi-lo)/2
	x := demand(q)
	// Repair the residual rounding so the allocation is exactly feasible:
	// scale the support (it is strictly positive, so small scaling keeps
	// it valid).
	if s := sum(x); s > 0 {
		for i := range x {
			x[i] /= s
		}
	}
	cost, err := m.Cost(x)
	if err != nil {
		return KKTSolution{}, fmt.Errorf("costmodel: evaluating KKT solution: %w", err)
	}
	return KKTSolution{X: x, Q: q, Cost: cost}, nil
}

// VerifyKKT checks that (x, q) satisfies the section-5.3 optimality
// conditions of the single-file problem to within a relative tolerance:
//
//   - feasibility: x_i ≥ 0 and Σ_i x_i = 1
//   - interior:    every node with x_i > 0 has marginal cost
//     C_i + k·μ_i/(μ_i − λ·x_i)² equal to q
//   - boundary:    every node with x_i = 0 has marginal cost ≥ q
//
// All comparisons use the scale tol·max(1, |q|), so a node priced exactly
// at the support boundary (marginal at zero equal to q up to float
// rounding) is not a false positive. The boundary condition is one-sided:
// a zero node whose marginal exceeds q by any amount is optimal, while one
// below q − tol·max(1, |q|) means mass should have been placed there and
// the allocation is rejected.
func (m *SingleFile) VerifyKKT(x []float64, q, tol float64) error {
	if tol <= 0 {
		return fmt.Errorf("%w: tolerance = %v", ErrBadParam, tol)
	}
	if len(x) != len(m.access) {
		return fmt.Errorf("%w: allocation has %d entries for %d nodes", ErrBadParam, len(x), len(m.access))
	}
	scale := tol * math.Max(1, math.Abs(q))
	var total float64
	for i, xi := range x {
		if xi < 0 {
			return fmt.Errorf("%w: x_%d = %v is negative", ErrBadParam, i, xi)
		}
		total += xi
	}
	if math.Abs(total-1) > tol {
		return fmt.Errorf("%w: allocation sums to %v, not 1", ErrBadParam, total)
	}
	for i, xi := range x {
		room := m.service[i] - m.lambda*xi
		if room <= 0 {
			return fmt.Errorf("%w: node %d has μ=%v, λ·x=%v", ErrUnstable, i, m.service[i], m.lambda*xi)
		}
		marginal := m.access[i] + m.k*m.service[i]/(room*room)
		if xi > 0 {
			if math.Abs(marginal-q) > scale {
				return fmt.Errorf("costmodel: node %d in support has marginal cost %v, want q = %v (Δ = %v)", i, marginal, q, marginal-q)
			}
		} else if marginal < q-scale {
			return fmt.Errorf("costmodel: node %d at x = 0 has marginal cost %v below q = %v; the optimum stores mass there", i, marginal, q)
		}
	}
	return nil
}

// SupportTol is the fragment size above which a node counts as part of
// the support when a price is read off an allocation: smaller fragments
// are solver residue at the boundary, not hosted mass.
const SupportTol = 1e-9

// Price derives the common marginal cost level q at x that VerifyKKT
// checks the allocation against: the mean of −∂U/∂x_i over the nodes
// with x_i > SupportTol, summed in index order, or 0 when no node
// qualifies.
func (m *SingleFile) Price(x []float64) (float64, error) {
	grad := make([]float64, len(x))
	if err := m.Gradient(grad, x); err != nil {
		return 0, err
	}
	q, support := 0.0, 0
	for i, xi := range x {
		if xi > SupportTol {
			q += -grad[i]
			support++
		}
	}
	if support > 0 {
		q /= float64(support)
	}
	return q, nil
}

// solveLinear handles k = 0: cost is Σ C_i·x_i, minimized by the cheapest
// node.
func (m *SingleFile) solveLinear() (KKTSolution, error) {
	best := 0
	for i, c := range m.access {
		if c < m.access[best] {
			best = i
		}
	}
	x := make([]float64, len(m.access))
	x[best] = 1
	cost, err := m.Cost(x)
	if err != nil {
		return KKTSolution{}, fmt.Errorf("costmodel: evaluating linear solution: %w", err)
	}
	return KKTSolution{X: x, Q: m.access[best], Cost: cost}, nil
}
