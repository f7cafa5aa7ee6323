package topology

import (
	"errors"
	"fmt"
)

// ErrBadRates is returned when access rates are invalid (negative, zero
// total, or the wrong length).
var ErrBadRates = errors.New("topology: invalid access rates")

// CostConvention selects how the per-access node-to-node cost c_ij is
// derived from shortest-path routing.
type CostConvention int

const (
	// RoundTrip takes c_ij = sp(i->j) + sp(j->i): the request travels to
	// the storing node and the response travels back, the paper's stated
	// definition of c_ij in section 4.
	RoundTrip CostConvention = iota + 1
	// OneWay takes c_ij = sp(i->j) only. The paper's section 7 worked
	// example uses one-way ring distances; this convention also suits
	// unidirectional rings where responses continue forward.
	OneWay
)

func (c CostConvention) String() string {
	switch c {
	case RoundTrip:
		return "round-trip"
	case OneWay:
		return "one-way"
	default:
		return fmt.Sprintf("CostConvention(%d)", int(c))
	}
}

// PairCosts computes the full c_ij matrix under the given convention.
// c_ii is always zero (local accesses incur no communication cost).
func PairCosts(g *Graph, conv CostConvention) ([][]float64, error) {
	sp, err := g.AllPairs()
	if err != nil {
		return nil, err
	}
	n := g.NumNodes()
	c := make([][]float64, n)
	for i := 0; i < n; i++ {
		c[i] = make([]float64, n)
		for j := 0; j < n; j++ {
			if i == j {
				continue
			}
			switch conv {
			case OneWay:
				c[i][j] = sp[i][j]
			default:
				c[i][j] = sp[i][j] + sp[j][i]
			}
		}
	}
	return c, nil
}

// AccessCosts computes the traffic-weighted system communication cost of
// accessing each node (see AccessCostsFrom) from the graph's pair costs
// under the given convention.
func AccessCosts(g *Graph, rates []float64, conv CostConvention) ([]float64, error) {
	c, err := PairCosts(g, conv)
	if err != nil {
		return nil, err
	}
	return AccessCostsFrom(c, rates)
}

// AccessCostsFrom reduces a pair-cost matrix (as from PairCosts) to the
// traffic-weighted system communication cost of accessing each node:
//
//	C_i = Σ_j (λ_j/λ) · c_ji
//
// where λ_j is node j's file access generation rate and λ = Σ λ_j
// (section 4). rates must have one non-negative entry per node with a
// positive sum. Callers that re-weight one topology many times (a live
// re-planner, a parallel all-pairs sweep) compute the matrix once and
// call this per demand vector.
func AccessCostsFrom(c [][]float64, rates []float64) ([]float64, error) {
	n := len(c)
	if len(rates) != n {
		return nil, fmt.Errorf("%w: %d rates for %d nodes", ErrBadRates, len(rates), n)
	}
	var total float64
	for j, r := range rates {
		if r < 0 {
			return nil, fmt.Errorf("%w: rate[%d] = %v", ErrBadRates, j, r)
		}
		total += r
	}
	if total <= 0 {
		return nil, fmt.Errorf("%w: total rate must be positive", ErrBadRates)
	}
	out := make([]float64, n)
	for i := 0; i < n; i++ {
		var sum float64
		for j := 0; j < n; j++ {
			sum += rates[j] / total * c[j][i]
		}
		out[i] = sum
	}
	return out, nil
}

// UniformRates returns n equal rates summing to total, the workload used
// throughout the paper's experiments (λ = 1 split evenly).
func UniformRates(n int, total float64) []float64 {
	rates := make([]float64, n)
	for i := range rates {
		rates[i] = total / float64(n)
	}
	return rates
}
