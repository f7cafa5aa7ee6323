package multicopy

import (
	"context"
	"fmt"
	"math"

	"filealloc/internal/core"
)

// solveEpsilon is the marginal-utility spread threshold of the
// oscillation-tolerant solver. With a discontinuous objective it may never
// be met, in which case core's stepsize decay and the cost-delta rule end
// the run.
const solveEpsilon = 1e-3

// SolveConfig tunes the oscillation-tolerant solver of section 7.3. The
// stepsize decay itself is core's fixed policy (core.WithAdaptiveAlpha).
type SolveConfig struct {
	// Alpha is the initial stepsize (default 0.1, the paper's figure-9
	// setting).
	Alpha float64
	// CostDelta stops the run when the cost change between successive
	// iterations falls below it (default 1e-9).
	CostDelta float64
	// MaxIterations bounds the run (default 5000).
	MaxIterations int
	// OnIteration, when set, observes every iteration.
	OnIteration func(core.Iteration)
	// Scratch, when non-nil, supplies the solver's working buffers so
	// repeated solves (replication-degree sweeps, figure-9 grids) reuse
	// one set of allocations. The result's X/FinalX are always private
	// copies, so retaining them is safe regardless.
	Scratch *core.Scratch
}

func (c *SolveConfig) fill() {
	if c.Alpha == 0 {
		c.Alpha = 0.1
	}
	if c.CostDelta == 0 {
		c.CostDelta = 1e-9
	}
	if c.MaxIterations == 0 {
		c.MaxIterations = 5000
	}
}

// SolveResult reports the oscillation-tolerant solve outcome.
type SolveResult struct {
	// X is the best (lowest-cost) allocation observed during the run —
	// the paper's fallback halting rule of "observing the oscillations
	// over a period of time and halting when the cost is at the lowest
	// observed point".
	X []float64
	// Cost is C(X).
	Cost float64
	// FinalX is the allocation at the last iteration (may be worse than
	// X when the run ended mid-oscillation).
	FinalX []float64
	// Iterations counts re-allocation steps performed.
	Iterations int
	// Reason is the solver's stop reason.
	Reason core.StopReason
}

// Solve runs the decentralized algorithm on the ring with section 7.3's
// oscillation handling: stepsize decay on repeated cost increases, a
// cost-delta termination rule, and lowest-observed-cost tracking.
func (r *Ring) Solve(ctx context.Context, init []float64, cfg SolveConfig) (SolveResult, error) {
	return solveObjective(ctx, r, init, cfg)
}

// solveObjective is the oscillation-tolerant driver shared by the ring
// variants.
func solveObjective(ctx context.Context, obj core.Objective, init []float64, cfg SolveConfig) (SolveResult, error) {
	cfg.fill()
	bestCost := math.Inf(1)
	var bestX []float64
	var finalX []float64
	observe := func(it core.Iteration) {
		cost := -it.Utility
		if cost < bestCost {
			bestCost = cost
			bestX = append(bestX[:0], it.X...)
		}
		finalX = append(finalX[:0], it.X...)
		if cfg.OnIteration != nil {
			cfg.OnIteration(it)
		}
	}
	alloc, err := core.NewAllocator(obj,
		core.WithAlpha(cfg.Alpha),
		core.WithEpsilon(solveEpsilon),
		core.WithMaxIterations(cfg.MaxIterations),
		core.WithTrace(observe),
		core.WithAdaptiveAlpha(cfg.CostDelta),
	)
	if err != nil {
		return SolveResult{}, fmt.Errorf("multicopy: configuring solver: %w", err)
	}
	res, err := alloc.RunWithScratch(ctx, init, cfg.Scratch)
	if err != nil {
		return SolveResult{}, fmt.Errorf("multicopy: solving ring allocation: %w", err)
	}
	if bestX == nil {
		// No trace fired (converged without iterating); fall back to
		// the solver's result.
		bestX = append([]float64(nil), res.X...)
		u, err := obj.Utility(bestX)
		if err != nil {
			return SolveResult{}, err
		}
		bestCost = -u
		finalX = append([]float64(nil), res.X...)
	}
	return SolveResult{
		X:          bestX,
		Cost:       bestCost,
		FinalX:     finalX,
		Iterations: res.Iterations,
		Reason:     res.Reason,
	}, nil
}

// SpreadEvenly returns the allocation that spreads m copies uniformly,
// x_i = m/n.
func (r *Ring) SpreadEvenly() []float64 {
	n := r.Dim()
	x := make([]float64, n)
	for i := range x {
		x[i] = r.copies / float64(n)
	}
	return x
}
