package core

import (
	"context"
	"fmt"
)

// Solve runs a full cold solve: it is RunWithScratch under the name
// WarmSolver.Solve shares, so a caller switches between the two solvers
// without changing the call.
func (a *Allocator) Solve(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	return a.RunWithScratch(ctx, init, s)
}

// WarmConfig tunes a WarmSolver.
type WarmConfig struct {
	// MaxSteps is the incremental-step budget before the solver falls
	// back to a full cold solve (default 16). A warm start near the old
	// optimum normally converges in a handful of steps; exhausting the
	// budget means the problem moved too far for incremental repair.
	MaxSteps int
	// Certify, when non-nil, is consulted once the internal criterion
	// (marginal-utility spread below ε plus the boundary KKT check)
	// holds: it receives the candidate allocation and the common
	// marginal *cost* level q implied by the final planned step, and a
	// non-nil error vetoes the early exit, sending the solve to the
	// cold fallback. Wiring costmodel.VerifyKKT here makes every warm
	// exit carry an independent optimality certificate. The hook is
	// only invoked for single-group problems; grouped objectives skip
	// certification (q is per-group there).
	Certify func(x []float64, q float64) error
}

// WarmSolver re-solves a problem whose parameters drifted slightly, seeded
// from the previous allocation: instead of iterating from a cold start it
// runs the cold solve's own iteration under a small step budget (same
// step direction, same α — dynamic if configured) and exits as soon as
// the convergence criterion and the optional certificate hold.
// If the budget runs out — the drift was too large for incremental repair
// — it falls back to a full cold solve continued from the current iterate,
// so the result is always a converged allocation when the underlying
// Allocator converges.
//
// A WarmSolver is stateless between calls and safe for concurrent use as
// long as each call gets its own Scratch (the same contract as
// RunWithScratch).
type WarmSolver struct {
	cold     *Allocator
	maxSteps int
	certify  func(x []float64, q float64) error
}

// NewWarmSolver wraps an Allocator with the warm-start strategy.
func NewWarmSolver(cold *Allocator, cfg WarmConfig) (*WarmSolver, error) {
	if cold == nil {
		return nil, fmt.Errorf("%w: nil cold allocator", ErrBadConfig)
	}
	if cfg.MaxSteps == 0 {
		cfg.MaxSteps = 16
	}
	if cfg.MaxSteps < 1 {
		return nil, fmt.Errorf("%w: warm step budget = %d", ErrBadConfig, cfg.MaxSteps)
	}
	return &WarmSolver{cold: cold, maxSteps: cfg.MaxSteps, certify: cfg.Certify}, nil
}

// Solve is SolveWarm without the fallback report; it matches
// Allocator.Solve.
func (w *WarmSolver) Solve(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	res, _, err := w.SolveWarm(ctx, init, s)
	return res, err
}

// SolveWarm is Solve additionally reporting whether the incremental
// budget was exhausted and the full cold fallback ran (callers batching
// many objects count warm hits vs. fallbacks from it). After a fallback,
// Result.Iterations counts the warm steps plus the cold continuation's.
func (w *WarmSolver) SolveWarm(ctx context.Context, init []float64, s *Scratch) (Result, bool, error) {
	a := w.cold
	if s == nil {
		s = &Scratch{}
	}
	if err := a.load(s, init); err != nil {
		return Result{}, false, err
	}
	u, err := a.obj.Utility(s.x)
	if err != nil {
		return Result{}, false, fmt.Errorf("core: warm utility: %w", err)
	}
	res, fallBack, err := a.iterate(ctx, s, u, w)
	if err != nil || !fallBack {
		return res, false, err
	}
	// The drift outran the incremental budget (or the iterate stalled, or
	// the certificate was vetoed): continue as a full cold solve from the
	// current iterate. s.x is re-adopted in place.
	warmSteps := res.Iterations
	res, err = a.RunWithScratch(ctx, s.x, s)
	res.Iterations += warmSteps
	return res, true, err
}
