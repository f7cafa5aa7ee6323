package core

import (
	"context"
	"fmt"
	"math"
)

// StopReason explains why Run returned.
type StopReason int

const (
	// StopConverged means the termination criterion was met: all marginal
	// utilities over each active set differ by less than ε.
	StopConverged StopReason = iota + 1
	// StopMaxIterations means the iteration budget ran out first. The
	// returned allocation is still feasible and no worse than any earlier
	// iterate (the paper's premature-termination property).
	StopMaxIterations
	// StopStalled means no group could move (active sets collapsed to
	// singletons) before the ε criterion was met.
	StopStalled
	// StopCostDelta means the oscillation-tolerant criterion fired: the
	// utility change between successive iterations fell below the
	// configured threshold (section 7.3's modified halting rule).
	StopCostDelta
	// StopCanceled means the context was canceled mid-run.
	StopCanceled
)

func (r StopReason) String() string {
	switch r {
	case StopConverged:
		return "converged"
	case StopMaxIterations:
		return "max-iterations"
	case StopStalled:
		return "stalled"
	case StopCostDelta:
		return "cost-delta"
	case StopCanceled:
		return "canceled"
	default:
		return fmt.Sprintf("StopReason(%d)", int(r))
	}
}

// Iteration is a snapshot passed to trace hooks after each completed
// iteration (and once, with Index 0, for the initial allocation).
type Iteration struct {
	// Index is the iteration number; 0 is the initial allocation.
	Index int
	// X is the allocation after this iteration. The slice is reused
	// between calls; hooks must copy it to retain it.
	X []float64
	// Utility is U(X).
	Utility float64
	// Spread is the largest marginal-utility spread over any group's
	// active set (0 for the initial snapshot).
	Spread float64
	// Alpha is the stepsize used for this iteration.
	Alpha float64
}

// Result summarizes a Run.
type Result struct {
	// X is the final allocation.
	X []float64
	// Utility is U(X).
	Utility float64
	// Iterations is the number of re-allocation steps performed.
	Iterations int
	// Reason reports why the run stopped.
	Reason StopReason
	// Converged is true when Reason is StopConverged or StopCostDelta.
	Converged bool
}

// Option configures an Allocator.
type Option func(*Allocator)

// WithAlpha sets the fixed stepsize α (default 0.1, or 1 with
// WithSecondOrder).
func WithAlpha(alpha float64) Option {
	return func(a *Allocator) { a.alpha, a.alphaSet = alpha, true }
}

// WithEpsilon sets the termination threshold ε on the marginal-utility
// spread (default 1e-3, the paper's experimental setting).
func WithEpsilon(eps float64) Option {
	return func(a *Allocator) { a.epsilon = eps }
}

// WithMaxIterations bounds the number of iterations (default 10000).
func WithMaxIterations(n int) Option {
	return func(a *Allocator) { a.maxIter = n }
}

// WithTrace registers a hook invoked after every iteration. The hook runs
// synchronously on the solver goroutine.
func WithTrace(fn func(Iteration)) Option {
	return func(a *Allocator) { a.trace = fn }
}

// WithDynamicAlpha recomputes the stepsize each iteration from the
// Theorem-2 bound evaluated at the current gradient and curvature
// (the appendix's closing remark: "we could get a better value for α if we
// dynamically calculate it at each iteration"). The objective must
// implement Curvature. safety in (0,1] scales the bound; values near 1
// step aggressively, small values conservatively.
//
// The bound is evaluated at the pre-step point, so a step large enough to
// leave its validity region could still lower U. Run guards against this:
// whenever a dynamically sized step decreases the utility it backtracks —
// halving α and replanning from the same iterate — until the step is an
// ascent again, making U non-decreasing at every iteration (the Theorem-2
// contract, property-tested by TestTheoremInvariantsRandomized).
func WithDynamicAlpha(safety float64) Option {
	return func(a *Allocator) { a.dynamicSafety = safety }
}

// WithSecondOrder switches the step direction to section 8.2's
// second-derivative step (PlanSecondOrderStep): each deviation from the
// curvature-weighted average is scaled by 1/|∂²U/∂x_i²|. The objective
// must implement Curvature and be strictly concave along every
// coordinate. α then defaults to 1, the Newton step, and dynamic α is
// rejected — the normalized step already carries its own scale.
//
// The Newton step is exact only for a quadratic. On the M/M/1 model the
// curvature grows along the step, so a full step can lower U or drive a
// queue past its service rate (where Utility errors). Run guards it the
// way it guards WithDynamicAlpha: such a step is halved from the same
// iterate until it ascends, and α returns to its configured value at
// the start of the next iteration, so a backtrack damps only the step
// it repairs. A drop of at most four units in the last place of U counts
// as rounding, not descent: near the optimum a Newton step gains less
// than that.
func WithSecondOrder() Option {
	return func(a *Allocator) { a.secondOrder = true }
}

// Section 7.3's stepsize decay: "the value of the stepsize parameter α is
// decreased by a fixed amount after a certain predetermined number of
// iterations". Every caller decays the same way, so the policy is fixed.
const (
	// decayPatience is the number of utility decreases tolerated before
	// α is reduced.
	decayPatience = 3
	// decayFactor multiplies α at each reduction.
	decayFactor = 0.7
	// minDecayedAlpha stops further reductions.
	minDecayedAlpha = 1e-4
)

// WithAdaptiveAlpha enables section 7.3's oscillation handling for
// discontinuous objectives such as the multiple-copy ring: when the
// utility has decreased three times since the last reduction, α is
// multiplied by 0.7, down to a floor of 1e-4. costDelta, when positive,
// additionally stops the run once |ΔU| between successive iterations
// falls below it (the paper's modified termination rule for oscillatory
// problems).
func WithAdaptiveAlpha(costDelta float64) Option {
	return func(a *Allocator) {
		a.adaptive = true
		a.costDelta = costDelta
	}
}

// WithKKTCheck additionally requires, for termination, that every variable
// held at zero outside the active set has a marginal utility of at most the
// active-set average plus ε (the boundary half of the optimality conditions
// in section 5.3). The paper's own termination test omits this; it is
// implied by the active-set re-admission rule but checking it makes the
// convergence claim explicit.
func WithKKTCheck() Option {
	return func(a *Allocator) { a.kktCheck = true }
}

// Allocator runs the decentralized file allocation iteration in-process.
// It is the centralized counterpart of the agent runtime: both plan steps
// with PlanStep, so their trajectories are identical.
type Allocator struct {
	obj     Objective
	groups  [][]int
	alpha   float64
	epsilon float64
	maxIter int
	trace   func(Iteration)

	dynamicSafety float64
	adaptive      bool
	costDelta     float64
	alphaSet      bool
	secondOrder   bool
	kktCheck      bool
}

// NewAllocator returns a solver for the given objective.
func NewAllocator(obj Objective, opts ...Option) (*Allocator, error) {
	if obj == nil {
		return nil, fmt.Errorf("%w: nil objective", ErrBadConfig)
	}
	a := &Allocator{
		obj:     obj,
		epsilon: 1e-3,
		maxIter: 10000,
	}
	for _, opt := range opts {
		opt(a)
	}
	if !a.alphaSet {
		a.alpha = 0.1
		if a.secondOrder {
			a.alpha = 1 // the Newton step
		}
	}
	switch {
	case a.alpha <= 0 || math.IsNaN(a.alpha):
		return nil, fmt.Errorf("%w: alpha = %v", ErrBadConfig, a.alpha)
	case a.epsilon <= 0:
		return nil, fmt.Errorf("%w: epsilon = %v", ErrBadConfig, a.epsilon)
	case a.maxIter < 1:
		return nil, fmt.Errorf("%w: max iterations = %d", ErrBadConfig, a.maxIter)
	case a.dynamicSafety < 0 || a.dynamicSafety > 1:
		return nil, fmt.Errorf("%w: dynamic-alpha safety = %v", ErrBadConfig, a.dynamicSafety)
	}
	if a.dynamicSafety > 0 || a.secondOrder {
		if _, ok := obj.(Curvature); !ok {
			return nil, fmt.Errorf("%w: dynamic alpha and second-order steps require a Curvature objective", ErrBadConfig)
		}
	}
	if a.dynamicSafety > 0 && a.secondOrder {
		return nil, fmt.Errorf("%w: second-order step and dynamic alpha are mutually exclusive", ErrBadConfig)
	}
	if g, ok := obj.(Grouped); ok {
		a.groups = g.Groups()
	}
	if len(a.groups) == 0 {
		all := make([]int, obj.Dim())
		for i := range all {
			all[i] = i
		}
		a.groups = [][]int{all}
	}
	if err := validateGroups(a.groups, obj.Dim()); err != nil {
		return nil, err
	}
	return a, nil
}

func validateGroups(groups [][]int, dim int) error {
	seen := make([]bool, dim)
	for _, g := range groups {
		if len(g) == 0 {
			return fmt.Errorf("%w: empty constraint group", ErrBadConfig)
		}
		for _, gi := range g {
			if gi < 0 || gi >= dim {
				return fmt.Errorf("%w: group index %d outside dimension %d", ErrDimension, gi, dim)
			}
			if seen[gi] {
				return fmt.Errorf("%w: variable %d appears in two groups", ErrBadConfig, gi)
			}
			seen[gi] = true
		}
	}
	for i, ok := range seen {
		if !ok {
			return fmt.Errorf("%w: variable %d belongs to no group", ErrBadConfig, i)
		}
	}
	return nil
}

// CheckFeasible verifies that x has the objective's dimension, is
// non-negative, and that each constraint group sums to the corresponding
// total (within a small tolerance).
func (a *Allocator) CheckFeasible(x []float64, totals []float64) error {
	if len(x) != a.obj.Dim() {
		return fmt.Errorf("%w: allocation has %d entries for dimension %d", ErrDimension, len(x), a.obj.Dim())
	}
	if len(totals) != len(a.groups) {
		return fmt.Errorf("%w: %d totals for %d groups", ErrDimension, len(totals), len(a.groups))
	}
	for i, v := range x {
		if v < 0 || math.IsNaN(v) {
			return fmt.Errorf("%w: x[%d] = %v", ErrInfeasible, i, v)
		}
	}
	for gi, g := range a.groups {
		var sum float64
		for _, idx := range g {
			sum += x[idx]
		}
		if math.Abs(sum-totals[gi]) > 1e-9*math.Max(1, totals[gi]) {
			return fmt.Errorf("%w: group %d sums to %v, want %v", ErrInfeasible, gi, sum, totals[gi])
		}
	}
	return nil
}

// utilityRounding is the relative drop in U, four units in the last
// place, that the backtracking guard ascribes to rounding in evaluating
// U rather than to an overshot step.
const utilityRounding = 0x1p-50

// Scratch holds every buffer a solve needs — the working allocation, the
// gradient, per-group step planning buffers, and the curvature used by
// dynamic α and second-order steps — so repeated solves reuse one set of
// allocations. The zero value is ready to use; buffers grow on first use
// and are reused (or regrown) by later runs of any dimension. A Scratch
// is single-goroutine: sweeps build one per worker
// (sweep.RunWithScratch pairs naturally with NewScratch).
type Scratch struct {
	x, grad, hess, xPrev, totals []float64
	steps                        []Step
}

// NewScratch returns an empty Scratch. It exists so callers can pass the
// constructor itself where a factory is expected (e.g.
// sweep.RunWithScratch(ctx, n, workers, core.NewScratch, fn)).
func NewScratch() *Scratch { return &Scratch{} }

// Run iterates from the initial allocation init until convergence, stall,
// cancellation, or the iteration budget. init is not modified. Totals are
// inferred from init: each group conserves its initial sum, so init must
// already be feasible for the intended problem (e.g. sum 1 for a single
// file, m for m copies).
func (a *Allocator) Run(ctx context.Context, init []float64) (Result, error) {
	// A fresh scratch per call keeps Run's historical contract: the
	// returned Result.X is exclusively the caller's.
	return a.RunWithScratch(ctx, init, &Scratch{})
}

// RunWithScratch is Run drawing every buffer from s, so a caller solving
// many instances (a stepsize sweep, a grid search) allocates the solve
// machinery once and reuses it: after the first call on a given problem
// shape, subsequent calls allocate nothing (asserted by
// TestRunWithScratchSteadyStateAllocFree). A nil s runs with a private
// scratch, equivalent to Run.
//
// The returned Result.X aliases s and is overwritten by the next run
// using the same scratch — copy it to retain it. Results are
// byte-identical to Run's for the same inputs.
func (a *Allocator) RunWithScratch(ctx context.Context, init []float64, s *Scratch) (Result, error) {
	if s == nil {
		s = &Scratch{}
	}
	if err := a.load(s, init); err != nil {
		return Result{}, err
	}
	u, err := a.obj.Utility(s.x)
	if err != nil {
		return Result{}, fmt.Errorf("core: evaluating initial utility: %w", err)
	}
	res, _, err := a.iterate(ctx, s, u, nil)
	return res, err
}

// load checks that init is feasible, copies it into s.x, and sizes every
// buffer the iteration uses. Each group conserves its sum in init.
//
// All per-iteration scratch comes from s, so the iteration itself runs
// allocation-free (asserted by TestRunInnerLoopAllocFree): planning
// reuses each group's Delta/Active buffers — growing them in place when
// a larger group appears — and the curvature lands in s.hess. Solves stay
// reentrant because each call owns its scratch; sharing one Scratch
// across concurrent solves is the caller's bug.
func (a *Allocator) load(s *Scratch, init []float64) error {
	s.totals = growFloats(s.totals, len(a.groups))
	for gi, g := range a.groups {
		s.totals[gi] = 0
		for _, idx := range g {
			if idx < len(init) {
				s.totals[gi] += init[idx]
			}
		}
	}
	if err := a.CheckFeasible(init, s.totals); err != nil {
		return err
	}
	s.x = growFloats(s.x, len(init))
	copy(s.x, init)
	s.grad = growFloats(s.grad, len(init))
	clear(s.grad)
	if cap(s.steps) < len(a.groups) {
		steps := make([]Step, len(a.groups))
		copy(steps, s.steps)
		s.steps = steps
	} else {
		s.steps = s.steps[:len(a.groups)]
	}
	if a.dynamicSafety > 0 || a.secondOrder {
		s.hess = growFloats(s.hess, len(init))
		clear(s.hess)
		s.xPrev = growFloats(s.xPrev, len(init))
	}
	return nil
}

// iterate is the solver's one iteration loop, shared by the cold solve
// and the warm re-solve. It starts from s.x, whose utility is u, and
// each iteration takes the marginal utilities, plans every group's step
// (first- or second-order, at the fixed or dynamic α), tests
// convergence, and applies the step.
//
// With w == nil it is the cold solve: it stops on convergence, a stall,
// or after a.maxIter iterations. With w != nil it is the warm phase: the
// convergence test always includes the boundary KKT condition, a
// converged single-group iterate must also pass w's certificate, and the
// budget is w.maxSteps. A warm phase that runs out of budget, stalls, or
// has its certificate vetoed returns fallBack instead, and the caller
// continues with a cold solve from s.x.
//
//fap:zeroalloc
func (a *Allocator) iterate(ctx context.Context, s *Scratch, u float64, w *WarmSolver) (res Result, fallBack bool, err error) {
	x, grad, steps := s.x, s.grad, s.steps
	maxIter, kkt := a.maxIter, a.kktCheck
	if w != nil {
		maxIter, kkt = w.maxSteps, true
	}
	// hess carries the curvature for dynamic α and second-order steps;
	// dir is the curvature the planner weights by, nil for first order.
	// Both curvature-sized steps keep xPrev for the backtracking guard.
	var curv Curvature
	var hess, dir, xPrev []float64
	if a.dynamicSafety > 0 || a.secondOrder {
		curv = a.obj.(Curvature) // checked in NewAllocator
		hess, xPrev = s.hess, s.xPrev
	}
	if a.secondOrder {
		dir = hess
	}
	alpha := a.alpha
	if a.trace != nil {
		a.trace(Iteration{Index: 0, X: x, Utility: u, Alpha: alpha})
	}

	// Cancellation is polled with a non-blocking receive on the Done
	// channel, fetched once per solve: ctx.Err() locks the context's
	// mutex on every call, and a sweep's workers all share one context.
	done := ctx.Done()
	decreases := 0
	prevU := u
	for iter := 1; iter <= maxIter; iter++ {
		select {
		case <-done:
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopCanceled}, false, nil
		default:
		}
		if err := a.obj.Gradient(grad, x); err != nil {
			return Result{}, false, fmt.Errorf("core: gradient at iteration %d: %w", iter, err)
		}
		if curv != nil {
			if err := curv.SecondDerivative(hess, x); err != nil {
				return Result{}, false, fmt.Errorf("core: curvature at iteration %d: %w", iter, err)
			}
		}
		if a.dynamicSafety > 0 {
			if dyn := DynamicAlpha(grad, hess, a.groups, a.dynamicSafety); dyn > 0 {
				alpha = dyn
			}
		}
		if a.secondOrder {
			alpha = a.alpha // undo the last iteration's backtracking
		}

		converged := true
		movable := false
		spread := 0.0
		for gi, g := range a.groups {
			st := &steps[gi]
			sp, moves, err := planInto(st, x, grad, dir, g, alpha)
			if err != nil {
				return Result{}, false, fmt.Errorf("core: planning iteration %d: %w", iter, err)
			}
			if sp > spread {
				spread = sp
			}
			if sp >= a.epsilon {
				converged = false
			} else if kkt && !kktHolds(st, grad, x, g, a.epsilon) {
				converged = false
			}
			movable = movable || moves
		}
		if converged {
			if w != nil && w.certify != nil && len(a.groups) == 1 {
				// AvgMarginal is the active set's mean marginal utility;
				// the section-5.3 price is the marginal cost, its negation.
				if w.certify(x, -steps[0].AvgMarginal) != nil {
					return Result{Iterations: iter - 1}, true, nil
				}
			}
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopConverged, Converged: true}, false, nil
		}
		if !movable {
			return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopStalled}, w != nil, nil
		}
		if xPrev != nil {
			copy(xPrev, x)
		}
		for gi, g := range a.groups {
			if err := steps[gi].Apply(x, g); err != nil {
				return Result{}, false, fmt.Errorf("core: applying iteration %d: %w", iter, err)
			}
		}

		u, err := a.obj.Utility(x)
		if err != nil {
			if xPrev == nil {
				return Result{}, false, fmt.Errorf("core: utility at iteration %d: %w", iter, err)
			}
			// An overshot step can leave the iterate outside the model's
			// domain entirely (a queue driven past its service rate has
			// infinite cost, so Utility errors rather than returning a
			// number). Treat it as a utility of -Inf: the backtracking
			// guard below halves α from the saved iterate until the step
			// lands back inside the domain.
			u = math.Inf(-1)
		}
		// Theorem-2 backtracking guard, dynamic stepsize and second-order
		// steps: both size the step from the curvature at the pre-step
		// point, and M/M/1 curvature grows along the step, so a large move
		// can overshoot and lower U. Halving α — replanning and reapplying
		// from the saved iterate — restores the monotone-ascent contract
		// both options document; trajectories that never overshoot are
		// untouched.
		floor := prevU
		if a.secondOrder {
			// Near the optimum a Newton step gains less than U's last
			// bits, so a drop within rounding is not an overshoot, and
			// backtracking it would halve α until nothing moves. The
			// dynamic step, up to twice the Newton step, oscillates there
			// instead and needs the strict test to damp it.
			floor -= utilityRounding * math.Abs(prevU)
		}
		if xPrev != nil && u < floor {
			for try := 0; try < 48 && u < floor; try++ {
				alpha /= 2
				copy(x, xPrev)
				for gi, g := range a.groups {
					if _, _, err := planInto(&steps[gi], x, grad, dir, g, alpha); err != nil {
						return Result{}, false, fmt.Errorf("core: replanning iteration %d: %w", iter, err)
					}
					if err := steps[gi].Apply(x, g); err != nil {
						return Result{}, false, fmt.Errorf("core: reapplying iteration %d: %w", iter, err)
					}
				}
				if u, err = a.obj.Utility(x); err != nil {
					u = math.Inf(-1) // still outside the domain: keep halving
				}
			}
			if u < floor {
				// No stepsize makes representable progress: hold the last
				// good iterate rather than accept a descent.
				copy(x, xPrev)
				return Result{X: x, Utility: prevU, Iterations: iter - 1, Reason: StopStalled}, w != nil, nil
			}
		}
		if math.IsNaN(u) || math.IsInf(u, 0) {
			return Result{}, false, fmt.Errorf("%w: utility %v at iteration %d", ErrDiverged, u, iter)
		}
		if a.trace != nil {
			a.trace(Iteration{Index: iter, X: x, Utility: u, Spread: spread, Alpha: alpha})
		}

		if a.adaptive {
			if u < prevU {
				decreases++
				if decreases >= decayPatience {
					decreases = 0
					if next := alpha * decayFactor; next >= minDecayedAlpha {
						alpha = next
					}
				}
			}
			if a.costDelta > 0 && math.Abs(u-prevU) < a.costDelta {
				return Result{X: x, Utility: u, Iterations: iter, Reason: StopCostDelta, Converged: true}, false, nil
			}
		}
		prevU = u
	}
	return Result{X: x, Utility: prevU, Iterations: maxIter, Reason: StopMaxIterations}, w != nil, nil
}

// kktHolds reports whether every variable excluded from the active set and
// held at (numerically) zero satisfies the boundary optimality condition
// ∂U/∂x_i ≤ q + ε.
//
//fap:zeroalloc
func kktHolds(st *Step, grad, x []float64, group []int, eps float64) bool {
	for k, gi := range group {
		if st.Active[k] {
			continue
		}
		if x[gi] <= BoundaryTol && grad[gi] > st.AvgMarginal+eps {
			return false
		}
	}
	return true
}

// DynamicAlpha evaluates the Theorem-2 stepsize bound
//
//	α < 2·Σ g_i(g_i − ḡ) / |Σ h_i (g_i − ḡ)²|
//
// summed over every group (ḡ is the group's plain mean marginal utility)
// and scaled by safety. grad and hess are the marginal utilities and
// curvatures at the current point. It returns 0 when the expression is
// degenerate (already converged or flat). WithDynamicAlpha and the
// agent's broadcast rounds both size their steps with it, so the
// distributed trajectory matches the centralized one bit for bit.
//
//fap:zeroalloc
func DynamicAlpha(grad, hess []float64, groups [][]int, safety float64) float64 {
	var num, den float64
	for _, g := range groups {
		var avg float64
		for _, gi := range g {
			avg += grad[gi]
		}
		avg /= float64(len(g))
		for _, gi := range g {
			dev := grad[gi] - avg
			num += dev * dev // Lemma 1: Σ g(g−ḡ) = Σ (g−ḡ)²
			den += hess[gi] * dev * dev
		}
	}
	den = math.Abs(den)
	if den < 1e-300 || num <= 0 {
		return 0
	}
	return safety * 2 * num / den
}
