package core

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

// planRef is the plain multi-pass form of the section 5.2 step, kept as
// a test-only reference for PlanStepInto: every fixed-point pass
// recomputes the curvature weights and writes and divides every delta.
// PlanStepInto must plan bit-identical steps and return identical errors.
func planRef(step *Step, x, grad, hess []float64, group []int, alpha float64) error {
	return planRefCycles(step, x, grad, hess, group, alpha, true)
}

// planRefCycles is planRef; with endCycles false it lacks the rule that
// ends a drop and re-admit cycle, as the planner did before the rule, and
// rejects such an input at the pass cap.
func planRefCycles(step *Step, x, grad, hess []float64, group []int, alpha float64, endCycles bool) error {
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
	// logic error, not a hard problem instance. A pass that drops only
	// the variable the previous pass re-admitted returns to that pass's
	// A, which would re-admit it again: A is then final.
	readmitted, settled := -1, false
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
			avg = curvedMeanRef(step.Active, grad, hess, group)
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
		if settled {
			break
		}

		// Paper step (i), boundary case: exclude variables at zero
		// whose share would shrink further.
		var dropped []int
		for k, on := range step.Active {
			if on && x[group[k]] <= BoundaryTol && step.Delta[k] <= 0 {
				step.Active[k] = false
				dropped = append(dropped, k)
			}
		}
		if len(dropped) > 0 {
			settled = endCycles && len(dropped) == 1 && dropped[0] == readmitted
			readmitted = -1
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
			readmitted = best
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

// planInto names the planner under test, PlanStepInto, in the oracle
// below.
var planInto = PlanStepInto

// IsNoOp reports whether the step moves nothing: the reference for the
// moves flag PlanStepInto returns.
func (s Step) IsNoOp() bool {
	for _, d := range s.Delta {
		if d != 0 {
			return false
		}
	}
	return true
}

// Spread returns the largest pairwise difference of marginal utilities over
// the active set, 0 for an empty one: the reference for the spread
// PlanStepInto returns.
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

// curvedMeanRef returns the curvature-weighted average over the active
// set, ν = Σ_{i∈A} w_i·g_i / Σ_{i∈A} w_i with w_i = 1/|h_i|: the
// second-order direction's counterpart of the plain mean.
func curvedMeanRef(active []bool, grad, hess []float64, group []int) float64 {
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

// planInstance is one input to the step planner.
type planInstance struct {
	x, grad, hess []float64
	group         []int
	alpha         float64
}

// randomPlanInstance draws a planner input over up to 16 variables,
// first or second order, built to reach every branch of the plan: shares
// at, inside and just above the boundary band; marginal utilities drawn
// from a small pool so excluded variables tie; groups that sit wholly on
// the boundary with equal marginals (an empty active set); singleton
// groups; zero marginal utilities of both signs; stepsizes up to 10, so
// the ratio test fires; curvatures from 1e-6 to 1e6, and in one
// instance in 32 from 1e-300 to 1e308 with stepsizes down to 1e-300, so
// deltas underflow and overflow. About one instance in twelve is
// corrupted with one to
// three faults at random positions — a non-finite marginal utility, bad
// curvature, an index outside the allocation, a bad stepsize, mismatched
// lengths or an empty group — so the order of the checks is exercised.
func randomPlanInstance(r *rand.Rand) planInstance {
	m := 1 + r.Intn(16)
	n := m + r.Intn(3)
	group := r.Perm(n)[:m]
	onBoundary := r.Intn(8) == 0
	tied := r.Intn(8) == 0
	extreme := r.Intn(16) == 0
	pool := []float64{-1, -2, -2.5, -3, 0.5, 0, math.Copysign(0, -1)}
	scale := math.Pow(10, -3+6*r.Float64())

	x := make([]float64, n)
	grad := make([]float64, n)
	for i := range x {
		switch c := r.Intn(8); {
		case onBoundary || c == 0:
			x[i] = 0
		case c == 1:
			x[i] = BoundaryTol * r.Float64()
		case c == 2:
			x[i] = BoundaryTol
		case c == 3:
			x[i] = 2 * BoundaryTol
		default:
			x[i] = r.Float64()
		}
		switch {
		case tied:
			grad[i] = pool[0] * scale
		case r.Intn(2) == 0:
			grad[i] = pool[r.Intn(len(pool))] * scale
		default:
			grad[i] = -r.ExpFloat64() * scale
		}
	}
	var hess []float64
	if r.Intn(2) == 0 {
		hess = make([]float64, n)
		for i := range hess {
			hess[i] = -math.Pow(10, -6+12*r.Float64())
		}
	}
	in := planInstance{x: x, grad: grad, hess: hess, group: group, alpha: math.Pow(10, -3+4*r.Float64())}
	if extreme && hess != nil {
		for i := range hess {
			hess[i] = -math.Pow(10, -300+608*r.Float64())
		}
		in.alpha = math.Pow(10, -300+301*r.Float64())
	}

	if r.Intn(12) != 0 {
		return in
	}
	bad := []float64{math.NaN(), math.Inf(1), math.Inf(-1)}
	for faults := 1 + r.Intn(3); faults > 0; faults-- {
		switch r.Intn(7) {
		case 0:
			in.grad[r.Intn(n)] = bad[r.Intn(len(bad))]
		case 1:
			if in.hess != nil {
				badCurv := []float64{0, math.Copysign(0, -1), 1, math.NaN(), math.Inf(-1), math.Inf(1)}
				in.hess[r.Intn(n)] = badCurv[r.Intn(len(badCurv))]
			}
		case 2:
			if r.Intn(2) == 0 {
				in.group[r.Intn(m)] = n + r.Intn(2)
			} else {
				in.group[r.Intn(m)] = -1
			}
		case 3:
			in.alpha = []float64{0, -1, math.NaN(), math.Inf(1)}[r.Intn(4)]
		case 4:
			in.grad = in.grad[:n-1]
		case 5:
			in.group = nil
		case 6:
			if gi := in.group[r.Intn(m)]; gi >= 0 && gi < n {
				in.grad[gi] = bad[r.Intn(len(bad))]
			}
		}
		if in.group == nil || len(in.grad) < n {
			break // later faults would index what these removed
		}
	}
	return in
}

// sameError reports whether two planner errors are the same: both nil,
// or the same message wrapping the same sentinels.
func sameError(a, b error) bool {
	if a == nil || b == nil {
		return a == nil && b == nil
	}
	for _, s := range []error{ErrBadConfig, ErrDimension, ErrDiverged} {
		if errors.Is(a, s) != errors.Is(b, s) {
			return false
		}
	}
	return a.Error() == b.Error()
}

// sameBits reports whether two floats are identical bit for bit, or are
// both NaN.
func sameBits(a, b float64) bool {
	return math.Float64bits(a) == math.Float64bits(b) || (math.IsNaN(a) && math.IsNaN(b))
}

// diffPlan returns "" when got and want are the same plan: Delta and
// Active bit for bit, AvgMarginal (NaN-aware) and Truncation.
func diffPlan(got, want *Step) string {
	if len(got.Delta) != len(want.Delta) || len(got.Active) != len(want.Active) {
		return fmt.Sprintf("shape: got %d/%d entries, want %d/%d", len(got.Delta), len(got.Active), len(want.Delta), len(want.Active))
	}
	for k := range want.Delta {
		if math.Float64bits(got.Delta[k]) != math.Float64bits(want.Delta[k]) {
			return fmt.Sprintf("Delta[%d] = %v, want %v", k, got.Delta[k], want.Delta[k])
		}
		if got.Active[k] != want.Active[k] {
			return fmt.Sprintf("Active[%d] = %v, want %v", k, got.Active[k], want.Active[k])
		}
	}
	if !sameBits(got.AvgMarginal, want.AvgMarginal) {
		return fmt.Sprintf("AvgMarginal = %v, want %v", got.AvgMarginal, want.AvgMarginal)
	}
	if math.Float64bits(got.Truncation) != math.Float64bits(want.Truncation) {
		return fmt.Sprintf("Truncation = %v, want %v", got.Truncation, want.Truncation)
	}
	return ""
}

// TestPlanIntoMatchesReference is the differential oracle for the step
// planner: 120k seeded instances (see randomPlanInstance) run through
// planInto, into one Step reused across every instance so stale buffer
// contents would show, and through planRef into a fresh Step. Plans must
// agree bit for bit and errors must match in message and sentinel, and
// the spread and no-op flag planInto returns must be what Step.Spread
// and Step.IsNoOp read off the reference plan. The
// branch counters fail the test if the generator stops reaching the
// cases it is meant to cover.
func TestPlanIntoMatchesReference(t *testing.T) {
	const instances = 120000
	r := rand.New(rand.NewSource(20260531))
	var reused Step
	var truncated, empty, singleton, dropped, failed, secondOrder int
	for i := 0; i < instances; i++ {
		in := randomPlanInstance(r)
		var want Step
		wantErr := planRef(&want, in.x, in.grad, in.hess, in.group, in.alpha)
		spread, moves, gotErr := planInto(&reused, in.x, in.grad, in.hess, in.group, in.alpha)
		if !sameError(gotErr, wantErr) {
			t.Fatalf("instance %d (%+v): error %v, want %v", i, in, gotErr, wantErr)
		}
		if wantErr != nil {
			failed++
			continue
		}
		if d := diffPlan(&reused, &want); d != "" {
			t.Fatalf("instance %d (%+v): %s", i, in, d)
		}
		if sp := want.Spread(in.grad, in.group); math.Float64bits(spread) != math.Float64bits(sp) {
			t.Fatalf("instance %d (%+v): spread %v, want Step.Spread %v", i, in, spread, sp)
		}
		if moves == want.IsNoOp() {
			t.Fatalf("instance %d (%+v): moves = %v, but IsNoOp = %v", i, in, moves, want.IsNoOp())
		}
		active := 0
		for k, on := range want.Active {
			if on {
				active++
			} else if in.x[in.group[k]] <= BoundaryTol {
				dropped++
			}
		}
		switch {
		case active == 0:
			empty++
		case active == 1:
			singleton++
		}
		if want.Truncation < 1 {
			truncated++
		}
		if in.hess != nil {
			secondOrder++
		}
	}
	t.Logf("%d instances: %d second order, %d rejected, %d truncated, %d empty and %d singleton active sets, %d boundary exclusions",
		instances, secondOrder, failed, truncated, empty, singleton, dropped)
	for _, c := range []struct {
		name    string
		n, want int
	}{
		{"second-order", secondOrder, instances / 3},
		{"rejected", failed, instances / 20},
		{"truncated", truncated, instances / 10},
		{"empty active set", empty, 1000},
		{"singleton active set", singleton, 1000},
		{"boundary exclusion", dropped, instances / 4},
	} {
		if c.n < c.want {
			t.Errorf("only %d %s instances, want at least %d", c.n, c.name, c.want)
		}
	}
}

// TestPlanIntoMatchesReferenceErrors pins the checks the generator
// cannot reach and the order of the ones it can, one instance each.
func TestPlanIntoMatchesReferenceErrors(t *testing.T) {
	nan, inf := math.NaN(), math.Inf(1)
	x := []float64{0.5, 0.25, 0.25}
	g := []float64{-1, -2, -3}
	cases := []struct {
		name          string
		nilStep       bool
		x, grad, hess []float64
		group         []int
		alpha         float64
	}{
		{"nil step", true, x, g, nil, seq(3), 0.1},
		{"nil step before dimensions", true, x, g[:2], nil, seq(3), 0.1},
		{"dimensions before alpha", false, x, g[:2], nil, seq(3), -1},
		{"alpha before empty group", false, x, g, nil, nil, nan},
		{"index before later gradient", false, x, []float64{-1, nan, -3}, nil, []int{0, 3, 1}, 0.1},
		{"gradient before later index", false, x, []float64{-1, nan, -3}, nil, []int{0, 1, 3}, 0.1},
		{"gradient before earlier curvature", false, x, []float64{-1, -2, inf}, []float64{0, -2, -3}, seq(3), 0.1},
		{"first bad curvature", false, x, g, []float64{-1, nan, 0}, seq(3), 0.1},
		{"infinite curvature", false, x, g, []float64{-1, -2, -inf}, []int{2, 0}, 0.1},
		{"positive curvature", false, x, g, []float64{-1, 2, -3}, []int{2, 1, 0}, 0.1},
	}
	for _, c := range cases {
		var got, want *Step
		if !c.nilStep {
			got, want = &Step{}, &Step{}
		}
		wantErr := planRef(want, c.x, c.grad, c.hess, c.group, c.alpha)
		_, _, gotErr := PlanStepInto(got, c.x, c.grad, c.hess, c.group, c.alpha)
		if wantErr == nil {
			t.Fatalf("%s: reference accepted the instance", c.name)
		}
		if !sameError(gotErr, wantErr) {
			t.Errorf("%s: error %v, want %v", c.name, gotErr, wantErr)
		}
	}
}

// TestPlanStepIntoEndsRoundingCycles pins inputs on which a pass drops
// only the variable the previous pass re-admitted. The pair of passes
// would repeat until the pass cap, so the planner ends the fixed point at
// the active set without the newcomer. The reference without that rule
// still rejects both inputs as ErrDiverged; the planner's step must match
// the reference with it and be zero-sum, feasible and an ascent.
func TestPlanStepIntoEndsRoundingCycles(t *testing.T) {
	cases := []struct {
		name          string
		x, grad, hess []float64
		alpha         float64
	}{
		// The fourth variable's marginal utility is the rounded mean
		// of all four, so it is dropped with a zero trial delta and
		// beats the mean of the other three. FuzzPlanStep found it.
		{"rounding cycle", []float64{0.1111111111111111, 4.4, 41, 0}, []float64{-1, -1, -5, -2.333333333333333}, nil, 34.4},
		// The third variable beats the mean of the first two and is
		// re-admitted; its trial delta then underflows to zero against
		// its huge curvature.
		{"drop and re-admit cycle", []float64{0.5, 0.5, 0}, []float64{-1, -1, -1 + 0x1p-52}, []float64{-1, -1, -1e308}, 1e-10},
	}
	for _, c := range cases {
		group := seq(len(c.x))
		var st, ref, cyc Step
		if _, _, err := PlanStepInto(&st, c.x, c.grad, c.hess, group, c.alpha); err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		if err := planRefCycles(&cyc, c.x, c.grad, c.hess, group, c.alpha, false); !errors.Is(err, ErrDiverged) {
			t.Errorf("%s: reference without the cycle rule: error %v, want ErrDiverged", c.name, err)
		}
		if err := planRef(&ref, c.x, c.grad, c.hess, group, c.alpha); err != nil {
			t.Fatalf("%s: reference: %v", c.name, err)
		}
		if d := diffPlan(&st, &ref); d != "" {
			t.Errorf("%s: %s", c.name, d)
		}
		if last := len(group) - 1; st.Active[last] {
			t.Errorf("%s: the cycling variable stayed in the active set", c.name)
		}
		var sum, scale, dot float64
		for k, gi := range group {
			d := st.Delta[k]
			sum += d
			scale += math.Abs(d)
			dot += c.grad[gi] * d
			if c.x[gi]+d < 0 {
				t.Errorf("%s: variable %d driven to %g", c.name, gi, c.x[gi]+d)
			}
		}
		if math.Abs(sum) > 1e-15*(1+scale) || dot < 0 {
			t.Errorf("%s: Σδ = %g, ⟨g, δ⟩ = %g, want 0 and ≥ 0 (δ = %v)", c.name, sum, dot, st.Delta)
		}
	}
}

// TestCycleRuleChangesOnlyRejectedPlans runs the differential oracle's
// instances against the reference without the cycle rule: every plan it
// returns, PlanStepInto returns bit for bit, and every error is the same
// except some of its pass-cap ErrDiverged rejections, which the rule
// turns into plans. Cycles through more than one variable at a time are
// not ended by the rule and stay rejected.
func TestCycleRuleChangesOnlyRejectedPlans(t *testing.T) {
	const instances = 120000
	r := rand.New(rand.NewSource(20260531))
	var got Step
	cycles, ended := 0, 0
	for i := 0; i < instances; i++ {
		in := randomPlanInstance(r)
		var want Step
		wantErr := planRefCycles(&want, in.x, in.grad, in.hess, in.group, in.alpha, false)
		_, _, err := PlanStepInto(&got, in.x, in.grad, in.hess, in.group, in.alpha)
		if errors.Is(wantErr, ErrDiverged) && strings.Contains(wantErr.Error(), "fixed point") {
			cycles++
			if err == nil {
				ended++
				continue
			}
		}
		if !sameError(err, wantErr) {
			t.Fatalf("instance %d (%+v): error %v, want %v", i, in, err, wantErr)
		}
		if wantErr == nil {
			if d := diffPlan(&got, &want); d != "" {
				t.Fatalf("instance %d (%+v): %s", i, in, d)
			}
		}
	}
	t.Logf("%d of %d instances cycle without the rule; it ends %d", cycles, instances, ended)
	if ended < 100 {
		t.Errorf("the rule ended only %d cycles, want at least 100", ended)
	}
}
