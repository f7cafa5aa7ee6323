package costmodel

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"filealloc/internal/core"
)

// numericGradient estimates ∂f/∂x_i with central differences.
func numericGradient(t *testing.T, f func([]float64) (float64, error), x []float64, h float64) []float64 {
	t.Helper()
	grad := make([]float64, len(x))
	for i := range x {
		xp := append([]float64(nil), x...)
		xm := append([]float64(nil), x...)
		xp[i] += h
		xm[i] -= h
		fp, err := f(xp)
		if err != nil {
			t.Fatalf("numeric gradient at +h: %v", err)
		}
		fm, err := f(xm)
		if err != nil {
			t.Fatalf("numeric gradient at -h: %v", err)
		}
		grad[i] = (fp - fm) / (2 * h)
	}
	return grad
}

func mustSingleFile(t *testing.T, access []float64, mu []float64, lambda, k float64) *SingleFile {
	t.Helper()
	m, err := NewSingleFile(access, mu, lambda, k)
	if err != nil {
		t.Fatalf("NewSingleFile: %v", err)
	}
	return m
}

func TestSingleFileCostPaperValues(t *testing.T) {
	// The paper's figure 2-3 configuration: 4 nodes with identical access
	// costs C_i = 2 (unit ring, round trip), μ = 1.5, λ = 1, k = 1.
	m := mustSingleFile(t, []float64{2, 2, 2, 2}, []float64{1.5}, 1, 1)

	tests := []struct {
		name string
		x    []float64
		want float64
	}{
		// Uniform optimum: 2 + 1/(1.5 − 0.25) = 2.8.
		{"uniform optimum", []float64{0.25, 0.25, 0.25, 0.25}, 2.8},
		// Whole file at one node: 2 + 1/(1.5 − 1) = 4 (figure 4's
		// integral start).
		{"integral", []float64{0, 0, 0, 1}, 4},
		{"paper start", []float64{0.8, 0.1, 0.1, 0}, 0.8*(2+1/0.7) + 0.2*(2+1/1.4)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			got, err := m.Cost(tt.x)
			if err != nil {
				t.Fatalf("Cost: %v", err)
			}
			if math.Abs(got-tt.want) > 1e-12 {
				t.Errorf("Cost = %v, want %v", got, tt.want)
			}
			u, err := m.Utility(tt.x)
			if err != nil {
				t.Fatalf("Utility: %v", err)
			}
			if u != -got {
				t.Errorf("Utility = %v, want %v", u, -got)
			}
		})
	}
}

func TestSingleFileGradientMatchesFiniteDifferences(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for trial := 0; trial < 40; trial++ {
		n := 2 + rng.Intn(8)
		access := make([]float64, n)
		mu := make([]float64, n)
		for i := range access {
			access[i] = rng.Float64() * 10
			mu[i] = 2 + rng.Float64()*3
		}
		lambda := 0.5 + rng.Float64()
		m := mustSingleFile(t, access, mu, lambda, 0.5+rng.Float64()*2)
		x := randomSimplex(rng, n, 1)
		grad := make([]float64, n)
		if err := m.Gradient(grad, x); err != nil {
			t.Fatalf("trial %d: Gradient: %v", trial, err)
		}
		num := numericGradient(t, m.Utility, x, 1e-6)
		for i := range grad {
			if math.Abs(grad[i]-num[i]) > 1e-4*(1+math.Abs(num[i])) {
				t.Errorf("trial %d: grad[%d] = %g, numeric %g", trial, i, grad[i], num[i])
			}
		}
		hess := make([]float64, n)
		if err := m.SecondDerivative(hess, x); err != nil {
			t.Fatalf("trial %d: SecondDerivative: %v", trial, err)
		}
		gfun := func(i int) func([]float64) (float64, error) {
			return func(y []float64) (float64, error) {
				g := make([]float64, n)
				if err := m.Gradient(g, y); err != nil {
					return 0, err
				}
				return g[i], nil
			}
		}
		for i := range hess {
			num := numericGradient(t, gfun(i), x, 1e-6)
			if math.Abs(hess[i]-num[i]) > 1e-3*(1+math.Abs(num[i])) {
				t.Errorf("trial %d: hess[%d] = %g, numeric %g", trial, i, hess[i], num[i])
			}
		}
	}
}

// randomSimplex returns a random non-negative vector of length n summing to
// total, with occasional exact zeros.
func randomSimplex(rng *rand.Rand, n int, total float64) []float64 {
	x := make([]float64, n)
	var s float64
	for i := range x {
		if rng.Intn(5) == 0 {
			continue
		}
		x[i] = rng.Float64()
		s += x[i]
	}
	if s == 0 {
		x[0] = 1
		s = 1
	}
	for i := range x {
		x[i] *= total / s
	}
	return x
}

func TestSingleFileUnstableAllocation(t *testing.T) {
	// μ = 1.2, λ = 2: placing more than 60% of the file at one node
	// saturates its queue.
	m := mustSingleFile(t, []float64{1, 1}, []float64{1.2}, 2, 1)
	if _, err := m.Cost([]float64{0.7, 0.3}); !errors.Is(err, ErrUnstable) {
		t.Errorf("Cost error = %v, want ErrUnstable", err)
	}
	grad := make([]float64, 2)
	if err := m.Gradient(grad, []float64{0.7, 0.3}); !errors.Is(err, ErrUnstable) {
		t.Errorf("Gradient error = %v, want ErrUnstable", err)
	}
	hess := make([]float64, 2)
	if err := m.SecondDerivative(hess, []float64{0.7, 0.3}); !errors.Is(err, ErrUnstable) {
		t.Errorf("SecondDerivative error = %v, want ErrUnstable", err)
	}
	// Stable allocations still evaluate.
	if _, err := m.Cost([]float64{0.5, 0.5}); err != nil {
		t.Errorf("stable allocation errored: %v", err)
	}
}

func TestSingleFileValidation(t *testing.T) {
	tests := []struct {
		name   string
		access []float64
		mu     []float64
		lambda float64
		k      float64
	}{
		{"no nodes", nil, []float64{1}, 1, 1},
		{"bad lambda", []float64{1}, []float64{2}, 0, 1},
		{"negative k", []float64{1}, []float64{2}, 1, -1},
		{"negative access cost", []float64{-1}, []float64{2}, 1, 1},
		{"wrong mu count", []float64{1, 1, 1}, []float64{2, 2}, 1, 1},
		{"zero mu", []float64{1}, []float64{0}, 1, 1},
		{"nan access", []float64{math.NaN()}, []float64{2}, 1, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := NewSingleFile(tt.access, tt.mu, tt.lambda, tt.k); !errors.Is(err, ErrBadParam) {
				t.Errorf("error = %v, want ErrBadParam", err)
			}
		})
	}
}

func TestSingleFileAccessors(t *testing.T) {
	m := mustSingleFile(t, []float64{1, 2}, []float64{3, 4}, 0.5, 2)
	if m.Dim() != 2 || m.Lambda() != 0.5 || m.K() != 2 {
		t.Errorf("accessors: dim=%d λ=%v k=%v", m.Dim(), m.Lambda(), m.K())
	}
	if m.AccessCost(1) != 2 || m.ServiceRate(0) != 3 {
		t.Errorf("per-node accessors wrong: C_1=%v μ_0=%v", m.AccessCost(1), m.ServiceRate(0))
	}
}

func TestSingleFileComponents(t *testing.T) {
	m := mustSingleFile(t, []float64{2, 2, 2, 2}, []float64{1.5}, 1, 1)
	x := []float64{0.25, 0.25, 0.25, 0.25}
	comm, delay, err := m.Components(x)
	if err != nil {
		t.Fatalf("Components: %v", err)
	}
	if math.Abs(comm-2) > 1e-12 {
		t.Errorf("comm = %v, want 2", comm)
	}
	if math.Abs(delay-0.8) > 1e-12 {
		t.Errorf("delay = %v, want 0.8", delay)
	}
	cost, err := m.Cost(x)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(comm+m.K()*delay-cost) > 1e-12 {
		t.Errorf("components do not add up: %v + %v ≠ %v", comm, delay, cost)
	}
}

func TestAlphaBoundGuaranteesMonotonicity(t *testing.T) {
	// Theorem 2: with α below the bound, every iteration strictly
	// increases utility until convergence. Tested over random instances
	// with homogeneous μ.
	rng := rand.New(rand.NewSource(23))
	for trial := 0; trial < 20; trial++ {
		n := 3 + rng.Intn(6)
		access := make([]float64, n)
		for i := range access {
			access[i] = rng.Float64() * 5
		}
		lambda := 0.5 + rng.Float64()
		mu := lambda + 0.5 + rng.Float64()
		m := mustSingleFile(t, access, []float64{mu}, lambda, 0.5+rng.Float64())
		eps := 1e-3
		bound, err := m.AlphaBound(eps)
		if err != nil {
			t.Fatalf("trial %d: AlphaBound: %v", trial, err)
		}
		if bound <= 0 {
			t.Fatalf("trial %d: bound = %v", trial, bound)
		}
		x := randomSimplex(rng, n, 1)
		grad := make([]float64, n)
		prev, err := m.Utility(x)
		if err != nil {
			t.Fatal(err)
		}
		group := make([]int, n)
		for i := range group {
			group[i] = i
		}
		// The bound is conservative, so convergence at α=bound can take
		// astronomically long; verify strict monotonicity on a prefix.
		var st core.Step
		for it := 0; it < 200; it++ {
			if err := m.Gradient(grad, x); err != nil {
				t.Fatal(err)
			}
			spread, moves, err := core.PlanStepInto(&st, x, grad, nil, group, bound)
			if err != nil {
				t.Fatal(err)
			}
			if spread < eps || !moves {
				break
			}
			if err := st.Apply(x, group); err != nil {
				t.Fatal(err)
			}
			u, err := m.Utility(x)
			if err != nil {
				t.Fatal(err)
			}
			if u <= prev {
				t.Fatalf("trial %d: utility not strictly increasing at iteration %d: %g -> %g", trial, it, prev, u)
			}
			prev = u
		}
	}
}

func TestAlphaBoundValidation(t *testing.T) {
	m := mustSingleFile(t, []float64{1, 2}, []float64{2, 3}, 1, 1)
	if _, err := m.AlphaBound(1e-3); !errors.Is(err, ErrBadParam) {
		t.Errorf("heterogeneous μ: error = %v, want ErrBadParam", err)
	}
	m2 := mustSingleFile(t, []float64{1, 2}, []float64{0.5}, 1, 1)
	if _, err := m2.AlphaBound(1e-3); !errors.Is(err, ErrBadParam) {
		t.Errorf("μ ≤ λ: error = %v, want ErrBadParam", err)
	}
	m3 := mustSingleFile(t, []float64{1, 2}, []float64{2}, 1, 1)
	if _, err := m3.AlphaBound(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero epsilon: error = %v, want ErrBadParam", err)
	}
}

func TestSolveKKTMatchesIterativeAlgorithm(t *testing.T) {
	// The iterative algorithm and the independent water-filling solver
	// must agree on random instances.
	rng := rand.New(rand.NewSource(31))
	for trial := 0; trial < 25; trial++ {
		n := 2 + rng.Intn(8)
		access := make([]float64, n)
		for i := range access {
			access[i] = rng.Float64() * 6
		}
		lambda := 0.5 + rng.Float64()
		mu := lambda + 0.3 + rng.Float64()*2
		m := mustSingleFile(t, access, []float64{mu}, lambda, 0.3+rng.Float64())

		sol, err := m.SolveKKT(1e-12)
		if err != nil {
			t.Fatalf("trial %d: SolveKKT: %v", trial, err)
		}
		alloc, err := core.NewAllocator(m, core.WithAlpha(0.02), core.WithEpsilon(1e-8),
			core.WithKKTCheck(), core.WithMaxIterations(500000))
		if err != nil {
			t.Fatal(err)
		}
		res, err := alloc.Run(context.Background(), topologyUniform(n))
		if err != nil {
			t.Fatalf("trial %d: Run: %v", trial, err)
		}
		if !res.Converged {
			t.Fatalf("trial %d: %v after %d iterations", trial, res.Reason, res.Iterations)
		}
		iterCost := -res.Utility
		if math.Abs(iterCost-sol.Cost) > 1e-5*(1+sol.Cost) {
			t.Errorf("trial %d: iterative cost %.9f vs KKT cost %.9f", trial, iterCost, sol.Cost)
		}
		for i := range sol.X {
			if math.Abs(sol.X[i]-res.X[i]) > 1e-3 {
				t.Errorf("trial %d: x[%d]: iterative %.6f vs KKT %.6f", trial, i, res.X[i], sol.X[i])
			}
		}
	}
}

func topologyUniform(n int) []float64 {
	x := make([]float64, n)
	for i := range x {
		x[i] = 1 / float64(n)
	}
	return x
}

func TestSolveKKTSymmetric(t *testing.T) {
	m := mustSingleFile(t, []float64{2, 2, 2, 2}, []float64{1.5}, 1, 1)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}
	for i, xi := range sol.X {
		if math.Abs(xi-0.25) > 1e-6 {
			t.Errorf("x[%d] = %g, want 0.25", i, xi)
		}
	}
	if math.Abs(sol.Cost-2.8) > 1e-9 {
		t.Errorf("cost = %g, want 2.8", sol.Cost)
	}
}

func TestSolveKKTLinear(t *testing.T) {
	// k = 0: pure communication cost, optimum concentrates on the
	// cheapest node.
	m := mustSingleFile(t, []float64{3, 1, 2}, []float64{2}, 1, 0)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}
	if sol.X[1] != 1 || sol.X[0] != 0 || sol.X[2] != 0 {
		t.Errorf("X = %v, want (0,1,0)", sol.X)
	}
	if sol.Cost != 1 {
		t.Errorf("cost = %v, want 1", sol.Cost)
	}
}

func TestSolveKKTBoundarySupport(t *testing.T) {
	// One node is so expensive it must receive nothing.
	m := mustSingleFile(t, []float64{0, 0, 100}, []float64{3}, 1, 1)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}
	if sol.X[2] != 0 {
		t.Errorf("expensive node received %g, want 0", sol.X[2])
	}
	if math.Abs(sol.X[0]-0.5) > 1e-6 || math.Abs(sol.X[1]-0.5) > 1e-6 {
		t.Errorf("X = %v, want (0.5, 0.5, 0)", sol.X)
	}
}

func TestSolveKKTValidation(t *testing.T) {
	m := mustSingleFile(t, []float64{1}, []float64{2}, 1, 1)
	if _, err := m.SolveKKT(0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero tolerance: error = %v, want ErrBadParam", err)
	}
}
