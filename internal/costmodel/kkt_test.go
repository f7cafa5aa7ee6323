package costmodel

import (
	"errors"
	"testing"
)

// TestVerifyKKTCertifiesSolver runs the verifier over solver output on an
// instance whose optimum has a node exactly at the support boundary:
// x_2 = 0 with marginal cost strictly above q. The certificate must accept
// the solution, and in particular must not report the zero node.
func TestVerifyKKTCertifiesSolver(t *testing.T) {
	m := mustSingleFile(t, []float64{0, 0, 100}, []float64{3}, 1, 1)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}
	if sol.X[2] != 0 {
		t.Fatalf("x_2 = %g; the instance no longer exercises the support boundary", sol.X[2])
	}
	if err := m.VerifyKKT(sol.X, sol.Q, 1e-6); err != nil {
		t.Errorf("VerifyKKT rejected the solver's own optimum: %v", err)
	}
}

// TestVerifyKKTBoundaryNoFloatNoise places a node's marginal cost at zero
// exactly on the multiplier q. Floating-point evaluation of
// C_i + k·μ_i/μ_i² can then land a few ulps below q, and a naive strict
// comparison (marginal ≥ q) would reject an optimal allocation. The
// relative tolerance must absorb that noise.
func TestVerifyKKTBoundaryNoFloatNoise(t *testing.T) {
	// Two identical cheap nodes share the file; q is their common interior
	// marginal. The third node's access cost is chosen so its marginal at
	// x = 0, C_2 + k/μ, equals q exactly in real arithmetic.
	lambda, k, mu := 1.0, 1.0, 3.0
	base := mustSingleFile(t, []float64{0, 0, 0}, []float64{mu}, lambda, k)
	x := []float64{0.5, 0.5, 0}
	room := mu - lambda*0.5
	q := 0 + k*mu/(room*room) // interior marginal of the support nodes
	c2 := q - k/mu            // marginal at zero becomes exactly q
	m := mustSingleFile(t, []float64{0, 0, c2}, []float64{mu}, lambda, k)
	if err := m.VerifyKKT(x, q, 1e-9); err != nil {
		t.Errorf("boundary node priced exactly at q was rejected: %v", err)
	}
	// Sanity: the same allocation on the base model (c2 = 0, marginal at
	// zero well below q) must be rejected — the tolerance absorbs ulps,
	// not real violations.
	if err := base.VerifyKKT(x, q, 1e-9); err == nil {
		t.Error("zero node with marginal far below q was accepted")
	}
}

// TestVerifyKKTRejectsSuboptimal checks both failure directions: mass on a
// node whose marginal exceeds q (interior violation) and an excluded node
// whose marginal is below q (boundary violation).
func TestVerifyKKTRejectsSuboptimal(t *testing.T) {
	m := mustSingleFile(t, []float64{0, 0, 100}, []float64{3}, 1, 1)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}

	// Move mass onto the priced-out node: it enters the support with a
	// marginal far above q.
	bad := []float64{sol.X[0] - 0.05, sol.X[1], 0.05}
	if err := m.VerifyKKT(bad, sol.Q, 1e-6); err == nil {
		t.Error("allocation with mass on a node whose marginal exceeds q was accepted")
	}

	// Exclude a node that belongs in the support: concentrate everything
	// on node 0 and report its marginal as q. Node 1 sits at zero with
	// marginal C_1 + k/μ < q, so the optimum stores mass there.
	conc := []float64{1, 0, 0}
	room := 3.0 - 1.0
	qConc := 0 + 1.0*3.0/(room*room)
	if err := m.VerifyKKT(conc, qConc, 1e-6); err == nil {
		t.Error("allocation excluding a node with marginal below q was accepted")
	}
}

// TestVerifyKKTValidation covers the feasibility and parameter checks.
func TestVerifyKKTValidation(t *testing.T) {
	m := mustSingleFile(t, []float64{1, 1}, []float64{3}, 1, 1)
	sol, err := m.SolveKKT(1e-12)
	if err != nil {
		t.Fatalf("SolveKKT: %v", err)
	}
	if err := m.VerifyKKT(sol.X, sol.Q, 0); !errors.Is(err, ErrBadParam) {
		t.Errorf("zero tolerance: error = %v, want ErrBadParam", err)
	}
	if err := m.VerifyKKT([]float64{0.5}, sol.Q, 1e-6); !errors.Is(err, ErrBadParam) {
		t.Errorf("wrong length: error = %v, want ErrBadParam", err)
	}
	if err := m.VerifyKKT([]float64{0.7, 0.7}, sol.Q, 1e-6); !errors.Is(err, ErrBadParam) {
		t.Errorf("infeasible sum: error = %v, want ErrBadParam", err)
	}
	if err := m.VerifyKKT([]float64{1.5, -0.5}, sol.Q, 1e-6); !errors.Is(err, ErrBadParam) {
		t.Errorf("negative entry: error = %v, want ErrBadParam", err)
	}
	slow := mustSingleFile(t, []float64{1, 1}, []float64{0.8}, 1, 1)
	if err := slow.VerifyKKT([]float64{1, 0}, 1, 1e-6); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated queue: error = %v, want ErrUnstable", err)
	}
}

// TestPriceAveragesOverSupport: the price is the mean marginal cost over
// the fragments above SupportTol; a boundary residue below it does not
// count, and an empty support prices at zero.
func TestPriceAveragesOverSupport(t *testing.T) {
	m, err := NewSingleFile([]float64{1, 2, 5}, []float64{10, 10, 10}, 1, 1)
	if err != nil {
		t.Fatal(err)
	}
	x := []float64{0.6, 0.4, SupportTol / 2}
	grad := make([]float64, 3)
	if err := m.Gradient(grad, x); err != nil {
		t.Fatal(err)
	}
	q, err := m.Price(x)
	if err != nil {
		t.Fatal(err)
	}
	if want := (-grad[0] - grad[1]) / 2; q != want {
		t.Errorf("price = %v, want %v", q, want)
	}
	if q, err := m.Price([]float64{0, 0, 0}); err != nil || q != 0 {
		t.Errorf("empty support: price = %v, err = %v, want 0, nil", q, err)
	}
	if _, err := m.Price([]float64{20, 0, 0}); !errors.Is(err, ErrUnstable) {
		t.Errorf("saturated queue: error = %v, want ErrUnstable", err)
	}
}
