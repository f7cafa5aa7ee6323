package core

import (
	"errors"
	"math"
	"math/rand"
	"testing"
)

// TestRenormalizeSumExactWithinOneUlp is the Theorem-1 property test: over
// many seeded random allocations and survivor groups, the renormalized
// group sums to 1 within 1 ulp and everything outside the group is zero.
func TestRenormalizeSumExactWithinOneUlp(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	ulp := math.Nextafter(1, 2) - 1
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(12)
		x := make([]float64, n)
		for i := range x {
			x[i] = rng.Float64() * 2
		}
		// A random nonempty survivor subset, in random order.
		perm := rng.Perm(n)
		group := perm[:1+rng.Intn(n)]
		if err := Renormalize(x, group); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		inGroup := make(map[int]bool, len(group))
		for _, gi := range group {
			inGroup[gi] = true
		}
		var sum float64
		for i, xi := range x {
			if !inGroup[i] {
				if xi != 0 {
					t.Fatalf("trial %d: x[%d] = %v outside group", trial, i, xi)
				}
				continue
			}
			if xi < 0 {
				t.Fatalf("trial %d: x[%d] = %v negative", trial, i, xi)
			}
			sum += xi
		}
		if math.Abs(sum-1) > ulp {
			t.Fatalf("trial %d: Σx = %v, off by %v > 1 ulp", trial, sum, sum-1)
		}
	}
}

func TestRenormalizeZeroMassGoesToLowestIndex(t *testing.T) {
	x := []float64{0.5, 0, 0, 0.5}
	if err := Renormalize(x, []int{2, 1}); err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 1, 0, 0}
	for i := range want {
		if x[i] != want[i] {
			t.Fatalf("x = %v, want %v", x, want)
		}
	}
}

func TestRenormalizeRejectsBadInput(t *testing.T) {
	if err := Renormalize([]float64{1, 0}, nil); !errors.Is(err, ErrBadConfig) {
		t.Errorf("empty group = %v, want ErrBadConfig", err)
	}
	if err := Renormalize([]float64{1, 0}, []int{0, 2}); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range index = %v, want ErrDimension", err)
	}
	if err := Renormalize([]float64{1, 0}, []int{0, 0}); !errors.Is(err, ErrBadConfig) {
		t.Errorf("duplicate index = %v, want ErrBadConfig", err)
	}
	if err := Renormalize([]float64{-0.5, 1}, []int{0, 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("negative fragment = %v, want ErrInfeasible", err)
	}
	if err := Renormalize([]float64{math.NaN(), 1}, []int{0, 1}); !errors.Is(err, ErrInfeasible) {
		t.Errorf("NaN fragment = %v, want ErrInfeasible", err)
	}
}

func TestRenormalizeIsDeterministic(t *testing.T) {
	a := []float64{0.3, 0.2, 0.1, 0.4}
	b := append([]float64(nil), a...)
	if err := Renormalize(a, []int{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	if err := Renormalize(b, []int{0, 2, 3}); err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("replays differ at %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// TestAscentNonNegativeOnPlannedSteps is the Theorem-2 certificate: the
// step PlanStepInto constructs always predicts ΔU ≥ 0 over its own group,
// whatever subset the quorum produced.
func TestAscentNonNegativeOnPlannedSteps(t *testing.T) {
	rng := rand.New(rand.NewSource(1986))
	for trial := 0; trial < 2000; trial++ {
		n := 2 + rng.Intn(10)
		x := make([]float64, n)
		grad := make([]float64, n)
		var sum float64
		for i := range x {
			x[i] = rng.Float64()
			sum += x[i]
			grad[i] = -5 * rng.Float64()
		}
		for i := range x {
			x[i] /= sum
		}
		perm := rng.Perm(n)
		group := perm[:2+rng.Intn(n-1)]
		step, err := plan(x, grad, nil, group, 0.1+rng.Float64())
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		du, err := Ascent(grad, group, step)
		if err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
		if du < 0 {
			t.Fatalf("trial %d: planned step predicts ΔU = %v < 0", trial, du)
		}
	}
}

func TestAscentRejectsShapeMismatch(t *testing.T) {
	s := Step{Delta: []float64{1, -1}}
	if _, err := Ascent([]float64{1, 2, 3}, []int{0, 1, 2}, s); !errors.Is(err, ErrDimension) {
		t.Errorf("mismatched step = %v, want ErrDimension", err)
	}
	if _, err := Ascent([]float64{1}, []int{0, 5}, s); !errors.Is(err, ErrDimension) {
		t.Errorf("out-of-range group = %v, want ErrDimension", err)
	}
}
