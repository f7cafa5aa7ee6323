package topology

import (
	"errors"
	"math"
	"testing"
)

func TestPairCostsConventions(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	rt, err := PairCosts(g, RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	ow, err := PairCosts(g, OneWay)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if rt[i][i] != 0 || ow[i][i] != 0 {
			t.Errorf("self cost nonzero at %d", i)
		}
		for j := 0; j < 4; j++ {
			if rt[i][j] != 2*ow[i][j] {
				t.Errorf("round trip (%d,%d) = %g, want 2x one-way %g", i, j, rt[i][j], ow[i][j])
			}
		}
	}
	if ow[0][2] != 2 || ow[0][1] != 1 {
		t.Errorf("one-way distances wrong: %v", ow[0])
	}
}

func TestAccessCostsSymmetricRing(t *testing.T) {
	// Figure 2's configuration: uniform rates on a symmetric ring give
	// identical C_i: with unit links and round trips, each node sees
	// (0+2+4+2)/4 = 2.
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	access, err := AccessCosts(g, UniformRates(4, 1), RoundTrip)
	if err != nil {
		t.Fatalf("AccessCosts: %v", err)
	}
	for i, c := range access {
		if math.Abs(c-2) > 1e-12 {
			t.Errorf("C_%d = %g, want 2", i, c)
		}
	}
}

func TestAccessCostsWeightsByRate(t *testing.T) {
	// All accesses come from node 0 on a line 0-1-2: C_i is then just
	// the distance from node 0 (round trip).
	g, err := Line(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	access, err := AccessCosts(g, []float64{1, 0, 0}, RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	want := []float64{0, 2, 4}
	for i := range want {
		if math.Abs(access[i]-want[i]) > 1e-12 {
			t.Errorf("C_%d = %g, want %g", i, access[i], want[i])
		}
	}
}

func TestAccessCostsStarFavorsHub(t *testing.T) {
	g, err := Star(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	access, err := AccessCosts(g, UniformRates(5, 1), RoundTrip)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < 5; i++ {
		if access[0] >= access[i] {
			t.Errorf("hub cost %g not below leaf %d cost %g", access[0], i, access[i])
		}
	}
}

func TestAccessCostsValidation(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		name  string
		rates []float64
	}{
		{"wrong length", []float64{1, 1}},
		{"negative rate", []float64{1, -1, 1, 1}},
		{"zero total", []float64{0, 0, 0, 0}},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := AccessCosts(g, tt.rates, RoundTrip); !errors.Is(err, ErrBadRates) {
				t.Errorf("error = %v, want ErrBadRates", err)
			}
		})
	}
}

func TestUniformRates(t *testing.T) {
	rates := UniformRates(8, 2)
	var sum float64
	for _, r := range rates {
		if r != 0.25 {
			t.Errorf("rate = %g, want 0.25", r)
		}
		sum += r
	}
	if math.Abs(sum-2) > 1e-12 {
		t.Errorf("total = %g, want 2", sum)
	}
}

func TestCostConventionString(t *testing.T) {
	if RoundTrip.String() != "round-trip" || OneWay.String() != "one-way" {
		t.Error("convention names wrong")
	}
	if CostConvention(9).String() != "CostConvention(9)" {
		t.Error("unknown convention formatting wrong")
	}
}

// TestAccessCostsFromPairs reduces a hand-built pair-cost matrix:
// C_i = Σ_j (λ_j/λ)·c_ji weights column i by the origins' demand shares.
func TestAccessCostsFromPairs(t *testing.T) {
	pair := [][]float64{{0, 2}, {4, 0}}
	got, err := AccessCostsFrom(pair, []float64{1, 3})
	if err != nil {
		t.Fatal(err)
	}
	if want := []float64{3, 0.5}; got[0] != want[0] || got[1] != want[1] {
		t.Errorf("access = %v, want %v", got, want)
	}
	if _, err := AccessCostsFrom(pair, []float64{1}); !errors.Is(err, ErrBadRates) {
		t.Errorf("short rates: error = %v, want ErrBadRates", err)
	}
}
