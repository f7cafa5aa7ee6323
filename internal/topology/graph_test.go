package topology

import (
	"errors"
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func TestShortestFromLine(t *testing.T) {
	g, err := Line(4, 2)
	if err != nil {
		t.Fatalf("Line: %v", err)
	}
	dist, err := g.ShortestFrom(0)
	if err != nil {
		t.Fatalf("ShortestFrom: %v", err)
	}
	want := []float64{0, 2, 4, 6}
	for i := range want {
		if dist[i] != want[i] {
			t.Errorf("dist[%d] = %g, want %g", i, dist[i], want[i])
		}
	}
}

func TestShortestPathPrefersCheapRoute(t *testing.T) {
	// Direct expensive link vs two cheap hops.
	g := New(3)
	if err := g.AddLink(0, 2, 10); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddLink(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	dist, err := g.ShortestFrom(0)
	if err != nil {
		t.Fatal(err)
	}
	if dist[2] != 2 {
		t.Errorf("dist[2] = %g, want 2 (via node 1)", dist[2])
	}
}

func TestAllPairsRing(t *testing.T) {
	g, err := Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	sp, err := g.AllPairs()
	if err != nil {
		t.Fatalf("AllPairs: %v", err)
	}
	// On a 4-ring with unit costs distances are 0,1,2,1 around each row.
	for i := 0; i < 4; i++ {
		for j := 0; j < 4; j++ {
			d := float64(min(abs(i-j), 4-abs(i-j)))
			if sp[i][j] != d {
				t.Errorf("sp[%d][%d] = %g, want %g", i, j, sp[i][j], d)
			}
		}
	}
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func TestAllPairsDisconnected(t *testing.T) {
	g := New(3)
	if err := g.AddBidirectional(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := g.AllPairs(); !errors.Is(err, ErrDisconnected) {
		t.Errorf("error = %v, want ErrDisconnected", err)
	}
}

func TestUnidirectionalRingIsOneWay(t *testing.T) {
	g, err := UnidirectionalRing([]float64{1, 2, 3, 4})
	if err != nil {
		t.Fatal(err)
	}
	sp, err := g.AllPairs()
	if err != nil {
		t.Fatal(err)
	}
	// Forward 0->1 costs 1; backward 1->0 must travel the long way:
	// 2+3+4 = 9.
	if sp[0][1] != 1 || sp[1][0] != 9 {
		t.Errorf("sp[0][1]=%g sp[1][0]=%g, want 1 and 9", sp[0][1], sp[1][0])
	}
}

func TestAddLinkValidation(t *testing.T) {
	g := New(2)
	tests := []struct {
		name string
		i, j int
		cost float64
	}{
		{"negative cost", 0, 1, -1},
		{"node out of range", 0, 5, 1},
		{"negative node", -1, 0, 1},
		{"nan cost", 0, 1, math.NaN()},
		{"inf cost", 0, 1, math.Inf(1)},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if err := g.AddLink(tt.i, tt.j, tt.cost); !errors.Is(err, ErrBadEdge) {
				t.Errorf("error = %v, want ErrBadEdge", err)
			}
		})
	}
	if _, err := g.ShortestFrom(9); err == nil {
		t.Error("ShortestFrom out-of-range source: expected error")
	}
}

func TestGeneratorsShape(t *testing.T) {
	tests := []struct {
		name      string
		build     func() (*Graph, error)
		nodes     int
		degreeOf0 int
	}{
		{"ring", func() (*Graph, error) { return Ring(5, 1) }, 5, 2},
		{"mesh", func() (*Graph, error) { return FullMesh(5, 1) }, 5, 4},
		{"star hub", func() (*Graph, error) { return Star(5, 1) }, 5, 4},
		{"line end", func() (*Graph, error) { return Line(5, 1) }, 5, 1},
		{"grid corner", func() (*Graph, error) { return Grid(2, 3, 1) }, 6, 2},
		{"unidirectional ring", func() (*Graph, error) { return UnidirectionalRing([]float64{1, 1, 1}) }, 3, 1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			g, err := tt.build()
			if err != nil {
				t.Fatalf("build: %v", err)
			}
			if g.NumNodes() != tt.nodes {
				t.Errorf("nodes = %d, want %d", g.NumNodes(), tt.nodes)
			}
			if g.Degree(0) != tt.degreeOf0 {
				t.Errorf("degree(0) = %d, want %d", g.Degree(0), tt.degreeOf0)
			}
			if _, err := g.AllPairs(); err != nil {
				t.Errorf("generated graph not strongly connected: %v", err)
			}
		})
	}
}

func TestGeneratorValidation(t *testing.T) {
	builders := []struct {
		name  string
		build func() (*Graph, error)
	}{
		{"tiny ring", func() (*Graph, error) { return Ring(2, 1) }},
		{"tiny mesh", func() (*Graph, error) { return FullMesh(1, 1) }},
		{"tiny star", func() (*Graph, error) { return Star(1, 1) }},
		{"tiny line", func() (*Graph, error) { return Line(1, 1) }},
		{"tiny grid", func() (*Graph, error) { return Grid(1, 1, 1) }},
		{"tiny unidirectional", func() (*Graph, error) { return UnidirectionalRing([]float64{1}) }},
		{"random too small", func() (*Graph, error) { return RandomConnected(1, 0, 1, 2, 1) }},
		{"random bad range", func() (*Graph, error) { return RandomConnected(4, 0, 3, 2, 1) }},
	}
	for _, tt := range builders {
		t.Run(tt.name, func(t *testing.T) {
			if _, err := tt.build(); err == nil {
				t.Error("expected error, got nil")
			}
		})
	}
}

// TestNamed checks that each flag name builds the same graph as its
// generator, that a too-small size keeps the generator's error, and that
// an unknown name is reported as such rather than as a build error.
func TestNamed(t *testing.T) {
	for _, tt := range []struct {
		name  string
		build func(int, float64) (*Graph, error)
	}{{"ring", Ring}, {"mesh", FullMesh}, {"star", Star}} {
		g, ok, err := Named(tt.name, 5, 2)
		want, _ := tt.build(5, 2)
		if !ok || err != nil || !reflect.DeepEqual(g, want) {
			t.Errorf("Named(%q, 5, 2) = %v, %v, %v; want the generator's graph", tt.name, g, ok, err)
		}
		if _, ok, err := Named(tt.name, 1, 2); !ok || err == nil {
			t.Errorf("Named(%q, 1, 2) = ok %v, err %v; want ok and the generator's error", tt.name, ok, err)
		}
	}
	if g, ok, err := Named("torus", 5, 2); ok || g != nil || err != nil {
		t.Errorf("Named(torus) = %v, %v, %v; want nil, false, nil", g, ok, err)
	}
}

func TestRandomConnectedIsDeterministicAndConnected(t *testing.T) {
	a, err := RandomConnected(12, 8, 1, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	b, err := RandomConnected(12, 8, 1, 5, 99)
	if err != nil {
		t.Fatal(err)
	}
	spA, err := a.AllPairs()
	if err != nil {
		t.Fatalf("random graph disconnected: %v", err)
	}
	spB, err := b.AllPairs()
	if err != nil {
		t.Fatal(err)
	}
	for i := range spA {
		for j := range spA[i] {
			if spA[i][j] != spB[i][j] {
				t.Fatalf("same seed produced different graphs at (%d,%d)", i, j)
			}
		}
	}
}

func TestRingDistances(t *testing.T) {
	// The paper's section 7 example distances: with link costs
	// ℓ(7→1)=4, ℓ(1→2)=2, ℓ(2→3)=3, ℓ(3→4)=2 the forward distances to
	// node 4 are 11 (from 7), 7 (from 1), 5 (from 2), 2 (from 3).
	// Using 0-based indices 0..6 for nodes 1..7: costs[i] = cost of
	// link i -> i+1.
	costs := []float64{2, 3, 2, 1, 1, 1, 4} // links 1→2,2→3,3→4,4→5,5→6,6→7,7→1
	d := RingDistances(costs)
	node4 := 3 // 0-based
	if d[6][node4] != 11 {
		t.Errorf("d(7→4) = %g, want 11", d[6][node4])
	}
	if d[0][node4] != 7 {
		t.Errorf("d(1→4) = %g, want 7", d[0][node4])
	}
	if d[1][node4] != 5 {
		t.Errorf("d(2→4) = %g, want 5", d[1][node4])
	}
	if d[2][node4] != 2 {
		t.Errorf("d(3→4) = %g, want 2", d[2][node4])
	}
	if d[node4][node4] != 0 {
		t.Errorf("d(4→4) = %g, want 0", d[node4][node4])
	}
}

// TestShortestPathProperties checks the triangle inequality and symmetry
// properties on random bidirectional graphs.
func TestShortestPathProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	prop := func(seed int64, nRaw uint8) bool {
		n := 4 + int(nRaw)%10
		g, err := RandomConnected(n, n, 0.5, 4, seed)
		if err != nil {
			return false
		}
		sp, err := g.AllPairs()
		if err != nil {
			return false
		}
		for i := 0; i < n; i++ {
			if sp[i][i] != 0 {
				return false
			}
			for j := 0; j < n; j++ {
				// Bidirectional equal-cost links: symmetric.
				if math.Abs(sp[i][j]-sp[j][i]) > 1e-12 {
					return false
				}
				for k := 0; k < n; k++ {
					if sp[i][j] > sp[i][k]+sp[k][j]+1e-12 {
						return false
					}
				}
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 30, Rand: rng}); err != nil {
		t.Error(err)
	}
}

func TestMaxSpread(t *testing.T) {
	if got := MaxSpread([]float64{3, 1, 4, 1, 5}); got != 4 {
		t.Errorf("MaxSpread = %g, want 4", got)
	}
	if got := MaxSpread(nil); got != 0 {
		t.Errorf("MaxSpread(nil) = %g, want 0", got)
	}
}

func min(a, b int) int {
	if a < b {
		return a
	}
	return b
}
