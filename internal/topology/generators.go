package topology

import (
	"fmt"
	"math"
	"math/rand"
)

// Ring returns a bidirectional ring of n nodes where every link has the
// given cost. This is the paper's Figure 2 configuration for n = 4.
func Ring(n int, linkCost float64) (*Graph, error) {
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs at least 3 nodes, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		if err := g.AddBidirectional(i, (i+1)%n, linkCost); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// UnidirectionalRing returns a ring of n nodes where node i links only to
// node (i+1) mod n, with per-link costs given in order (costs[i] is the cost
// of the link i -> i+1). This matches the virtual-ring protocol of section 7.
func UnidirectionalRing(costs []float64) (*Graph, error) {
	n := len(costs)
	if n < 3 {
		return nil, fmt.Errorf("topology: ring needs at least 3 nodes, got %d", n)
	}
	g := New(n)
	for i, c := range costs {
		if err := g.AddLink(i, (i+1)%n, c); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// FullMesh returns a fully connected graph of n nodes with uniform link cost,
// the Figure 6 configuration.
func FullMesh(n int, linkCost float64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: mesh needs at least 2 nodes, got %d", n)
	}
	g := New(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if err := g.AddBidirectional(i, j, linkCost); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// Star returns a star with the hub at node 0 and n-1 leaves, each attached
// with the given link cost.
func Star(n int, linkCost float64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: star needs at least 2 nodes, got %d", n)
	}
	g := New(n)
	for i := 1; i < n; i++ {
		if err := g.AddBidirectional(0, i, linkCost); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Named builds the uniform-cost topology the commands' -topology flag
// names: "ring", "mesh" or "star" of n nodes. ok is false for any other
// name, so each command reports an unknown name in its own words.
func Named(name string, n int, linkCost float64) (g *Graph, ok bool, err error) {
	var build func(int, float64) (*Graph, error)
	switch name {
	case "ring":
		build = Ring
	case "mesh":
		build = FullMesh
	case "star":
		build = Star
	default:
		return nil, false, nil
	}
	g, err = build(n, linkCost)
	return g, true, err
}

// Line returns a path graph 0-1-2-...-n-1 with uniform link cost.
func Line(n int, linkCost float64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: line needs at least 2 nodes, got %d", n)
	}
	g := New(n)
	for i := 0; i+1 < n; i++ {
		if err := g.AddBidirectional(i, i+1, linkCost); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// Grid returns a rows x cols 2-D mesh with uniform link cost.
func Grid(rows, cols int, linkCost float64) (*Graph, error) {
	if rows < 1 || cols < 1 || rows*cols < 2 {
		return nil, fmt.Errorf("topology: grid %dx%d too small", rows, cols)
	}
	g := New(rows * cols)
	id := func(r, c int) int { return r*cols + c }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				if err := g.AddBidirectional(id(r, c), id(r, c+1), linkCost); err != nil {
					return nil, err
				}
			}
			if r+1 < rows {
				if err := g.AddBidirectional(id(r, c), id(r+1, c), linkCost); err != nil {
					return nil, err
				}
			}
		}
	}
	return g, nil
}

// RandomConnected returns a random connected graph: a random spanning tree
// plus extraEdges additional random bidirectional links, with link costs
// drawn uniformly from [minCost, maxCost). The construction is deterministic
// for a given seed.
func RandomConnected(n, extraEdges int, minCost, maxCost float64, seed int64) (*Graph, error) {
	if n < 2 {
		return nil, fmt.Errorf("topology: random graph needs at least 2 nodes, got %d", n)
	}
	if maxCost < minCost || minCost < 0 {
		return nil, fmt.Errorf("topology: invalid cost range [%v, %v)", minCost, maxCost)
	}
	rng := rand.New(rand.NewSource(seed))
	cost := func() float64 {
		if maxCost == minCost {
			return minCost
		}
		return minCost + rng.Float64()*(maxCost-minCost)
	}
	g := New(n)
	// Random spanning tree: attach each new node to a uniformly chosen
	// existing node.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		parent := perm[rng.Intn(i)]
		if err := g.AddBidirectional(perm[i], parent, cost()); err != nil {
			return nil, err
		}
	}
	for e := 0; e < extraEdges; e++ {
		i, j := rng.Intn(n), rng.Intn(n)
		if i == j {
			continue
		}
		if err := g.AddBidirectional(i, j, cost()); err != nil {
			return nil, err
		}
	}
	return g, nil
}

// RingDistances returns, for a unidirectional ring defined by per-link costs
// (costs[i] = cost of link i -> i+1 mod n), the forward distance matrix
// d[i][j]: the cost of travelling from i forward around the ring to j.
// d[i][i] = 0.
func RingDistances(costs []float64) [][]float64 {
	n := len(costs)
	d := make([][]float64, n)
	for i := 0; i < n; i++ {
		d[i] = make([]float64, n)
		acc := 0.0
		for step := 1; step < n; step++ {
			acc += costs[(i+step-1)%n]
			d[i][(i+step)%n] = acc
		}
	}
	return d
}

// MaxSpread returns the difference between the largest and smallest finite
// entries of a cost matrix, used by the Theorem-2 stepsize bound.
func MaxSpread(values []float64) float64 {
	lo, hi := math.Inf(1), math.Inf(-1)
	for _, v := range values {
		if v < lo {
			lo = v
		}
		if v > hi {
			hi = v
		}
	}
	if math.IsInf(lo, 1) {
		return 0
	}
	return hi - lo
}
