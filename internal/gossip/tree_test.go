package gossip

import (
	"errors"
	"reflect"
	"slices"
	"testing"

	"filealloc/internal/topology"
)

func TestBuildTreeRing(t *testing.T) {
	g, err := topology.Ring(6, 1)
	if err != nil {
		t.Fatal(err)
	}
	tree, err := BuildTree(g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 0 {
		t.Errorf("root = %d, want 0", tree.Root)
	}
	// BFS from 0 over a 6-ring: children of 0 are its two neighbors.
	if want := []int{1, 5}; !reflect.DeepEqual(tree.Children[0], want) {
		t.Errorf("children of root = %v, want %v", tree.Children[0], want)
	}
	if tree.Parent[0] != -1 {
		t.Errorf("root parent = %d, want -1", tree.Parent[0])
	}
	if tree.Depth != 3 {
		t.Errorf("depth = %d, want 3 (opposite side of a 6-ring)", tree.Depth)
	}
	// Every non-root node has a parent and appears in its parent's children.
	for v := 1; v < 6; v++ {
		p := tree.Parent[v]
		if p < 0 {
			t.Fatalf("node %d has no parent", v)
		}
		if !slices.Contains(tree.Children[p], v) {
			t.Errorf("node %d missing from children of %d", v, p)
		}
	}
}

func TestBuildTreeRerootsAfterDeath(t *testing.T) {
	g, err := topology.Ring(5, 1)
	if err != nil {
		t.Fatal(err)
	}
	alive := []bool{false, true, true, true, true}
	tree, err := BuildTree(g, alive)
	if err != nil {
		t.Fatal(err)
	}
	if tree.Root != 1 {
		t.Errorf("root = %d, want 1 (lowest alive)", tree.Root)
	}
	// Node 0 is dead: the ring 1-2-3-4 is now a path (1 and 4 lost their
	// common neighbor), so the tree is the chain 1-2-3-4.
	if tree.Parent[0] != -1 || len(tree.Children[0]) != 0 {
		t.Errorf("dead node kept tree links: parent=%d children=%v", tree.Parent[0], tree.Children[0])
	}
	if tree.Depth != 3 {
		t.Errorf("depth = %d, want 3 (chain of four)", tree.Depth)
	}
}

func TestBuildTreePartitionDetected(t *testing.T) {
	// A path 0-1-2: killing the middle node splits {0} from {2}.
	g := topology.New(3)
	if err := g.AddBidirectional(0, 1, 1); err != nil {
		t.Fatal(err)
	}
	if err := g.AddBidirectional(1, 2, 1); err != nil {
		t.Fatal(err)
	}
	if _, err := BuildTree(g, []bool{true, false, true}); !errors.Is(err, ErrPartitioned) {
		t.Errorf("err = %v, want ErrPartitioned", err)
	}
}

func TestAliveAdjacencyFiltersDead(t *testing.T) {
	g, err := topology.Ring(4, 1)
	if err != nil {
		t.Fatal(err)
	}
	adj := aliveAdjacency(g, []bool{true, true, false, true})
	if want := []int{1, 3}; !reflect.DeepEqual(adj[0], want) {
		t.Errorf("adj[0] = %v, want %v", adj[0], want)
	}
	if want := []int{0}; !reflect.DeepEqual(adj[1], want) {
		t.Errorf("adj[1] = %v, want %v (dead neighbor 2 filtered)", adj[1], want)
	}
	if adj[2] != nil {
		t.Errorf("dead node has adjacency %v", adj[2])
	}
}
