package gossip

import (
	"context"
	"fmt"
	"slices"
	"sort"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
)

// Tree is a deterministic BFS spanning tree over the alive subgraph of
// an access network. The root is the lowest alive node id and neighbors
// are expanded in ascending order, so every node that knows the graph
// and the alive set derives the identical tree with no coordination.
type Tree struct {
	// Root is the aggregation root (lowest alive id).
	Root int
	// Parent maps node id to its tree parent; -1 for the root and for
	// dead nodes.
	Parent []int
	// Children maps node id to its tree children in ascending order.
	Children [][]int
	// Depth is the maximum distance from the root to any alive node.
	Depth int
}

// BuildTree constructs the spanning tree for graph g restricted to the
// alive set (nil means every node is alive). It returns ErrPartitioned
// if some alive node is unreachable from the root through alive nodes.
func BuildTree(g *topology.Graph, alive []bool) (*Tree, error) {
	n := g.NumNodes()
	if alive != nil && len(alive) != n {
		return nil, fmt.Errorf("gossip: alive mask has %d entries for %d nodes", len(alive), n)
	}
	isAlive := func(i int) bool { return alive == nil || alive[i] }
	root := -1
	total := 0
	for i := 0; i < n; i++ {
		if isAlive(i) {
			total++
			if root < 0 {
				root = i
			}
		}
	}
	if root < 0 {
		return nil, fmt.Errorf("gossip: no alive nodes")
	}
	t := &Tree{
		Root:     root,
		Parent:   make([]int, n),
		Children: make([][]int, n),
	}
	for i := range t.Parent {
		t.Parent[i] = -1
	}
	depth := make([]int, n)
	visited := make([]bool, n)
	visited[root] = true
	queue := []int{root}
	reached := 1
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		nbs := append([]int(nil), g.Neighbors(u)...)
		sort.Ints(nbs)
		for _, v := range nbs {
			if !isAlive(v) || visited[v] {
				continue
			}
			visited[v] = true
			t.Parent[v] = u
			t.Children[u] = append(t.Children[u], v)
			depth[v] = depth[u] + 1
			if depth[v] > t.Depth {
				t.Depth = depth[v]
			}
			queue = append(queue, v)
			reached++
		}
	}
	if reached != total {
		return nil, fmt.Errorf("%w: reached %d of %d alive nodes from root %d",
			ErrPartitioned, reached, total, root)
	}
	return t, nil
}

// aliveAdjacency returns, for every alive node, its alive neighbors in
// ascending order — the shared schedule both sides of a push-sum
// exchange derive peer picks from. Entries for dead nodes are nil.
func aliveAdjacency(g *topology.Graph, alive []bool) [][]int {
	n := g.NumNodes()
	adj := make([][]int, n)
	for i := 0; i < n; i++ {
		if alive != nil && !alive[i] {
			continue
		}
		nbs := append([]int(nil), g.Neighbors(i)...)
		sort.Ints(nbs)
		kept := nbs[:0]
		for _, v := range nbs {
			if alive == nil || alive[v] {
				kept = append(kept, v)
			}
		}
		adj[i] = kept
	}
	return adj
}

// treeNode is one node's spanning-tree aggregator. A round runs passes
// of the active-set fixed point: partial aggregates flow up to the root,
// which decides the pass (decide), and the decision flows back down. The
// final pass carries the round's average and truncation, and every
// active node applies the step core.PlanStepInto would.
type treeNode struct{ e *epoch }

// maxPassesSlack bounds the active-set fixed point: core.PlanStepInto's loop
// provably settles within ~2·N passes (each pass drops ≥1 node or
// readmits exactly one, and a readmitted node is never dropped again in
// the same round); anything beyond that is a protocol bug, not slowness.
const maxPassesSlack = 8

// Round runs the round's passes under the round deadline. Like the
// broadcast aggregator, it ends the run on convergence or a degenerate
// (no-op) step before applying anything.
func (t treeNode) Round(ctx context.Context, n *agent.Node, round int) (done, converged bool, err error) {
	e, cfg := t.e, n.Config()
	ctx, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	parent, children := e.tree.Parent[n.ID], e.tree.Children[n.ID]
	active, changed, havePrev, prevAvg := true, false, false, 0.0
	for pass := 0; ; pass++ {
		if pass > 2*e.alive+maxPassesSlack {
			return false, false, fmt.Errorf("%w: active-set fixed point did not settle in %d passes (round %d)",
				ErrProtocol, pass, round)
		}
		agg := leaf(n, active, changed, havePrev, prevAvg)
		if err := collectUps(ctx, n, round, pass, children, &agg); err != nil {
			return false, false, err
		}
		var down protocol.AggDown
		if parent < 0 {
			down = decide(agg, round, pass, e.num, cfg.Epsilon)
		} else {
			up, err := protocol.EncodeAggUp(protocol.CodecBinary, protocol.AggUp{
				Round: round, Pass: pass, Epoch: e.num, Node: n.ID, Agg: agg,
			})
			if err != nil {
				return false, false, err
			}
			if err := send(ctx, n, round, parent, up); err != nil {
				return false, false, err
			}
			if down, err = waitDown(ctx, n, round, pass, parent); err != nil {
				return false, false, err
			}
		}
		if len(children) > 0 {
			fwd, err := protocol.EncodeAggDown(protocol.CodecBinary, down)
			if err != nil {
				return false, false, err
			}
			for _, c := range children {
				if err := send(ctx, n, round, c, fwd); err != nil {
					return false, false, err
				}
			}
		}
		if down.Final {
			if down.Converged || down.NoOp {
				return true, down.Converged, nil
			}
			if active {
				d := cfg.Alpha * (n.G[0] - down.Avg)
				if down.Truncation < 1 {
					d = core.TruncatedDelta(n.X[0], d*down.Truncation)
				}
				n.X[0] = core.ClampResidue(n.X[0] + d)
			}
			e.stepped(round, n)
			return false, false, nil
		}
		was := active
		if down.Drop {
			if active && n.X[0] <= core.BoundaryTol && n.G[0] <= down.Avg {
				active = false
			}
		} else if down.Readmit == n.ID {
			active = true
		}
		changed = active != was
		prevAvg, havePrev = down.Avg, true
	}
}

// leaf builds this node's own contribution to one pass.
func leaf(n *agent.Node, active, changed, havePrev bool, prevAvg float64) protocol.Aggregate {
	x, g := n.X[0], n.G[0]
	agg := protocol.Aggregate{OutNode: -1, SumX: x}
	if changed {
		agg.Changed = 1
	}
	if !active {
		// Excluded nodes only nominate themselves for re-admission.
		agg.OutNode, agg.OutG = n.ID, g
		return agg
	}
	agg.SumG = g
	agg.SumH = n.H
	agg.Count = 1
	agg.MinG, agg.MaxG = g, g
	if x <= core.BoundaryTol {
		agg.BoundCount = 1
		agg.BoundMinG = g
	}
	if havePrev {
		// Feasible-direction ratio, computed exactly as core.PlanStepInto
		// does so the truncation factor matches the broadcast reference
		// bit for bit: d := α·(g − avg); if d < 0 then ratio = x / −d.
		if d := n.Config().Alpha * (g - prevAvg); d < 0 {
			agg.RatioCount = 1
			agg.MinRatio = x / -d
		}
	}
	return agg
}

// decide is the root's per-pass decision over the combined aggregate. It
// reproduces core.PlanStepInto's active-set loop one pass at a time: drop
// boundary shrinkers first, else readmit the best excluded node, else —
// once a pass confirms the set is stable — finalize with the ratio test
// computed against an average the whole tree has already seen. Pass 0
// can never finalize: its aggregate carries no ratio data because no
// average had been broadcast yet.
func decide(agg protocol.Aggregate, round, pass, epoch int, epsilon float64) protocol.AggDown {
	down := protocol.AggDown{
		Round: round, Pass: pass, Epoch: epoch,
		Readmit: -1, Truncation: 1,
	}
	if agg.Count == 0 {
		// Every node dropped to the boundary: the step moves nothing and
		// the spread over an empty set is zero — the broadcast reference
		// reports convergence here (Avg stays 0, not NaN, which the wire
		// rejects; no node reads it on this path).
		down.Final, down.Converged, down.NoOp = true, true, true
		return down
	}
	avg := ddValue(agg.SumG, agg.SumGC) / float64(agg.Count)
	down.Avg = avg
	down.Count = agg.Count
	if agg.Count == 1 {
		// A singleton active set is a no-op step with zero spread; the
		// broadcast loop's convergence check fires before its no-op exit,
		// so this finalizes as converged (core.PlanStepInto returns before
		// drop/readmit when one node remains, hence no fixed-point wait).
		down.Final, down.Converged, down.NoOp = true, true, true
		return down
	}
	if agg.BoundCount > 0 && agg.BoundMinG <= avg {
		down.Drop = true
		return down
	}
	if agg.OutNode >= 0 && agg.OutG > avg {
		down.Readmit = agg.OutNode
		return down
	}
	if pass == 0 || agg.Changed != 0 {
		// The set just changed (or no average was out yet), so this
		// pass's ratio data was computed against a stale average; run one
		// confirming pass. With an unchanged set the next aggregate's sum
		// is bit-identical, so the confirming average equals this one.
		return down
	}
	if agg.RatioCount > 0 && agg.MinRatio < 1 {
		down.Truncation = agg.MinRatio
	}
	down.Final = true
	down.Spread = agg.MaxG - agg.MinG
	down.Converged = down.Spread < epsilon
	return down
}

// collectUps gathers one AggUp from every child for (round, pass) and
// folds them into acc in ascending child order; duplicates are
// discarded.
func collectUps(ctx context.Context, n *agent.Node, round, pass int, children []int, acc *protocol.Aggregate) error {
	if len(children) == 0 {
		return nil
	}
	got := make(map[int]protocol.Aggregate, len(children))
	err := collect(ctx, n, round, pass, len(children), func(l *agent.Letter) (bool, error) {
		_, dup := got[l.From]
		if l.Env.AggUp == nil || dup || !slices.Contains(children, l.From) {
			return false, nil
		}
		got[l.From] = l.Env.AggUp.Agg
		return true, nil
	})
	for _, c := range children {
		combineAggregate(acc, got[c])
	}
	return err
}

// waitDown waits for the parent's AggDown for (round, pass).
func waitDown(ctx context.Context, n *agent.Node, round, pass, parent int) (down protocol.AggDown, err error) {
	err = collect(ctx, n, round, pass, 1, func(l *agent.Letter) (bool, error) {
		if l.Env.AggDown == nil || l.From != parent {
			return false, nil
		}
		down = *l.Env.AggDown
		return true, nil
	})
	return down, err
}
