package gossip

import (
	"context"
	"fmt"
	"math"
	"slices"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/protocol"
)

// Push-sum averaging (Kempe-style) with flooded extrema. Each tick a
// node halves its (value, weight) state and ships half to one neighbor
// chosen by a pure hash of (seed, epoch, round, tick, node) — both ends
// of every edge can evaluate the choice, so receivers know exactly which
// shares to wait for and the exchange needs no acknowledgements. The
// min/max/AND extrema flood to all neighbors every tick; flooding is
// idempotent and exact after diameter ticks, so every node reaches the
// identical termination decision in the same round. A node sends one
// message per neighbor per tick: the extrema flood, with the share added
// to the message for the tick's target.

// pickPeer deterministically chooses node's exchange target for a tick
// from its sorted alive neighbors, using a splitmix64-style mix so the
// choice is computable by any node that knows the schedule inputs.
func pickPeer(seed int64, epoch, round, tick, node int, neighbors []int) int {
	if len(neighbors) == 0 {
		return -1
	}
	z := uint64(seed)
	for _, v := range [...]uint64{uint64(epoch), uint64(round), uint64(tick), uint64(node)} {
		z += v + 0x9E3779B97F4A7C15
		z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
		z = (z ^ (z >> 27)) * 0x94D049BB133111EB
		z ^= z >> 31
	}
	return neighbors[z%uint64(len(neighbors))]
}

// pushSum is one node's push-sum aggregator. Unlike the tree it is
// approximate: each node steps against its own estimate of the average
// marginal, and a multiplicative Σx repair against the push-sum mass
// estimate bounds feasibility drift. It keeps the previous round's
// estimate for the boundary KKT check.
type pushSum struct {
	e        *epoch
	havePrev bool
	prevEst  float64
}

// Round runs the round's ticks under the round deadline, ends the run
// once the flooded termination condition holds, and otherwise steps.
func (p *pushSum) Round(ctx context.Context, n *agent.Node, round int) (done, converged bool, err error) {
	e, cfg, x, g := p.e, n.Config(), n.X[0], n.G[0]
	ctx, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	neighbors := e.adj[n.ID]
	interior := x > core.BoundaryTol
	ext := protocol.GossipExtrema{Node: n.ID, OutNode: -1, BoundOK: true}
	if interior {
		ext.HasInt, ext.IntMinG, ext.IntMaxG = true, g, g
	} else {
		// Boundary KKT check: staying at zero is optimal iff the marginal
		// utility does not exceed the (previous round's) average beyond
		// the slack; with no estimate yet the node cannot certify.
		ext.BoundOK = p.havePrev && g <= p.prevEst+cfg.Epsilon
		if p.havePrev && g > p.prevEst {
			ext.HasOut, ext.OutG, ext.OutNode = true, g, n.ID
		}
	}
	var sgHi, sgLo, wa float64
	if interior {
		sgHi, wa = g, 1
	}
	sxHi, sxLo, wn := x, 0.0, 1.0
	for tick := 0; tick < e.ticks; tick++ {
		msg := ext
		msg.Round, msg.Tick, msg.Epoch = round, tick, e.num
		flood, err := protocol.EncodeGossipExtrema(msg)
		if err != nil {
			return false, false, err
		}
		target := pickPeer(e.cfg.Seed, e.num, round, tick, n.ID, neighbors)
		var share []byte
		if target >= 0 {
			sgHi, sgLo, wa = sgHi/2, sgLo/2, wa/2
			sxHi, sxLo, wn = sxHi/2, sxLo/2, wn/2
			msg.HasShare = true
			msg.SG, msg.SGC, msg.WA = sgHi, sgLo, wa
			msg.SX, msg.SXC, msg.WN = sxHi, sxLo, wn
			if share, err = protocol.EncodeGossipExtrema(msg); err != nil {
				return false, false, err
			}
		}
		for _, nb := range neighbors {
			payload := flood
			if nb == target {
				payload = share
			}
			if err := send(ctx, n, round, nb, payload); err != nil {
				return false, false, err
			}
		}
		got, err := p.collectTick(ctx, n, round, tick)
		if err != nil {
			return false, false, err
		}
		// Fold in ascending sender order so the double-double bits are
		// reproducible run-to-run.
		for _, nb := range neighbors {
			m := got[nb]
			if m.HasShare {
				sgHi, sgLo = ddAdd(sgHi, sgLo, m.SG, m.SGC)
				wa += m.WA
				sxHi, sxLo = ddAdd(sxHi, sxLo, m.SX, m.SXC)
				wn += m.WN
			}
			mergeExtrema(&ext, m)
		}
	}
	if ext.BoundOK && (!ext.HasInt || ext.IntMaxG-ext.IntMinG < cfg.Epsilon) {
		return true, true, nil
	}
	// est is the estimated average marginal over interior nodes (NaN if
	// no mass arrived), sumEst the estimated Σx over alive nodes.
	est, sumEst := math.NaN(), ddValue(sxHi, sxLo)/wn*float64(e.alive)
	if wa > 0 {
		est = ddValue(sgHi, sgLo) / wa
	}
	// Interior nodes step toward the estimated average; the flooded
	// best-excluded node re-admits itself (the distributed analogue of
	// core.PlanStep's single re-admission per pass).
	if !math.IsNaN(est) && (interior || (ext.HasOut && ext.OutNode == n.ID)) {
		if x += cfg.Alpha * (g - est); x < 0 {
			x = 0
		}
	}
	if sumEst > 0 && !math.IsInf(sumEst, 0) && !math.IsNaN(sumEst) {
		x /= sumEst
	}
	n.X[0] = x
	p.havePrev, p.prevEst = !math.IsNaN(est), est
	e.stepped(round, n)
	return false, false, nil
}

// collectTick gathers the tick's one message from every neighbor. The
// message from a neighbor whose hashed pick lands on this node must
// carry its push-sum share and every other message must not; a mismatch
// is ErrProtocol. Duplicates are discarded (accepting a second copy of a
// share would double-count its mass).
func (p *pushSum) collectTick(ctx context.Context, n *agent.Node, round, tick int) (map[int]protocol.GossipExtrema, error) {
	e := p.e
	neighbors := e.adj[n.ID]
	got := make(map[int]protocol.GossipExtrema, len(neighbors))
	err := collect(ctx, n, round, tick, len(neighbors), func(l *agent.Letter) (bool, error) {
		m := l.Env.GossipExtrema
		if _, dup := got[l.From]; m == nil || dup || !slices.Contains(neighbors, l.From) {
			return false, nil
		}
		if want := pickPeer(e.cfg.Seed, e.num, round, tick, l.From, e.adj[l.From]) == n.ID; m.HasShare != want {
			return false, fmt.Errorf("%w: node %d's round %d tick %d message has share=%v, want %v",
				ErrProtocol, l.From, round, tick, m.HasShare, want)
		}
		got[l.From] = *m
		return true, nil
	})
	return got, err
}
