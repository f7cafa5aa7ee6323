package gossip

import (
	"context"
	"fmt"
	"math"
	"slices"

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

// runGossip executes rounds of push-sum aggregation until the flooded
// termination condition holds, rounds run out, or the round deadline
// fires. Unlike the tree mode it is approximate: each node steps against
// its own estimate of the average marginal, and a multiplicative Σx
// repair against the push-sum mass estimate bounds feasibility drift.
func (e *engine) runGossip(ctx context.Context) error {
	neighbors := e.cfg.adj[e.id]
	havePrev := false
	prevEst := 0.0
	for round := 0; round < e.cfg.maxRounds; round++ {
		rctx, cancel := context.WithTimeout(ctx, e.cfg.timeout)
		st, err := e.gossipRound(rctx, round, neighbors, havePrev, prevEst)
		cancel()
		if err != nil {
			return err
		}
		converged := st.ext.BoundOK &&
			(!st.ext.HasInt || st.ext.IntMaxG-st.ext.IntMinG < e.cfg.epsilon)
		if converged {
			e.converged = true
			e.rounds = round
			return nil
		}
		// Interior nodes step toward the estimated average; the flooded
		// best-excluded node re-admits itself (the distributed analogue of
		// core.PlanStep's single re-admission per pass).
		if !math.IsNaN(st.est) && (st.interior || (st.ext.HasOut && st.ext.OutNode == e.id)) {
			e.x += e.cfg.alpha * (st.g - st.est)
			if e.x < 0 {
				e.x = 0
			}
		}
		if st.sumEst > 0 && !math.IsInf(st.sumEst, 0) && !math.IsNaN(st.sumEst) {
			e.x /= st.sumEst
		}
		e.rounds = round + 1
		havePrev = !math.IsNaN(st.est)
		prevEst = st.est
		if e.cfg.onRound != nil {
			e.cfg.onRound(round, e.x)
		}
	}
	return nil
}

// gossipState is what one push-sum round leaves behind.
type gossipState struct {
	est      float64 // estimated average marginal over interior nodes (NaN if no mass arrived)
	sumEst   float64 // estimated Σx over alive nodes
	ext      protocol.GossipExtrema
	g        float64
	interior bool
}

// gossipRound runs the configured number of ticks and returns the
// node's estimates and the flooded extrema.
func (e *engine) gossipRound(ctx context.Context, round int, neighbors []int, havePrev bool, prevEst float64) (gossipState, error) {
	var st gossipState
	g, err := e.cfg.model.Marginal(e.x)
	if err != nil {
		return st, err
	}
	st.g = g
	st.interior = e.x > core.BoundaryTol
	ext := protocol.GossipExtrema{Node: e.id, OutNode: -1, BoundOK: true}
	if st.interior {
		ext.HasInt, ext.IntMinG, ext.IntMaxG = true, g, g
	} else {
		// Boundary KKT check: staying at zero is optimal iff the marginal
		// utility does not exceed the (previous round's) average beyond
		// the slack; with no estimate yet the node cannot certify.
		ext.BoundOK = havePrev && g <= prevEst+e.cfg.epsilon
		if havePrev && g > prevEst {
			ext.HasOut, ext.OutG, ext.OutNode = true, g, e.id
		}
	}
	var sgHi, sgLo, wa float64
	if st.interior {
		sgHi, wa = g, 1
	}
	sxHi, sxLo, wn := e.x, 0.0, 1.0
	for tick := 0; tick < e.cfg.ticks; tick++ {
		msg := ext
		msg.Round, msg.Tick, msg.Epoch = round, tick, e.cfg.epoch
		flood, err := protocol.EncodeGossipExtrema(msg)
		if err != nil {
			return st, err
		}
		target := pickPeer(e.cfg.seed, e.cfg.epoch, round, tick, e.id, neighbors)
		var share []byte
		if target >= 0 {
			sgHi, sgLo, wa = sgHi/2, sgLo/2, wa/2
			sxHi, sxLo, wn = sxHi/2, sxLo/2, wn/2
			msg.HasShare = true
			msg.SG, msg.SGC, msg.WA = sgHi, sgLo, wa
			msg.SX, msg.SXC, msg.WN = sxHi, sxLo, wn
			if share, err = protocol.EncodeGossipExtrema(msg); err != nil {
				return st, err
			}
		}
		for _, nb := range neighbors {
			payload := flood
			if nb == target {
				payload = share
			}
			if err := e.send(ctx, nb, payload); err != nil {
				return st, err
			}
		}
		got, err := e.collectTick(ctx, round, tick, neighbors)
		if err != nil {
			return st, err
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
	st.est = math.NaN()
	if wa > 0 {
		st.est = ddValue(sgHi, sgLo) / wa
	}
	st.sumEst = ddValue(sxHi, sxLo) / wn * float64(e.cfg.aliveCount)
	st.ext = ext
	return st, nil
}

// collectTick gathers the tick's one message from every neighbor. The
// message from a neighbor whose hashed pick lands on this node must
// carry its push-sum share and every other message must not; a mismatch
// is ErrProtocol. Duplicates are discarded (accepting a second copy of a
// share would double-count its mass); later ticks and rounds are
// buffered.
func (e *engine) collectTick(ctx context.Context, round, tick int, neighbors []int) (map[int]protocol.GossipExtrema, error) {
	got := make(map[int]protocol.GossipExtrema, len(neighbors))
	var bad error
	take := func(from int, env protocol.Envelope) {
		m := env.GossipExtrema
		if m == nil || m.Round != round || m.Tick != tick || !slices.Contains(neighbors, from) {
			return
		}
		if _, dup := got[from]; dup {
			return
		}
		want := pickPeer(e.cfg.seed, e.cfg.epoch, round, tick, from, e.cfg.adj[from]) == e.id
		if m.HasShare != want && bad == nil {
			bad = fmt.Errorf("%w: node %d's round %d tick %d message has share=%v, want %v",
				ErrProtocol, from, round, tick, m.HasShare, want)
		}
		got[from] = *m
	}
	e.drainPending(round, tick, take)
	for bad == nil && len(got) < len(neighbors) {
		from, env, err := e.recvEnv(ctx, round)
		if err != nil {
			return nil, err
		}
		before := len(got)
		take(from, env)
		if len(got) == before {
			e.buffer(from, env, round, tick)
		}
	}
	return got, bad
}
