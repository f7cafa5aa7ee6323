package gossip

import (
	"context"
	"math"

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
// identical termination decision in the same round. The share rides in
// the same coalesced frame as the target neighbor's extrema flood,
// saving one frame per node per tick.

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
		target := pickPeer(e.cfg.seed, e.cfg.epoch, round, tick, e.id, neighbors)
		var sharePayload []byte
		if target >= 0 {
			sgHi, sgLo, wa = sgHi/2, sgLo/2, wa/2
			sxHi, sxLo, wn = sxHi/2, sxLo/2, wn/2
			sharePayload, err = protocol.EncodeGossipShare(protocol.GossipShare{
				Round: round, Tick: tick, Epoch: e.cfg.epoch, Node: e.id,
				SG: sgHi, SGC: sgLo, WA: wa,
				SX: sxHi, SXC: sxLo, WN: wn,
			})
			if err != nil {
				return st, err
			}
		}
		extMsg := ext
		extMsg.Round, extMsg.Tick, extMsg.Epoch = round, tick, e.cfg.epoch
		extPayload, err := protocol.EncodeGossipExtrema(extMsg)
		if err != nil {
			return st, err
		}
		for _, nb := range neighbors {
			if nb == target {
				if err := e.ep.Send(ctx, nb, sharePayload); err != nil {
					return st, err
				}
			}
			if err := e.ep.Send(ctx, nb, extPayload); err != nil {
				return st, err
			}
		}
		if err := e.flush(ctx); err != nil {
			return st, err
		}
		shares, exts, err := e.collectTick(ctx, round, tick, neighbors)
		if err != nil {
			return st, err
		}
		// Fold in ascending sender order so the double-double bits are
		// reproducible run-to-run.
		for _, nb := range neighbors {
			if s, ok := shares[nb]; ok {
				sgHi, sgLo = ddAdd(sgHi, sgLo, s.SG, s.SGC)
				wa += s.WA
				sxHi, sxLo = ddAdd(sxHi, sxLo, s.SX, s.SXC)
				wn += s.WN
			}
			mergeExtrema(&ext, exts[nb])
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

// collectTick gathers the tick's expected messages: one extrema flood
// from every neighbor, plus one push-sum share from each neighbor whose
// hashed pick lands on this node. Duplicates are discarded (accepting a
// second copy of a share would double-count its mass); later ticks and
// rounds are buffered.
func (e *engine) collectTick(ctx context.Context, round, tick int, neighbors []int) (map[int]protocol.GossipShare, map[int]protocol.GossipExtrema, error) {
	wantShare := make(map[int]bool, len(neighbors))
	wanted := 0
	for _, nb := range neighbors {
		if pickPeer(e.cfg.seed, e.cfg.epoch, round, tick, nb, e.cfg.adj[nb]) == e.id {
			wantShare[nb] = true
			wanted++
		}
	}
	shares := make(map[int]protocol.GossipShare, wanted)
	exts := make(map[int]protocol.GossipExtrema, len(neighbors))
	take := func(from int, env protocol.Envelope) {
		if sh := env.GossipShare; sh != nil && sh.Round == round && sh.Tick == tick && wantShare[from] {
			if _, dup := shares[from]; !dup {
				shares[from] = *sh
			}
			return
		}
		if ex := env.GossipExtrema; ex != nil && ex.Round == round && ex.Tick == tick && containsInt(neighbors, from) {
			if _, dup := exts[from]; !dup {
				exts[from] = *ex
			}
		}
	}
	e.drainPending(round, tick, take)
	for len(shares) < wanted || len(exts) < len(neighbors) {
		from, env, err := e.recvEnv(ctx, round)
		if err != nil {
			return nil, nil, err
		}
		before := len(shares) + len(exts)
		take(from, env)
		if len(shares)+len(exts) == before {
			e.buffer(from, env, round, tick)
		}
	}
	return shares, exts, nil
}
