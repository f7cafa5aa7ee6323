package gossip

import (
	"context"
	"errors"
	"fmt"
	"slices"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// nodeConfig is the per-node slice of a cluster run for one epoch. The
// supervisor fills it from ClusterConfig; all fields are required.
type nodeConfig struct {
	endpoint   transport.Endpoint
	model      agent.LocalModel
	x          float64
	alpha      float64
	epsilon    float64
	maxRounds  int
	mode       Mode
	epoch      int
	timeout    time.Duration
	tree       *Tree
	adj        [][]int
	aliveCount int
	seed       int64
	ticks      int
	onRound    func(round int, x float64)
}

// nodeOutcome is what one node's engine reports back. X is valid even
// when the run erred — survivors of a churn event hand their current
// fragment back to the supervisor for renormalization. Messages and
// Bytes bill what the node's endpoint accepted.
type nodeOutcome struct {
	X         float64
	Rounds    int
	Converged bool
	Messages  int64
	Bytes     int64
}

// recvMsg is a decoded message buffered for a later round, pass or tick.
type recvMsg struct {
	from int
	env  protocol.Envelope
}

// engine drives one node through one epoch of rounds.
type engine struct {
	cfg       nodeConfig
	id        int
	x         float64
	rounds    int
	converged bool
	pending   []recvMsg
	messages  int64
	bytes     int64
}

// runNode executes one node for one epoch and reports its outcome.
func runNode(ctx context.Context, cfg nodeConfig) (nodeOutcome, error) {
	e := &engine{
		cfg: cfg,
		id:  cfg.endpoint.ID(),
		x:   cfg.x,
	}
	var err error
	switch cfg.mode {
	case ModeGossip:
		err = e.runGossip(ctx)
	default:
		err = e.runTree(ctx)
	}
	return nodeOutcome{
		X:         e.x,
		Rounds:    e.rounds,
		Converged: e.converged,
		Messages:  e.messages,
		Bytes:     e.bytes,
	}, err
}

// runTree executes rounds of the tree-aggregation protocol until
// convergence, a degenerate (no-op) step, round exhaustion, or failure.
// The exit structure mirrors the agent's round loop exactly: convergence is
// checked before the no-op exit, and both happen before the step is
// applied, so e.rounds counts applied steps just like Outcome.Rounds.
func (e *engine) runTree(ctx context.Context) error {
	parent := e.cfg.tree.Parent[e.id]
	children := e.cfg.tree.Children[e.id]
	for round := 0; round < e.cfg.maxRounds; round++ {
		rctx, cancel := context.WithTimeout(ctx, e.cfg.timeout)
		final, g, active, err := e.treeRound(rctx, round, parent, children)
		cancel()
		if err != nil {
			return err
		}
		if final.Converged {
			e.converged = true
			e.rounds = round
			return nil
		}
		if final.NoOp {
			e.rounds = round
			return nil
		}
		if active {
			d := e.cfg.alpha * (g - final.Avg)
			if final.Truncation < 1 {
				d = core.TruncatedDelta(e.x, d*final.Truncation)
			}
			e.x = core.ClampResidue(e.x + d)
		}
		e.rounds = round + 1
		if e.cfg.onRound != nil {
			e.cfg.onRound(round, e.x)
		}
	}
	return nil
}

// maxPassesSlack bounds the active-set fixed point: core.PlanStep's loop
// provably settles within ~2·N passes (each pass drops ≥1 node or
// readmits exactly one, and a readmitted node is never dropped again in
// the same round); anything beyond that is a protocol bug, not slowness.
const maxPassesSlack = 8

// treeRound runs the multi-pass aggregation for one round and returns
// the root's final decision plus this node's local marginal and active
// flag at the fixed point.
func (e *engine) treeRound(ctx context.Context, round, parent int, children []int) (protocol.AggDown, float64, bool, error) {
	g, err := e.cfg.model.Marginal(e.x)
	if err != nil {
		return protocol.AggDown{}, 0, false, err
	}
	h, err := e.cfg.model.Curvature(e.x)
	if err != nil {
		return protocol.AggDown{}, 0, false, err
	}
	active := true
	changed := false
	havePrev := false
	prevAvg := 0.0
	for pass := 0; ; pass++ {
		if pass > 2*e.cfg.aliveCount+maxPassesSlack {
			return protocol.AggDown{}, 0, false,
				fmt.Errorf("%w: active-set fixed point did not settle in %d passes (round %d)",
					ErrProtocol, pass, round)
		}
		agg := e.localAggregate(g, h, active, changed, havePrev, prevAvg)
		if err := e.collectUps(ctx, round, pass, children, &agg); err != nil {
			return protocol.AggDown{}, 0, false, err
		}
		var down protocol.AggDown
		if parent < 0 {
			down = decide(agg, round, pass, e.cfg.epoch, e.cfg.epsilon)
		} else {
			up, err := protocol.EncodeAggUp(protocol.CodecBinary, protocol.AggUp{
				Round: round, Pass: pass, Epoch: e.cfg.epoch, Node: e.id, Agg: agg,
			})
			if err != nil {
				return protocol.AggDown{}, 0, false, err
			}
			if err := e.send(ctx, parent, up); err != nil {
				return protocol.AggDown{}, 0, false, err
			}
			down, err = e.waitDown(ctx, round, pass, parent)
			if err != nil {
				return protocol.AggDown{}, 0, false, err
			}
		}
		if len(children) > 0 {
			fwd, err := protocol.EncodeAggDown(protocol.CodecBinary, down)
			if err != nil {
				return protocol.AggDown{}, 0, false, err
			}
			for _, c := range children {
				if err := e.send(ctx, c, fwd); err != nil {
					return protocol.AggDown{}, 0, false, err
				}
			}
		}
		if down.Final {
			return down, g, active, nil
		}
		was := active
		if down.Drop {
			if active && e.x <= core.BoundaryTol && g <= down.Avg {
				active = false
			}
		} else if down.Readmit == e.id {
			active = true
		}
		changed = active != was
		prevAvg, havePrev = down.Avg, true
	}
}

// localAggregate builds this node's leaf contribution for one pass.
func (e *engine) localAggregate(g, h float64, active, changed, havePrev bool, prevAvg float64) protocol.Aggregate {
	agg := protocol.Aggregate{OutNode: -1, SumX: e.x}
	if changed {
		agg.Changed = 1
	}
	if !active {
		// Excluded nodes only nominate themselves for re-admission.
		agg.OutNode, agg.OutG = e.id, g
		return agg
	}
	agg.SumG = g
	agg.SumH = h
	agg.Count = 1
	agg.MinG, agg.MaxG = g, g
	if e.x <= core.BoundaryTol {
		agg.BoundCount = 1
		agg.BoundMinG = g
	}
	if havePrev {
		// Feasible-direction ratio, computed exactly as core.PlanStep
		// does so the truncation factor matches the broadcast reference
		// bit for bit: d := α·(g − avg); if d < 0 then ratio = x / −d.
		if d := e.cfg.alpha * (g - prevAvg); d < 0 {
			agg.RatioCount = 1
			agg.MinRatio = e.x / -d
		}
	}
	return agg
}

// decide is the root's per-pass decision over the combined aggregate. It
// reproduces core.PlanStep's active-set loop one pass at a time: drop
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
		// so this finalizes as converged (core.PlanStep returns before
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
// folds them into acc in ascending child order. Messages for later
// rounds/passes are buffered; stale ones and duplicates are discarded.
func (e *engine) collectUps(ctx context.Context, round, pass int, children []int, acc *protocol.Aggregate) error {
	if len(children) == 0 {
		return nil
	}
	got := make(map[int]protocol.Aggregate, len(children))
	take := func(from int, env protocol.Envelope) {
		up := env.AggUp
		if up == nil || up.Round != round || up.Pass != pass || !slices.Contains(children, from) {
			return
		}
		if _, dup := got[from]; !dup {
			got[from] = up.Agg
		}
	}
	e.drainPending(round, pass, take)
	for len(got) < len(children) {
		from, env, err := e.recvEnv(ctx, round)
		if err != nil {
			return err
		}
		before := len(got)
		take(from, env)
		if len(got) == before {
			e.buffer(from, env, round, pass)
		}
	}
	for _, c := range children {
		combineAggregate(acc, got[c])
	}
	return nil
}

// waitDown blocks until the parent's AggDown for (round, pass) arrives.
func (e *engine) waitDown(ctx context.Context, round, pass, parent int) (protocol.AggDown, error) {
	var found *protocol.AggDown
	take := func(from int, env protocol.Envelope) {
		d := env.AggDown
		if found == nil && d != nil && d.Round == round && d.Pass == pass && from == parent {
			found = d
		}
	}
	e.drainPending(round, pass, take)
	for found == nil {
		from, env, err := e.recvEnv(ctx, round)
		if err != nil {
			return protocol.AggDown{}, err
		}
		before := found
		take(from, env)
		if found == before {
			e.buffer(from, env, round, pass)
		}
	}
	return *found, nil
}

// recvEnv receives and decodes the next message from the current epoch.
// Corrupt frames and stale-epoch messages are skipped; a deadline on the
// round context surfaces as ErrRoundTimeout.
func (e *engine) recvEnv(ctx context.Context, round int) (int, protocol.Envelope, error) {
	for {
		msg, err := e.cfg.endpoint.Recv(ctx)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) {
				return 0, protocol.Envelope{},
					fmt.Errorf("%w: node %d stuck in round %d", ErrRoundTimeout, e.id, round)
			}
			return 0, protocol.Envelope{}, err
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			continue
		}
		if ep, ok := epochOf(env); !ok || ep != e.cfg.epoch {
			continue
		}
		return msg.From, env, nil
	}
}

// buffer keeps a message addressed to a later (round, sub) stage;
// anything at or before the current stage that was not consumed is a
// duplicate or stray and is dropped.
func (e *engine) buffer(from int, env protocol.Envelope, round, sub int) {
	r, s, ok := stageOf(env)
	if !ok {
		return
	}
	if r > round || (r == round && s > sub) {
		e.pending = append(e.pending, recvMsg{from: from, env: env})
	}
}

// drainPending runs take over the buffered messages for the current
// stage and keeps only strictly later ones.
func (e *engine) drainPending(round, sub int, take func(int, protocol.Envelope)) {
	kept := e.pending[:0]
	for _, pm := range e.pending {
		r, s, ok := stageOf(pm.env)
		if ok && (r > round || (r == round && s > sub)) {
			kept = append(kept, pm)
			continue
		}
		take(pm.from, pm.env)
	}
	e.pending = kept
}

// stageOf extracts the (round, pass-or-tick) ordering key of a message.
func stageOf(env protocol.Envelope) (round, sub int, ok bool) {
	switch {
	case env.AggUp != nil:
		return env.AggUp.Round, env.AggUp.Pass, true
	case env.AggDown != nil:
		return env.AggDown.Round, env.AggDown.Pass, true
	case env.GossipExtrema != nil:
		return env.GossipExtrema.Round, env.GossipExtrema.Tick, true
	default:
		return 0, 0, false
	}
}

// epochOf extracts a message's epoch; non-aggregation kinds have none
// and are never expected here.
func epochOf(env protocol.Envelope) (int, bool) {
	switch {
	case env.AggUp != nil:
		return env.AggUp.Epoch, true
	case env.AggDown != nil:
		return env.AggDown.Epoch, true
	case env.GossipExtrema != nil:
		return env.GossipExtrema.Epoch, true
	default:
		return 0, false
	}
}

// send ships one message to a peer and bills it. An injected drop is
// swallowed: a lost frame shows up as a peer's round timeout (the loud
// failure path), not as a local error that would kill a healthy node.
func (e *engine) send(ctx context.Context, to int, payload []byte) error {
	err := e.cfg.endpoint.Send(ctx, to, payload)
	if errors.Is(err, transport.ErrDropped) {
		return nil
	}
	if err != nil {
		return err
	}
	e.messages++
	e.bytes += int64(len(payload))
	return nil
}
