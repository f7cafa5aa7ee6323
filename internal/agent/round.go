package agent

import (
	"context"
	"errors"
	"fmt"
	"math"

	"filealloc/internal/core"
	"filealloc/internal/protocol"
)

// localModel evaluates a node's own marginal utilities ∂U/∂x_i^f, one per
// file, into g at its fragments x.
type localModel interface {
	marginals(g, x []float64) error
}

func (m LocalModel) marginals(g, x []float64) (err error) {
	g[0], err = m.Marginal(x[0])
	return err
}

// Aggregator is one exchange scheme of the section 5.2 iteration: each
// round it trades the node's marginals and curvature with the peers,
// decides the round and applies the decision to the node's fragments.
// Broadcast and coordinator aggregation live here; the gossip package
// adds the spanning-tree and push-sum schemes.
type Aggregator interface {
	// Round runs one round. done ends the run without a step
	// (converged when the ε-criterion fired); otherwise the round's
	// step is applied to n.X.
	Round(ctx context.Context, n *Node, round int) (done, converged bool, err error)
}

// Node is one agent's run of the round loop, the only loop an
// endpoint-backed solve runs: Run and RunMultiFile in broadcast or
// coordinator mode, the gossip package's nodes through RunWith. Each
// round it saves the checkpoint, computes the node's marginals (and a
// single-file node's curvature) and hands them to its aggregator.
type Node struct {
	// ID is the node's id in the cluster.
	ID int
	// X holds the node's own fragments and G their marginal utilities,
	// one per file; H is a single-file node's curvature ∂²U/∂x².
	X, G []float64
	H    float64
	// Inbox is the node's one receive path.
	Inbox *Inbox

	cfg         Config
	model       localModel
	agg         Aggregator
	view        *planner // a planner's full view; nil on workers and custom aggregators
	start       int      // first round: 0, or the resumed round
	rounds      int
	converged   bool
	sent, bytes int // messages and payload bytes sent
}

// newNode validates cfg and sets up the loop from the node's initial
// fragments init (one per file) or, when cfg.Resume is set, its saved
// round state. A nil agg runs cfg.Mode's aggregator; vector selects the
// multi-file wire report, VectorReport, over Report.
func newNode(cfg Config, model localModel, init []float64, agg Aggregator, vector bool) (*Node, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	if agg != nil && cfg.Checkpoint != nil {
		return nil, fmt.Errorf("%w: checkpoints need broadcast aggregation", ErrBadConfig)
	}
	for f, v := range init {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: initial fragment %d = %v", ErrBadConfig, f, v)
		}
	}
	n := &Node{
		ID: cfg.Endpoint.ID(), X: append([]float64(nil), init...), G: make([]float64, len(init)),
		Inbox: NewInbox(cfg.Endpoint), cfg: cfg, model: model, agg: agg,
	}
	if cfg.Resume != nil {
		n.start = cfg.Resume.Round
	}
	if agg != nil {
		return n, nil
	}
	if cfg.Mode == Coordinator && n.ID != cfg.CoordinatorID {
		n.agg = worker{}
		return n, nil
	}
	var err error
	n.view, err = newPlanner(n, vector)
	n.agg = n.view
	return n, err
}

// run executes rounds until the aggregator ends the run, MaxRounds, or an
// error. The outcome carries the node's state on every exit.
func (n *Node) run(ctx context.Context) (Outcome, error) {
	cfg := &n.cfg
	for round := n.start; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return n.outcome(), fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		if cfg.Checkpoint != nil {
			// Save before the round's first send: a crash anywhere in the
			// round resumes here, and the re-broadcast of the identical
			// report is discarded by peers as a benign duplicate. Reports
			// for this round already read ahead are saved with it.
			v := n.view
			st := RoundState{Round: round, X: n.X[0], FullX: v.xs, Alive: v.alive, Planned: v.planned, Early: v.reports.Peek(round)}
			if err := cfg.Checkpoint.SaveRound(st); err != nil {
				return n.outcome(), fmt.Errorf("%w: round %d: %v", ErrCheckpoint, round, err)
			}
			cfg.Observer.CheckpointSaved(n.ID, round)
		}
		cfg.Observer.RoundStarted(n.ID, round)
		err := n.model.marginals(n.G, n.X)
		if m, ok := n.model.(LocalModel); ok && err == nil {
			n.H, err = m.Curvature(n.X[0])
		}
		if err != nil {
			return n.outcome(), fmt.Errorf("agent: round %d: %w", round, err)
		}
		done, converged, err := n.agg.Round(ctx, n, round)
		if err != nil {
			return n.outcome(), err
		}
		if done {
			return n.finish(round, converged)
		}
		n.rounds = round + 1
	}
	return n.finish(cfg.MaxRounds, false)
}

// finish records the run's end and announces it.
func (n *Node) finish(rounds int, converged bool) (Outcome, error) {
	n.rounds, n.converged = rounds, converged
	n.cfg.Observer.RunFinished(n.ID, rounds, converged)
	return n.outcome(), nil
}

// outcome reports the node's fragment, rounds and traffic, plus a
// planner's full view.
func (n *Node) outcome() Outcome {
	out := Outcome{X: n.X[0], Rounds: n.rounds, Converged: n.converged, MessagesSent: n.sent, BytesSent: n.bytes}
	if n.view != nil {
		out.FullX = append([]float64(nil), n.view.xs...)
		out.Alive = append([]bool(nil), n.view.alive...)
	}
	return out
}

// Config returns the node's configuration with its defaults filled in;
// an aggregator reads it and must not change it.
func (n *Node) Config() *Config { return &n.cfg }

// Send delivers payload to one peer, retrying a failed send up to
// SendRetries times, and bills the message once it is through.
func (n *Node) Send(ctx context.Context, round, to int, payload []byte) error {
	cfg := &n.cfg
	var err error
	for attempt := 0; attempt <= cfg.SendRetries; attempt++ {
		if err = cfg.Endpoint.Send(ctx, to, payload); err == nil {
			n.sent++
			n.bytes += len(payload)
			return nil
		}
		if ctx.Err() != nil {
			break
		}
		if attempt < cfg.SendRetries {
			cfg.Observer.SendRetried(n.ID, round, to, attempt+1, err)
		}
	}
	return fmt.Errorf("agent: sending round %d to node %d: %w", round, to, err)
}

// worker is the worker's side of the coordinator aggregator: it reports
// to the coordinator and applies the Update it gets back. A stale update
// is discarded; an update for a future round means this worker's report
// was skipped and lockstep is broken, and any other kind is a protocol
// violation.
type worker struct{}

func (worker) Round(ctx context.Context, n *Node, round int) (bool, bool, error) {
	payload, err := protocol.EncodeReport(protocol.Report{Round: round, Node: n.ID, Marginal: n.G[0], Alloc: n.X[0]})
	if err != nil {
		return false, false, err
	}
	if err := n.Send(ctx, round, n.cfg.CoordinatorID, payload); err != nil {
		return false, false, err
	}
	deadline, cancel := context.WithTimeout(ctx, n.cfg.RoundTimeout)
	defer cancel()
	for {
		l, err := n.Inbox.Next(deadline, round, 0)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
				return false, false, fmt.Errorf("agent: receiving round %d: %w", round, err)
			}
			n.cfg.Observer.TimeoutFired(n.ID, round)
			return false, false, fmt.Errorf("%w: waiting for round %d update", ErrRoundTimeout, round)
		}
		upd := l.Env.Update
		switch {
		case upd == nil:
			return false, false, fmt.Errorf("%w: unexpected %q message while awaiting update", ErrProtocol, l.Env.Kind)
		case upd.Round > round:
			return false, false, fmt.Errorf("%w: update for round %d while in round %d", ErrProtocol, upd.Round, round)
		case upd.Round < round:
			n.cfg.Observer.MessageDiscarded(n.ID, round, "stale update")
		case upd.Done:
			return true, true, nil
		case n.ID >= len(upd.Delta):
			return false, false, fmt.Errorf("%w: update with %d deltas for node %d", ErrProtocol, len(upd.Delta), n.ID)
		default:
			n.X[0] = core.ClampResidue(n.X[0] + upd.Delta[n.ID])
			return false, false, nil
		}
	}
}

// planner is the aggregator of a planning node: the broadcast aggregator
// (every live node reports to every live peer, and every node plans the
// identical step from the same reports) and the coordinator's side of
// the coordinator aggregator (it plans from the workers' reports and
// sends each round's Update). Its full view holds F fragments per
// node (F = 1 for Run, one per file for RunMultiFile), laid out
// file-major like costmodel.MultiFile (variable f·n + i), and every round
// plans and decides with core.PlanRound over one constraint group per
// file — section 5.4's multi-file problem stays exactly as decentralized
// as the single-file one, and the round stops on the allocator's test.
//
// With Quorum/DepartAfter set the planner also carries the churn
// protocol: rounds may complete short on their deadline, silent peers are
// declared departed after DepartAfter consecutive misses and their
// fraction redistributed over the survivors, and every partial-round step
// is re-certified against Theorem 2 (predicted ΔU ≥ 0) before being
// applied. Termination fires only on full rounds, so the run either
// converges with every live peer in agreement or fails with a typed
// error — it never exits on a partial view.
type planner struct {
	n          int       // cluster size
	central    bool      // the coordinator: sends each round's Update
	xs, gs, hs []float64 // full view, file-major; hs is one file's curvatures
	alive      []bool
	missing    []int // consecutive rounds each peer went unreported
	planned    uint64
	groups     [][]int     // the round's planning group, per file
	steps      []core.Step // the round's plan, per file
	reports    *protocol.RoundBuffer[protocol.Report]
	vectors    *protocol.RoundBuffer[protocol.VectorReport]
}

// newPlanner sets up node's full view, from cfg.Resume when set.
func newPlanner(node *Node, vector bool) (*planner, error) {
	cfg := &node.cfg
	n, files := cfg.Endpoint.Peers(), len(node.X)
	p := &planner{
		n:       n,
		central: cfg.Mode == Coordinator,
		xs:      make([]float64, files*n),
		gs:      make([]float64, files*n),
		hs:      make([]float64, n),
		alive:   make([]bool, n),
		missing: make([]int, n),
		groups:  make([][]int, files),
		steps:   make([]core.Step, files),
	}
	for f := range p.groups {
		p.groups[f] = make([]int, 0, n)
	}
	for i := range p.alive {
		p.alive[i] = true
	}
	if vector {
		p.vectors = protocol.NewRoundBuffer[protocol.VectorReport](n)
	} else {
		p.reports = protocol.NewRoundBuffer[protocol.Report](n)
	}
	r := cfg.Resume
	if r == nil {
		return p, nil
	}
	p.planned = r.Planned
	copy(p.xs, r.FullX)
	if r.Alive != nil {
		copy(p.alive, r.Alive)
	}
	for _, rep := range r.Early {
		if err := p.reports.Add(rep); err != nil {
			return nil, fmt.Errorf("agent: restoring early report: %w", err)
		}
		// Read ahead before the restart and never counted, the report
		// counts when the resumed round collects, at its wire size.
		if node.Inbox.count != nil {
			payload, err := protocol.EncodeReport(rep)
			if err != nil {
				return nil, fmt.Errorf("agent: restoring early report: %w", err)
			}
			node.Inbox.ahead = append(node.Inbox.ahead, Letter{Round: rep.Round, size: len(payload)})
		}
	}
	return p, nil
}

// report encodes the node's round report.
func (p *planner) report(n *Node, round int) ([]byte, error) {
	if p.vectors != nil {
		return protocol.EncodeVectorReport(protocol.VectorReport{Round: round, Node: n.ID, Marginals: n.G, Allocs: n.X})
	}
	rep := protocol.Report{Round: round, Node: n.ID, Marginal: n.G[0], Alloc: n.X[0], Planned: p.planned}
	if n.cfg.SecondOrder {
		rep.Curvature = n.H
	}
	return protocol.EncodeReport(rep)
}

// broadcast sends payload to every live peer.
func (p *planner) broadcast(ctx context.Context, n *Node, round int, payload []byte) error {
	for to, live := range p.alive {
		if to == n.ID || !live {
			continue
		}
		if err := n.Send(ctx, round, to, payload); err != nil {
			return err
		}
	}
	return nil
}

// Round sends the node's report (the coordinator sends none), collects
// the round's reports into the full view, and plans, certifies and
// applies the step.
func (p *planner) Round(ctx context.Context, n *Node, round int) (bool, bool, error) {
	if !p.central {
		payload, err := p.report(n, round)
		if err != nil {
			return false, false, err
		}
		if err := p.broadcast(ctx, n, round, payload); err != nil {
			return false, false, err
		}
	}
	full, err := p.collect(ctx, n, round)
	if err != nil {
		return false, false, err
	}
	departed, err := p.gather(n, round)
	if err != nil {
		return false, false, err
	}
	return p.step(ctx, n, round, full, departed)
}

// collect reads the round's reports until it has one from every live
// peer or — when Quorum is set — until the RoundTimeout deadline fires
// with at least Quorum reporters (including this node); it then reports
// full=false and the step is planned over the reporters only.
func (p *planner) collect(ctx context.Context, n *Node, round int) (full bool, err error) {
	cfg, want := &n.cfg, countTrue(p.alive)-1
	deadline, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	for p.count(round) < want {
		l, err := n.Inbox.Next(deadline, round, 0)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
				return false, fmt.Errorf("agent: receiving round %d: %w", round, err)
			}
			cfg.Observer.TimeoutFired(n.ID, round)
			got := p.count(round)
			cfg.Observer.ReportsCollected(n.ID, round, got, want)
			if cfg.Quorum > 0 && got+1 >= cfg.Quorum {
				cfg.Observer.RecoveryEvent(n.ID, round, "quorum", fmt.Sprintf("round completed short with %d of %d reports", got, want))
				return false, nil
			}
			return false, fmt.Errorf("%w: %d of %d reports for round %d", ErrRoundTimeout, got, want, round)
		}
		if err := p.buffer(n, l, round); err != nil {
			return false, err
		}
	}
	cfg.Observer.ReportsCollected(n.ID, round, want, want)
	return true, nil
}

// buffer checks one received report and stores it for its round. Stale
// rebroadcasts, identical duplicates, and reports from departed nodes —
// normal fallout of retries, faulty links, and churn — are discarded and
// counted, never fatal; conflicting duplicates, impersonation and
// messages of the wrong kind remain protocol violations. A report for a
// round more than one ahead of ours is ErrLapped: the cluster
// quorum-completed rounds without us and our state is stale.
func (p *planner) buffer(n *Node, l *Letter, round int) error {
	env, obs := &l.Env, n.cfg.Observer
	var node int
	switch {
	case p.reports != nil && env.Report != nil:
		node = env.Report.Node
	case p.vectors != nil && env.Vector != nil:
		v := env.Vector
		if files := len(n.X); len(v.Marginals) != files || len(v.Allocs) != files {
			return fmt.Errorf("%w: node %d reported %d/%d entries for %d files", ErrProtocol, v.Node, len(v.Marginals), len(v.Allocs), files)
		}
		node = v.Node
	default:
		return fmt.Errorf("%w: unexpected %q message during report collection", ErrProtocol, env.Kind)
	}
	if node != l.From {
		return fmt.Errorf("%w: node %d sent a report claiming to be node %d", ErrProtocol, l.From, node)
	}
	if l.Round > round+1 {
		return fmt.Errorf("%w: node %d is already at round %d while we are at round %d", ErrLapped, node, l.Round, round)
	}
	if l.Round < round {
		// Stale rebroadcast — the round it belongs to already completed,
		// so the data is redundant by construction.
		obs.MessageDiscarded(n.ID, round, "stale report")
		return nil
	}
	if node >= 0 && node < p.n && !p.alive[node] {
		// A node we already declared departed (its fraction is
		// redistributed). Its late report cannot rejoin this epoch.
		obs.MessageDiscarded(n.ID, round, "report from departed node")
		return nil
	}
	var err error
	if p.reports != nil {
		err = p.reports.Add(*env.Report)
	} else {
		err = p.vectors.Add(*env.Vector)
	}
	if errors.Is(err, protocol.ErrDuplicateReport) {
		obs.MessageDiscarded(n.ID, round, "duplicate report")
	} else if err != nil {
		return fmt.Errorf("agent: round %d: %w", round, err)
	}
	return nil
}

// count returns the number of reports buffered for the round.
func (p *planner) count(round int) int {
	if p.reports != nil {
		return p.reports.Count(round)
	}
	return p.vectors.Count(round)
}

// gather loads the round's reports into the full view and builds each
// file's planning group: this node plus the round's reporters, in
// ascending order — identical on every node that saw the same reports.
// Each report's fingerprint of the sender's previous planning group must
// match ours: a mismatch means an earlier round silently split the
// cluster into different quorum subsets. It returns the live peers that
// have now missed DepartAfter consecutive rounds.
func (p *planner) gather(nd *Node, round int) (departed []int, err error) {
	n, id, churn := p.n, nd.ID, nd.cfg.Quorum > 0
	var one map[int]protocol.Report
	var many map[int]protocol.VectorReport
	if p.vectors != nil {
		many = p.vectors.Take(round)
	} else {
		one = p.reports.Take(round)
	}
	for f := range p.groups {
		p.groups[f] = p.groups[f][:0]
		p.xs[f*n+id], p.gs[f*n+id] = nd.X[f], nd.G[f]
	}
	p.hs[id] = nd.H
	for node := 0; node < n; node++ {
		if node != id {
			if rep, ok := one[node]; ok {
				if churn && p.planned != 0 && rep.Planned != 0 && rep.Planned != p.planned {
					return nil, fmt.Errorf("%w: node %d planned round %d over group %#x, we planned over %#x", ErrDesync, node, round-1, rep.Planned, p.planned)
				}
				p.xs[node], p.gs[node], p.hs[node] = rep.Alloc, rep.Marginal, rep.Curvature
			} else if rep, ok := many[node]; ok {
				for f := range p.groups {
					p.xs[f*n+node], p.gs[f*n+node] = rep.Allocs[f], rep.Marginals[f]
				}
			} else {
				if churn && p.alive[node] {
					p.missing[node]++
					if nd.cfg.DepartAfter > 0 && p.missing[node] >= nd.cfg.DepartAfter {
						departed = append(departed, node)
					}
				}
				continue
			}
			p.missing[node] = 0
		}
		for f := range p.groups {
			p.groups[f] = append(p.groups[f], f*n+node)
		}
	}
	return departed, nil
}

// step plans the round's re-allocation over the gathered groups, sends the
// coordinator's Update, and applies the step unless the run is done. It
// then declares the departed peers gone and redistributes their fraction.
func (p *planner) step(ctx context.Context, nd *Node, round int, full bool, departed []int) (done, converged bool, err error) {
	cfg, obs, n, id := &nd.cfg, nd.cfg.Observer, p.n, nd.ID
	var hess []float64
	if cfg.SecondOrder {
		hess = p.hs
	}
	spread, converged, movable, err := core.PlanRound(p.steps, p.xs, p.gs, hess, p.groups, cfg.Alpha, cfg.Epsilon, false)
	if err != nil {
		return false, false, fmt.Errorf("agent: planning round %d: %w", round, err)
	}
	// ΔU sums each file's Theorem-2 certificate ⟨∇U, Δx⟩; it doubles as
	// the per-round utility-gain metric reported via StepApplied. The sums
	// start at −0, the additive identity, so with one file they are that
	// file's values bit for bit.
	du, delta := math.Copysign(0, -1), math.Copysign(0, -1)
	for f, group := range p.groups {
		a, err := core.Ascent(p.gs, group, p.steps[f])
		if err != nil {
			return false, false, fmt.Errorf("agent: certifying round %d: %w", round, err)
		}
		du += a
		delta += deltaOf(p.steps[f], group, f*n+id)
	}
	// Theorem-2 guard: a step planned from a partial report set must
	// still predict ΔU ≥ 0, or it is rejected (a no-op round) —
	// identically on every node planning over the same group.
	reject := cfg.Quorum > 0 && !full && du < 0
	if reject {
		obs.RecoveryEvent(id, round, "reject", fmt.Sprintf("partial-round step predicts ΔU = %g < 0", du))
	}
	obs.StepPlanned(id, round, spread, delta)
	done = full && (converged || !movable)
	if p.central {
		payload, err := protocol.EncodeUpdate(protocol.Update{Round: round, Delta: p.steps[0].Delta, Done: done})
		if err != nil {
			return false, false, err
		}
		if err := p.broadcast(ctx, nd, round, payload); err != nil {
			return false, false, err
		}
	}
	if done {
		return true, converged, nil
	}
	if !reject {
		for f, group := range p.groups {
			if err := p.steps[f].Apply(p.xs, group); err != nil {
				return false, false, fmt.Errorf("agent: applying round %d: %w", round, err)
			}
			nd.X[f] = p.xs[f*n+id]
		}
		obs.StepApplied(id, round, du, len(p.groups[0]))
	}
	p.planned = maskOf(p.groups[0])
	if len(departed) == 0 {
		return false, false, nil
	}
	for _, d := range departed {
		p.alive[d] = false
		obs.RecoveryEvent(id, round, "depart", fmt.Sprintf("node %d missed %d consecutive rounds; redistributing its fraction", d, p.missing[d]))
	}
	// Feasibility-preserving redistribution (Theorem 1): the survivors
	// rescale their own mutually-known fragments to sum to exactly 1,
	// identically on every survivor.
	for f, group := range p.groups {
		group = group[:0]
		for node, live := range p.alive {
			if live {
				group = append(group, f*n+node)
			}
		}
		if err := core.Renormalize(p.xs, group); err != nil {
			return false, false, fmt.Errorf("agent: redistributing after round %d: %w", round, err)
		}
		nd.X[f] = p.xs[f*n+id]
	}
	return false, false, nil
}

// maskOf fingerprints a planning group as a bitmask (bit i = node i). It
// returns 0 — "unchecked" — when any member falls outside the 64-bit
// range; fill() guarantees n ≤ 64 whenever the fingerprint matters.
func maskOf(group []int) uint64 {
	var m uint64
	for _, gi := range group {
		if gi < 0 || gi >= 64 {
			return 0
		}
		m |= 1 << uint(gi)
	}
	return m
}

// countTrue counts set entries of a boolean membership vector.
func countTrue(bs []bool) int {
	n := 0
	for _, b := range bs {
		if b {
			n++
		}
	}
	return n
}

// deltaOf returns the step's delta for variable v, or 0 if v is outside
// the planning group.
func deltaOf(step core.Step, group []int, v int) float64 {
	for k, gi := range group {
		if gi == v {
			return step.Delta[k]
		}
	}
	return 0
}
