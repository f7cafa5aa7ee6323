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

// roundLoop is one agent's run of the section 5.2 iteration, shared by Run
// and RunMultiFile. Its state is F fragments per node (F = 1 for Run, one
// per file for RunMultiFile), laid out file-major like costmodel.MultiFile
// (variable f·n + i), and every round plans with core.PlanStep over one
// constraint group per file — section 5.4's multi-file problem stays
// exactly as decentralized as the single-file one. The mode decides only
// who sends to whom and who plans: in broadcast mode every live node
// reports to every live peer and plans; in coordinator mode a worker
// reports to the coordinator and applies the Update it gets back.
//
// With Quorum/DepartAfter set the loop also carries the churn protocol:
// rounds may complete short on their deadline, silent peers are declared
// departed after DepartAfter consecutive misses and their fraction
// redistributed over the survivors, and every partial-round step is
// re-certified against Theorem 2 (predicted ΔU ≥ 0) before being applied.
// Termination fires only on full rounds, so the run either converges with
// every live peer in agreement or fails with a typed error — it never
// exits on a partial view.
type roundLoop struct {
	cfg          Config
	model        localModel
	n, id        int       // cluster size, own id
	plans        bool      // plans steps: every node in broadcast mode, or the coordinator
	central      bool      // coordinator mode
	curved       bool      // exchanges curvatures (one file only)
	start        int       // first round: 0, or the resumed round
	alpha        float64   // stepsize; dynamic α replaces it per round
	x, g         []float64 // own fragments and marginals, one per file
	h            float64   // own curvature when curved
	xs, gs, hs   []float64 // full view, file-major; hs is one file's curvatures
	alive        []bool
	missing      []int // consecutive rounds each peer went unreported
	planned      uint64
	groups       [][]int     // the round's planning group, per file
	steps        []core.Step // the round's plan, per file
	reports      *protocol.RoundBuffer[protocol.Report]
	vectors      *protocol.RoundBuffer[protocol.VectorReport]
	rounds, sent int // outcome: rounds run, messages sent
	converged    bool
}

// newRoundLoop validates cfg and sets up the loop from the node's initial
// fragments init (one per file) or, when cfg.Resume is set, its saved
// round state. vector selects the multi-file wire report, VectorReport,
// over Report.
func newRoundLoop(cfg Config, model localModel, init []float64, vector bool) (*roundLoop, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	for f, v := range init {
		if v < 0 || math.IsNaN(v) {
			return nil, fmt.Errorf("%w: initial fragment %d = %v", ErrBadConfig, f, v)
		}
	}
	n, files := cfg.Endpoint.Peers(), len(init)
	l := &roundLoop{
		cfg: cfg, model: model, n: n, id: cfg.Endpoint.ID(),
		plans:   cfg.Mode == Broadcast || cfg.Endpoint.ID() == cfg.CoordinatorID,
		central: cfg.Mode == Coordinator,
		curved:  cfg.DynamicAlphaSafety > 0 || cfg.SecondOrder,
		alpha:   cfg.Alpha,
		x:       append([]float64(nil), init...),
		g:       make([]float64, files),
		xs:      make([]float64, files*n),
		gs:      make([]float64, files*n),
		hs:      make([]float64, n),
		alive:   make([]bool, n),
		missing: make([]int, n),
		groups:  make([][]int, files),
		steps:   make([]core.Step, files),
	}
	for f := range l.groups {
		l.groups[f] = make([]int, 0, n)
	}
	for i := range l.alive {
		l.alive[i] = true
	}
	if vector {
		l.vectors = protocol.NewRoundBuffer[protocol.VectorReport](n)
	} else {
		l.reports = protocol.NewRoundBuffer[protocol.Report](n)
	}
	if r := cfg.Resume; r != nil {
		l.start, l.planned = r.Round, r.Planned
		copy(l.xs, r.FullX)
		if r.Alive != nil {
			copy(l.alive, r.Alive)
		}
		for _, rep := range r.Early {
			if err := l.reports.Add(rep); err != nil {
				return nil, fmt.Errorf("agent: restoring early report: %w", err)
			}
		}
	}
	return l, nil
}

// run executes rounds until convergence, MaxRounds, or an error.
func (l *roundLoop) run(ctx context.Context) error {
	cfg, id := &l.cfg, l.id
	for round := l.start; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		if cfg.Checkpoint != nil {
			// Save before the round's first send: a crash anywhere in the
			// round resumes here, and the re-broadcast of the identical
			// report is discarded by peers as a benign duplicate. Reports
			// for this round already read ahead are saved with it.
			st := RoundState{Round: round, X: l.x[0], FullX: l.xs, Alive: l.alive, Planned: l.planned, Early: l.reports.Peek(round)}
			if err := cfg.Checkpoint.SaveRound(st); err != nil {
				return fmt.Errorf("%w: round %d: %v", ErrCheckpoint, round, err)
			}
			cfg.Observer.CheckpointSaved(id, round)
		}
		cfg.Observer.RoundStarted(id, round)
		if err := l.model.marginals(l.g, l.x); err != nil {
			return fmt.Errorf("agent: round %d: %w", round, err)
		}
		if l.curved {
			var err error
			if l.h, err = cfg.Model.Curvature(l.x[0]); err != nil {
				return fmt.Errorf("agent: round %d: %w", round, err)
			}
		}
		if err := l.report(ctx, round); err != nil {
			return err
		}
		upd, full, err := l.receive(ctx, round)
		if err != nil {
			return err
		}
		if !l.plans {
			if upd.Done {
				return l.finish(round, true)
			}
			if id >= len(upd.Delta) {
				return fmt.Errorf("%w: update with %d deltas for node %d", ErrProtocol, len(upd.Delta), id)
			}
			l.x[0] = core.ClampResidue(l.x[0] + upd.Delta[id])
			continue
		}
		departed, err := l.gather(round)
		if err != nil {
			return err
		}
		if done, err := l.step(ctx, round, full, departed); done || err != nil {
			return err
		}
	}
	return l.finish(cfg.MaxRounds, false)
}

// report sends the node's round report: to every live peer in broadcast
// mode, to the coordinator from a worker. The coordinator sends none.
func (l *roundLoop) report(ctx context.Context, round int) error {
	if l.plans && l.central {
		return nil
	}
	var payload []byte
	var err error
	if l.vectors != nil {
		payload, err = protocol.EncodeVectorReport(protocol.VectorReport{Round: round, Node: l.id, Marginals: l.g, Allocs: l.x})
	} else {
		payload, err = protocol.EncodeReport(protocol.Report{Round: round, Node: l.id, Marginal: l.g[0], Alloc: l.x[0], Curvature: l.h, Planned: l.planned})
	}
	if err != nil {
		return err
	}
	if !l.plans {
		return l.send(ctx, round, l.cfg.CoordinatorID, payload)
	}
	return l.broadcast(ctx, round, payload)
}

// gather loads the round's reports into the full view and builds each
// file's planning group: this node plus the round's reporters, in
// ascending order — identical on every node that saw the same reports.
// Each report's fingerprint of the sender's previous planning group must
// match ours: a mismatch means an earlier round silently split the
// cluster into different quorum subsets. It returns the live peers that
// have now missed DepartAfter consecutive rounds.
func (l *roundLoop) gather(round int) (departed []int, err error) {
	n, id, churn := l.n, l.id, l.cfg.Quorum > 0
	var one map[int]protocol.Report
	var many map[int]protocol.VectorReport
	if l.vectors != nil {
		many = l.vectors.Take(round)
	} else {
		one = l.reports.Take(round)
	}
	for f := range l.groups {
		l.groups[f] = l.groups[f][:0]
		l.xs[f*n+id], l.gs[f*n+id] = l.x[f], l.g[f]
	}
	l.hs[id] = l.h
	for node := 0; node < n; node++ {
		if node != id {
			if rep, ok := one[node]; ok {
				if churn && l.planned != 0 && rep.Planned != 0 && rep.Planned != l.planned {
					return nil, fmt.Errorf("%w: node %d planned round %d over group %#x, we planned over %#x", ErrDesync, node, round-1, rep.Planned, l.planned)
				}
				l.xs[node], l.gs[node], l.hs[node] = rep.Alloc, rep.Marginal, rep.Curvature
			} else if rep, ok := many[node]; ok {
				for f := range l.groups {
					l.xs[f*n+node], l.gs[f*n+node] = rep.Allocs[f], rep.Marginals[f]
				}
			} else {
				if churn && l.alive[node] {
					l.missing[node]++
					if l.cfg.DepartAfter > 0 && l.missing[node] >= l.cfg.DepartAfter {
						departed = append(departed, node)
					}
				}
				continue
			}
			l.missing[node] = 0
		}
		for f := range l.groups {
			l.groups[f] = append(l.groups[f], f*n+node)
		}
	}
	return departed, nil
}

// step plans the round's re-allocation over the gathered groups, sends the
// coordinator's Update, and applies the step unless the run is done. It
// then declares the departed peers gone and redistributes their fraction.
func (l *roundLoop) step(ctx context.Context, round int, full bool, departed []int) (done bool, err error) {
	cfg, obs, n, id := &l.cfg, l.cfg.Observer, l.n, l.id
	if cfg.DynamicAlphaSafety > 0 {
		// fill rejects quorum with dynamic α, so every round is full
		// and the planning group is every node: the bound matches the
		// centralized allocator's bit for bit.
		if dyn := core.DynamicAlpha(l.gs, l.hs, l.groups, cfg.DynamicAlphaSafety); dyn > 0 {
			l.alpha = dyn
		}
	}
	// ΔU sums each file's Theorem-2 certificate ⟨∇U, Δx⟩; it doubles as
	// the per-round utility-gain metric reported via StepApplied. The sums
	// start at −0, the additive identity, so with one file they are that
	// file's values bit for bit.
	du, delta, spread := math.Copysign(0, -1), math.Copysign(0, -1), 0.0
	converged, movable := true, false
	for f, group := range l.groups {
		st := &l.steps[f]
		if cfg.SecondOrder {
			*st, err = core.PlanSecondOrderStep(l.xs, l.gs, l.hs, group, l.alpha)
		} else {
			err = core.PlanStepInto(st, l.xs, l.gs, group, l.alpha)
		}
		if err != nil {
			return false, fmt.Errorf("agent: planning round %d: %w", round, err)
		}
		a, err := core.Ascent(l.gs, group, *st)
		if err != nil {
			return false, fmt.Errorf("agent: certifying round %d: %w", round, err)
		}
		du += a
		delta += deltaOf(*st, group, f*n+id)
		sp := st.Spread(l.gs, group)
		spread = max(spread, sp)
		converged = converged && sp < cfg.Epsilon
		movable = movable || !st.IsNoOp()
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
	if l.central {
		payload, err := protocol.EncodeUpdate(protocol.Update{Round: round, Delta: l.steps[0].Delta, Done: done})
		if err != nil {
			return false, err
		}
		if err := l.broadcast(ctx, round, payload); err != nil {
			return false, err
		}
	}
	if done {
		return true, l.finish(round, converged)
	}
	if !reject {
		for f, group := range l.groups {
			if err := l.steps[f].Apply(l.xs, group); err != nil {
				return false, fmt.Errorf("agent: applying round %d: %w", round, err)
			}
			l.x[f] = l.xs[f*n+id]
		}
		obs.StepApplied(id, round, du, len(l.groups[0]))
	}
	l.planned = maskOf(l.groups[0])
	if len(departed) == 0 {
		return false, nil
	}
	for _, d := range departed {
		l.alive[d] = false
		obs.RecoveryEvent(id, round, "depart", fmt.Sprintf("node %d missed %d consecutive rounds; redistributing its fraction", d, l.missing[d]))
	}
	// Feasibility-preserving redistribution (Theorem 1): the survivors
	// rescale their own mutually-known fragments to sum to exactly 1,
	// identically on every survivor.
	for f, group := range l.groups {
		group = group[:0]
		for node, live := range l.alive {
			if live {
				group = append(group, f*n+node)
			}
		}
		if err := core.Renormalize(l.xs, group); err != nil {
			return false, fmt.Errorf("agent: redistributing after round %d: %w", round, err)
		}
		l.x[f] = l.xs[f*n+id]
	}
	return false, nil
}

// finish records the run's end and announces it.
func (l *roundLoop) finish(rounds int, converged bool) error {
	l.rounds, l.converged = rounds, converged
	l.cfg.Observer.RunFinished(l.id, rounds, converged)
	return nil
}

// send delivers payload to one peer, retrying a failed send up to
// SendRetries times, and counts the message once it is through.
func (l *roundLoop) send(ctx context.Context, round, to int, payload []byte) error {
	cfg := &l.cfg
	var err error
	for attempt := 0; attempt <= cfg.SendRetries; attempt++ {
		if err = cfg.Endpoint.Send(ctx, to, payload); err == nil {
			l.sent++
			return nil
		}
		if ctx.Err() != nil {
			break
		}
		if attempt < cfg.SendRetries {
			cfg.Observer.SendRetried(l.id, round, to, attempt+1, err)
		}
	}
	return fmt.Errorf("agent: sending round %d to node %d: %w", round, to, err)
}

// broadcast sends payload to every live peer.
func (l *roundLoop) broadcast(ctx context.Context, round int, payload []byte) error {
	for to, live := range l.alive {
		if to == l.id || !live {
			continue
		}
		if err := l.send(ctx, round, to, payload); err != nil {
			return err
		}
	}
	return nil
}

// receive reads the round's messages until the round can proceed. A
// planner waits for the report of every live peer or — when Quorum is set
// — until the RoundTimeout deadline fires with at least Quorum reporters
// (including this node); it then reports full=false and the step is
// planned over the reporters only. A worker waits for the coordinator's
// Update and returns it. Stale rebroadcasts, identical duplicates, and
// reports from departed nodes — normal fallout of retries, faulty links,
// and churn — are discarded and counted, never fatal; conflicting
// duplicates, impersonation and messages of the wrong kind remain
// protocol violations. A report for a round more than one ahead of ours
// is ErrLapped: the cluster quorum-completed rounds without us and our
// state is stale. An update for a future round means this worker's report
// was skipped and lockstep is broken.
func (l *roundLoop) receive(ctx context.Context, round int) (upd *protocol.Update, full bool, err error) {
	cfg, id, want := &l.cfg, l.id, countTrue(l.alive)-1
	deadline, cancel := context.WithTimeout(ctx, cfg.RoundTimeout)
	defer cancel()
	for !l.plans || l.count(round) < want {
		msg, err := cfg.Endpoint.Recv(deadline)
		if err != nil {
			if !errors.Is(err, context.DeadlineExceeded) || ctx.Err() != nil {
				return nil, false, fmt.Errorf("agent: receiving round %d: %w", round, err)
			}
			cfg.Observer.TimeoutFired(id, round)
			if !l.plans {
				return nil, false, fmt.Errorf("%w: waiting for round %d update", ErrRoundTimeout, round)
			}
			got := l.count(round)
			cfg.Observer.ReportsCollected(id, round, got, want)
			if cfg.Quorum > 0 && got+1 >= cfg.Quorum {
				cfg.Observer.RecoveryEvent(id, round, "quorum", fmt.Sprintf("round completed short with %d of %d reports", got, want))
				return nil, false, nil
			}
			return nil, false, fmt.Errorf("%w: %d of %d reports for round %d", ErrRoundTimeout, got, want, round)
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			return nil, false, fmt.Errorf("agent: round %d: %w", round, err)
		}
		if !l.plans {
			if env.Kind != protocol.KindUpdate {
				return nil, false, fmt.Errorf("%w: unexpected %q message while awaiting update", ErrProtocol, env.Kind)
			}
			if env.Update.Round > round {
				return nil, false, fmt.Errorf("%w: update for round %d while in round %d", ErrProtocol, env.Update.Round, round)
			}
			if env.Update.Round == round {
				return env.Update, true, nil
			}
			cfg.Observer.MessageDiscarded(id, round, "stale update")
			continue
		}
		if err := l.buffer(env, msg.From, round); err != nil {
			return nil, false, err
		}
	}
	cfg.Observer.ReportsCollected(id, round, want, want)
	return nil, true, nil
}

// buffer checks one received report and stores it for its round.
func (l *roundLoop) buffer(env protocol.Envelope, from, round int) error {
	var repRound, node int
	switch {
	case l.reports != nil && env.Kind == protocol.KindReport:
		repRound, node = env.Report.Round, env.Report.Node
	case l.vectors != nil && env.Kind == protocol.KindVectorReport:
		v := env.Vector
		if files := len(l.x); len(v.Marginals) != files || len(v.Allocs) != files {
			return fmt.Errorf("%w: node %d reported %d/%d entries for %d files", ErrProtocol, v.Node, len(v.Marginals), len(v.Allocs), files)
		}
		repRound, node = v.Round, v.Node
	default:
		return fmt.Errorf("%w: unexpected %q message during report collection", ErrProtocol, env.Kind)
	}
	if node != from {
		return fmt.Errorf("%w: node %d sent a report claiming to be node %d", ErrProtocol, from, node)
	}
	if repRound > round+1 {
		return fmt.Errorf("%w: node %d is already at round %d while we are at round %d", ErrLapped, node, repRound, round)
	}
	if repRound < round {
		// Stale rebroadcast — the round it belongs to already completed,
		// so the data is redundant by construction.
		l.cfg.Observer.MessageDiscarded(l.id, round, "stale report")
		return nil
	}
	if node >= 0 && node < l.n && !l.alive[node] {
		// A node we already declared departed (its fraction is
		// redistributed). Its late report cannot rejoin this epoch.
		l.cfg.Observer.MessageDiscarded(l.id, round, "report from departed node")
		return nil
	}
	var err error
	if l.reports != nil {
		err = l.reports.Add(*env.Report)
	} else {
		err = l.vectors.Add(*env.Vector)
	}
	if errors.Is(err, protocol.ErrDuplicateReport) {
		l.cfg.Observer.MessageDiscarded(l.id, round, "duplicate report")
	} else if err != nil {
		return fmt.Errorf("agent: round %d: %w", round, err)
	}
	return nil
}

// count returns the number of reports buffered for the round.
func (l *roundLoop) count(round int) int {
	if l.reports != nil {
		return l.reports.Count(round)
	}
	return l.vectors.Count(round)
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
