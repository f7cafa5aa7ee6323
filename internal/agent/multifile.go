package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// MultiFileLocalModel is the node-local knowledge for the section 5.4
// multi-file objective: everything node i needs to compute its marginal
// utilities ∂U/∂x_i^f for every file f from its own fragment vector.
// The files couple only through the node's own queue load
// L_i = Σ_f λ^f·x_i^f, which is local information — the multi-file
// problem stays exactly as decentralized as the single-file one.
type MultiFileLocalModel struct {
	// AccessCosts holds C_i^f per file.
	AccessCosts []float64
	// ServiceRate is μ_i.
	ServiceRate float64
	// FileRates holds λ^f per file (global constants agreed at setup).
	FileRates []float64
	// Weights holds w_f per file.
	Weights []float64
	// K is the delay scaling factor.
	K float64
}

// Marginals returns ∂U/∂x_i^f for every file, evaluated at the node's
// fragment vector x (one entry per file).
func (m MultiFileLocalModel) Marginals(x []float64) ([]float64, error) {
	files := len(m.AccessCosts)
	if len(x) != files {
		return nil, fmt.Errorf("%w: %d fragments for %d files", core.ErrDimension, len(x), files)
	}
	var load, weighted float64
	for f := 0; f < files; f++ {
		load += m.FileRates[f] * x[f]
		weighted += m.Weights[f] * x[f]
	}
	room := m.ServiceRate - load
	if room <= 0 {
		return nil, fmt.Errorf("%w: local queue saturated (μ=%v, load=%v)", core.ErrUnstable, m.ServiceRate, load)
	}
	out := make([]float64, files)
	for f := 0; f < files; f++ {
		out[f] = -(m.Weights[f]*m.AccessCosts[f] +
			m.K*(m.Weights[f]*room+weighted*m.FileRates[f])/(room*room))
	}
	return out, nil
}

// MultiFileModelsFrom derives per-node local models from a MultiFile
// objective.
func MultiFileModelsFrom(m *costmodel.MultiFile) []MultiFileLocalModel {
	// The MultiFile objective does not expose its internals directly;
	// rebuild the local views from its accessors.
	nodes := m.Nodes()
	files := m.Files()
	models := make([]MultiFileLocalModel, nodes)
	for i := 0; i < nodes; i++ {
		lm := MultiFileLocalModel{
			AccessCosts: make([]float64, files),
			ServiceRate: m.ServiceRate(i),
			FileRates:   m.FileRates(),
			Weights:     m.FileWeights(),
			K:           m.K(),
		}
		for f := 0; f < files; f++ {
			lm.AccessCosts[f] = m.AccessCost(f, i)
		}
		models[i] = lm
	}
	return models
}

// MultiFileAgentConfig assembles one multi-file agent.
type MultiFileAgentConfig struct {
	// Endpoint connects the agent to its peers.
	Endpoint transport.Endpoint
	// Model is the node-local multi-file cost knowledge.
	Model MultiFileLocalModel
	// Init is the node's initial fragment per file.
	Init []float64
	// Alpha, Epsilon, MaxRounds, RoundTimeout, SendRetries as in Config.
	Alpha        float64
	Epsilon      float64
	MaxRounds    int
	RoundTimeout time.Duration
	SendRetries  int
	// Observer receives round-level events (default: none).
	Observer Observer
}

// MultiFileOutcome is one agent's view of the finished protocol.
type MultiFileOutcome struct {
	// X is the node's final fragment per file.
	X []float64
	// Rounds performed.
	Rounds int
	// Converged reports the ε-criterion fired for every file.
	Converged bool
	// MessagesSent counts protocol messages sent.
	MessagesSent int
}

// RunMultiFile executes one multi-file agent in broadcast mode: each round
// every node announces its per-file marginals and fragments, then every
// node plans the identical per-file re-allocation (one constraint group
// per file, exactly as the centralized grouped solver does).
func RunMultiFile(ctx context.Context, cfg MultiFileAgentConfig) (MultiFileOutcome, error) {
	if cfg.Endpoint == nil {
		return MultiFileOutcome{}, fmt.Errorf("%w: nil endpoint", ErrBadConfig)
	}
	files := len(cfg.Model.AccessCosts)
	if files == 0 || len(cfg.Model.FileRates) != files || len(cfg.Model.Weights) != files {
		return MultiFileOutcome{}, fmt.Errorf("%w: inconsistent local model shapes", ErrBadConfig)
	}
	if len(cfg.Init) != files {
		return MultiFileOutcome{}, fmt.Errorf("%w: %d initial fragments for %d files", ErrBadConfig, len(cfg.Init), files)
	}
	for f, v := range cfg.Init {
		if v < 0 || math.IsNaN(v) {
			return MultiFileOutcome{}, fmt.Errorf("%w: init[%d] = %v", ErrBadConfig, f, v)
		}
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Alpha < 0 || math.IsNaN(cfg.Alpha) {
		return MultiFileOutcome{}, fmt.Errorf("%w: alpha = %v", ErrBadConfig, cfg.Alpha)
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.Epsilon < 0 {
		return MultiFileOutcome{}, fmt.Errorf("%w: epsilon = %v", ErrBadConfig, cfg.Epsilon)
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10000
	}
	if cfg.MaxRounds < 1 {
		return MultiFileOutcome{}, fmt.Errorf("%w: max rounds = %d", ErrBadConfig, cfg.MaxRounds)
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 10 * time.Second
	}
	if cfg.SendRetries < 0 {
		return MultiFileOutcome{}, fmt.Errorf("%w: send retries = %d", ErrBadConfig, cfg.SendRetries)
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}

	ep := cfg.Endpoint
	n := ep.Peers()
	id := ep.ID()
	buf := protocol.NewVectorRoundBuffer(n)
	x := append([]float64(nil), cfg.Init...)
	out := MultiFileOutcome{}

	// Flattened file-major state, matching costmodel.MultiFile's layout:
	// variable f·n + i.
	xs := make([]float64, files*n)
	gs := make([]float64, files*n)
	groups := make([][]int, files)
	for f := range groups {
		g := make([]int, n)
		for i := range g {
			g[i] = f*n + i
		}
		groups[f] = g
	}

	for round := 0; round < cfg.MaxRounds; round++ {
		if err := ctx.Err(); err != nil {
			return out, fmt.Errorf("agent: canceled at round %d: %w", round, err)
		}
		cfg.Observer.RoundStarted(id, round)
		g, err := cfg.Model.Marginals(x)
		if err != nil {
			return out, fmt.Errorf("agent: round %d: %w", round, err)
		}
		payload, err := protocol.EncodeVectorReport(protocol.VectorReport{
			Round: round, Node: id, Marginals: g, Allocs: x,
		})
		if err != nil {
			return out, err
		}
		sent, err := broadcastVectorReliably(ctx, ep, cfg.SendRetries, payload)
		out.MessagesSent += sent
		if err != nil {
			return out, fmt.Errorf("agent: broadcasting round %d: %w", round, err)
		}
		if err := collectVectorReports(ctx, ep, cfg.RoundTimeout, cfg.Observer, buf, round, n-1, files); err != nil {
			return out, err
		}
		reports := buf.Take(round)
		for f := 0; f < files; f++ {
			xs[f*n+id], gs[f*n+id] = x[f], g[f]
		}
		for node, rep := range reports {
			for f := 0; f < files; f++ {
				xs[f*n+node], gs[f*n+node] = rep.Allocs[f], rep.Marginals[f]
			}
		}
		converged := true
		steps := make([]core.Step, files)
		movable := false
		for f := 0; f < files; f++ {
			st, err := core.PlanStep(xs, gs, groups[f], cfg.Alpha)
			if err != nil {
				return out, fmt.Errorf("agent: planning round %d file %d: %w", round, f, err)
			}
			steps[f] = st
			if st.Spread(gs, groups[f]) >= cfg.Epsilon {
				converged = false
			}
			if !st.IsNoOp() {
				movable = true
			}
		}
		if converged || !movable {
			out.X = x
			out.Rounds = round
			out.Converged = converged
			return out, nil
		}
		for f := 0; f < files; f++ {
			x[f] = core.ClampResidue(x[f] + steps[f].Delta[id])
		}
	}
	out.X = x
	out.Rounds = cfg.MaxRounds
	return out, nil
}

// collectVectorReports mirrors collectReports for vector rounds,
// including its tolerance of stale rebroadcasts and identical duplicates.
func collectVectorReports(ctx context.Context, ep transport.Endpoint, timeout time.Duration, obs Observer, buf *protocol.VectorRoundBuffer, round, want, files int) error {
	id := ep.ID()
	deadline, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	for !buf.Complete(round, want) {
		msg, err := ep.Recv(deadline)
		if err != nil {
			if errors.Is(err, context.DeadlineExceeded) && ctx.Err() == nil {
				obs.TimeoutFired(id, round)
				return fmt.Errorf("%w: waiting for round %d vector reports", ErrRoundTimeout, round)
			}
			return fmt.Errorf("agent: receiving round %d: %w", round, err)
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			return fmt.Errorf("agent: round %d: %w", round, err)
		}
		if env.Kind != protocol.KindVectorReport {
			return fmt.Errorf("%w: unexpected %q message during vector collection", ErrProtocol, env.Kind)
		}
		rep := env.Vector
		if rep.Node != msg.From {
			return fmt.Errorf("%w: node %d sent a report claiming to be node %d", ErrProtocol, msg.From, rep.Node)
		}
		if len(rep.Marginals) != files || len(rep.Allocs) != files {
			return fmt.Errorf("%w: node %d reported %d/%d entries for %d files", ErrProtocol, rep.Node, len(rep.Marginals), len(rep.Allocs), files)
		}
		if rep.Round < round {
			obs.MessageDiscarded(id, round, "stale vector report")
			continue
		}
		if err := buf.Add(*rep); err != nil {
			if errors.Is(err, protocol.ErrDuplicateReport) {
				obs.MessageDiscarded(id, round, "duplicate vector report")
				continue
			}
			return fmt.Errorf("agent: round %d: %w", round, err)
		}
	}
	obs.ReportsCollected(id, round, want, want)
	return nil
}

// broadcastVectorReliably mirrors broadcastReliably without a full Config.
func broadcastVectorReliably(ctx context.Context, ep transport.Endpoint, retries int, payload []byte) (sent int, err error) {
	for to := 0; to < ep.Peers(); to++ {
		if to == ep.ID() {
			continue
		}
		var lastErr error
		for attempt := 0; attempt <= retries; attempt++ {
			if lastErr = ep.Send(ctx, to, payload); lastErr == nil {
				break
			}
			if ctx.Err() != nil {
				break
			}
		}
		if lastErr != nil {
			return sent, lastErr
		}
		sent++
	}
	return sent, nil
}
