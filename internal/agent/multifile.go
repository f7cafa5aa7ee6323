package agent

import (
	"context"
	"fmt"
	"time"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
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
	g := make([]float64, len(m.AccessCosts))
	if err := m.marginals(g, x); err != nil {
		return nil, err
	}
	return g, nil
}

func (m MultiFileLocalModel) marginals(g, x []float64) error {
	files := len(m.AccessCosts)
	if len(x) != files {
		return fmt.Errorf("%w: %d fragments for %d files", core.ErrDimension, len(x), files)
	}
	var load, weighted float64
	for f := 0; f < files; f++ {
		load += m.FileRates[f] * x[f]
		weighted += m.Weights[f] * x[f]
	}
	room := m.ServiceRate - load
	if room <= 0 {
		return fmt.Errorf("%w: local queue saturated (μ=%v, load=%v)", core.ErrUnstable, m.ServiceRate, load)
	}
	for f := 0; f < files; f++ {
		g[f] = -(m.Weights[f]*m.AccessCosts[f] +
			m.K*(m.Weights[f]*room+weighted*m.FileRates[f])/(room*room))
	}
	return nil
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
	files := len(cfg.Model.AccessCosts)
	if files == 0 || len(cfg.Model.FileRates) != files || len(cfg.Model.Weights) != files {
		return MultiFileOutcome{}, fmt.Errorf("%w: inconsistent local model shapes", ErrBadConfig)
	}
	if len(cfg.Init) != files {
		return MultiFileOutcome{}, fmt.Errorf("%w: %d initial fragments for %d files", ErrBadConfig, len(cfg.Init), files)
	}
	l, err := newRoundLoop(Config{
		Endpoint:     cfg.Endpoint,
		Alpha:        cfg.Alpha,
		Epsilon:      cfg.Epsilon,
		MaxRounds:    cfg.MaxRounds,
		RoundTimeout: cfg.RoundTimeout,
		SendRetries:  cfg.SendRetries,
		Observer:     cfg.Observer,
	}, cfg.Model, cfg.Init, true)
	if err != nil {
		return MultiFileOutcome{}, err
	}
	if err := l.run(ctx); err != nil {
		return MultiFileOutcome{MessagesSent: l.sent}, err
	}
	return MultiFileOutcome{X: l.x, Rounds: l.rounds, Converged: l.converged, MessagesSent: l.sent}, nil
}
