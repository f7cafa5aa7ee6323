package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"filealloc/internal/costmodel"
	"filealloc/internal/transport"
)

// ClusterResult aggregates the outcomes of a full in-process cluster run.
type ClusterResult struct {
	// X is the final allocation assembled from every agent's fragment.
	X []float64
	// Rounds is the number of re-allocation rounds (identical on every
	// agent by construction).
	Rounds int
	// Converged reports the ε-criterion fired.
	Converged bool
	// Messages is the total number of protocol messages sent by all
	// agents.
	Messages int
	// Faults aggregates the injected-fault counters across all
	// endpoints when ClusterConfig.Faults is set. It is populated even
	// when RunCluster returns an error, so chaos harnesses can account
	// for the faults that caused a timeout.
	Faults transport.FaultStats
}

// ClusterConfig describes an in-process cluster run over a memory network.
type ClusterConfig struct {
	// Models holds one LocalModel per node.
	Models []LocalModel
	// Init is the initial (feasible) allocation.
	Init []float64
	// Alpha, Epsilon, MaxRounds, Mode, CoordinatorID, SendRetries mirror
	// Config.
	Alpha         float64
	Epsilon       float64
	MaxRounds     int
	Mode          Mode
	CoordinatorID int
	SendRetries   int
	// DynamicAlphaSafety mirrors Config (broadcast mode only).
	DynamicAlphaSafety float64
	// SecondOrder mirrors Config (broadcast mode only).
	SecondOrder bool
	// RoundTimeout mirrors Config (default 10s).
	RoundTimeout time.Duration
	// Observer is shared by every agent of the cluster (default: none).
	Observer Observer
	// Faults, when non-nil, wraps every endpoint in a FaultEndpoint with
	// this configuration; per-endpoint stats are aggregated into
	// ClusterResult.Faults.
	Faults *transport.FaultConfig
}

// ModelsFromSingleFile derives the per-node local models from a SingleFile
// objective — the knowledge each node would be provisioned with at setup.
func ModelsFromSingleFile(m *costmodel.SingleFile) []LocalModel {
	models := make([]LocalModel, m.Dim())
	for i := range models {
		models[i] = LocalModel{
			AccessCost:  m.AccessCost(i),
			ServiceRate: m.ServiceRate(i),
			Lambda:      m.Lambda(),
			K:           m.K(),
		}
	}
	return models
}

// RunCluster executes one agent per node over an in-memory network and
// assembles the final allocation. Every agent runs on its own goroutine;
// RunCluster waits for all of them before returning.
func RunCluster(ctx context.Context, cfg ClusterConfig) (ClusterResult, error) {
	n := len(cfg.Models)
	if n < 2 {
		return ClusterResult{}, fmt.Errorf("%w: cluster needs at least 2 nodes, got %d", ErrBadConfig, n)
	}
	if len(cfg.Init) != n {
		return ClusterResult{}, fmt.Errorf("%w: %d initial fragments for %d nodes", ErrBadConfig, len(cfg.Init), n)
	}
	net, err := transport.NewMemoryNetwork(n)
	if err != nil {
		return ClusterResult{}, fmt.Errorf("agent: building memory network: %w", err)
	}
	defer net.Close() //fap:ignore errdrop shutdown of an in-memory fixture

	outcomes := make([]Outcome, n)
	errs := make([]error, n)
	faultEps := make([]*transport.FaultEndpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			return ClusterResult{}, err
		}
		var agentEp transport.Endpoint = ep
		if cfg.Faults != nil {
			fep, err := transport.NewFaultEndpoint(ep, *cfg.Faults)
			if err != nil {
				return ClusterResult{}, fmt.Errorf("agent: wrapping endpoint %d: %w", i, err)
			}
			faultEps[i] = fep
			agentEp = fep
		}
		wg.Add(1)
		go func(i int, ep transport.Endpoint) {
			defer wg.Done()
			outcomes[i], errs[i] = Run(ctx, Config{
				Endpoint:           ep,
				Model:              cfg.Models[i],
				Init:               cfg.Init[i],
				Alpha:              cfg.Alpha,
				Epsilon:            cfg.Epsilon,
				MaxRounds:          cfg.MaxRounds,
				Mode:               cfg.Mode,
				CoordinatorID:      cfg.CoordinatorID,
				SendRetries:        cfg.SendRetries,
				DynamicAlphaSafety: cfg.DynamicAlphaSafety,
				SecondOrder:        cfg.SecondOrder,
				RoundTimeout:       cfg.RoundTimeout,
				Observer:           cfg.Observer,
			})
		}(i, agentEp)
	}
	wg.Wait()

	var res ClusterResult
	for _, fep := range faultEps {
		if fep != nil {
			res.Faults.Add(fep.Stats())
		}
	}
	if err := errors.Join(errs...); err != nil {
		return res, fmt.Errorf("agent: cluster run failed: %w", err)
	}

	res.X = make([]float64, n)
	res.Rounds = outcomes[0].Rounds
	res.Converged = outcomes[0].Converged
	for i, out := range outcomes {
		res.X[i] = out.X
		res.Messages += out.MessagesSent
		if out.Rounds != res.Rounds {
			return res, fmt.Errorf("%w: agents disagree on round count (%d vs %d)", ErrProtocol, out.Rounds, res.Rounds)
		}
	}
	return res, nil
}
