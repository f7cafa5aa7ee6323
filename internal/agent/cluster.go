package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// ClusterResult aggregates the outcomes of a full cluster run.
type ClusterResult struct {
	// X is the final allocation: each surviving node's own fragment, and
	// 0 for a node that did not survive.
	X []float64
	// Alive is the survivors' agreed membership view (nil when no
	// survivor plans steps).
	Alive []bool
	// Rounds is the number of re-allocation rounds the survivors agree
	// on.
	Rounds int
	// Converged reports the ε-criterion fired.
	Converged bool
	// Messages is the total number of protocol messages sent by all
	// agents.
	Messages int
	// Faults aggregates the injected-fault counters across all
	// endpoints when ClusterConfig.Faults is set, counted after the
	// surviving inboxes are drained. It is populated even when
	// RunCluster returns an error, so chaos harnesses can account for
	// the faults that caused a timeout.
	Faults transport.FaultStats
	// Outcomes and Errs are per node. A quorum run expects some nodes to
	// fail; Survivors lists the nodes whose Errs entry is nil.
	Outcomes  []Outcome
	Errs      []error
	Survivors []int
}

// ClusterConfig describes a cluster run: one agent per node, all started
// from one template.
type ClusterConfig struct {
	// Agent is the template every node runs. The harness fills in
	// Endpoint, Model, Init and Resume per node; every other field is
	// shared. Agent.Quorum != 0 makes node failures non-fatal (see
	// RunCluster).
	Agent Config
	// Models holds one LocalModel per node.
	Models []LocalModel
	// Init is the initial (feasible) allocation.
	Init []float64
	// InitAlive, when set, starts a new epoch with this membership view:
	// every alive node resumes at round 0 from its Init fragment, and a
	// node outside it sits the epoch out (no run, no outcome, and it
	// holds 0 in the result). An alive node with a zero fragment is a
	// rejoiner, announced by a "rejoin" recovery event.
	InitAlive []bool
	// Endpoints, when set, carries node i on Endpoints[i] (loopback TCP,
	// say); the caller owns and closes them. Nil runs the cluster over
	// an in-memory network.
	Endpoints []transport.Endpoint
	// Faults, when non-nil, wraps every endpoint in a FaultEndpoint with
	// this configuration; RoundOf defaults to protocol.RoundOf.
	Faults *transport.FaultConfig
	// Metrics, when set, meters every endpoint and publishes each node's
	// fault counters after the run (zero when Faults is nil). Endpoints
	// are wrapped once, so the counts are cumulative across a supervised
	// node's restarts.
	Metrics *metrics.Registry
	// Run executes one node (default Run). The recovery package passes
	// its supervised runner here, and the gossip package its tree and
	// push-sum nodes.
	Run func(ctx context.Context, cfg Config) (Outcome, error)
}

// drainWindow is how long RunCluster keeps reading the surviving inboxes
// of a fault-injected run after its agents finished.
const drainWindow = 10 * time.Millisecond

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

// RunCluster executes one agent per node and assembles the final
// allocation. Every agent runs on its own goroutine; RunCluster waits for
// all of them, then checks that the survivors agree bit for bit on the
// rounds, the verdict and every full view they planned with.
//
// In a lockstep run (Agent.Quorum == 0) any node error fails the run. A
// quorum run expects nodes to die: it reports their errors in
// ClusterResult.Errs and fails only when no node survived or the
// survivors disagree.
func RunCluster(ctx context.Context, cfg ClusterConfig) (ClusterResult, error) {
	n := len(cfg.Models)
	switch {
	case n < 2:
		return ClusterResult{}, fmt.Errorf("%w: cluster needs at least 2 nodes, got %d", ErrBadConfig, n)
	case len(cfg.Init) != n:
		return ClusterResult{}, fmt.Errorf("%w: %d initial fragments for %d nodes", ErrBadConfig, len(cfg.Init), n)
	case cfg.InitAlive != nil && len(cfg.InitAlive) != n:
		return ClusterResult{}, fmt.Errorf("%w: %d alive entries for %d nodes", ErrBadConfig, len(cfg.InitAlive), n)
	case cfg.Endpoints != nil && len(cfg.Endpoints) != n:
		return ClusterResult{}, fmt.Errorf("%w: %d endpoints for %d nodes", ErrBadConfig, len(cfg.Endpoints), n)
	}
	eps := cfg.Endpoints
	if eps == nil {
		// A node holds at most one message per peer for its stage and
		// one for the stage after (2n, for any aggregator and degree);
		// 64 more absorb duplicated sends.
		net, err := transport.NewMemoryNetwork(n, transport.WithBufferSize(2*n+64))
		if err != nil {
			return ClusterResult{}, fmt.Errorf("agent: building memory network: %w", err)
		}
		defer net.Close() //fap:ignore errdrop shutdown of an in-memory fixture
		eps = make([]transport.Endpoint, n)
		for i := range eps {
			if eps[i], err = net.Endpoint(i); err != nil {
				return ClusterResult{}, err
			}
		}
	}
	var faults transport.FaultConfig
	if cfg.Faults != nil {
		faults = *cfg.Faults
		if faults.RoundOf == nil {
			faults.RoundOf = protocol.RoundOf
		}
	}
	feps := make([]*transport.FaultEndpoint, n)
	nodeEps := make([]transport.Endpoint, n)
	for i, ep := range eps {
		if ep.ID() != i || ep.Peers() != n {
			return ClusterResult{}, fmt.Errorf("%w: endpoint %d is node %d of %d", ErrBadConfig, i, ep.ID(), ep.Peers())
		}
		if cfg.Faults != nil {
			fep, err := transport.NewFaultEndpoint(ep, faults)
			if err != nil {
				return ClusterResult{}, fmt.Errorf("agent: wrapping endpoint %d: %w", i, err)
			}
			feps[i], ep = fep, fep
		}
		if cfg.Metrics != nil {
			ep = transport.NewMeteredEndpoint(ep, cfg.Metrics)
		}
		nodeEps[i] = ep
	}

	if obs := cfg.Agent.Observer; obs != nil && cfg.InitAlive != nil {
		// An alive node entering an epoch with a zero fragment is a
		// rejoiner (recovery.RejoinInit's construction): announce it.
		for i, alive := range cfg.InitAlive {
			if alive && cfg.Init[i] == 0 {
				obs.RecoveryEvent(i, 0, "rejoin", "re-entering with a zero fragment")
			}
		}
	}
	run := cfg.Run
	if run == nil {
		run = Run
	}
	res := ClusterResult{Outcomes: make([]Outcome, n), Errs: make([]error, n)}
	var wg sync.WaitGroup
	for i, ep := range nodeEps {
		if !cfg.alive(i) {
			continue
		}
		acfg := cfg.Agent
		acfg.Endpoint, acfg.Model, acfg.Init, acfg.Resume = ep, cfg.Models[i], cfg.Init[i], nil
		if cfg.InitAlive != nil {
			acfg.Resume = &RoundState{X: cfg.Init[i], Alive: cfg.InitAlive}
		}
		wg.Add(1)
		go func(i int, acfg Config) {
			defer wg.Done()
			res.Outcomes[i], res.Errs[i] = run(ctx, acfg)
		}(i, acfg)
	}
	wg.Wait()

	drain(ctx, feps)
	for i, fep := range feps {
		var stats transport.FaultStats
		if fep != nil {
			stats = fep.Stats()
			res.Faults.Add(stats)
		}
		if cfg.Metrics != nil {
			transport.PublishFaultStats(cfg.Metrics, i, stats)
		}
	}
	for i, err := range res.Errs {
		if err == nil && cfg.alive(i) {
			res.Survivors = append(res.Survivors, i)
		}
	}
	if cfg.Agent.Quorum == 0 {
		if err := errors.Join(res.Errs...); err != nil {
			return res, fmt.Errorf("agent: cluster run failed: %w", err)
		}
	} else if len(res.Survivors) == 0 {
		return res, fmt.Errorf("agent: no node survived the run (node 0: %w)", res.Errs[0])
	}
	for _, out := range res.Outcomes {
		res.Messages += out.MessagesSent
	}
	return res, res.agree()
}

// alive reports whether node i runs in this epoch.
func (cfg *ClusterConfig) alive(i int) bool { return cfg.InitAlive == nil || cfg.InitAlive[i] }

// drain reads every surviving fault endpoint's inbox for one shared
// window before the fault stats are read. Recv-side rules (a partition
// swallowing reports, a reorder swapping a late duplicate) count at
// delivery, and a node that stops on a round timeout or on convergence
// stops receiving at a wall-clock-dependent instant. Draining makes the
// counters a function of what the network delivered rather than of
// shutdown timing. Crashed endpoints refuse Recv and hold no countable
// state.
func drain(ctx context.Context, feps []*transport.FaultEndpoint) {
	ctx, cancel := context.WithTimeout(ctx, drainWindow)
	defer cancel()
	var wg sync.WaitGroup
	for _, fep := range feps {
		if fep == nil || fep.Crashed() {
			continue
		}
		wg.Add(1)
		go func(fep *transport.FaultEndpoint) {
			defer wg.Done()
			for {
				if _, err := fep.Recv(ctx); err != nil {
					return
				}
			}
		}(fep)
	}
	wg.Wait()
}

// agree fills X, Alive, Rounds and Converged from the survivors and
// checks them: every survivor ran the same rounds to the same verdict,
// and every full view a survivor planned with equals X and the others'
// membership bit for bit.
func (res *ClusterResult) agree() error {
	res.X = make([]float64, len(res.Outcomes))
	for _, s := range res.Survivors {
		res.X[s] = res.Outcomes[s].X
	}
	first := res.Survivors[0]
	ref := res.Outcomes[first]
	res.Rounds, res.Converged = ref.Rounds, ref.Converged
	for _, s := range res.Survivors {
		o := res.Outcomes[s]
		if o.Rounds != ref.Rounds || o.Converged != ref.Converged {
			return fmt.Errorf("%w: survivors disagree on outcome (node %d: %d rounds converged=%t, node %d: %d rounds converged=%t)",
				ErrProtocol, first, ref.Rounds, ref.Converged, s, o.Rounds, o.Converged)
		}
		if o.FullX == nil {
			continue
		}
		if res.Alive == nil {
			res.Alive = append([]bool(nil), o.Alive...)
		}
		for j, x := range res.X {
			if o.FullX[j] != x {
				return fmt.Errorf("%w: node %d sees x[%d] = %v, the survivors hold %v", ErrProtocol, s, j, o.FullX[j], x)
			}
			if o.Alive[j] != res.Alive[j] {
				return fmt.Errorf("%w: survivors disagree on membership of node %d", ErrProtocol, j)
			}
		}
	}
	return nil
}
