package recovery

import (
	"context"
	"fmt"
	"sync"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// ChurnClusterConfig describes an in-process cluster run under crash
// faults, quorum rounds, and supervised restart — the churn analogue of
// agent.RunCluster.
type ChurnClusterConfig struct {
	// Models holds one LocalModel per node.
	Models []agent.LocalModel
	// Init is the initial (feasible) allocation.
	Init []float64
	// Alpha, Epsilon, MaxRounds, SendRetries, RoundTimeout mirror
	// agent.Config (broadcast mode always).
	Alpha        float64
	Epsilon      float64
	MaxRounds    int
	SendRetries  int
	RoundTimeout time.Duration
	// Quorum and DepartAfter enable the churn protocol (see
	// agent.Config).
	Quorum      int
	DepartAfter int
	// InitAlive seeds the membership view (nil: all alive) — epoch-2
	// rejoin runs start from RejoinInit's output.
	InitAlive []bool
	// Faults configures the injected fault rules shared by every node;
	// protocol.RoundOf is wired in automatically for round-scoped rules.
	Faults transport.FaultConfig
	// Supervisor is the restart policy template; each node derives its
	// own jitter seed from Supervisor.Seed and its id.
	Supervisor SupervisorConfig
	// Observer is shared by every agent (default: none).
	Observer agent.Observer
	// Metrics, when set, meters every endpoint (send/recv counters and
	// payload-size histograms) and publishes the per-node fault counters
	// after the run. Endpoints are wrapped once, outside the restart
	// loop, so counts are cumulative across crash/revive cycles.
	Metrics *metrics.Registry
}

// ChurnResult aggregates a churn run. Unlike agent.RunCluster, per-node
// failure is an expected outcome (a permanently dead node ends with a
// typed error while the survivors converge), so errors are reported per
// node instead of joined.
type ChurnResult struct {
	// Outcomes and Errs are per node; exactly one of Outcomes[i] being
	// meaningful / Errs[i] non-nil holds per node.
	Outcomes []SupervisedOutcome
	Errs     []error
	// Stores holds every node's in-memory checkpoint history — the
	// per-round Σx = 1 evidence.
	Stores []*MemStore
	// Faults aggregates injected-fault counters across all endpoints.
	Faults transport.FaultStats
	// X is the final allocation from the first surviving node's view
	// (verified identical across survivors), and Alive its membership.
	X     []float64
	Alive []bool
	// Rounds and Converged are the surviving nodes' agreed outcome.
	Rounds    int
	Converged bool
	// Survivors lists the nodes that finished without error.
	Survivors []int
}

// RunChurnCluster executes one supervised agent per node over an
// in-memory network wrapped in fault endpoints. It never hangs: every
// node either finishes (converged or MaxRounds) or returns a typed error
// (restart budget, round timeout, desync, lapped), and the survivors'
// final views are checked bit-identical before being reported.
func RunChurnCluster(ctx context.Context, cfg ChurnClusterConfig) (ChurnResult, error) {
	n := len(cfg.Models)
	if n < 2 {
		return ChurnResult{}, fmt.Errorf("recovery: cluster needs at least 2 nodes, got %d", n)
	}
	if len(cfg.Init) != n {
		return ChurnResult{}, fmt.Errorf("recovery: %d initial fragments for %d nodes", len(cfg.Init), n)
	}
	net, err := transport.NewMemoryNetwork(n)
	if err != nil {
		return ChurnResult{}, fmt.Errorf("recovery: building memory network: %w", err)
	}
	defer net.Close() //fap:ignore errdrop shutdown of an in-memory fixture

	faults := cfg.Faults
	if faults.RoundOf == nil {
		faults.RoundOf = protocol.RoundOf
	}

	if cfg.Observer != nil && cfg.InitAlive != nil {
		// An alive node entering an epoch with a zero fragment is a
		// rejoiner (RejoinInit's construction): announce its re-entry.
		for i := 0; i < n; i++ {
			if cfg.InitAlive[i] && cfg.Init[i] == 0 {
				cfg.Observer.RecoveryEvent(i, 0, "rejoin", "re-entering with a zero fragment")
			}
		}
	}

	res := ChurnResult{
		Outcomes: make([]SupervisedOutcome, n),
		Errs:     make([]error, n),
		Stores:   make([]*MemStore, n),
	}
	feps := make([]*transport.FaultEndpoint, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			return ChurnResult{}, err
		}
		fep, err := transport.NewFaultEndpoint(ep, faults)
		if err != nil {
			return ChurnResult{}, fmt.Errorf("recovery: wrapping endpoint %d: %w", i, err)
		}
		feps[i] = fep
		var aep transport.Endpoint = fep
		if cfg.Metrics != nil {
			aep = transport.NewMeteredEndpoint(fep, cfg.Metrics)
		}
		res.Stores[i] = NewMemStore(i, n)
		sup := cfg.Supervisor
		sup.Seed = sup.Seed*31 + int64(i) + 1
		acfg := agent.Config{
			Endpoint:     aep,
			Model:        cfg.Models[i],
			Init:         cfg.Init[i],
			Alpha:        cfg.Alpha,
			Epsilon:      cfg.Epsilon,
			MaxRounds:    cfg.MaxRounds,
			Mode:         agent.Broadcast,
			SendRetries:  cfg.SendRetries,
			RoundTimeout: cfg.RoundTimeout,
			Quorum:       cfg.Quorum,
			DepartAfter:  cfg.DepartAfter,
			Observer:     cfg.Observer,
		}
		if cfg.InitAlive != nil {
			acfg.Resume = &agent.RoundState{X: cfg.Init[i], Alive: cfg.InitAlive}
		}
		wg.Add(1)
		go func(i int, acfg agent.Config, sup SupervisorConfig) {
			defer wg.Done()
			res.Outcomes[i], res.Errs[i] = RunSupervisedAgent(ctx, acfg, sup, res.Stores[i])
		}(i, acfg, sup)
	}
	wg.Wait()

	// Drain surviving inboxes before reading fault stats: recv-side rules
	// (a partition swallowing reports, say) count at delivery, and a node
	// that dies on a round timeout stops receiving at a wall-clock-
	// dependent instant. Draining makes those counters a function of what
	// the network delivered — deterministic — rather than of shutdown
	// timing. Crashed endpoints refuse Recv and hold no countable state.
	for _, fep := range feps {
		if fep.Crashed() {
			continue
		}
		drainCtx, cancel := context.WithTimeout(ctx, 10*time.Millisecond)
		for {
			if _, err := fep.Recv(drainCtx); err != nil {
				break
			}
		}
		cancel()
	}

	for i, fep := range feps {
		stats := fep.Stats()
		res.Faults.Add(stats)
		if cfg.Metrics != nil {
			transport.PublishFaultStats(cfg.Metrics, i, stats)
		}
	}
	for i := 0; i < n; i++ {
		if res.Errs[i] == nil {
			res.Survivors = append(res.Survivors, i)
		}
	}
	if len(res.Survivors) == 0 {
		return res, fmt.Errorf("recovery: no node survived the run (node 0: %w)", res.Errs[0])
	}
	first := res.Survivors[0]
	ref := res.Outcomes[first]
	for _, s := range res.Survivors[1:] {
		o := res.Outcomes[s]
		if o.Rounds != ref.Rounds || o.Converged != ref.Converged {
			return res, fmt.Errorf("recovery: survivors disagree on outcome (node %d: %d rounds converged=%t, node %d: %d rounds converged=%t)",
				first, ref.Rounds, ref.Converged, s, o.Rounds, o.Converged)
		}
		for j := range ref.FullX {
			if o.FullX[j] != ref.FullX[j] {
				return res, fmt.Errorf("recovery: survivors %d and %d disagree on x[%d] (%v vs %v)", first, s, j, ref.FullX[j], o.FullX[j])
			}
			if o.Alive[j] != ref.Alive[j] {
				return res, fmt.Errorf("recovery: survivors %d and %d disagree on membership of node %d", first, s, j)
			}
		}
	}
	res.X = append([]float64(nil), ref.FullX...)
	res.Alive = append([]bool(nil), ref.Alive...)
	res.Rounds = ref.Rounds
	res.Converged = ref.Converged
	return res, nil
}
