package gossip

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// ClusterConfig describes a single-box aggregation cluster: one
// in-process node per graph vertex, connected by a memory network,
// optionally behind deterministic fault injection.
type ClusterConfig struct {
	// Graph is the access network; aggregation messages travel only along
	// its edges.
	Graph *topology.Graph
	// Models holds each node's local slice of the cost model.
	Models []agent.LocalModel
	// Init is the starting allocation (must sum to 1).
	Init []float64
	// Alpha is the ascent stepsize (default 0.1).
	Alpha float64
	// Epsilon is the convergence threshold on the marginal-utility spread
	// (default 1e-3).
	Epsilon float64
	// MaxRounds bounds the total re-allocation rounds across epochs
	// (default 10000).
	MaxRounds int
	// Mode selects tree or push-sum aggregation (default ModeTree).
	Mode Mode
	// RoundTimeout bounds one round's aggregation (default 10s); hitting
	// it is the loud failure that triggers the churn/retry path.
	RoundTimeout time.Duration
	// Seed drives the push-sum peer schedule.
	Seed int64
	// Ticks is the push-sum mixing length per round; 0 derives it from
	// the tree depth (a diameter bound plus mixing slack).
	Ticks int
	// KKTTol is the certification tolerance (default 0.02).
	KKTTol float64
	// RetryBudget is how many consecutive epochs may fail without any
	// node being found dead before the run surfaces the failure
	// (default 2).
	RetryBudget int
	// Faults, when non-nil, wraps every endpoint in deterministic fault
	// injection. Its RoundOf defaults to protocol.RoundOf.
	Faults *transport.FaultConfig
	// Metrics, when non-nil, receives the run's counters and gauges.
	Metrics *metrics.Registry
	// OnRound, when non-nil, observes every applied step. It must be safe
	// for concurrent use; node goroutines call it from their own rounds.
	OnRound func(epoch, round, node int, x float64)
}

// Bill is the message bill of a run: what the aggregation actually paid
// on the wire, for comparison against the O(N²) broadcast reference.
type Bill struct {
	// Mode names the aggregation scheme billed.
	Mode string
	// Rounds counts completed re-allocation rounds across all epochs.
	Rounds int
	// Messages counts logical protocol messages sent.
	Messages int64
	// Frames counts wire frames. Every message travels in its own
	// frame, so Frames equals Messages; it stays for readers of the
	// gossip_frames_total counter.
	Frames int64
	// Bytes counts wire bytes sent.
	Bytes int64
}

// MessagesPerRound averages the logical message count per round.
func (b Bill) MessagesPerRound() float64 {
	if b.Rounds == 0 {
		return float64(b.Messages)
	}
	return float64(b.Messages) / float64(b.Rounds)
}

// BytesPerRound averages the wire bytes per round.
func (b Bill) BytesPerRound() float64 {
	if b.Rounds == 0 {
		return float64(b.Bytes)
	}
	return float64(b.Bytes) / float64(b.Rounds)
}

// ClusterResult is the outcome of a cluster run.
type ClusterResult struct {
	// X is the final allocation; dead nodes hold zero.
	X []float64
	// Alive flags the nodes that survived.
	Alive []bool
	// Rounds counts completed re-allocation rounds across epochs.
	Rounds int
	// Epochs counts membership epochs (1 + churn events + retries).
	Epochs int
	// Converged reports protocol convergence (spread < ε).
	Converged bool
	// Certified reports that the converged allocation passed
	// costmodel.VerifyKKT; a converged run that fails certification also
	// returns ErrUncertified.
	Certified bool
	// Q is the Lagrange-multiplier estimate used for certification.
	Q float64
	// Bill is the message bill.
	Bill Bill
	// Faults aggregates the injected-fault counters over all endpoints.
	Faults transport.FaultStats
}

// BroadcastMessages is the analytic per-round message count of the
// broadcast reference at cluster size n: every node sends its report to
// every other node.
func BroadcastMessages(n int) int64 { return int64(n) * int64(n-1) }

// RunCluster runs the full decentralized allocation over an in-process
// cluster, supervising membership churn: when a round fails, crashed
// endpoints are detected, the surviving allocation mass is renormalized,
// the spanning tree is rebuilt over the alive set, and the protocol
// resumes under a fresh epoch. A converged allocation is always KKT
// certified before it is returned.
func RunCluster(ctx context.Context, cfg ClusterConfig) (ClusterResult, error) {
	var res ClusterResult
	if cfg.Graph == nil {
		return res, errors.New("gossip: nil graph")
	}
	n := cfg.Graph.NumNodes()
	if len(cfg.Models) != n {
		return res, fmt.Errorf("gossip: %d models for %d nodes", len(cfg.Models), n)
	}
	if len(cfg.Init) != n {
		return res, fmt.Errorf("gossip: %d initial fragments for %d nodes", len(cfg.Init), n)
	}
	if cfg.Alpha == 0 {
		cfg.Alpha = 0.1
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-3
	}
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10000
	}
	if cfg.RoundTimeout == 0 {
		cfg.RoundTimeout = 10 * time.Second
	}
	if cfg.KKTTol == 0 {
		cfg.KKTTol = 0.02
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2
	}
	// Fan-in bound: a node receives at most one message per neighbor per
	// stage plus one round of pipelining; 2n is comfortably above that
	// for any degree.
	net, err := transport.NewMemoryNetwork(n, transport.WithBufferSize(2*n+64))
	if err != nil {
		return res, err
	}
	defer net.Close()

	endpoints := make([]transport.Endpoint, n)
	faultEps := make([]*transport.FaultEndpoint, n)
	for i := 0; i < n; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			return res, err
		}
		if cfg.Faults != nil {
			fc := *cfg.Faults
			if fc.RoundOf == nil {
				fc.RoundOf = protocol.RoundOf
			}
			fep, err := transport.NewFaultEndpoint(ep, fc)
			if err != nil {
				return res, err
			}
			faultEps[i] = fep
			ep = fep
		}
		endpoints[i] = ep
	}

	xs := append([]float64(nil), cfg.Init...)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	res.Alive = alive
	retries := 0
	for epoch := 0; ; epoch++ {
		res.Epochs = epoch + 1
		group := aliveGroup(alive)
		if len(group) == 0 {
			return res, fmt.Errorf("%w: every node crashed", ErrRoundTimeout)
		}
		tree, err := BuildTree(cfg.Graph, alive)
		if err != nil {
			return res, err
		}
		adj := aliveAdjacency(cfg.Graph, alive)
		ticks := cfg.Ticks
		if ticks == 0 {
			ticks = 2*tree.Depth + 8
		}
		remaining := cfg.MaxRounds - res.Rounds
		if remaining <= 0 {
			res.X = xs
			break
		}

		outcomes := make([]nodeOutcome, n)
		errs := make([]error, n)
		var wg sync.WaitGroup
		for _, i := range group {
			i := i
			nc := nodeConfig{
				endpoint:   endpoints[i],
				model:      cfg.Models[i],
				x:          xs[i],
				alpha:      cfg.Alpha,
				epsilon:    cfg.Epsilon,
				maxRounds:  remaining,
				mode:       cfg.Mode,
				epoch:      epoch,
				timeout:    cfg.RoundTimeout,
				tree:       tree,
				adj:        adj,
				aliveCount: len(group),
				seed:       cfg.Seed,
				ticks:      ticks,
			}
			if cfg.OnRound != nil {
				cb, node, ep := cfg.OnRound, i, epoch
				nc.onRound = func(round int, x float64) { cb(ep, round, node, x) }
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				outcomes[i], errs[i] = runNode(ctx, nc)
			}()
		}
		wg.Wait()

		roundsThisEpoch := 0
		for _, i := range group {
			xs[i] = outcomes[i].X
			if outcomes[i].Rounds > roundsThisEpoch {
				roundsThisEpoch = outcomes[i].Rounds
			}
			res.Bill.Messages += outcomes[i].Messages
			res.Bill.Frames += outcomes[i].Messages
			res.Bill.Bytes += outcomes[i].Bytes
		}
		res.Rounds += roundsThisEpoch

		var joined []error
		for _, i := range group {
			if errs[i] != nil {
				joined = append(joined, fmt.Errorf("node %d: %w", i, errs[i]))
			}
		}
		if len(joined) == 0 {
			first := group[0]
			for _, i := range group {
				if outcomes[i].Rounds != outcomes[first].Rounds ||
					outcomes[i].Converged != outcomes[first].Converged {
					return res, fmt.Errorf("%w: node %d finished (rounds=%d converged=%v), node %d (rounds=%d converged=%v)",
						ErrProtocol,
						first, outcomes[first].Rounds, outcomes[first].Converged,
						i, outcomes[i].Rounds, outcomes[i].Converged)
				}
			}
			res.Converged = outcomes[first].Converged
			res.X = xs
			break
		}
		joinErr := errors.Join(joined...)

		// Churn: find who died, hand their mass to the survivors, retry
		// under a fresh epoch.
		newlyDead := 0
		for _, i := range group {
			crashed := faultEps[i] != nil && faultEps[i].Crashed()
			if crashed || errors.Is(errs[i], transport.ErrCrashed) {
				alive[i] = false
				xs[i] = 0
				newlyDead++
			}
		}
		if newlyDead == 0 {
			// Only epochs that advanced zero rounds burn the retry budget:
			// a lossy-but-live cluster keeps making progress (bounded by
			// MaxRounds), while a partitioned one stalls immediately and
			// fails loudly after the budget.
			if roundsThisEpoch == 0 {
				retries++
			} else {
				retries = 0
			}
			if retries > cfg.RetryBudget {
				res.X = xs
				return res, fmt.Errorf("%w: no progress after %d epochs: %w", ErrRoundTimeout, epoch+1, joinErr)
			}
		} else {
			retries = 0
			survivors := aliveGroup(alive)
			if len(survivors) > 0 {
				if err := core.Renormalize(xs, survivors); err != nil {
					return res, err
				}
			}
		}
	}

	collectFaults(&res, faultEps)
	if res.Converged {
		q, err := certify(cfg.Models, xs, alive, cfg.KKTTol)
		res.Q = q
		if err != nil {
			publish(cfg.Metrics, cfg.Mode, res)
			return res, fmt.Errorf("%w: %v", ErrUncertified, err)
		}
		res.Certified = true
	}
	res.Bill.Mode = cfg.Mode.String()
	res.Bill.Rounds = res.Rounds
	publish(cfg.Metrics, cfg.Mode, res)
	return res, nil
}

// aliveGroup lists the alive node ids in ascending order.
func aliveGroup(alive []bool) []int {
	var group []int
	for i, ok := range alive {
		if ok {
			group = append(group, i)
		}
	}
	return group
}

// collectFaults aggregates the injected-fault counters.
func collectFaults(res *ClusterResult, faultEps []*transport.FaultEndpoint) {
	for _, fep := range faultEps {
		if fep != nil {
			res.Faults.Add(fep.Stats())
		}
	}
}

// certify derives the Lagrange multiplier q (costmodel's Price: the mean
// marginal cost over the supported alive nodes) and checks the allocation against the
// KKT conditions of the reduced (alive-only) cost model.
func certify(models []agent.LocalModel, xs []float64, alive []bool, tol float64) (float64, error) {
	group := aliveGroup(alive)
	access := make([]float64, len(group))
	rates := make([]float64, len(group))
	sub := make([]float64, len(group))
	for k, i := range group {
		access[k] = models[i].AccessCost
		rates[k] = models[i].ServiceRate
		sub[k] = xs[i]
		// A dropped node's truncated final step can leave a residual below
		// the boundary tolerance instead of an exact zero; the protocol
		// treats it as boundary, so the certificate must judge it under
		// the boundary condition, not as support.
		if sub[k] <= core.BoundaryTol {
			sub[k] = 0
		}
	}
	lambda, kf := models[group[0]].Lambda, models[group[0]].K
	model, err := costmodel.NewSingleFile(access, rates, lambda, kf)
	if err != nil {
		return 0, err
	}
	q, err := model.Price(sub)
	if err != nil {
		return 0, err
	}
	return q, model.VerifyKKT(sub, q, tol)
}

// publish exports the run's headline numbers.
func publish(reg *metrics.Registry, mode Mode, res ClusterResult) {
	if reg == nil {
		return
	}
	l := metrics.L("mode", mode.String())
	reg.Counter("gossip_messages_total", "logical aggregation messages sent", l).Add(res.Bill.Messages)
	reg.Counter("gossip_frames_total", "wire frames sent, one per message", l).Add(res.Bill.Frames)
	reg.Counter("gossip_bytes_total", "wire bytes sent", l).Add(res.Bill.Bytes)
	reg.Gauge("gossip_rounds", "completed re-allocation rounds", l).Set(float64(res.Rounds))
	reg.Gauge("gossip_epochs", "membership epochs", l).Set(float64(res.Epochs))
	boolGauge := func(name, help string, v bool) {
		g := reg.Gauge(name, help, l)
		if v {
			g.Set(1)
		} else {
			g.Set(0)
		}
	}
	boolGauge("gossip_converged", "protocol convergence flag", res.Converged)
	boolGauge("gossip_certified", "KKT certification flag", res.Certified)
	if res.Faults.Total() > 0 {
		reg.Counter("gossip_faults_total", "injected transport faults observed", l).Add(res.Faults.Total())
	}
}
