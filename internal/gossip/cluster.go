package gossip

import (
	"context"
	"errors"
	"fmt"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
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
func (b Bill) MessagesPerRound() float64 { return b.perRound(b.Messages) }

// BytesPerRound averages the wire bytes per round.
func (b Bill) BytesPerRound() float64 { return b.perRound(b.Bytes) }

// perRound averages v over the rounds billed, or returns it whole when
// no round completed.
func (b Bill) perRound(v int64) float64 {
	return float64(v) / float64(max(b.Rounds, 1))
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
// cluster, supervising membership churn. Each epoch's alive nodes run
// through agent.RunCluster, one agent round loop per node on the tree or
// push-sum aggregator. When an epoch fails, nodes that crashed are
// declared dead, the surviving allocation mass is renormalized, the
// spanning tree is rebuilt over the alive set, and the protocol resumes
// under a fresh epoch. A converged allocation is always KKT certified
// before it is returned.
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
	// Alpha, Epsilon and RoundTimeout default in agent.Config; each
	// node's aggregator reads them from Node.Config.
	if cfg.MaxRounds == 0 {
		cfg.MaxRounds = 10000
	}
	if cfg.KKTTol == 0 {
		cfg.KKTTol = 0.02
	}
	if cfg.RetryBudget == 0 {
		cfg.RetryBudget = 2
	}

	xs := append([]float64(nil), cfg.Init...)
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	res.X, res.Alive = xs, alive
	retries := 0
	for num := 0; ; num++ {
		res.Epochs = num + 1
		group := aliveGroup(alive)
		if len(group) == 0 {
			return res, fmt.Errorf("%w: every node crashed", ErrRoundTimeout)
		}
		tree, err := BuildTree(cfg.Graph, alive)
		if err != nil {
			return res, err
		}
		remaining := cfg.MaxRounds - res.Rounds
		if remaining <= 0 {
			break
		}
		if len(group) == 1 {
			// A lone node's active set is itself: a no-op step with zero
			// spread, converged without a message.
			res.Converged = true
			break
		}
		e := &epoch{cfg: cfg, num: num, tree: tree, adj: aliveAdjacency(cfg.Graph, alive), alive: len(group), ticks: cfg.Ticks}
		if e.ticks == 0 {
			e.ticks = 2*tree.Depth + 8
		}
		out, err := agent.RunCluster(ctx, agent.ClusterConfig{
			Agent:     agent.Config{Alpha: cfg.Alpha, Epsilon: cfg.Epsilon, MaxRounds: remaining, RoundTimeout: cfg.RoundTimeout},
			Models:    cfg.Models,
			Init:      xs,
			InitAlive: alive,
			Faults:    cfg.Faults,
			Run: func(ctx context.Context, acfg agent.Config) (agent.Outcome, error) {
				if cfg.Mode == ModeGossip {
					return agent.RunWith(ctx, acfg, &pushSum{e: e})
				}
				return agent.RunWith(ctx, acfg, treeNode{e})
			},
		})
		if out.Outcomes == nil {
			return res, err
		}
		res.Faults.Add(out.Faults)
		roundsThisEpoch, failed := 0, false
		for _, i := range group {
			o := out.Outcomes[i]
			xs[i] = o.X
			roundsThisEpoch = max(roundsThisEpoch, o.Rounds)
			res.Bill.Messages += int64(o.MessagesSent)
			res.Bill.Bytes += int64(o.BytesSent)
			failed = failed || out.Errs[i] != nil
		}
		res.Bill.Frames = res.Bill.Messages
		res.Rounds += roundsThisEpoch
		if !failed {
			// The survivors agreed on the outcome, or err says they did not.
			res.Converged = out.Converged
			if err != nil {
				return res, err
			}
			break
		}

		// Churn: find who died, hand their mass to the survivors, retry
		// under a fresh epoch.
		newlyDead := 0
		for _, i := range group {
			if errors.Is(out.Errs[i], transport.ErrCrashed) {
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
				return res, fmt.Errorf("%w: no progress after %d epochs: %w", ErrRoundTimeout, num+1, err)
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

// epoch is what every node of one membership epoch shares: the cluster's
// settings, the epoch number, the spanning tree and the push-sum
// schedule over the alive set.
type epoch struct {
	cfg   ClusterConfig
	num   int
	tree  *Tree
	adj   [][]int // alive neighbors, ascending
	alive int     // alive node count
	ticks int     // push-sum ticks per round
}

// stepped reports a node's applied step to OnRound.
func (e *epoch) stepped(round int, n *agent.Node) {
	if e.cfg.OnRound != nil {
		e.cfg.OnRound(e.num, round, n.ID, n.X[0])
	}
}

// send ships one message to a peer. An injected drop is swallowed: a
// lost frame shows up as a peer's round timeout (the loud failure path),
// not as a local error that would kill a healthy node.
func send(ctx context.Context, n *agent.Node, round, to int, payload []byte) error {
	if err := n.Send(ctx, round, to, payload); err != nil && !errors.Is(err, transport.ErrDropped) {
		return err
	}
	return nil
}

// collect reads n's inbox for stage (round, stage) until take has kept
// want letters. Letters of later stages are held and those of earlier
// ones discarded; take rules on the stage's own. The round's deadline
// surfaces as ErrRoundTimeout.
func collect(ctx context.Context, n *agent.Node, round, stage, want int, take func(*agent.Letter) (bool, error)) error {
	for kept := 0; kept < want; {
		l, err := n.Inbox.Next(ctx, round, stage)
		switch {
		case errors.Is(err, context.DeadlineExceeded):
			return fmt.Errorf("%w: node %d stuck in round %d", ErrRoundTimeout, n.ID, round)
		case err != nil:
			return err
		case l.After(round, stage):
			n.Inbox.Hold(l)
		case l.Round == round && l.Stage == stage:
			ok, err := take(l)
			if err != nil {
				return err
			}
			if ok {
				kept++
			}
		}
	}
	return nil
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
