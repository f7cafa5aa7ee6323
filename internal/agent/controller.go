package agent

import (
	"context"
	"fmt"
	"sync"

	"filealloc/internal/estimate"
	"filealloc/internal/loadgen"
	"filealloc/internal/protocol"
	"filealloc/internal/transport"
)

// controllerIDBit tags controller-originated request IDs (heartbeats,
// plan distribution) so they can never collide with load-generator
// request IDs, which stay in the low half of the ID space.
const controllerIDBit = uint64(1) << 63

const (
	// driftThreshold is the relative drift (estimate.DriftExceeds) on any
	// origin's rate that triggers a re-solve.
	driftThreshold = 0.25
	// minLambda gates re-plans: below this total sensed demand the
	// estimators are still warming up and a solve would chase noise.
	minLambda = 1e-3
)

// ControllerConfig configures the serving-plane control loop.
type ControllerConfig struct {
	// Client is the hardened client the controller heartbeats and
	// distributes plans through; its failure detector is the
	// controller's liveness source.
	Client *transport.Client
	// Replan solves for new allocations.
	Replan ReplanConfig
	// InitRates is the assumed per-origin demand the initial plan is
	// solved against (the drift baseline until the first re-plan); its
	// length is the cluster size.
	InitRates []float64
	// Observer receives lifecycle events (default: none).
	Observer Observer
}

// Controller drives the closed loop from the client side: each Tick it
// heartbeats every node (feeding the failure detector), sums the nodes'
// sensed per-origin rates, re-sends the current plan to laggards, checks
// demand drift against the rates the current plan was solved for, and on
// drift or membership change runs a warm re-solve whose result is only
// adopted and distributed if its KKT certificate verifies.
type Controller struct {
	cfg ControllerConfig
	n   int

	mu           sync.Mutex
	epoch        int
	plan         []float64
	planQ        float64
	planLambda   float64
	degraded     bool
	alive        []bool
	plannedRates []float64
	nextID       uint64
}

// NewController solves the initial plan from cfg.InitRates (all nodes
// alive, capacity-proportional warm start) and fails if that plan cannot
// be KKT-certified — a cluster must not start serving under an
// uncertified allocation.
func NewController(ctx context.Context, cfg ControllerConfig) (*Controller, error) {
	if cfg.Client == nil {
		return nil, fmt.Errorf("%w: nil client", ErrServe)
	}
	n := len(cfg.InitRates)
	if n < 1 {
		return nil, fmt.Errorf("%w: controller over %d nodes", ErrServe, n)
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}
	c := &Controller{cfg: cfg, n: n}
	alive := make([]bool, n)
	for i := range alive {
		alive[i] = true
	}
	prev := make([]float64, n) // zero: warmStart falls back to capacity-proportional
	pr, err := cfg.Replan.Replan(ctx, cfg.InitRates, prev, alive)
	if err != nil {
		return nil, fmt.Errorf("agent: initial plan: %w", err)
	}
	if !pr.Certified {
		return nil, fmt.Errorf("%w: initial plan failed KKT certification", ErrServe)
	}
	c.epoch = 1
	c.plan = pr.X
	c.planQ = pr.Q
	c.planLambda = pr.Lambda
	c.alive = alive
	c.plannedRates = append([]float64(nil), cfg.InitRates...)
	return c, nil
}

// Plan snapshots the current plan as a protocol message (ID unset).
func (c *Controller) Plan() protocol.Plan {
	c.mu.Lock()
	defer c.mu.Unlock()
	return protocol.Plan{
		Epoch:    c.epoch,
		X:        append([]float64(nil), c.plan...),
		Alive:    append([]bool(nil), c.alive...),
		Degraded: c.degraded,
		Lambda:   c.planLambda,
		Q:        c.planQ,
	}
}

func (c *Controller) id() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextID++
	return controllerIDBit | c.nextID
}

// Tick runs one control round at virtual time t. See Controller docs for
// the sequence. It never fails the loop on individual node errors — dead
// nodes are the failure detector's business — and only returns an error
// for context cancellation.
func (c *Controller) Tick(ctx context.Context, t float64) (loadgen.TickInfo, error) {
	info := loadgen.TickInfo{T: t}

	// 1. Heartbeat every node in ID order (determinism: the aggregate
	// below must not depend on scheduling). Failures feed the client's
	// detector; successes return each node's sensed rate vector.
	est := make([]float64, c.n)
	gotRates := false
	var laggards []int
	curEpoch := c.epochNow()
	for s := 0; s < c.n; s++ {
		if ctx.Err() != nil {
			return info, ctx.Err()
		}
		id := c.id()
		payload, err := protocol.EncodePing(protocol.Ping{ID: id, T: t})
		if err != nil {
			return info, fmt.Errorf("agent: encode ping: %w", err)
		}
		reply, err := c.cfg.Client.Probe(ctx, s, id, payload)
		if err != nil {
			c.cfg.Observer.TransportError(s, "heartbeat: "+err.Error())
			continue
		}
		env, err := protocol.Decode(reply)
		if err != nil || env.Kind != protocol.KindPong || len(env.Pong.Rates) != c.n {
			c.cfg.Observer.MessageDiscarded(s, curEpoch, "bad pong")
			continue
		}
		for i, r := range env.Pong.Rates {
			est[i] += r
		}
		gotRates = true
		if env.Pong.Epoch < curEpoch {
			laggards = append(laggards, s)
		}
	}
	info.Rates = est

	// 2. Liveness snapshot and membership-change detection.
	alive := c.cfg.Client.AliveView(c.n)
	c.mu.Lock()
	membershipChanged := false
	for i := range alive {
		if alive[i] != c.alive[i] {
			membershipChanged = true
		}
	}
	plannedRates := append([]float64(nil), c.plannedRates...)
	prevPlan := append([]float64(nil), c.plan...)
	c.mu.Unlock()
	info.Alive = alive

	// 3. Re-send the current plan to laggards so a node that missed a
	// distribution (dropped message, slow restart) converges anyway.
	for _, s := range laggards {
		if alive[s] {
			c.sendPlan(ctx, s)
		}
	}

	// 4. Drift check against the rates the current plan was solved for.
	replan := membershipChanged
	if !replan {
		for i := range est {
			if estimate.DriftExceeds(plannedRates[i], est[i], driftThreshold) {
				replan = true
				break
			}
		}
	}

	// 5. Warm re-solve; adopt and distribute only a certified plan.
	lambda := 0.0
	for _, r := range est {
		lambda += r
	}
	if replan && gotRates && lambda > minLambda {
		pr, err := c.cfg.Replan.Replan(ctx, est, prevPlan, alive)
		switch {
		case err != nil:
			info.Rejected = true
			c.cfg.Observer.RecoveryEvent(-1, curEpoch, "replan-error", err.Error())
		case !pr.Certified:
			info.Rejected = true
			c.cfg.Observer.RecoveryEvent(-1, curEpoch, "replan-uncertified", "KKT certificate failed; keeping previous plan")
		default:
			degraded := false
			for _, a := range alive {
				if !a {
					degraded = true
				}
			}
			c.mu.Lock()
			c.epoch++
			c.plan = pr.X
			c.planQ = pr.Q
			c.planLambda = pr.Lambda
			c.degraded = degraded
			c.plannedRates = append(c.plannedRates[:0], est...)
			newEpoch := c.epoch
			c.mu.Unlock()
			info.Replanned = true
			info.Certified = true
			info.FellBack = pr.FellBack
			info.SolveIterations = pr.Iterations
			c.cfg.Observer.RecoveryEvent(-1, newEpoch, "replan-accepted",
				fmt.Sprintf("lambda=%.4g degraded=%v iters=%d fellback=%v", pr.Lambda, degraded, pr.Iterations, pr.FellBack))
			for s := 0; s < c.n; s++ {
				if alive[s] {
					c.sendPlan(ctx, s)
				}
			}
		}
	}

	// 6. Record the liveness view for the next membership comparison.
	c.mu.Lock()
	c.alive = append(c.alive[:0], alive...)
	info.Epoch = c.epoch
	info.Degraded = c.degraded
	c.mu.Unlock()
	return info, ctx.Err()
}

// epochNow reads the current epoch.
func (c *Controller) epochNow() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.epoch
}

// sendPlan distributes the current plan to one node and waits for its
// ack; failures feed the detector via the client and are otherwise
// tolerated (the laggard path re-sends next tick).
func (c *Controller) sendPlan(ctx context.Context, to int) {
	plan := c.Plan()
	plan.ID = c.id()
	payload, err := protocol.EncodePlan(plan)
	if err != nil {
		c.cfg.Observer.TransportError(to, "encode plan: "+err.Error())
		return
	}
	reply, err := c.cfg.Client.Do(ctx, to, plan.ID, payload)
	if err != nil {
		c.cfg.Observer.TransportError(to, "plan distribution: "+err.Error())
		return
	}
	env, err := protocol.Decode(reply)
	if err != nil || env.Kind != protocol.KindPlanAck {
		c.cfg.Observer.MessageDiscarded(to, plan.Epoch, "bad plan ack")
		return
	}
	if env.PlanAck.Epoch < plan.Epoch {
		c.cfg.Observer.RecoveryEvent(to, plan.Epoch, "plan-lagging", fmt.Sprintf("node acked epoch %d", env.PlanAck.Epoch))
	}
}
