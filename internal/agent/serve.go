package agent

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"sync"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/estimate"
	"filealloc/internal/loadgen"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// This file is the serving plane: after the batch protocol (or a
// controller-side solve) produces an allocation, a Server keeps a node
// *serving* access requests under that plan while sensing demand, and a
// Replanner turns sensed demand into a fresh KKT-certified allocation.
// Plans are swapped in by epoch (monotonic adoption under a lock), so
// in-flight requests always complete under whichever plan admitted them —
// a stale epoch is served, never rejected.

// ErrServe reports serving-plane configuration errors.
var ErrServe = errors.New("agent: bad serve config")

const (
	// serverHalfLife is the demand estimator's half-life in virtual
	// seconds.
	serverHalfLife = 2
	// replanEpsilon is the re-solver's convergence threshold.
	replanEpsilon = 1e-9
	// replanWarmSteps is the incremental budget before the cold fallback.
	replanWarmSteps = 32
	// replanKKTTol is the certificate tolerance: plans whose KKT residual
	// exceeds it are not certified.
	replanKKTTol = 1e-2
)

// ServerConfig configures one serving node.
type ServerConfig struct {
	// Endpoint carries the node's serving-plane traffic. The server owns
	// its Recv side.
	Endpoint transport.Endpoint
	// Node is this node's ID, N the cluster size.
	Node int
	N    int
	// DistTo[o] is the transfer cost from origin o to this node (a row
	// of the topology's pair-cost matrix).
	DistTo []float64
	// Mu is this node's service rate, K the paper's delay-cost weight:
	// an access served here costs DistTo[origin] + K/(Mu - rho) where
	// rho is the node's measured arrival rate.
	Mu float64
	K  float64
	// InitPlan is the allocation the node starts serving under.
	InitPlan protocol.Plan
	// Observer receives lifecycle events (default: none).
	Observer Observer
}

func (cfg *ServerConfig) fill() error {
	if cfg.Endpoint == nil {
		return fmt.Errorf("%w: nil endpoint", ErrServe)
	}
	if cfg.N < 1 || cfg.Node < 0 || cfg.Node >= cfg.N {
		return fmt.Errorf("%w: node %d of %d", ErrServe, cfg.Node, cfg.N)
	}
	if len(cfg.DistTo) != cfg.N {
		return fmt.Errorf("%w: DistTo has %d entries for %d nodes", ErrServe, len(cfg.DistTo), cfg.N)
	}
	if cfg.Mu <= 0 || cfg.K < 0 {
		return fmt.Errorf("%w: mu %v, k %v", ErrServe, cfg.Mu, cfg.K)
	}
	if len(cfg.InitPlan.X) != cfg.N {
		return fmt.Errorf("%w: init plan has %d entries for %d nodes", ErrServe, len(cfg.InitPlan.X), cfg.N)
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}
	return nil
}

// Server serves access requests under the current plan, senses per-origin
// demand into an estimate.Tracker, and answers heartbeats with its sensed
// rates. One goroutine (Run) owns the endpoint; handlers are serial, so a
// plan swap can never interleave with a half-served request.
type Server struct {
	cfg ServerConfig

	mu       sync.Mutex
	tracker  *estimate.Tracker
	epoch    int
	planX    []float64
	degraded bool
	// Arrival measurement: requests within one virtual tick share a
	// timestamp, so the count is order-independent; the previous tick's
	// rate is the queueing input for the current tick (deterministic
	// whatever the in-tick interleaving).
	lastT     float64
	tickCount int
	prevRate  float64
}

// NewServer validates the config and prepares the serving state.
func NewServer(cfg ServerConfig) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	tracker, err := estimate.NewTracker(cfg.N, serverHalfLife)
	if err != nil {
		return nil, fmt.Errorf("agent: server %d tracker: %w", cfg.Node, err)
	}
	return &Server{
		cfg:      cfg,
		tracker:  tracker,
		epoch:    cfg.InitPlan.Epoch,
		planX:    append([]float64(nil), cfg.InitPlan.X...),
		degraded: cfg.InitPlan.Degraded,
	}, nil
}

// Epoch returns the plan epoch the server currently serves under.
func (s *Server) Epoch() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.epoch
}

// Run processes serving-plane messages until the context is cancelled or
// the endpoint closes (both are a clean shutdown).
func (s *Server) Run(ctx context.Context) error {
	for {
		msg, err := s.cfg.Endpoint.Recv(ctx)
		if err != nil {
			if ctx.Err() != nil || errors.Is(err, transport.ErrClosed) {
				return nil
			}
			return fmt.Errorf("agent: server %d recv: %w", s.cfg.Node, err)
		}
		env, err := protocol.Decode(msg.Payload)
		if err != nil {
			s.cfg.Observer.MessageDiscarded(s.cfg.Node, s.Epoch(), "undecodable")
			continue
		}
		switch env.Kind {
		case protocol.KindAccess:
			s.handleAccess(ctx, msg.From, env.Access)
		case protocol.KindPing:
			s.handlePing(ctx, msg.From, env.Ping)
		case protocol.KindPlan:
			s.handlePlan(ctx, msg.From, env.Plan)
		default:
			s.cfg.Observer.MessageDiscarded(s.cfg.Node, s.Epoch(), "kind "+string(env.Kind))
		}
	}
}

// handleAccess serves one request: observe demand, charge the
// model-derived latency (transfer from origin plus the M/M/1 waiting term
// at this node's measured load), and reply. Requests routed under a stale
// epoch are served normally — the plan swap repairs routing, it never
// fails requests.
func (s *Server) handleAccess(ctx context.Context, from int, a *protocol.Access) {
	if a.Origin < 0 || a.Origin >= s.cfg.N {
		s.cfg.Observer.MessageDiscarded(s.cfg.Node, s.Epoch(), "access from unknown origin")
		return
	}
	s.mu.Lock()
	if a.T > s.lastT {
		s.prevRate = float64(s.tickCount) / (a.T - s.lastT)
		s.tickCount = 0
		s.lastT = a.T
	}
	s.tickCount++
	if err := s.tracker.Observe(a.Origin, a.T); err != nil {
		s.cfg.Observer.MessageDiscarded(s.cfg.Node, s.epoch, "stale access timestamp")
	}
	epoch, degraded, rho := s.epoch, s.degraded, s.prevRate
	s.mu.Unlock()

	// Saturation clamp: a measured arrival rate at or beyond capacity
	// would make the waiting term negative or infinite; the clamp keeps
	// the penalty finite (100·K/Mu) and deterministic.
	room := s.cfg.Mu - rho
	if room < s.cfg.Mu*0.01 {
		room = s.cfg.Mu * 0.01
	}
	lat := s.cfg.DistTo[a.Origin] + s.cfg.K/room
	reply := protocol.AccessReply{
		ID:            a.ID,
		Node:          s.cfg.Node,
		Origin:        a.Origin,
		Epoch:         epoch,
		LatencyMicros: int64(math.Round(lat * 1e6)),
		Degraded:      degraded,
	}
	payload, err := protocol.EncodeAccessReply(reply)
	if err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "encode access reply: "+err.Error())
		return
	}
	if err := s.cfg.Endpoint.Send(ctx, from, payload); err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "access reply: "+err.Error())
	}
}

// handlePing answers a heartbeat with the node's epoch and its sensed
// per-origin demand rates — the controller sums these vectors across
// nodes to reconstruct total demand whatever the routing.
func (s *Server) handlePing(ctx context.Context, from int, p *protocol.Ping) {
	s.mu.Lock()
	now := p.T
	if now < s.lastT {
		now = s.lastT
	}
	rates := s.tracker.Rates(now)
	epoch := s.epoch
	s.mu.Unlock()
	payload, err := protocol.EncodePong(protocol.Pong{ID: p.ID, Node: s.cfg.Node, Epoch: epoch, Rates: rates})
	if err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "encode pong: "+err.Error())
		return
	}
	if err := s.cfg.Endpoint.Send(ctx, from, payload); err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "pong: "+err.Error())
	}
}

// handlePlan adopts a plan if its epoch advances the server's, then acks
// with whatever epoch the server is on (adoption is monotonic; replays
// and stale plans are harmless and still acked, so the controller can
// tell a laggard from a dead node).
func (s *Server) handlePlan(ctx context.Context, from int, p *protocol.Plan) {
	if len(p.X) != s.cfg.N {
		s.cfg.Observer.MessageDiscarded(s.cfg.Node, s.Epoch(), "plan with wrong dimension")
		return
	}
	s.mu.Lock()
	adopted := false
	if p.Epoch > s.epoch {
		s.epoch = p.Epoch
		s.planX = append(s.planX[:0], p.X...)
		s.degraded = p.Degraded
		adopted = true
	}
	cur := s.epoch
	s.mu.Unlock()
	if adopted {
		s.cfg.Observer.RecoveryEvent(s.cfg.Node, cur, "plan-adopted", fmt.Sprintf("degraded=%v", p.Degraded))
	}
	payload, err := protocol.EncodePlanAck(protocol.PlanAck{ID: p.ID, Epoch: cur, Node: s.cfg.Node})
	if err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "encode plan ack: "+err.Error())
		return
	}
	if err := s.cfg.Endpoint.Send(ctx, from, payload); err != nil {
		s.cfg.Observer.TransportError(s.cfg.Node, "plan ack: "+err.Error())
	}
}

// ReplanConfig turns sensed demand into a fresh allocation: warm solve
// seeded from the previous plan (core.WarmSolver), restricted to the
// alive support in degraded mode, certified by costmodel.VerifyKKT.
type ReplanConfig struct {
	// Pair is the topology's pair-cost matrix c_ji (as from
	// topology.PairCosts); each re-plan weights it by the sensed demand
	// to get the access costs C_i.
	Pair [][]float64
	// Mu holds per-node service rates (its length is the cluster size),
	// also used to repair an infeasible warm start (e.g. after
	// renormalizing away a dead node that held most of the file).
	Mu []float64
	// K is the paper's delay-cost weight.
	K float64
}

// PlanResult is a solved (and possibly certified) allocation.
type PlanResult struct {
	// X is the full-dimension allocation; dead nodes hold zero.
	X []float64
	// Q is the common marginal cost level at X, Lambda the demand total
	// the plan was solved for.
	Q      float64
	Lambda float64
	// Certified reports costmodel.VerifyKKT accepted (X, Q).
	Certified bool
	// FellBack reports the warm solve exhausted its budget and the
	// result came from the cold fallback.
	FellBack bool
	// Iterations is the solver's iteration count.
	Iterations int
}

// Replan solves for a new allocation given sensed per-origin rates, the
// previous plan (the warm start), and the alive support. Demand from dead
// origins persists — their users still access the file — so rates keeps
// full dimension while hosting is restricted to survivors (the reduced
// model of the membership-churn experiments). The warm start is the
// previous plan renormalized over survivors via core.Renormalize; if that
// overloads a survivor past its service rate, the start falls back to
// capacity-proportional.
func (rc ReplanConfig) Replan(ctx context.Context, rates, prev []float64, alive []bool) (PlanResult, error) {
	n := len(rc.Mu)
	if len(rc.Pair) != n || len(rates) != n || len(prev) != n || len(alive) != n {
		return PlanResult{}, fmt.Errorf("%w: replan dimensions pair=%d rates=%d prev=%d alive=%d n=%d", ErrServe, len(rc.Pair), len(rates), len(prev), len(alive), n)
	}
	for j, row := range rc.Pair {
		if len(row) != n {
			return PlanResult{}, fmt.Errorf("%w: Pair row %d has %d entries for %d nodes", ErrServe, j, len(row), n)
		}
	}
	var support []int
	for i := 0; i < n; i++ {
		if alive[i] {
			support = append(support, i)
		}
	}
	if len(support) == 0 {
		return PlanResult{}, fmt.Errorf("%w: no alive nodes to plan over", ErrServe)
	}
	sort.Ints(support)
	lambda := 0.0
	for _, r := range rates {
		if r < 0 || math.IsNaN(r) || math.IsInf(r, 0) {
			return PlanResult{}, fmt.Errorf("%w: bad rate %v", ErrServe, r)
		}
		lambda += r
	}
	if lambda <= 0 {
		return PlanResult{}, fmt.Errorf("%w: zero total demand", ErrServe)
	}
	// The support-restricted model: dead nodes cannot host, but their
	// origins' demand still weights every survivor's access cost.
	access, err := topology.AccessCostsFrom(rc.Pair, rates)
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan access costs: %w", err)
	}
	acc := make([]float64, len(support))
	svc := make([]float64, len(support))
	for j, i := range support {
		acc[j] = access[i]
		svc[j] = rc.Mu[i]
	}
	model, err := costmodel.NewSingleFile(acc, svc, lambda, rc.K)
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan model: %w", err)
	}

	init := rc.warmStart(prev, support, lambda)
	alloc, err := core.NewAllocator(model,
		core.WithSecondOrder(),
		core.WithEpsilon(replanEpsilon),
		core.WithKKTCheck())
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan allocator: %w", err)
	}
	warm, err := core.NewWarmSolver(alloc, core.WarmConfig{
		MaxSteps: replanWarmSteps,
		Certify: func(x []float64, q float64) error {
			return model.VerifyKKT(x, q, replanKKTTol)
		},
	})
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan warm solver: %w", err)
	}
	res, fellBack, err := warm.SolveWarm(ctx, init, core.NewScratch())
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan solve: %w", err)
	}

	// Independent certificate whichever path produced the result: derive
	// the common marginal cost level q over the support and verify the
	// KKT conditions against it.
	q, err := model.Price(res.X)
	if err != nil {
		return PlanResult{}, fmt.Errorf("agent: replan price: %w", err)
	}
	certified := model.VerifyKKT(res.X, q, replanKKTTol) == nil

	full := make([]float64, n)
	for j, i := range support {
		full[i] = res.X[j]
	}
	return PlanResult{
		X:          full,
		Q:          q,
		Lambda:     lambda,
		Certified:  certified,
		FellBack:   fellBack,
		Iterations: res.Iterations,
	}, nil
}

// warmStart builds the reduced-dimension starting point: the previous
// plan renormalized over the support (canonical-order Renormalize), or a
// capacity-proportional split when renormalization is impossible or would
// saturate a survivor.
func (rc ReplanConfig) warmStart(prev []float64, support []int, lambda float64) []float64 {
	full := append([]float64(nil), prev...)
	for i := range full {
		inSupport := false
		for _, s := range support {
			if s == i {
				inSupport = true
				break
			}
		}
		if !inSupport {
			full[i] = 0
		}
	}
	init := make([]float64, len(support))
	if err := core.Renormalize(full, support); err == nil {
		ok := true
		for j, i := range support {
			init[j] = full[i]
			if lambda*full[i] >= 0.95*rc.Mu[i] {
				ok = false
			}
		}
		if ok {
			return init
		}
	}
	// Capacity-proportional fallback: always interior for a model whose
	// total capacity exceeds demand.
	var muSum float64
	for _, i := range support {
		muSum += rc.Mu[i]
	}
	for j, i := range support {
		init[j] = rc.Mu[i] / muSum
	}
	return init
}

const (
	// driftThreshold is the relative drift (estimate.DriftExceeds) on any
	// origin's rate that triggers a re-plan.
	driftThreshold = 0.25
	// minLambda gates re-plans: below this total sensed demand the
	// estimators are still warming up and a solve would chase noise.
	minLambda = 1e-3
)

// Replanner is the serving plane's one re-plan loop. It owns the adopted
// plan: its epoch, X, Q and λ, the per-origin rates it was solved for (the
// drift baseline) and the membership it was solved over. Each Step
// decides whether demand drifted or membership changed since that plan,
// re-solves through ReplanConfig.Replan, and adopts the result only if
// its KKT certificate verifies. The in-process ServeCluster and fapnode's
// serving mode both drive it; neither keeps plan state of its own.
type Replanner struct {
	cfg  ReplanConfig
	node int
	obs  Observer

	mu      sync.Mutex
	epoch   int
	plan    PlanResult
	planned []float64 // the rates plan was solved for: the drift baseline
	alive   []bool    // the membership plan was solved over
}

// NewReplanner solves the epoch-1 plan for rates over the alive support,
// warm-started from init (all zero: capacity-proportional), and fails if
// that plan cannot be KKT-certified — a node must not start serving under
// an uncertified allocation. node labels the Replanner's observer events
// (ServeCluster, which re-plans from the client side, passes -1); a nil
// obs records nothing.
func NewReplanner(ctx context.Context, cfg ReplanConfig, rates, init []float64, alive []bool, node int, obs Observer) (*Replanner, error) {
	if obs == nil {
		obs = NopObserver{}
	}
	pr, err := cfg.Replan(ctx, rates, init, alive)
	if err != nil {
		return nil, fmt.Errorf("agent: initial plan: %w", err)
	}
	if !pr.Certified {
		return nil, fmt.Errorf("%w: initial plan failed KKT certification", ErrServe)
	}
	return &Replanner{
		cfg:     cfg,
		node:    node,
		obs:     obs,
		epoch:   1,
		plan:    pr,
		planned: append([]float64(nil), rates...),
		alive:   append([]bool(nil), alive...),
	}, nil
}

// Plan snapshots the adopted plan as a protocol message (ID unset). Alive
// is the membership the plan was solved over, and Lambda the index-order
// sum of the rates it was solved for. Plan is safe to call concurrently
// with Step.
func (r *Replanner) Plan() protocol.Plan {
	r.mu.Lock()
	defer r.mu.Unlock()
	return protocol.Plan{
		Epoch:    r.epoch,
		X:        append([]float64(nil), r.plan.X...),
		Alive:    append([]bool(nil), r.alive...),
		Degraded: degraded(r.alive),
		Lambda:   r.plan.Lambda,
		Q:        r.plan.Q,
	}
}

// Step runs one re-plan decision on this tick's sensed per-origin rates
// and liveness view. It re-plans when alive differs from the adopted
// plan's membership or any origin's rate drifts past driftThreshold from
// the rates that plan was solved for, and only once the sensed total
// exceeds minLambda. A non-finite sensed rate, a failed solve and an
// uncertified one are rejected: the adopted plan stays, and so does its
// membership, so a membership change is retried on the next Step. The
// result fills every loadgen.TickInfo field but T. Steps must not
// overlap; Plan may run alongside one.
func (r *Replanner) Step(ctx context.Context, rates []float64, alive []bool) loadgen.TickInfo {
	r.mu.Lock()
	info := loadgen.TickInfo{Epoch: r.epoch, Degraded: degraded(r.alive), Alive: alive, Rates: rates}
	prev := r.plan.X // adoption replaces X, never writes it
	replan := len(rates) != len(r.planned) || !slices.Equal(alive, r.alive)
	for i := 0; !replan && i < len(rates); i++ {
		replan = estimate.DriftExceeds(r.planned[i], rates[i], driftThreshold)
	}
	r.mu.Unlock()

	lambda := 0.0
	for i, rate := range rates {
		if math.IsNaN(rate) || math.IsInf(rate, 0) {
			// A non-finite λ would fail the gate below and the drift test
			// alike, freezing the plan without a trace.
			info.Rejected = true
			r.obs.RecoveryEvent(r.node, info.Epoch, "replan-error", fmt.Sprintf("sensed rate %d is %v", i, rate))
			return info
		}
		lambda += rate
	}
	if replan && lambda > minLambda {
		pr, err := r.cfg.Replan(ctx, rates, prev, alive)
		switch {
		case err != nil:
			info.Rejected = true
			r.obs.RecoveryEvent(r.node, info.Epoch, "replan-error", err.Error())
		case !pr.Certified:
			info.Rejected = true
			r.obs.RecoveryEvent(r.node, info.Epoch, "replan-uncertified", "KKT certificate failed; keeping previous plan")
		default:
			r.mu.Lock()
			r.epoch++
			r.plan = pr
			r.planned = append(r.planned[:0], rates...)
			r.alive = append(r.alive[:0], alive...)
			info.Epoch = r.epoch
			r.mu.Unlock()
			info.Degraded = degraded(alive)
			info.Replanned = true
			info.Certified = true
			info.FellBack = pr.FellBack
			info.SolveIterations = pr.Iterations
			r.obs.RecoveryEvent(r.node, info.Epoch, "replan-accepted",
				fmt.Sprintf("lambda=%.4g degraded=%v iters=%d fellback=%v", pr.Lambda, info.Degraded, pr.Iterations, pr.FellBack))
		}
	}
	return info
}

// degraded reports whether a plan over this membership excludes a node.
func degraded(alive []bool) bool {
	return slices.Contains(alive, false)
}
