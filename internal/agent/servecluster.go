package agent

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"time"

	"filealloc/internal/loadgen"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// ID-space partition for serving-plane correlation IDs: load-generator
// request IDs occupy the low bits; a failed primary's rerouted attempt
// and a hedge arm flip a dedicated bit each (both may complete, so they
// need distinct pending-map slots); control-plane traffic (heartbeats,
// plan distribution) sets the top bit.
const (
	controlIDBit  = uint64(1) << 63
	fallbackIDBit = uint64(1) << 62
	hedgeIDBit    = uint64(1) << 61
)

// ServeClusterConfig describes an in-process serving cluster: N Server
// nodes on a ring with unit link cost over a memory network, one
// Replanner, and one hardened Client shared by the load generator and
// the control loop.
type ServeClusterConfig struct {
	// N is the node count.
	N int
	// Mu holds per-node service rates, K the delay-cost weight.
	Mu []float64
	K  float64
	// InitRates is the assumed initial per-origin demand.
	InitRates []float64
	// RequestTimeout, Retries, DownAfter, Seed tune the client (see
	// transport.ClientConfig).
	RequestTimeout time.Duration
	Retries        int
	DownAfter      int
	Seed           int64
	// HedgeDelay, when positive, hedges access requests to a second
	// replica; the delay starts here and is re-derived each tick from the
	// previous tick's observed p99.
	HedgeDelay time.Duration
	// Faults, when non-nil, wraps every server endpoint in a
	// FaultEndpoint with this configuration (chaos testing).
	Faults *transport.FaultConfig
	// Registry receives the fap_client_* families (optional).
	Registry *metrics.Registry
	// Observer receives lifecycle events from servers and the Replanner.
	Observer Observer
}

// ServeCluster implements loadgen.Target over an in-process cluster. The
// routing view (plan, alive set, epoch) is snapshotted by Fire and only
// updated at tick boundaries (Tick, Kill), so every request in a tick
// routes against the same state regardless of worker interleaving — the
// root of the byte-deterministic phase report.
type ServeCluster struct {
	cfg  ServeClusterConfig
	net  *transport.MemoryNetwork
	clnt *transport.Client
	// ctrl owns the adopted plan; Tick steps it.
	ctrl *Replanner
	// nextID numbers control-plane requests; only Tick touches it.
	nextID uint64

	mu       sync.Mutex
	killed   []bool
	cancels  []context.CancelFunc
	view     protocol.Plan
	runErrs  []error
	closed   bool
	serverWG sync.WaitGroup
}

var _ loadgen.Target = (*ServeCluster)(nil)

// NewServeCluster builds the cluster: topology costs, initial certified
// plan, N running servers, and the shared client. The context bounds the
// server goroutines' lifetime (Close also stops them). On error nothing
// it started is left running.
func NewServeCluster(ctx context.Context, cfg ServeClusterConfig) (_ *ServeCluster, err error) {
	if cfg.N < 2 {
		return nil, fmt.Errorf("%w: serving cluster needs at least 2 nodes, got %d", ErrServe, cfg.N)
	}
	if len(cfg.Mu) != cfg.N || len(cfg.InitRates) != cfg.N {
		return nil, fmt.Errorf("%w: Mu has %d and InitRates %d entries for %d nodes", ErrServe, len(cfg.Mu), len(cfg.InitRates), cfg.N)
	}
	if cfg.Faults != nil {
		if err := cfg.Faults.Validate(); err != nil {
			return nil, fmt.Errorf("%w: %w", ErrServe, err)
		}
	}
	if cfg.Observer == nil {
		cfg.Observer = NopObserver{}
	}
	ring, err := topology.Ring(cfg.N, 1)
	if err != nil {
		return nil, fmt.Errorf("agent: serve cluster ring: %w", err)
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		return nil, fmt.Errorf("agent: serve cluster pair costs: %w", err)
	}

	net, err := transport.NewMemoryNetwork(cfg.N + 1)
	if err != nil {
		return nil, err
	}
	sc := &ServeCluster{
		cfg:     cfg,
		net:     net,
		killed:  make([]bool, cfg.N),
		cancels: make([]context.CancelFunc, cfg.N),
	}
	defer func() {
		if err != nil {
			err = errors.Join(err, sc.Close())
		}
	}()

	clientEP, err := net.Endpoint(cfg.N)
	if err != nil {
		return nil, err
	}
	sc.clnt, err = transport.NewClient(transport.ClientConfig{
		Endpoint:       &gateEndpoint{inner: clientEP, dead: sc.isKilled},
		ReplyID:        protocol.ReplyIDOf,
		RequestTimeout: cfg.RequestTimeout,
		Retries:        cfg.Retries,
		DownAfter:      cfg.DownAfter,
		Seed:           cfg.Seed,
		HedgeDelay:     cfg.HedgeDelay,
		Registry:       cfg.Registry,
	})
	if err != nil {
		return nil, err
	}
	alive := make([]bool, cfg.N)
	for i := range alive {
		alive[i] = true
	}
	sc.ctrl, err = NewReplanner(ctx, ReplanConfig{Pair: pair, Mu: cfg.Mu, K: cfg.K},
		cfg.InitRates, make([]float64, cfg.N), alive, -1, cfg.Observer)
	if err != nil {
		return nil, err
	}
	sc.view = sc.ctrl.Plan()

	for i := 0; i < cfg.N; i++ {
		ep, err := net.Endpoint(i)
		if err != nil {
			return nil, err
		}
		if cfg.Faults != nil {
			if ep, err = transport.NewFaultEndpoint(ep, *cfg.Faults); err != nil {
				return nil, err
			}
		}
		distTo := make([]float64, cfg.N)
		for o := 0; o < cfg.N; o++ {
			distTo[o] = pair[o][i]
		}
		srv, err := NewServer(ServerConfig{
			Endpoint: ep,
			Node:     i,
			N:        cfg.N,
			DistTo:   distTo,
			Mu:       cfg.Mu[i],
			K:        cfg.K,
			InitPlan: sc.view,
			Observer: cfg.Observer,
		})
		if err != nil {
			return nil, err
		}
		srvCtx, cancel := context.WithCancel(ctx)
		sc.cancels[i] = cancel
		sc.serverWG.Add(1)
		go func(s *Server) {
			defer sc.serverWG.Done()
			if runErr := s.Run(srvCtx); runErr != nil {
				sc.mu.Lock()
				sc.runErrs = append(sc.runErrs, runErr)
				sc.mu.Unlock()
			}
		}(srv)
	}
	return sc, nil
}

// Nodes returns the cluster size.
func (sc *ServeCluster) Nodes() int { return sc.cfg.N }

func (sc *ServeCluster) isKilled(node int) bool {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return node >= 0 && node < len(sc.killed) && sc.killed[node]
}

// snapshotView copies the routing view (updated only between batches).
func (sc *ServeCluster) snapshotView() (x []float64, alive []bool, epoch int, degraded bool) {
	sc.mu.Lock()
	defer sc.mu.Unlock()
	return sc.view.X, sc.view.Alive, sc.view.Epoch, sc.view.Degraded
}

// Fire executes one access request: route by the plan's weights over the
// detector's alive view, send with deadline/retries (hedged when
// enabled), and on primary failure reroute once to a surviving replica —
// degraded mode serves the request instead of erroring.
func (sc *ServeCluster) Fire(ctx context.Context, req loadgen.Request) loadgen.Outcome {
	x, alive, epoch, degraded := sc.snapshotView()
	primary, err := transport.Route(x, alive, -1, req.U)
	if err != nil {
		return loadgen.Outcome{ErrClass: "no_candidates"}
	}
	payload, err := protocol.EncodeAccess(protocol.Access{ID: req.ID, Origin: req.Origin, T: req.T, Epoch: epoch})
	if err != nil {
		return loadgen.Outcome{ErrClass: "encode"}
	}

	var reply []byte
	var servedErr error
	hedged := false
	if sc.cfg.HedgeDelay > 0 {
		if fb, ferr := transport.Route(x, alive, primary, req.U2); ferr == nil && fb != primary {
			hid := req.ID | hedgeIDBit
			if hpayload, herr := protocol.EncodeAccess(protocol.Access{ID: hid, Origin: req.Origin, T: req.T, Epoch: epoch}); herr == nil {
				reply, _, servedErr = sc.clnt.DoHedged(ctx, primary, fb, req.ID, payload, hid, hpayload)
				hedged = true
			}
		}
	}
	if !hedged {
		reply, servedErr = sc.clnt.Do(ctx, primary, req.ID, payload)
	}

	usedFallback := false
	if servedErr != nil && ctx.Err() == nil {
		// Degraded fallback: treat the primary as dead for this request
		// and reroute to a surviving replica under renormalized weights.
		alive2 := append([]bool(nil), alive...)
		alive2[primary] = false
		fb, ferr := transport.Route(x, alive2, -1, req.U)
		if ferr == nil {
			fid := req.ID | fallbackIDBit
			fpayload, perr := protocol.EncodeAccess(protocol.Access{ID: fid, Origin: req.Origin, T: req.T, Epoch: epoch})
			if perr == nil {
				if r2, err2 := sc.clnt.Do(ctx, fb, fid, fpayload); err2 == nil {
					reply, servedErr = r2, nil
					usedFallback = true
				}
			}
		}
	}
	if servedErr != nil {
		return loadgen.Outcome{ErrClass: classifyErr(servedErr)}
	}
	env, err := protocol.Decode(reply)
	if err != nil || env.Kind != protocol.KindAccessReply {
		return loadgen.Outcome{ErrClass: "bad_reply"}
	}
	ar := env.AccessReply
	if ar.Err != "" {
		return loadgen.Outcome{ErrClass: "served_error"}
	}
	return loadgen.Outcome{
		OK:            true,
		Node:          ar.Node,
		Epoch:         ar.Epoch,
		LatencyMicros: ar.LatencyMicros,
		Degraded:      degraded || usedFallback || ar.Degraded,
		Fallback:      usedFallback,
	}
}

// Tick runs one control round at virtual time t: heartbeat every node
// (feeding the failure detector), re-send the current plan to epoch
// laggards, step the Replanner on the summed sensed rates and the
// detector's alive view, refresh the routing view, and distribute an
// adopted plan to every live node. When hedging it also re-derives the
// hedge delay from the previous tick's p99 (real time at this edge: the
// hedge timer is a wall-clock race by nature). Node errors never fail
// the tick — dead nodes are the failure detector's business — only
// context cancellation does.
func (sc *ServeCluster) Tick(ctx context.Context, t float64, p99Micros int64) (loadgen.TickInfo, error) {
	if sc.cfg.HedgeDelay > 0 && p99Micros > 0 {
		sc.clnt.SetHedgeDelay(2 * time.Duration(p99Micros) * time.Microsecond)
	}
	rates, laggards, err := sc.heartbeat(ctx, t)
	if err != nil {
		return loadgen.TickInfo{T: t}, err
	}
	alive := sc.clnt.AliveView(sc.cfg.N)
	for _, s := range laggards {
		if alive[s] {
			sc.sendPlan(ctx, s)
		}
	}
	info := sc.ctrl.Step(ctx, rates, alive)
	info.T = t
	sc.mu.Lock()
	sc.view = sc.ctrl.Plan()
	sc.view.Alive = alive
	sc.mu.Unlock()
	if info.Replanned {
		for s, up := range alive {
			if up {
				sc.sendPlan(ctx, s)
			}
		}
	}
	return info, ctx.Err()
}

// heartbeat pings every node in ID order, so the sum does not depend on
// scheduling, and returns the nodes' summed sensed per-origin rates and
// the nodes whose epoch lags the routing view's. Failures feed the
// client's detector and add nothing to the sum.
func (sc *ServeCluster) heartbeat(ctx context.Context, t float64) (rates []float64, laggards []int, err error) {
	_, _, epoch, _ := sc.snapshotView()
	rates = make([]float64, sc.cfg.N)
	for s := 0; s < sc.cfg.N; s++ {
		if err := ctx.Err(); err != nil {
			return nil, nil, err
		}
		id := sc.id()
		payload, err := protocol.EncodePing(protocol.Ping{ID: id, T: t})
		if err != nil {
			return nil, nil, fmt.Errorf("agent: encode ping: %w", err)
		}
		reply, err := sc.clnt.Probe(ctx, s, id, payload)
		if err != nil {
			sc.cfg.Observer.TransportError(s, "heartbeat: "+err.Error())
			continue
		}
		env, err := protocol.Decode(reply)
		if err != nil || env.Kind != protocol.KindPong || len(env.Pong.Rates) != sc.cfg.N {
			sc.cfg.Observer.MessageDiscarded(s, epoch, "bad pong")
			continue
		}
		for i, r := range env.Pong.Rates {
			rates[i] += r
		}
		if env.Pong.Epoch < epoch {
			laggards = append(laggards, s)
		}
	}
	return rates, laggards, nil
}

// id numbers one control-plane request.
func (sc *ServeCluster) id() uint64 {
	sc.nextID++
	return controlIDBit | sc.nextID
}

// sendPlan sends the routing view's plan to one node and waits for its
// ack; failures feed the detector via the client and are otherwise
// tolerated (the laggard path re-sends next tick).
func (sc *ServeCluster) sendPlan(ctx context.Context, to int) {
	sc.mu.Lock()
	plan := sc.view
	sc.mu.Unlock()
	plan.ID = sc.id()
	payload, err := protocol.EncodePlan(plan)
	if err != nil {
		sc.cfg.Observer.TransportError(to, "encode plan: "+err.Error())
		return
	}
	reply, err := sc.clnt.Do(ctx, to, plan.ID, payload)
	if err != nil {
		sc.cfg.Observer.TransportError(to, "plan distribution: "+err.Error())
		return
	}
	env, err := protocol.Decode(reply)
	if err != nil || env.Kind != protocol.KindPlanAck {
		sc.cfg.Observer.MessageDiscarded(to, plan.Epoch, "bad plan ack")
		return
	}
	if env.PlanAck.Epoch < plan.Epoch {
		sc.cfg.Observer.RecoveryEvent(to, plan.Epoch, "plan-lagging", fmt.Sprintf("node acked epoch %d", env.PlanAck.Epoch))
	}
}

// Kill crashes a node: its server stops, its endpoint closes, and every
// subsequent send to it fails fast (connection-refused semantics). The
// failure detector is not informed — heartbeats and request failures must
// discover the death.
func (sc *ServeCluster) Kill(node int) error {
	if node < 0 || node >= sc.cfg.N {
		return fmt.Errorf("%w: kill node %d of %d", ErrServe, node, sc.cfg.N)
	}
	sc.mu.Lock()
	already := sc.killed[node]
	sc.killed[node] = true
	cancel := sc.cancels[node]
	sc.mu.Unlock()
	if already {
		return nil
	}
	cancel()
	ep, err := sc.net.Endpoint(node)
	if err != nil {
		return err
	}
	return ep.Close()
}

// Close tears the cluster down and reports any server run error.
func (sc *ServeCluster) Close() error {
	sc.mu.Lock()
	if sc.closed {
		sc.mu.Unlock()
		return nil
	}
	sc.closed = true
	cancels := append([]context.CancelFunc(nil), sc.cancels...)
	sc.mu.Unlock()
	for _, cancel := range cancels {
		if cancel != nil {
			cancel()
		}
	}
	err := sc.net.Close()
	sc.serverWG.Wait()
	if sc.clnt != nil {
		if cerr := sc.clnt.Close(); err == nil {
			err = cerr
		}
	}
	sc.mu.Lock()
	defer sc.mu.Unlock()
	if err == nil && len(sc.runErrs) > 0 {
		err = sc.runErrs[0]
	}
	return err
}

// classifyErr maps client errors to stable outcome classes.
func classifyErr(err error) string {
	switch {
	case errors.Is(err, transport.ErrOverloaded):
		return "overloaded"
	case errors.Is(err, transport.ErrNoReply):
		return "deadline"
	case errors.Is(err, transport.ErrCrashed):
		return "crashed"
	case errors.Is(err, transport.ErrClosed):
		return "closed"
	case errors.Is(err, transport.ErrNoCandidates):
		return "no_candidates"
	default:
		return "transport"
	}
}

// gateEndpoint fails sends to killed nodes immediately
// (connection-refused semantics) so the client path observes a crash as a
// fast deterministic error instead of a buffered send that times out.
type gateEndpoint struct {
	inner transport.Endpoint
	dead  func(node int) bool
}

func (g *gateEndpoint) ID() int    { return g.inner.ID() }
func (g *gateEndpoint) Peers() int { return g.inner.Peers() }

func (g *gateEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	if g.dead(to) {
		return fmt.Errorf("agent: node %d is down: %w", to, transport.ErrCrashed)
	}
	return g.inner.Send(ctx, to, payload)
}

func (g *gateEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	return g.inner.Recv(ctx)
}

func (g *gateEndpoint) Close() error { return g.inner.Close() }
