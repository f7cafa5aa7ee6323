package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/estimate"
	"filealloc/internal/metrics"
	"filealloc/internal/topology"
)

// serveOptions collects the -serve flag family.
type serveOptions struct {
	halfLife float64
	interval time.Duration
}

// accessServer keeps a converged fapnode *serving*: it answers /access
// requests under the current plan while an estimate.Tracker senses demand
// online, and a background loop steps an agent.Replanner on the sensed
// rates, which re-solves (warm, KKT-certified) whenever they drift from
// the ones the plan was solved for. The Replanner owns the plan and swaps
// it under its own lock, so in-flight requests always complete under the
// plan that admitted them. Wall-clock time is allowed here: this is the
// CLI edge, not the deterministic numeric path.
type accessServer struct {
	node  int
	n     int
	k     float64
	muSvc float64
	pair  [][]float64
	opts  serveOptions

	obs   agent.Observer
	start time.Time

	accesses   *metrics.Counter
	epochGauge *metrics.Gauge
	replansOK  *metrics.Counter
	replansRej *metrics.Counter

	mu      sync.Mutex
	rp      *agent.Replanner // nil until activate: /access answers 503
	tracker *estimate.Tracker
	lastT   float64
}

// newAccessServer wires the serving state for one node. The plan arrives
// later via activate (after the batch protocol converges).
func newAccessServer(node, n int, g *topology.Graph, muSvc, k float64, opts serveOptions, reg *metrics.Registry, obs agent.Observer) (*accessServer, error) {
	pair, err := topology.PairCosts(g, topology.RoundTrip)
	if err != nil {
		return nil, fmt.Errorf("serve: pair costs: %w", err)
	}
	tracker, err := estimate.NewTracker(n, opts.halfLife)
	if err != nil {
		return nil, fmt.Errorf("serve: tracker: %w", err)
	}
	as := &accessServer{
		node:       node,
		n:          n,
		k:          k,
		muSvc:      muSvc,
		pair:       pair,
		opts:       opts,
		obs:        obs,
		start:      time.Now(),
		tracker:    tracker,
		accesses:   reg.Counter("fap_serve_accesses_total", "access requests served"),
		epochGauge: reg.Gauge("fap_serve_epoch", "current serving plan epoch"),
		replansOK:  reg.Counter("fap_serve_replans_total", "live re-plans by outcome", metrics.L("outcome", "certified")),
		replansRej: reg.Counter("fap_serve_replans_total", "live re-plans by outcome", metrics.L("outcome", "rejected")),
	}
	return as, nil
}

// activate solves the epoch-1 serving plan for the batch run's rates over
// its membership, warm-started from the converged allocation x, and starts
// accepting /access traffic. It fails if that plan is not KKT-certified.
func (as *accessServer) activate(ctx context.Context, x, rates []float64, alive []bool) error {
	mus := make([]float64, as.n)
	for i := range mus {
		mus[i] = as.muSvc
	}
	rp, err := agent.NewReplanner(ctx, agent.ReplanConfig{Pair: as.pair, Mu: mus, K: as.k}, rates, x, alive, as.node, as.obs)
	if err != nil {
		return fmt.Errorf("serve: %w", err)
	}
	as.mu.Lock()
	as.rp = rp
	as.mu.Unlock()
	as.epochGauge.Set(1)
	return nil
}

// now is the serving clock: seconds since the server started.
func (as *accessServer) now() float64 { return time.Since(as.start).Seconds() }

// accessReply is the /access response body.
type accessReply struct {
	Node          int     `json:"node"`
	Origin        int     `json:"origin"`
	Epoch         int     `json:"epoch"`
	LatencyMicros int64   `json:"latency_micros"`
	Fragment      float64 `json:"fragment"`
}

// handleAccess serves one access request: observe demand for the origin,
// charge the plan's expected access cost (transfer plus M/M/1 waiting at
// each hosting replica, weighted by the plan), and reply.
func (as *accessServer) handleAccess(w http.ResponseWriter, r *http.Request) {
	origin := as.node
	if o := r.URL.Query().Get("origin"); o != "" {
		v, err := strconv.Atoi(o)
		if err != nil || v < 0 || v >= as.n {
			http.Error(w, fmt.Sprintf("bad origin %q", o), http.StatusBadRequest)
			return
		}
		origin = v
	}
	as.mu.Lock()
	if as.rp == nil {
		as.mu.Unlock()
		http.Error(w, "allocation not converged yet", http.StatusServiceUnavailable)
		return
	}
	plan := as.rp.Plan()
	t := as.now()
	if t < as.lastT {
		t = as.lastT
	}
	as.lastT = t
	if err := as.tracker.Observe(origin, t); err != nil {
		as.obs.MessageDiscarded(as.node, plan.Epoch, "serve observe: "+err.Error())
	}
	as.mu.Unlock()
	as.accesses.Inc()

	lat := 0.0
	for i, xi := range plan.X {
		if xi <= costmodel.SupportTol {
			continue
		}
		room := as.muSvc - plan.Lambda*xi
		if room < as.muSvc*0.01 {
			room = as.muSvc * 0.01
		}
		lat += xi * (as.pair[origin][i] + as.k/room)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(accessReply{
		Node:          as.node,
		Origin:        origin,
		Epoch:         plan.Epoch,
		LatencyMicros: int64(lat * 1e6),
		Fragment:      plan.X[as.node],
	})
}

// replanLoop steps the Replanner every interval. It returns when the
// context is cancelled.
func (as *accessServer) replanLoop(ctx context.Context) {
	ticker := time.NewTicker(as.opts.interval)
	defer ticker.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
			as.replanOnce(ctx)
		}
	}
}

// replanOnce steps the Replanner on the currently sensed demand and
// counts the outcome. Membership stays the one the plan was solved over:
// serving peers run no failure detector, so only demand drift re-plans.
func (as *accessServer) replanOnce(ctx context.Context) {
	as.mu.Lock()
	rp := as.rp
	if rp == nil {
		as.mu.Unlock()
		return
	}
	t := as.now()
	if t < as.lastT {
		t = as.lastT
	}
	rates := as.tracker.Rates(t)
	as.mu.Unlock()

	info := rp.Step(ctx, rates, rp.Plan().Alive)
	switch {
	case info.Replanned:
		as.replansOK.Inc()
		as.epochGauge.Set(float64(info.Epoch))
	case info.Rejected:
		as.replansRej.Inc()
	}
}
