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
	enabled  bool
	halfLife float64
	drift    float64
	interval time.Duration
}

// accessServer keeps a converged fapnode *serving*: it answers /access
// requests under the current plan while an estimate.Tracker senses demand
// online, and a background loop re-solves (warm, KKT-certified) whenever
// the sensed rates drift from the ones the plan was solved for. Plans are
// swapped under the lock between requests, so in-flight requests always
// complete under the plan that admitted them. Wall-clock time is allowed
// here: this is the CLI edge, not the deterministic numeric path.
type accessServer struct {
	node  int
	n     int
	k     float64
	muSvc float64
	pair  [][]float64
	opts  serveOptions

	replan agent.ReplanConfig
	obs    agent.Observer
	start  time.Time

	accesses   *metrics.Counter
	epochGauge *metrics.Gauge
	replansOK  *metrics.Counter
	replansRej *metrics.Counter

	mu           sync.Mutex
	ready        bool
	epoch        int
	x            []float64
	plannedRates []float64
	tracker      *estimate.Tracker
	lastT        float64
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
	mus := make([]float64, n)
	for i := range mus {
		mus[i] = muSvc
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
		replan:     agent.ReplanConfig{Pair: pair, Mu: mus, K: k},
		accesses:   reg.Counter("fap_serve_accesses_total", "access requests served"),
		epochGauge: reg.Gauge("fap_serve_epoch", "current serving plan epoch"),
		replansOK:  reg.Counter("fap_serve_replans_total", "live re-plans by outcome", metrics.L("outcome", "certified")),
		replansRej: reg.Counter("fap_serve_replans_total", "live re-plans by outcome", metrics.L("outcome", "rejected")),
	}
	return as, nil
}

// activate installs the converged allocation as epoch 1 and starts
// accepting /access traffic.
func (as *accessServer) activate(x, plannedRates []float64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	as.ready = true
	as.epoch = 1
	as.x = append([]float64(nil), x...)
	as.plannedRates = append([]float64(nil), plannedRates...)
	as.epochGauge.Set(1)
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
	if !as.ready {
		as.mu.Unlock()
		http.Error(w, "allocation not converged yet", http.StatusServiceUnavailable)
		return
	}
	t := as.now()
	if t < as.lastT {
		t = as.lastT
	}
	as.lastT = t
	if err := as.tracker.Observe(origin, t); err != nil {
		as.obs.MessageDiscarded(as.node, as.epoch, "serve observe: "+err.Error())
	}
	epoch := as.epoch
	x := append([]float64(nil), as.x...)
	lambda := 0.0
	for _, rr := range as.plannedRates {
		lambda += rr
	}
	as.mu.Unlock()
	as.accesses.Inc()

	lat := 0.0
	for i, xi := range x {
		if xi <= costmodel.SupportTol {
			continue
		}
		room := as.muSvc - lambda*xi
		if room < as.muSvc*0.01 {
			room = as.muSvc * 0.01
		}
		lat += xi * (as.pair[origin][i] + as.k/room)
	}
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(accessReply{
		Node:          as.node,
		Origin:        origin,
		Epoch:         epoch,
		LatencyMicros: int64(lat * 1e6),
		Fragment:      x[as.node],
	})
}

// snapshot returns the current epoch and plan (for the final checkpoint
// flush on shutdown).
func (as *accessServer) snapshot() (epoch int, x []float64) {
	as.mu.Lock()
	defer as.mu.Unlock()
	return as.epoch, append([]float64(nil), as.x...)
}

// replanLoop polls sensed demand every interval and re-solves on drift.
// It returns when the context is cancelled.
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

// replanOnce runs one drift check; on drift it warm re-solves from the
// current plan and swaps in the result only if the independent KKT
// certificate verifies.
func (as *accessServer) replanOnce(ctx context.Context) {
	as.mu.Lock()
	if !as.ready {
		as.mu.Unlock()
		return
	}
	t := as.now()
	if t < as.lastT {
		t = as.lastT
	}
	rates := as.tracker.Rates(t)
	planned := append([]float64(nil), as.plannedRates...)
	prev := append([]float64(nil), as.x...)
	epoch := as.epoch
	as.mu.Unlock()

	lambda := 0.0
	drifted := false
	for i := range rates {
		lambda += rates[i]
		if estimate.DriftExceeds(planned[i], rates[i], as.opts.drift) {
			drifted = true
		}
	}
	if !drifted || lambda <= 1e-3 {
		return
	}
	alive := make([]bool, as.n)
	for i := range alive {
		alive[i] = true
	}
	pr, err := as.replan.Replan(ctx, rates, prev, alive)
	switch {
	case err != nil:
		as.replansRej.Inc()
		as.obs.RecoveryEvent(as.node, epoch, "serve-replan-error", err.Error())
	case !pr.Certified:
		as.replansRej.Inc()
		as.obs.RecoveryEvent(as.node, epoch, "serve-replan-uncertified", "KKT certificate failed; keeping plan")
	default:
		as.mu.Lock()
		as.epoch++
		as.x = pr.X
		as.plannedRates = rates
		newEpoch := as.epoch
		as.mu.Unlock()
		as.replansOK.Inc()
		as.epochGauge.Set(float64(newEpoch))
		as.obs.RecoveryEvent(as.node, newEpoch, "serve-replan-accepted",
			fmt.Sprintf("lambda=%.4g iters=%d fellback=%v", pr.Lambda, pr.Iterations, pr.FellBack))
	}
}
