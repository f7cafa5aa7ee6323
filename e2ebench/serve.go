package main

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/loadgen"
	"filealloc/internal/metrics"
)

const (
	serveSetups     = 9
	servePool       = 64    // seeded scripts a run rotates through, one per cycle
	qualityCycles   = 5     // script runs the plan-quality numbers are taken from
	serveSpansPerOp = 2_400 // about one span per request and per tick
	serveTimeout    = time.Minute
)

// newServeCluster builds the serving cluster exactly as fapload does for
// a spec: per-node service rate 2.2× the peak tick rate divided across
// the nodes, the first phase's rate as the assumed initial demand, and
// the hardened client's deadline, retry and failure-detector settings.
// Hedging stays off.
func newServeCluster(ctx context.Context, spec loadgen.Spec, reg *metrics.Registry) (*agent.ServeCluster, error) {
	peak := 0.0
	for _, p := range spec.Phases {
		peak = math.Max(peak, p.RPS)
	}
	mu := make([]float64, spec.Nodes)
	rates := make([]float64, spec.Nodes)
	for i := range mu {
		mu[i] = 2.2 * peak / float64(spec.Nodes)
		rates[i] = spec.Phases[0].RPS / float64(spec.Nodes)
	}
	return agent.NewServeCluster(ctx, agent.ServeClusterConfig{
		N:              spec.Nodes,
		Mu:             mu,
		K:              1,
		InitRates:      rates,
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		DownAfter:      2,
		Seed:           spec.Seed,
		Registry:       reg,
	})
}

// specRequests is the number of requests a spec fires.
func specRequests(spec loadgen.Spec) int {
	total := 0
	prev := spec.Phases[0].RPS
	for _, p := range spec.Phases {
		for pt := 0; pt < p.Ticks; pt++ {
			rps := p.RPS
			if p.Kind == loadgen.PhaseRamp {
				rps = prev + (p.RPS-prev)*float64(pt+1)/float64(p.Ticks)
			}
			total += max(int(math.Round(rps)), 1)
			if pt == p.Ticks-1 {
				prev = rps
			}
		}
	}
	return total
}

// serveCycle is one operation batch of serve-phased: a fresh cluster, one
// closed-loop run of the phased script, and the teardown.
type serveCycle struct {
	build  time.Duration // NewServeCluster: the initial certified plan and the servers
	run    time.Duration // loadgen.Run, control-plane ticks included
	target *timingTarget
	report *loadgen.Report
	reg    *metrics.Registry
}

func runServeCycle(spec loadgen.Spec, workers int, t *tracer, cycle int64) (*serveCycle, error) {
	ctx, cancel := context.WithTimeout(context.Background(), serveTimeout)
	defer cancel()
	c := &serveCycle{reg: metrics.New()}
	start := time.Now()
	sc, err := newServeCluster(ctx, spec, c.reg)
	c.build = time.Since(start)
	if err != nil {
		return nil, err
	}
	c.target = newTimingTarget(sc, specRequests(spec), t, cycle)
	start = time.Now()
	c.report, err = loadgen.Run(ctx, loadgen.Config{Spec: spec, Target: c.target, Workers: workers, Registry: c.reg})
	c.run = time.Since(start)
	c.target.finish()
	if cerr := sc.Close(); cerr != nil {
		fmt.Fprintln(os.Stderr, "e2ebench: closing serve cluster:", cerr)
	}
	if err != nil {
		return nil, err
	}
	return c, nil
}

// runServePhased drives fapload's default script (steady, shift, burst,
// then node 1 crashes) against a fresh 5-node serving cluster per cycle,
// closed loop over nproc workers. The operation is one request
// (Target.Fire); the work items are requests.
func runServePhased(cfg runConfig, res *result) error {
	script := func(cycle int64) loadgen.Spec {
		spec := loadgen.DefaultSpec()
		spec.Seed = instanceSeed(cfg.seed, servePool, int(cycle%servePool))
		return spec
	}
	want := specRequests(script(0))
	// A set-up builds a cluster and warms it with the script's steady
	// phase alone: the later phases' re-plans cost too differently from
	// seed to seed to sit inside a set-up time.
	warmup := func(spec loadgen.Spec) loadgen.Spec {
		spec.Phases = spec.Phases[:1]
		return spec
	}

	var setups, builds []float64
	for i := 0; i < serveSetups; i++ {
		settle()
		c, err := runServeCycle(warmup(script(int64(i))), cfg.workers, nil, 0)
		if err != nil {
			return fmt.Errorf("warm-up cycle: %w", err)
		}
		setups = append(setups, (c.build + c.run).Seconds())
		builds = append(builds, c.build.Seconds())
	}
	res.set("setup_s", median(setups))
	res.set("heap_mb", heapMB())

	var plainFires, tracedFires, tracedRates []float64
	var rates []float64 // requests per second of loadgen.Run, per untraced cycle
	var ticks, replanTicks []float64
	var replans, certified, rejected, fallbacks, iters float64
	var retries, rerouted, degraded float64
	// The plan-quality numbers come from the first qualityCycles script
	// runs, a fixed list of scripts, so they repeat exactly for a seed.
	var modelLatencies []float64
	var lag float64
	var cycles int64
	op := func(tr bool) error {
		cycles++
		var t *tracer
		if tr {
			t = cfg.tracer
		}
		c, err := runServeCycle(script(cycles), cfg.workers, t, cycles)
		if err != nil {
			return err
		}
		builds = append(builds, c.build.Seconds())
		tg := c.target
		if cycles <= qualityCycles {
			modelLatencies = append(modelLatencies, tg.latencies...)
			for _, p := range c.report.Phases {
				lag = math.Max(lag, float64(p.ConvergenceLagTicks))
			}
		}
		res.Attempted += int64(tg.fired)
		res.Failed += int64(tg.fired - tg.ok)
		res.check(tg.fired == want, "cycle %d fired %d requests, the script has %d", cycles, tg.fired, want)
		res.check(c.report.Totals.Requests == want, "cycle %d report counts %d requests, the script has %d", cycles, c.report.Totals.Requests, want)
		res.check(tg.uncertified == 0, "cycle %d adopted %d uncertified plans", cycles, tg.uncertified)
		if !tr {
			plainFires = append(plainFires, tg.fires...)
			rates = append(rates, float64(tg.fired)/c.run.Seconds())
			return nil
		}
		tracedFires = append(tracedFires, tg.fires...)
		tracedRates = append(tracedRates, float64(tg.fired)/c.run.Seconds())
		ticks = append(ticks, tg.ticks...)
		replanTicks = append(replanTicks, tg.replanTicks...)
		for _, p := range c.report.Phases {
			replans += float64(p.Replans)
			certified += float64(p.CertifiedReplans)
			rejected += float64(p.RejectedPlans)
			fallbacks += float64(p.ColdFallbacks)
			iters += float64(p.SolveIterations)
		}
		retries += float64(counters(c.reg)["fap_client_retries_total"])
		rerouted += float64(tg.fallbacks)
		degraded += float64(tg.degraded)
		return nil
	}
	if err := loop(cfg, cfg.window, serveSpansPerOp, op); err != nil {
		return err
	}

	fires, cycleRates := plainFires, rates
	if cfg.tracer != nil {
		fires, cycleRates = tracedFires, tracedRates
	}
	res.setOperations(fires)
	res.set("work_per_s", median(cycleRates))
	res.set("cold_plan_ms", 1e3*median(builds))
	if cfg.tracer == nil {
		return nil
	}
	n := float64(len(tracedFires))
	res.set("trace.slowdown_ratio", ratio(median(tracedFires), median(plainFires)))
	res.set("agent.fire_us_p99", 1e6*quantile(tracedFires, 0.99))
	res.set("agent.tick_us_p50", 1e6*median(ticks))
	res.set("agent.replan_tick_us_p50", 1e6*median(replanTicks))
	res.set("agent.replan_certified_ratio", ratio(certified, replans+rejected))
	res.set("agent.cold_fallback_ratio", ratio(fallbacks, replans))
	res.set("agent.solve_iters_per_replan", ratio(iters, replans))
	res.set("transport.client_retries_per_req", retries/n)
	res.set("transport.fallbacks_per_req", rerouted/n)
	res.set("transport.degraded_per_req", degraded/n)
	res.set("loadgen.model_us_p99", quantile(modelLatencies, 0.99))
	res.set("loadgen.replan_lag_ticks", lag)
	return nil
}

// timingTarget is a loadgen.Target around an agent.ServeCluster that
// times every Fire and Tick and keeps the outcomes the checks and
// per-layer metrics need. With a tracer it also records a span per
// request and per tick under one span for the whole cycle.
type timingTarget struct {
	inner *agent.ServeCluster
	t     *tracer
	cycle int64
	root  int32

	mu          sync.Mutex
	fires       []float64 // seconds per Fire
	latencies   []float64 // model-derived latency of served requests, µs
	fired, ok   int
	fallbacks   int
	degraded    int
	ticks       []float64 // seconds per Tick
	replanTicks []float64 // seconds per Tick that adopted a plan
	uncertified int
}

func newTimingTarget(inner *agent.ServeCluster, requests int, t *tracer, cycle int64) *timingTarget {
	tg := &timingTarget{
		inner:     inner,
		t:         t,
		cycle:     cycle,
		root:      -1,
		fires:     make([]float64, 0, requests),
		latencies: make([]float64, 0, requests),
	}
	if t != nil {
		tg.root = t.add(span{Name: "loadgen.run", Start: t.now(), Parent: -1, ID: cycle, Node: -1})
	}
	return tg
}

func (tg *timingTarget) finish() {
	if tg.t != nil {
		tg.t.finish(tg.root, tg.t.now())
	}
}

func (tg *timingTarget) Nodes() int { return tg.inner.Nodes() }

func (tg *timingTarget) Fire(ctx context.Context, req loadgen.Request) loadgen.Outcome {
	var startNs int64
	if tg.t != nil {
		startNs = tg.t.now()
	}
	start := time.Now()
	o := tg.inner.Fire(ctx, req)
	d := time.Since(start)
	if tg.t != nil {
		tg.t.add(span{Name: "serve.fire", Start: startNs, End: tg.t.now(), Parent: tg.root, ID: int64(req.ID), Node: int32(o.Node)})
	}
	tg.mu.Lock()
	defer tg.mu.Unlock()
	tg.fires = append(tg.fires, d.Seconds())
	tg.fired++
	if o.OK {
		tg.ok++
		tg.latencies = append(tg.latencies, float64(o.LatencyMicros))
	}
	if o.Fallback {
		tg.fallbacks++
	}
	if o.Degraded {
		tg.degraded++
	}
	return o
}

func (tg *timingTarget) Tick(ctx context.Context, t float64, p99Micros int64) (loadgen.TickInfo, error) {
	var startNs int64
	if tg.t != nil {
		startNs = tg.t.now()
	}
	start := time.Now()
	info, err := tg.inner.Tick(ctx, t, p99Micros)
	d := time.Since(start)
	if tg.t != nil {
		tg.t.add(span{Name: "serve.tick", Start: startNs, End: tg.t.now(), Parent: tg.root, ID: int64(t), Node: -1})
	}
	tg.mu.Lock()
	defer tg.mu.Unlock()
	tg.ticks = append(tg.ticks, d.Seconds())
	if info.Replanned {
		tg.replanTicks = append(tg.replanTicks, d.Seconds())
		if !info.Certified {
			tg.uncertified++
		}
	}
	return info, err
}

func (tg *timingTarget) Kill(node int) error { return tg.inner.Kill(node) }

func (tg *timingTarget) Close() error { return tg.inner.Close() }
