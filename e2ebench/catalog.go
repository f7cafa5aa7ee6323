package main

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"time"

	"filealloc/internal/catalog"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
)

// The catalog-epoch inputs. The solver settings are the catalog's
// documented defaults, spelled out so the sampled re-solves below build
// exactly the catalog's own allocators.
const (
	catalogObjects   = 100_000
	catalogNodes     = 8
	catalogDrift     = 0.1
	catalogAlpha     = 0.5
	catalogEpsilon   = 1e-6
	catalogKKTTol    = 1e-5
	catalogWarmSteps = 64
	catalogMu        = 1.5
	catalogLambda    = 1.0
	catalogK         = 1.0
	catalogSample    = 96 // objects checked, and re-solved under the timing objective per traced epoch
	catalogSetups    = 5
	// catalogEpochsPerFill spaces the cold fills: the catalog is filled
	// cold again after every this many epochs, so cold_plan_ms is a median
	// of fills spread over the whole window rather than one sample.
	catalogEpochsPerFill = 4
	spansPerSampleRun    = 40_000
)

func catalogConfig(seed int64) catalog.Config {
	return catalog.Config{
		Objects:       catalogObjects,
		Nodes:         catalogNodes,
		Skew:          1,
		Mu:            catalogMu,
		K:             catalogK,
		Lambda:        catalogLambda,
		DynamicAlpha:  catalogAlpha,
		Epsilon:       catalogEpsilon,
		KKTTol:        catalogKKTTol,
		WarmSteps:     catalogWarmSteps,
		DriftFraction: catalogDrift,
		Seed:          uint64(seed),
	}
}

// runCatalogEpoch lays out a 100k-object catalog, fills it cold, senses
// once, and then runs Drift+ReSolve epochs until the window closes,
// filling it cold again after every catalogEpochsPerFill epochs. The
// operation is one epoch; the work items are the objects it covers.
func runCatalogEpoch(cfg runConfig, res *result) error {
	ctx := sweep.WithWorkers(context.Background(), cfg.workers)

	var c *catalog.Catalog
	var setups []float64
	for i := 0; i < catalogSetups; i++ {
		c = nil // let the previous layout go before building the next
		settle()
		d, err := timed(func() error {
			var err error
			c, err = catalog.New(catalogConfig(cfg.seed))
			return err
		})
		if err != nil {
			return err
		}
		setups = append(setups, d.Seconds())
	}
	res.set("setup_s", median(setups))
	res.set("heap_mb", heapMB())

	sampler, err := newCatalogSampler(cfg, c)
	if err != nil {
		return err
	}
	windowStart := time.Now()
	var colds []float64 // cold fill wall times, seconds
	var coldSteps, coldSolved float64
	coldFill := func() error {
		var st catalog.Stats
		d, err := timed(func() error {
			var err error
			st, err = c.SolveCold(ctx)
			return err
		})
		if err != nil {
			return err
		}
		res.Attempted++
		res.check(st.Cold == catalogObjects, "cold fill solved %d of %d objects", st.Cold, catalogObjects)
		colds = append(colds, d.Seconds())
		coldSteps += float64(st.Steps)
		coldSolved += float64(st.Cold)
		if c.Epoch() > 0 {
			// A later fill solves each object for the demand its model
			// was last planned at, which for a skipped object is older
			// than its true demand; only the first fill is checked
			// against the true demand.
			return nil
		}
		return sampler.checkSample(ctx, res, true)
	}
	if err := coldFill(); err != nil {
		return err
	}
	if err := c.Sense(ctx); err != nil {
		return err
	}
	var plain, traced []float64 // epoch wall times, seconds
	var drifts, resolves []float64
	var steps, resolved, skipped, drifted, warm float64
	epoch := func(tr bool) error {
		if n := len(plain) + len(traced); n > 0 && n%catalogEpochsPerFill == 0 {
			if err := coldFill(); err != nil {
				return err
			}
		}
		var ep int32 = -1
		if tr {
			sampler.prev = c.Snapshot()
			ep = cfg.tracer.add(span{Name: "catalog.epoch", Start: cfg.tracer.now(), Parent: -1, ID: int64(c.Epoch() + 1), Node: -1})
		}
		dDrift, err := timedSpan(cfg.tracer, tr, "catalog.drift", ep, int64(c.Epoch()+1), func() error {
			_, err := c.Drift(ctx)
			return err
		})
		if err != nil {
			return err
		}
		var st catalog.Stats
		dResolve, err := timedSpan(cfg.tracer, tr, "catalog.resolve", ep, int64(c.Epoch()), func() error {
			var err error
			st, err = c.ReSolve(ctx)
			return err
		})
		if err != nil {
			return err
		}
		if tr {
			cfg.tracer.finish(ep, cfg.tracer.now())
		}
		res.Attempted++
		res.check(st.Skipped+st.Drifted == catalogObjects, "epoch %d: skipped %d + drifted %d != %d objects", c.Epoch(), st.Skipped, st.Drifted, catalogObjects)
		res.check(st.Warm+st.Fallback == st.Drifted, "epoch %d: warm %d + fallback %d != drifted %d", c.Epoch(), st.Warm, st.Fallback, st.Drifted)
		total := (dDrift + dResolve).Seconds()
		if !tr {
			plain = append(plain, total)
			return nil
		}
		traced = append(traced, total)
		drifts = append(drifts, dDrift.Seconds())
		resolves = append(resolves, dResolve.Seconds())
		steps += float64(st.Steps)
		resolved += float64(st.Warm + st.Fallback)
		skipped += float64(st.Skipped)
		drifted += float64(st.Drifted)
		warm += float64(st.Warm)
		return sampler.run(ctx, res)
	}
	if err := loop(cfg, time.Until(windowStart.Add(cfg.window)), spansPerSampleRun, epoch); err != nil {
		return err
	}
	if err := sampler.checkSample(ctx, res, false); err != nil {
		return err
	}

	epochs := plain
	if cfg.tracer != nil {
		epochs = traced
	}
	res.setOperations(epochs)
	res.set("cold_plan_ms", 1e3*median(colds))
	res.set("catalog.cold_objects_per_s", catalogObjects/median(colds))
	res.set("core.steps_per_cold_solve", ratio(coldSteps, coldSolved))
	res.set("work_per_s", catalogObjects/median(epochs))

	if cfg.tracer == nil {
		return nil
	}
	res.set("trace.slowdown_ratio", ratio(median(traced), median(plain)))
	res.set("catalog.warm_objects_per_s", catalogObjects*float64(len(resolves))/sum(resolves))
	res.set("catalog.resolve_s_p50", median(resolves))
	res.set("catalog.drift_s_p50", median(drifts))
	res.set("catalog.skip_ratio", skipped/(catalogObjects*float64(len(traced))))
	res.set("catalog.warm_ratio", ratio(warm, drifted))
	res.set("core.steps_per_resolve", ratio(steps, resolved))
	sampler.report(res)
	return nil
}

// catalogSampler re-solves a seeded sample of the catalog's own instances
// through core.NewAllocator and core.NewWarmSolver over a timing
// objective, and checks the catalog's allocations for the same objects.
type catalogSampler struct {
	cfg  runConfig
	c    *catalog.Catalog
	ids  []int
	pair [][]float64
	prev catalog.Snapshot // the catalog before the epoch being sampled

	calls, iters int // objective calls and solver steps over all sampled solves
	imbalance    []float64
}

func newCatalogSampler(cfg runConfig, c *catalog.Catalog) (*catalogSampler, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	ring, err := topology.Ring(catalogNodes, 1)
	if err != nil {
		return nil, err
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		return nil, err
	}
	return &catalogSampler{cfg: cfg, c: c, ids: rng.Perm(catalogObjects)[:catalogSample], pair: pair}, nil
}

// model builds the catalog's cost model of one object from its demand row.
func (s *catalogSampler) model(demand []float64) (*costmodel.SingleFile, error) {
	var total float64
	for _, d := range demand {
		total += d
	}
	access := make([]float64, len(demand))
	for i := range access {
		for j, d := range demand {
			access[i] += d * s.pair[j][i]
		}
		access[i] /= total
	}
	return costmodel.NewSingleFile(access, []float64{catalogMu}, catalogLambda, catalogK)
}

// sampleScratch is one sweep worker's state: its solver buffers and the
// number of sampled objects it claimed.
type sampleScratch struct {
	core  *core.Scratch
	items int
}

// run solves every sampled object cold from the uniform allocation and,
// where its demand moved this epoch, warm from its previous allocation,
// all under the timing objective, fanned over the sweep engine.
func (s *catalogSampler) run(ctx context.Context, res *result) error {
	snap := s.c.Snapshot()
	n := catalogNodes
	t := s.cfg.tracer
	var mu sync.Mutex
	var workers []*sampleScratch
	calls := make([]int, len(s.ids))
	iters := make([]int, len(s.ids))
	problems := make([]string, len(s.ids))
	err := sweep.RunWithScratch(ctx, len(s.ids), s.cfg.workers,
		func() *sampleScratch {
			w := &sampleScratch{core: core.NewScratch()}
			mu.Lock()
			workers = append(workers, w)
			mu.Unlock()
			return w
		},
		func(ctx context.Context, k int, w *sampleScratch) error {
			w.items++
			id := s.ids[k]
			row := snap.Demand[id*n : (id+1)*n]
			inner, err := s.model(row)
			if err != nil {
				return err
			}
			obj := &timingObjective{inner: inner, t: t, id: int64(id)}
			alloc, err := core.NewAllocator(obj, core.WithDynamicAlpha(catalogAlpha), core.WithEpsilon(catalogEpsilon), core.WithKKTCheck())
			if err != nil {
				return err
			}
			uniform := make([]float64, n)
			for i := range uniform {
				uniform[i] = 1 / float64(n)
			}
			r, err := obj.solve("core.solve_cold", func() (core.Result, error) { return alloc.Solve(ctx, uniform, w.core) })
			if err != nil {
				return fmt.Errorf("sampled cold solve of object %d: %w", id, err)
			}
			iters[k] += r.Iterations
			if msg := verifyAlloc(t, inner, r.X, kktCheckTol); msg != "" {
				problems[k] = fmt.Sprintf("sampled cold solve of object %d: %s", id, msg)
			}
			if slices.Equal(row, s.prev.Demand[id*n:(id+1)*n]) {
				calls[k] = obj.calls
				return nil
			}
			ws, err := core.NewWarmSolver(alloc, core.WarmConfig{
				MaxSteps: catalogWarmSteps,
				Certify:  func(x []float64, q float64) error { return inner.VerifyKKT(x, q, catalogKKTTol) },
			})
			if err != nil {
				return err
			}
			start := append([]float64(nil), s.prev.X[id*n:(id+1)*n]...)
			r, err = obj.solve("core.solve_warm", func() (core.Result, error) { return ws.Solve(ctx, start, w.core) })
			if err != nil {
				return fmt.Errorf("sampled warm solve of object %d: %w", id, err)
			}
			iters[k] += r.Iterations
			calls[k] = obj.calls
			if msg := verifyAlloc(t, inner, r.X, kktCheckTol); msg != "" {
				problems[k] = fmt.Sprintf("sampled warm solve of object %d: %s", id, msg)
			}
			return nil
		})
	if err != nil {
		return err
	}
	for k := range s.ids {
		s.calls += calls[k]
		s.iters += iters[k]
		res.check(problems[k] == "", "%s", problems[k])
	}
	lo, hi := math.MaxInt, 0
	for _, w := range workers {
		lo, hi = min(lo, w.items), max(hi, w.items)
	}
	s.imbalance = append(s.imbalance, ratio(float64(hi), float64(lo)))
	return nil
}

// checkSample verifies the catalog's allocation of every sampled object
// against the demand it was planned for. A skipped object keeps a plan
// for older demand by design, so the check covers the cold fill (every
// object) and one extra, untimed epoch (the objects it re-planned).
func (s *catalogSampler) checkSample(ctx context.Context, res *result, verifyAll bool) error {
	before := s.c.Snapshot()
	if !verifyAll {
		if _, err := s.c.Drift(ctx); err != nil {
			return err
		}
		if _, err := s.c.ReSolve(ctx); err != nil {
			return err
		}
	}
	after := s.c.Snapshot()
	n := catalogNodes
	for _, id := range s.ids {
		x := after.X[id*n : (id+1)*n]
		if !verifyAll && slices.Equal(x, before.X[id*n:(id+1)*n]) {
			continue
		}
		m, err := s.model(after.Demand[id*n : (id+1)*n])
		if err != nil {
			return err
		}
		msg := verifyAlloc(nil, m, x, kktCheckTol)
		res.check(msg == "", "catalog allocation of object %d: %s", id, msg)
	}
	return nil
}

// report derives the kernel metrics from the sampled solves' spans and
// runs the accounting self-test: per solve, the core's self time plus
// the time inside the objective must equal the solve's wall time.
func (s *catalogSampler) report(res *result) {
	spans := s.cfg.tracer.snapshot()
	kids := children(spans)
	var self, inside, wall float64
	var nSolves int
	for i, sp := range spans {
		if sp.Name != "core.solve_cold" && sp.Name != "core.solve_warm" {
			continue
		}
		nSolves++
		idx := kids[int32(i)]
		cov := covered(sp.Start, sp.End, spans, idx)
		self += float64(sp.dur() - cov)
		for _, k := range idx {
			inside += float64(spans[k].dur())
		}
		wall += float64(sp.dur())
	}
	names := byName(spans)
	res.set("core.self_us_per_solve", self/float64(max(nSolves, 1))/1e3)
	res.set("costmodel.gradient_ns", mean(names["costmodel.gradient"]))
	res.set("costmodel.utility_ns", mean(names["costmodel.utility"]))
	res.set("costmodel.calls_per_step", ratio(float64(s.calls), float64(s.iters)))
	res.set("costmodel.verify_kkt_us", mean(names["costmodel.verify_kkt"])/1e3)
	res.set("sweep.worker_imbalance", mean(s.imbalance))
	residual := ratio(math.Abs(self+inside-wall), wall)
	s.cfg.tracer.note("catalog.solve_accounting_residual", residual)
	res.check(nSolves > 0, "self-test: no sampled solve was traced")
	res.check(residual <= 0.01, "self-test: core self time + objective time = %.0f ns, sampled solve time = %.0f ns (residual %.4f > 0.01)", self+inside, wall, residual)
}

// timingObjective is a core.Objective (with the Curvature extension the
// dynamic stepsize needs) around costmodel.SingleFile that records every
// call as a child span of the solve in progress. One instance serves one
// object's solves on one goroutine.
type timingObjective struct {
	inner  *costmodel.SingleFile
	t      *tracer
	id     int64
	parent int32
	calls  int
}

func (o *timingObjective) solve(name string, fn func() (core.Result, error)) (core.Result, error) {
	sp := span{Name: name, Start: o.t.now(), Parent: -1, ID: o.id, Node: -1}
	o.parent = o.t.add(sp)
	r, err := fn()
	o.t.finish(o.parent, o.t.now())
	return r, err
}

func (o *timingObjective) record(name string, start int64) {
	o.calls++
	o.t.add(span{Name: name, Start: start, End: o.t.now(), Parent: o.parent, ID: o.id, Node: -1})
}

func (o *timingObjective) Dim() int { return o.inner.Dim() }

func (o *timingObjective) Utility(x []float64) (float64, error) {
	start := o.t.now()
	u, err := o.inner.Utility(x)
	o.record("costmodel.utility", start)
	return u, err
}

func (o *timingObjective) Gradient(grad, x []float64) error {
	start := o.t.now()
	err := o.inner.Gradient(grad, x)
	o.record("costmodel.gradient", start)
	return err
}

func (o *timingObjective) SecondDerivative(hess, x []float64) error {
	start := o.t.now()
	err := o.inner.SecondDerivative(hess, x)
	o.record("costmodel.second_derivative", start)
	return err
}
