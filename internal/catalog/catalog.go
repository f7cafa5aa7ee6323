// Package catalog scales the paper's single-file solver from one file to
// a placement service: a catalog of N independent objects, each with its
// own Zipf-skewed demand vector over the cluster, sharded and
// batch-solved over the internal/sweep worker pool. Every object plans
// with section 8.2's second-derivative (Newton) step, guarded by the
// Theorem-2 backtracking of core.WithSecondOrder. Cold fills solve
// every object from the uniform allocation; after demand drifts,
// re-solves take the warm path — each
// object's per-node rate estimates flag drift against the demand its
// current plan assumed, un-drifted objects are skipped entirely, and
// drifted ones are re-solved incrementally from their previous
// allocation (core.WarmSolver), with costmodel.VerifyKKT certifying
// every warm early-exit. This is the ROADMAP's million-object service:
// the headline number is objects/sec, cold vs. warm.
//
// Solving keeps no per-object solver objects either. Every object is
// the paper's single-file problem with the same μ, λ, k and solver
// settings; objects differ only in their access costs C_i, and those are
// a pure function of the object's demand, which is itself a pure
// function of (seed, object id, demand generation). So each shard holds
// only the allocation slab plus per-object generations — the current
// demand generation and the one the plan was solved for — 264 B per
// object at 8 nodes, counting the sensing slab below. Each sweep worker
// owns one solver kit — one costmodel.SingleFile, one second-order
// core.Allocator, one core.WarmSolver certified by that model's
// VerifyKKT, and a demand and an access-cost row. A solve first rebuilds
// the object's access costs from its planned generation into the kit's
// model, so it runs on exactly the inputs and arithmetic a per-object
// model would.
//
// Sensing keeps no estimator objects. Each shard holds one
// estimate.Slab: the decayed event mass, last event time and planned
// baseline of every (object, node) pair, 24 B each. Every pair shares
// the half-life and each Sense/Drift window, and a pair's synthetic
// events depend only on its event count m, so one estimate.EvenWindow
// table per call holds the decay multipliers for every m up to ⌈λ·w⌉+1,
// and one estimate.Reading per call holds the warm-up correction.
// Sensing a pair is then m multiply-adds and the drift check calls no
// exp, with results bit-identical to per-event estimate.RateEstimator
// sensing.
//
// Everything is deterministic: demand, drift, and synthetic sensing are
// hash-derived from Config.Seed, solves are exact functions of their
// inputs, and batches use the sweep engine's order-preserving claiming —
// so catalog state and metrics snapshots are byte-identical across
// worker counts and chunk sizes.
package catalog

import (
	"context"
	"errors"
	"fmt"
	"math"

	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/estimate"
	"filealloc/internal/metrics"
	"filealloc/internal/records"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
)

// ErrCatalog reports invalid catalog configuration or misuse.
var ErrCatalog = errors.New("catalog: invalid configuration")

// driftThreshold is the relative rate deviation above which an object's
// sensed node rate flags it for re-solve (see estimate.DriftExceeds).
const driftThreshold = 0.2

// Config sizes and parameterizes a catalog. The zero value of every
// field except Objects picks a sensible default.
type Config struct {
	// Objects is the catalog size (required).
	Objects int
	// Nodes is the cluster size (default 8). The cluster is a uniform
	// ring; per-object demand decides which nodes are cheap.
	Nodes int
	// ShardSize is the number of objects per shard (default 256).
	// Shards are the sweep's work items: contiguous id ranges owned by
	// one worker at a time.
	ShardSize int
	// Skew is the Zipf exponent shaping each object's demand over the
	// nodes (default 1).
	Skew float64
	// Mu is the per-node service rate μ (default 1.5); must exceed
	// Lambda so every feasible allocation has stable queues.
	Mu float64
	// K is the delay-vs-communication scaling factor (default 1).
	K float64
	// Lambda is each object's total access rate λ (default 1).
	Lambda float64
	// DynamicAlpha was the Theorem-2 dynamic stepsize safety factor.
	//
	// Deprecated: ignored; the catalog plans with §8.2 Newton steps.
	DynamicAlpha float64
	// Epsilon is the marginal-utility spread termination threshold
	// (default 1e-6).
	Epsilon float64
	// KKTTol is the relative tolerance of the VerifyKKT certificate on
	// warm early-exits (default 1e-5).
	KKTTol float64
	// DriftFraction is the fraction of objects whose demand is
	// re-drawn each Drift epoch. Zero means demand never moves (there
	// is no default — a drift-free catalog is meaningful, it is the
	// warm path's best case).
	DriftFraction float64
	// WarmSteps is the incremental-step budget before a re-solve falls
	// back to a cold solve (default 64). Newton steps re-solve a drifted
	// object in a handful of steps, so the budget is a safety net rather
	// than a tuning knob — and a fallback continues from the current
	// iterate, so an exhausted budget wastes little.
	WarmSteps int
	// HalfLife is the rate estimators' exponential-window half-life,
	// in sensing-time units (default 16; must be finite).
	HalfLife float64
	// EpochWindow is the sensing window advanced per Sense/Drift call
	// (default 32 — two half-lives, so estimates cover ~75% of the
	// distance to a moved rate within one epoch; must be finite).
	EpochWindow float64
	// Seed derives demand shapes, drift selection, and re-drawn demand
	// (default 1).
	Seed uint64
}

func (cfg *Config) applyDefaults() {
	if cfg.Nodes == 0 {
		cfg.Nodes = 8
	}
	if cfg.ShardSize == 0 {
		cfg.ShardSize = 256
	}
	if cfg.Skew == 0 {
		cfg.Skew = 1
	}
	if cfg.Mu == 0 {
		cfg.Mu = 1.5
	}
	if cfg.K == 0 {
		cfg.K = 1
	}
	if cfg.Lambda == 0 {
		cfg.Lambda = 1
	}
	if cfg.Epsilon == 0 {
		cfg.Epsilon = 1e-6
	}
	if cfg.KKTTol == 0 {
		cfg.KKTTol = 1e-5
	}
	if cfg.WarmSteps == 0 {
		cfg.WarmSteps = 64
	}
	if cfg.HalfLife == 0 {
		cfg.HalfLife = 16
	}
	if cfg.EpochWindow == 0 {
		cfg.EpochWindow = 32
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1
	}
}

func (cfg Config) validate() error {
	switch {
	case cfg.Objects < 1:
		return fmt.Errorf("%w: %d objects", ErrCatalog, cfg.Objects)
	case cfg.Nodes < 2:
		return fmt.Errorf("%w: %d nodes", ErrCatalog, cfg.Nodes)
	case cfg.ShardSize < 1:
		return fmt.Errorf("%w: shard size %d", ErrCatalog, cfg.ShardSize)
	case cfg.Mu <= cfg.Lambda:
		return fmt.Errorf("%w: μ = %v must exceed λ = %v", ErrCatalog, cfg.Mu, cfg.Lambda)
	case cfg.Lambda <= 0 || math.IsNaN(cfg.Lambda):
		return fmt.Errorf("%w: λ = %v", ErrCatalog, cfg.Lambda)
	case cfg.Skew < 0 || math.IsNaN(cfg.Skew):
		return fmt.Errorf("%w: skew %v", ErrCatalog, cfg.Skew)
	case cfg.DriftFraction < 0 || cfg.DriftFraction > 1 || math.IsNaN(cfg.DriftFraction):
		return fmt.Errorf("%w: drift fraction %v", ErrCatalog, cfg.DriftFraction)
	case cfg.HalfLife <= 0 || math.IsNaN(cfg.HalfLife) || math.IsInf(cfg.HalfLife, 0):
		return fmt.Errorf("%w: half-life %v", ErrCatalog, cfg.HalfLife)
	case cfg.EpochWindow <= 0 || math.IsNaN(cfg.EpochWindow) || math.IsInf(cfg.EpochWindow, 0):
		return fmt.Errorf("%w: epoch window %v", ErrCatalog, cfg.EpochWindow)
	}
	return nil
}

// Stats counts the work one pass (or the catalog's lifetime) performed.
// All fields are object counts except Steps, which totals solver
// iterations.
type Stats struct {
	// Cold counts full solves from the uniform initial allocation.
	Cold int64
	// Warm counts re-solves that converged on the incremental path.
	Warm int64
	// Fallback counts re-solves whose warm budget ran out (or whose
	// certificate was vetoed) and escalated to a cold solve.
	Fallback int64
	// Skipped counts objects whose sensed rates flagged no drift —
	// their allocation was left untouched.
	Skipped int64
	// Drifted counts objects whose sensed rates flagged them for
	// re-solve.
	Drifted int64
	// DriftApplied counts demand re-draws applied by Drift.
	DriftApplied int64
	// Steps totals solver iterations across all solves.
	Steps int64
}

func (s *Stats) add(o Stats) {
	s.Cold += o.Cold
	s.Warm += o.Warm
	s.Fallback += o.Fallback
	s.Skipped += o.Skipped
	s.Drifted += o.Drifted
	s.DriftApplied += o.DriftApplied
	s.Steps += o.Steps
}

// shard is one contiguous range of object ids with structure-of-arrays
// state. A shard is only ever touched by the single sweep worker that
// claimed it, so it needs no locking. Demand and access costs are not
// stored: fillDemand derives an object's demand from its id and a
// generation, and accessCosts its access costs from that demand.
type shard struct {
	lo, hi  int           // object ids [lo, hi)
	x       []float64     // current allocation, (hi-lo)×nodes row-major
	gen     []int32       // true demand generation, bumped per applied drift
	planGen []int32       // demand generation each object's plan was solved for
	rates   estimate.Slab // sensed rate estimators, same layout as x
}

func (sh *shard) count() int { return sh.hi - sh.lo }

// meters is the catalog's metrics surface (nil when none attached). All
// series are integer-valued and event-counted, so snapshots stay
// byte-identical across worker scheduling.
type meters struct {
	cold, warm, fallback *metrics.Counter
	skipped, drifted     *metrics.Counter
	driftApplied, epochs *metrics.Counter
	steps                *metrics.Counter
	resolveIters         *metrics.Histogram
}

// Catalog is the solved object catalog. Construction (New) only lays out
// state; SolveCold fills every allocation, Sense establishes the demand
// baselines, and Drift/ReSolve advance epochs. Methods are not safe for
// concurrent use with each other; each method parallelizes internally
// over the sweep pool configured on its context.
type Catalog struct {
	cfg    Config
	pair   [][]float64 // round-trip node-pair costs of the uniform ring
	zipf   *records.Popularity
	shards []*shard
	total  Stats
	epoch  int
	now    float64
	sensed bool
	m      *meters
}

// New lays out a catalog: per shard, the allocation and rate-estimator
// slabs plus per-object generations, all zero. It holds no per-object
// solver: each sweep worker builds its own solver kit when a pass
// starts. New builds one kit itself, so settings the solvers reject
// fail here. It only allocates: no demand is derived and no solves
// happen yet.
func New(cfg Config) (*Catalog, error) {
	cfg.applyDefaults()
	if err := cfg.validate(); err != nil {
		return nil, err
	}
	ring, err := topology.Ring(cfg.Nodes, 1)
	if err != nil {
		return nil, fmt.Errorf("catalog: building ring: %w", err)
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		return nil, fmt.Errorf("catalog: pair costs: %w", err)
	}
	zipf, err := records.Zipf(cfg.Nodes, cfg.Skew)
	if err != nil {
		return nil, fmt.Errorf("catalog: demand shape: %w", err)
	}
	c := &Catalog{cfg: cfg, pair: pair, zipf: zipf}
	if _, err := c.newKit(); err != nil {
		return nil, err
	}

	nodes := cfg.Nodes
	c.shards = make([]*shard, 0, (cfg.Objects+cfg.ShardSize-1)/cfg.ShardSize)
	for lo := 0; lo < cfg.Objects; lo += cfg.ShardSize {
		hi := lo + cfg.ShardSize
		if hi > cfg.Objects {
			hi = cfg.Objects
		}
		n := hi - lo
		c.shards = append(c.shards, &shard{
			lo:      lo,
			hi:      hi,
			x:       make([]float64, n*nodes),
			gen:     make([]int32, n),
			planGen: make([]int32, n),
			rates:   estimate.NewSlab(n * nodes),
		})
	}
	return c, nil
}

// Objects returns the catalog size.
func (c *Catalog) Objects() int { return c.cfg.Objects }

// Nodes returns the cluster size.
func (c *Catalog) Nodes() int { return c.cfg.Nodes }

// NumShards returns the number of shards (the sweep's work items).
func (c *Catalog) NumShards() int { return len(c.shards) }

// Epoch returns the number of completed drift epochs.
func (c *Catalog) Epoch() int { return c.epoch }

// Stats returns the catalog's cumulative work counters.
func (c *Catalog) Stats() Stats { return c.total }

// AttachMetrics registers the catalog's counters on reg; subsequent
// passes record into them. Sweep-level queue-depth metrics are attached
// separately via sweep.WithMetrics on the context.
func (c *Catalog) AttachMetrics(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	m := &meters{
		cold:         reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "cold")),
		warm:         reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "warm")),
		fallback:     reg.Counter("fap_catalog_solves_total", "Catalog solves by kind.", metrics.L("kind", "fallback")),
		skipped:      reg.Counter("fap_catalog_objects_skipped_total", "Objects left untouched by a re-solve pass (no drift flagged)."),
		drifted:      reg.Counter("fap_catalog_objects_drifted_total", "Objects flagged by their tracker for re-solve."),
		driftApplied: reg.Counter("fap_catalog_drift_applied_total", "Demand re-draws applied by drift epochs."),
		epochs:       reg.Counter("fap_catalog_epochs_total", "Completed drift epochs."),
		steps:        reg.Counter("fap_catalog_solve_steps_total", "Total solver iterations across all solves."),
		resolveIters: reg.Histogram("fap_catalog_resolve_iterations",
			"Solver iterations per re-solved object (warm and fallback).",
			[]int64{1, 2, 4, 8, 16, 32, 64, 128}),
	}
	c.m = m
}

// record merges one pass's stats into the cumulative totals and the
// attached metrics.
func (c *Catalog) record(st Stats) {
	c.total.add(st)
	if c.m == nil {
		return
	}
	c.m.cold.Add(st.Cold)
	c.m.warm.Add(st.Warm)
	c.m.fallback.Add(st.Fallback)
	c.m.skipped.Add(st.Skipped)
	c.m.drifted.Add(st.Drifted)
	c.m.driftApplied.Add(st.DriftApplied)
	c.m.steps.Add(st.Steps)
}

// solveScratch is one sweep worker's solver kit: a model, the cold
// allocator and warm solver over it, and the buffers they reuse, so
// steady-state solves allocate nothing per object. Before each solve the
// worker derives the object's planned demand and access costs into its
// rows and loads the access costs into the model.
type solveScratch struct {
	model  *costmodel.SingleFile
	cold   *core.Allocator
	warm   *core.WarmSolver
	core   *core.Scratch
	init   []float64 // the uniform allocation cold solves start from
	demand []float64 // the object's demand at its planned generation
	access []float64 // the access costs derived from demand
}

// newKit builds one solver kit from the catalog's settings. Its model's
// access costs are placeholders until a solve loads an object's row.
func (c *Catalog) newKit() (*solveScratch, error) {
	cfg := c.cfg
	model, err := costmodel.NewSingleFile(make([]float64, cfg.Nodes), []float64{cfg.Mu}, cfg.Lambda, cfg.K)
	if err != nil {
		return nil, fmt.Errorf("catalog: cost model: %w", err)
	}
	cold, err := core.NewAllocator(model,
		core.WithSecondOrder(),
		core.WithEpsilon(cfg.Epsilon),
		core.WithKKTCheck())
	if err != nil {
		return nil, fmt.Errorf("catalog: allocator: %w", err)
	}
	warm, err := core.NewWarmSolver(cold, core.WarmConfig{
		MaxSteps: cfg.WarmSteps,
		Certify: func(x []float64, q float64) error {
			return model.VerifyKKT(x, q, cfg.KKTTol)
		},
	})
	if err != nil {
		return nil, fmt.Errorf("catalog: warm solver: %w", err)
	}
	init := make([]float64, cfg.Nodes)
	for j := range init {
		init[j] = 1 / float64(cfg.Nodes)
	}
	return &solveScratch{
		model:  model,
		cold:   cold,
		warm:   warm,
		core:   core.NewScratch(),
		init:   init,
		demand: make([]float64, cfg.Nodes),
		access: make([]float64, cfg.Nodes),
	}, nil
}

// load derives object id's demand at generation gen and its access
// costs, and loads them into the kit's model.
//
//fap:zeroalloc
func (c *Catalog) load(s *solveScratch, id int, gen int32) error {
	c.fillDemand(id, gen, s.demand)
	c.accessCosts(s.demand, s.access)
	return s.model.SetAccessCosts(s.access)
}

// newDemandRow is the scratch constructor of the sensing passes: one
// Nodes-long row each worker derives demand into.
func (c *Catalog) newDemandRow() []float64 { return make([]float64, c.cfg.Nodes) }

// newSolveScratch is newKit as the scratch constructor of
// sweep.RunWithScratch, which cannot fail. New has built a kit from the
// same settings, so an error here is a bug, not bad input.
func (c *Catalog) newSolveScratch() *solveScratch {
	s, err := c.newKit()
	if err != nil {
		panic(fmt.Sprintf("catalog: solver kit failed after New built one: %v", err))
	}
	return s
}

// canceled reports, without locking, whether done is closed. Workers
// fetch a context's Done channel once per shard and poll it per object:
// ctx.Err() would take the mutex of the context every worker shares.
func canceled(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// SolveCold solves every object from the uniform initial allocation —
// the catalog fill. Each object is solved for the demand generation its
// plan last assumed (generation 0 from New, or the generation at the
// ReSolve that last re-planned it), not for demand that drifted since.
// It can be called again at any time to re-solve the whole catalog from
// scratch (the results are idempotent for unchanged plans).
func (c *Catalog) SolveCold(ctx context.Context) (Stats, error) {
	nodes := c.cfg.Nodes
	per := make([]Stats, len(c.shards))
	err := sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newSolveScratch,
		func(ctx context.Context, si int, s *solveScratch) error {
			sh := c.shards[si]
			st := &per[si]
			done := ctx.Done()
			for o := 0; o < sh.count(); o++ {
				if canceled(done) {
					return ctx.Err()
				}
				if err := c.load(s, sh.lo+o, sh.planGen[o]); err != nil {
					return fmt.Errorf("catalog: loading object %d: %w", sh.lo+o, err)
				}
				res, err := s.cold.Solve(ctx, s.init, s.core)
				if err != nil {
					return fmt.Errorf("catalog: cold solve of object %d: %w", sh.lo+o, err)
				}
				copy(sh.x[o*nodes:(o+1)*nodes], res.X)
				st.Cold++
				st.Steps += int64(res.Iterations)
			}
			return nil
		})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for i := range per {
		st.add(per[i])
	}
	c.record(st)
	return st, nil
}

// Sense advances the sensing clock one epoch window, feeding every
// object's estimators synthetic access events drawn from its current
// true demand, and marks the resulting estimates as each object's
// planning baseline. Call it once after SolveCold (so the baselines
// describe the demand the allocations were planned for) and rely on
// Drift for later windows.
func (c *Catalog) Sense(ctx context.Context) error {
	win, err := c.window()
	if err != nil {
		return err
	}
	end := win.End()
	err = sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newDemandRow,
		func(ctx context.Context, si int, demand []float64) error {
			sh := c.shards[si]
			for o := 0; o < sh.count(); o++ {
				c.fillDemand(sh.lo+o, sh.gen[o], demand)
				c.senseRow(sh, o, demand, win)
			}
			sh.rates.MarkPlanned(0, sh.count()*c.cfg.Nodes, end)
			return nil
		})
	if err != nil {
		return err
	}
	c.now += c.cfg.EpochWindow
	c.sensed = true
	return nil
}

// Drift advances one demand epoch: a hash-selected DriftFraction of
// objects get their demand re-drawn (a rotated, re-weighted Zipf shape —
// a large move), then every object's estimators sense one window of
// events from the now-current demand. It returns the number of objects
// whose demand changed. Baselines are not re-marked here — that is
// ReSolve's job, and only for the objects it actually re-plans.
func (c *Catalog) Drift(ctx context.Context) (int, error) {
	if !c.sensed {
		return 0, fmt.Errorf("%w: Drift before Sense", ErrCatalog)
	}
	win, err := c.window()
	if err != nil {
		return 0, err
	}
	c.epoch++
	epoch := c.epoch
	applied := make([]int, len(c.shards))
	err = sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newDemandRow,
		func(ctx context.Context, si int, demand []float64) error {
			sh := c.shards[si]
			for o := 0; o < sh.count(); o++ {
				id := sh.lo + o
				if c.drifts(id, epoch) {
					sh.gen[o]++
					applied[si]++
				}
				c.fillDemand(id, sh.gen[o], demand)
				c.senseRow(sh, o, demand, win)
			}
			return nil
		})
	if err != nil {
		return 0, err
	}
	c.now += c.cfg.EpochWindow
	total := 0
	for _, n := range applied {
		total += n
	}
	c.record(Stats{DriftApplied: int64(total)})
	if c.m != nil {
		c.m.epochs.Inc()
	}
	return total, nil
}

// ReSolve is the warm pass: every object whose rate estimates drifted
// above the threshold from its baselines is re-planned for its current
// demand generation — its access costs are derived from that demand and
// loaded into the model — and re-solved through the worker's WarmSolver
// seeded from the previous allocation; everything else is skipped
// untouched. Flagged objects re-mark their baselines, so a stable demand
// stops being re-solved after one pass.
func (c *Catalog) ReSolve(ctx context.Context) (Stats, error) {
	if !c.sensed {
		return Stats{}, fmt.Errorf("%w: ReSolve before Sense", ErrCatalog)
	}
	at, err := estimate.NewReading(c.cfg.HalfLife, c.now)
	if err != nil {
		return Stats{}, fmt.Errorf("catalog: drift check: %w", err)
	}
	nodes := c.cfg.Nodes
	per := make([]Stats, len(c.shards))
	err = sweep.RunWithScratch(ctx, len(c.shards), sweep.WorkersFrom(ctx), c.newSolveScratch,
		func(ctx context.Context, si int, s *solveScratch) error {
			sh := c.shards[si]
			st := &per[si]
			done := ctx.Done()
			for o := 0; o < sh.count(); o++ {
				lo, hi := o*nodes, (o+1)*nodes
				if !sh.rates.Drifted(lo, hi, at, driftThreshold) {
					st.Skipped++
					continue
				}
				if canceled(done) {
					return ctx.Err()
				}
				st.Drifted++
				sh.planGen[o] = sh.gen[o]
				if err := c.load(s, sh.lo+o, sh.planGen[o]); err != nil {
					return fmt.Errorf("catalog: updating object %d: %w", sh.lo+o, err)
				}
				xrow := sh.x[lo:hi]
				res, fellBack, err := s.warm.SolveWarm(ctx, xrow, s.core)
				if err != nil {
					return fmt.Errorf("catalog: warm solve of object %d: %w", sh.lo+o, err)
				}
				copy(xrow, res.X)
				if fellBack {
					st.Fallback++
				} else {
					st.Warm++
				}
				st.Steps += int64(res.Iterations)
				sh.rates.MarkPlanned(lo, hi, at)
				if c.m != nil {
					c.m.resolveIters.Observe(int64(res.Iterations))
				}
			}
			return nil
		})
	if err != nil {
		return Stats{}, err
	}
	var st Stats
	for i := range per {
		st.add(per[i])
	}
	c.record(st)
	return st, nil
}

// window builds the sensing table for the next window, (now,
// now+EpochWindow]. A demand rate never exceeds λ by more than rounding,
// so no (object, node) pair sees more than ⌈λ·w⌉+1 events, and the
// table need not cover more.
func (c *Catalog) window() (*estimate.EvenWindow, error) {
	w := c.cfg.EpochWindow
	win, err := estimate.NewEvenWindow(c.cfg.HalfLife, c.now, w, int(math.Ceil(c.cfg.Lambda*w))+1)
	if err != nil {
		return nil, fmt.Errorf("catalog: sensing window: %w", err)
	}
	return win, nil
}

// senseRow feeds object o's estimators round(rate·w) evenly spaced
// events per node over the window for its demand row, the last landing
// exactly on the window's end. An unchanged demand therefore produces an
// identical event pattern every epoch, and the estimator's warm-up
// correction cancels the window-to-window accumulation exactly —
// un-drifted estimates are epoch-constant, which is what makes skip
// decisions reliable.
//
//fap:zeroalloc
func (c *Catalog) senseRow(sh *shard, o int, demand []float64, win *estimate.EvenWindow) {
	sh.rates.SenseRow(o*c.cfg.Nodes, demand, win)
}

// fillDemand writes object id's demand vector at the given drift
// generation: a Zipf shape rotated by id (so different objects favor
// different nodes) with a gen-keyed hash re-weighting of each node in
// [0.5, 1.5]×, normalized to total rate λ. An applied drift (gen bump)
// re-draws the weights — node rates move by up to 3× relative to each
// other, enough to flip placement decisions, while the shape's backbone
// stays put so the drifted problem remains in warm-start range.
//
//fap:zeroalloc
func (c *Catalog) fillDemand(id int, gen int32, out []float64) {
	nodes := len(out)
	h := mix64(c.cfg.Seed ^ mix64(uint64(id)+1) ^ mix64(uint64(gen)<<20))
	var sum float64
	for j, k := 0, id%nodes; j < nodes; j++ {
		w := c.zipf.Prob(k) * (0.5 + unitFloat(mix64(h^uint64(j))))
		out[j] = w
		sum += w
		if k++; k == nodes {
			k = 0
		}
	}
	scale := c.cfg.Lambda / sum
	for j := range out {
		out[j] *= scale
	}
}

// drifts reports whether object id's demand is re-drawn at the given
// epoch (a seeded hash decision, independent per (id, epoch)).
//
//fap:zeroalloc
func (c *Catalog) drifts(id, epoch int) bool {
	const driftSalt = 0xD96EB1A810CAAF5B
	u := unitFloat(mix64(mix64(c.cfg.Seed^driftSalt^uint64(id)+1) ^ uint64(epoch)))
	return u < c.cfg.DriftFraction
}

// accessCosts derives the traffic-weighted access costs C_i = Σ_j
// (d_j/Σd)·pair[j][i] from a demand vector (topology.AccessCosts without
// the per-call allocation).
//
//fap:zeroalloc
func (c *Catalog) accessCosts(demand, out []float64) {
	var total float64
	for _, dj := range demand {
		total += dj
	}
	for i := range out {
		var ci float64
		for j, dj := range demand {
			ci += dj * c.pair[j][i]
		}
		out[i] = ci / total
	}
}

// mix64 is SplitMix64's finalizer: a deterministic, well-distributed
// 64-bit hash used for demand shapes and drift selection (no global
// rand, no per-run state).
//
//fap:zeroalloc
func mix64(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x ^= x >> 30
	x *= 0xBF58476D1CE4E5B9
	x ^= x >> 27
	x *= 0x94D049BB133111EB
	x ^= x >> 31
	return x
}

// unitFloat maps a hash to [0, 1).
//
//fap:zeroalloc
func unitFloat(x uint64) float64 { return float64(x>>11) / (1 << 53) }
