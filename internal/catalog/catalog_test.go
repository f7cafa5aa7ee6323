package catalog

import (
	"context"
	"errors"
	"math"
	"reflect"
	"runtime"
	"runtime/debug"
	"testing"

	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
)

// testConfig is a small catalog exercising multiple shards, including a
// ragged final one.
func testConfig() Config {
	return Config{
		Objects:       80,
		Nodes:         6,
		ShardSize:     16,
		DriftFraction: 0.3,
		Seed:          3,
	}
}

func TestCatalogValidation(t *testing.T) {
	bad := []Config{
		{},                                    // no objects
		{Objects: -1},                         // negative objects
		{Objects: 4, Nodes: 1},                // degenerate cluster
		{Objects: 4, ShardSize: -1},           // bad shard size
		{Objects: 4, Mu: 1, Lambda: 2},        // unstable full placement
		{Objects: 4, DriftFraction: 1.5},      // fraction outside [0, 1]
		{Objects: 4, DriftFraction: -0.1},     // fraction outside [0, 1]
		{Objects: 4, Skew: math.NaN()},        // NaN skew
		{Objects: 4, EpochWindow: math.NaN()}, // NaN window
		// Sensing settings the rate estimators cannot use are
		// configuration errors, not wrapped estimator errors from deep
		// inside New, nor infinite windows with undefined event counts.
		{Objects: 4, HalfLife: -1},              // negative half-life
		{Objects: 4, HalfLife: math.NaN()},      // NaN half-life
		{Objects: 4, HalfLife: math.Inf(1)},     // infinite half-life
		{Objects: 4, HalfLife: math.Inf(-1)},    // negative infinite half-life
		{Objects: 4, EpochWindow: math.Inf(1)},  // infinite window
		{Objects: 4, EpochWindow: math.Inf(-1)}, // negative infinite window
		{Objects: 4, EpochWindow: -2},           // negative window
	}
	for i, cfg := range bad {
		if _, err := New(cfg); !errors.Is(err, ErrCatalog) {
			t.Errorf("config %d (%+v): err = %v, want ErrCatalog", i, cfg, err)
		}
	}

	// Settings only the solvers check still fail in New, which builds
	// one solver kit before laying anything out.
	for _, cfg := range []Config{{Objects: 4, K: -1}, {Objects: 4, Epsilon: -1}, {Objects: 4, WarmSteps: -1}} {
		if _, err := New(cfg); err == nil {
			t.Errorf("config %+v: New succeeded, want a solver-settings error", cfg)
		}
	}

	c, err := New(Config{Objects: 10, ShardSize: 4})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	if c.NumShards() != 3 {
		t.Errorf("10 objects in shards of 4: NumShards = %d, want 3", c.NumShards())
	}
	if c.Objects() != 10 || c.Nodes() != 8 {
		t.Errorf("accessors: %d objects × %d nodes, want 10 × 8 (default)", c.Objects(), c.Nodes())
	}
}

// TestShardSensingAllocatesNothing pins the //fap:zeroalloc contract of
// one shard's sensing and drift-check pass at run time: the per-call
// window table and reading are built once, and the per-object work
// allocates nothing.
func TestShardSensingAllocatesNothing(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	win, err := c.window()
	if err != nil {
		t.Fatalf("window: %v", err)
	}
	end := win.End()
	sh, nodes := c.shards[0], c.cfg.Nodes
	demand := c.newDemandRow()
	allocs := testing.AllocsPerRun(20, func() {
		for o := 0; o < sh.count(); o++ {
			c.fillDemand(sh.lo+o, sh.gen[o], demand)
			c.senseRow(sh, o, demand, win)
			if sh.rates.Drifted(o*nodes, (o+1)*nodes, end, driftThreshold) {
				sh.rates.MarkPlanned(o*nodes, (o+1)*nodes, end)
			}
		}
	})
	if allocs != 0 {
		t.Errorf("one shard's sense + drift check: %v allocs per run, want 0", allocs)
	}
}

// TestNewAllocatesPerShard pins the layout's cost to shards, not
// objects: a catalog holds no per-object solver, so New allocates as
// often for one 4096-object shard as for one 1-object shard, and a
// SolveCold plus a Drift/ReSolve pass allocates no more at 4096 objects
// than at 256. The passes run on the serial sweep path, which builds
// exactly one solver kit; on the parallel path the kit count depends on
// how many workers happen to claim a chunk.
func TestNewAllocatesPerShard(t *testing.T) {
	// Collections are held off while counting: under the race detector a
	// GC cycle counts as an allocation, and only the large layouts run
	// enough garbage through to start one.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	newAllocs := func(objects int) float64 {
		return testing.AllocsPerRun(10, func() {
			if _, err := New(Config{Objects: objects, ShardSize: objects}); err != nil {
				t.Fatal(err)
			}
		})
	}
	if one, many := newAllocs(1), newAllocs(4096); one != many {
		t.Errorf("New: %v allocs for a 1-object shard, %v for a 4096-object shard; want equal", one, many)
	}

	ctx := sweep.WithWorkers(context.Background(), 1)
	passAllocs := func(objects int) float64 {
		c, err := New(Config{Objects: objects, DriftFraction: 0.3, Seed: 3})
		if err != nil {
			t.Fatalf("New: %v", err)
		}
		if _, err := c.SolveCold(ctx); err != nil {
			t.Fatalf("SolveCold: %v", err)
		}
		if err := c.Sense(ctx); err != nil {
			t.Fatalf("Sense: %v", err)
		}
		return testing.AllocsPerRun(3, func() {
			if _, err := c.SolveCold(ctx); err != nil {
				t.Fatal(err)
			}
			if _, err := c.Drift(ctx); err != nil {
				t.Fatal(err)
			}
			st, err := c.ReSolve(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if st.Drifted == 0 {
				t.Fatalf("%d objects: re-solve pass re-solved nothing: %+v", objects, st)
			}
		})
	}
	if few, many := passAllocs(256), passAllocs(4096); many > few {
		t.Errorf("SolveCold + Drift + ReSolve: %v allocs at 256 objects, %v at 4096; want no more", few, many)
	}
}

// TestCatalogLayoutBytes pins what a catalog stores per object: New
// allocates the allocation row, the three sensing floats per node and
// the two demand generations, and nothing else that grows with the
// catalog — demand and access costs are derived when needed, never
// stored. Two layouts that differ only in their object count are
// compared, which cancels New's fixed cost (ring, Zipf shape, one solver
// kit); each extra shard may add a small header on top of its rows.
func TestCatalogLayoutBytes(t *testing.T) {
	// As in TestNewAllocatesPerShard, collections are held off so only
	// New's own allocations move TotalAlloc.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	const (
		nodes      = 8
		shardSize  = 256
		shardSlack = 512 // bytes per shard beyond its rows
		perObject  = nodes*8 + 3*nodes*8 + 2*4
		small      = 16 * shardSize
		large      = 64 * shardSize
	)
	newBytes := func(objects int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		if _, err := New(Config{Objects: objects, Nodes: nodes, ShardSize: shardSize}); err != nil {
			t.Fatalf("New(%d objects): %v", objects, err)
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	grown := newBytes(large) - newBytes(small)
	extra := uint64(large - small)
	t.Logf("New: %.1f B per object", float64(grown)/float64(extra))
	if budget := extra*perObject + extra/shardSize*shardSlack; grown > budget {
		t.Errorf("New: %d more objects allocate %d more bytes (%.1f B/object), want at most %d (%d B/object plus %d B/shard)",
			extra, grown, float64(grown)/float64(extra), budget, perObject, shardSlack)
	}
}

func TestCatalogUsageOrder(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := c.Drift(ctx); !errors.Is(err, ErrCatalog) {
		t.Errorf("Drift before Sense: err = %v, want ErrCatalog", err)
	}
	if _, err := c.ReSolve(ctx); !errors.Is(err, ErrCatalog) {
		t.Errorf("ReSolve before Sense: err = %v, want ErrCatalog", err)
	}
}

// checkFeasible asserts every object's allocation is a valid point of
// the feasible region: entries in [0, 1] summing to 1.
func checkFeasible(t *testing.T, s Snapshot) {
	t.Helper()
	for id := 0; id < s.Objects; id++ {
		row := s.X[id*s.Nodes : (id+1)*s.Nodes]
		sum := 0.0
		for j, xi := range row {
			if xi < 0 || xi > 1 {
				t.Fatalf("object %d node %d: share %v outside [0, 1]", id, j, xi)
			}
			sum += xi
		}
		if math.Abs(sum-1) > 1e-9 {
			t.Fatalf("object %d: shares sum to %v, want 1", id, sum)
		}
	}
}

func TestCatalogLifecycle(t *testing.T) {
	c, err := New(testConfig())
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	reg := metrics.New()
	c.AttachMetrics(reg)
	ctx := context.Background()

	cold, err := c.SolveCold(ctx)
	if err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if cold.Cold != 80 || cold.Warm != 0 || cold.Skipped != 0 {
		t.Errorf("cold fill stats = %+v, want 80 cold solves", cold)
	}
	if cold.Steps == 0 {
		t.Errorf("cold fill reported zero solver iterations")
	}
	checkFeasible(t, c.Snapshot())

	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}

	// No demand has moved yet: a re-solve pass must touch nothing.
	before := c.Snapshot()
	idle, err := c.ReSolve(ctx)
	if err != nil {
		t.Fatalf("ReSolve: %v", err)
	}
	if idle.Skipped != 80 || idle.Drifted != 0 || idle.Warm != 0 || idle.Fallback != 0 {
		t.Errorf("idle re-solve stats = %+v, want all 80 skipped", idle)
	}
	if !reflect.DeepEqual(before.X, c.Snapshot().X) {
		t.Errorf("idle re-solve modified allocations")
	}

	applied, err := c.Drift(ctx)
	if err != nil {
		t.Fatalf("Drift: %v", err)
	}
	if applied == 0 {
		t.Fatalf("drift fraction 0.3 over 80 objects applied no drift")
	}
	if c.Epoch() != 1 {
		t.Errorf("Epoch = %d, want 1", c.Epoch())
	}

	warm, err := c.ReSolve(ctx)
	if err != nil {
		t.Fatalf("ReSolve: %v", err)
	}
	if warm.Skipped+warm.Drifted != 80 {
		t.Errorf("re-solve covered %d objects, want 80 (%+v)", warm.Skipped+warm.Drifted, warm)
	}
	if warm.Warm+warm.Fallback != warm.Drifted {
		t.Errorf("warm %d + fallback %d ≠ drifted %d", warm.Warm, warm.Fallback, warm.Drifted)
	}
	// Only objects whose demand actually moved can be flagged (un-drifted
	// estimates are epoch-constant by construction), and the re-draws are
	// large, so nearly all moved objects should be flagged.
	if warm.Drifted > int64(applied) {
		t.Errorf("%d objects flagged, only %d drifted", warm.Drifted, applied)
	}
	if warm.Drifted < int64(applied)/2 {
		t.Errorf("only %d of %d drifted objects flagged", warm.Drifted, applied)
	}
	if warm.Warm == 0 {
		t.Errorf("no re-solve converged on the warm path: %+v", warm)
	}
	checkFeasible(t, c.Snapshot())

	// Cumulative stats and metrics agree.
	total := c.Stats()
	if total.Cold != cold.Cold || total.DriftApplied != int64(applied) {
		t.Errorf("cumulative stats = %+v", total)
	}
	snap := reg.Snapshot()
	counters := map[string]int64{}
	for _, cp := range snap.Counters {
		key := cp.Name
		for _, l := range cp.Labels {
			key += "|" + l.Key + "=" + l.Value
		}
		counters[key] = cp.Value
	}
	for key, want := range map[string]int64{
		"fap_catalog_solves_total|kind=cold":     total.Cold,
		"fap_catalog_solves_total|kind=warm":     total.Warm,
		"fap_catalog_solves_total|kind=fallback": total.Fallback,
		"fap_catalog_objects_skipped_total":      total.Skipped,
		"fap_catalog_objects_drifted_total":      total.Drifted,
		"fap_catalog_drift_applied_total":        total.DriftApplied,
		"fap_catalog_solve_steps_total":          total.Steps,
		"fap_catalog_epochs_total":               1,
	} {
		if counters[key] != want {
			t.Errorf("counter %s = %d, want %d", key, counters[key], want)
		}
	}
}

// TestCatalogZeroDriftSkipsEverything is the regression pinning the skip
// path: with demand frozen, every re-solve pass must skip every object
// and leave allocations bitwise untouched, epoch after epoch.
func TestCatalogZeroDriftSkipsEverything(t *testing.T) {
	cfg := testConfig()
	cfg.DriftFraction = 0
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := c.SolveCold(ctx); err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}
	baseline := c.Snapshot()
	for epoch := 1; epoch <= 3; epoch++ {
		applied, err := c.Drift(ctx)
		if err != nil {
			t.Fatalf("Drift %d: %v", epoch, err)
		}
		if applied != 0 {
			t.Fatalf("epoch %d: drift fraction 0 applied %d re-draws", epoch, applied)
		}
		st, err := c.ReSolve(ctx)
		if err != nil {
			t.Fatalf("ReSolve %d: %v", epoch, err)
		}
		if st.Skipped != int64(cfg.Objects) || st.Drifted != 0 || st.Warm != 0 || st.Fallback != 0 || st.Steps != 0 {
			t.Fatalf("epoch %d: re-solve stats = %+v, want %d skipped and nothing else", epoch, st, cfg.Objects)
		}
		if !reflect.DeepEqual(baseline.X, c.Snapshot().X) {
			t.Fatalf("epoch %d: zero-drift re-solve changed an allocation", epoch)
		}
	}
}

// TestCatalogReSolveCertifiesWarm pins the warm path's contract on
// seeded drift epochs shaped like the benchmark catalog's (8-node ring,
// 10% drift): every drifted object finishes on the warm path, none falls
// back, and every object's plan — re-solved or kept — passes
// costmodel.VerifyKKT at cfg.KKTTol against a model built from the
// access costs of its planned demand generation, priced by the
// independent water-filling solve.
func TestCatalogReSolveCertifiesWarm(t *testing.T) {
	c, err := New(Config{Objects: 2000, DriftFraction: 0.1, Seed: 3})
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	ctx := context.Background()
	if _, err := c.SolveCold(ctx); err != nil {
		t.Fatalf("SolveCold: %v", err)
	}
	if err := c.Sense(ctx); err != nil {
		t.Fatalf("Sense: %v", err)
	}
	nodes, tol := c.cfg.Nodes, c.cfg.KKTTol
	demand, access := make([]float64, nodes), make([]float64, nodes)
	for epoch := 1; epoch <= 3; epoch++ {
		if _, err := c.Drift(ctx); err != nil {
			t.Fatalf("epoch %d: Drift: %v", epoch, err)
		}
		st, err := c.ReSolve(ctx)
		if err != nil {
			t.Fatalf("epoch %d: ReSolve: %v", epoch, err)
		}
		if st.Drifted == 0 || st.Fallback != 0 || st.Warm != st.Drifted {
			t.Errorf("epoch %d: %d drifted, %d warm, %d fell back; want every drifted object warm",
				epoch, st.Drifted, st.Warm, st.Fallback)
		}
		for _, sh := range c.shards {
			for o := 0; o < sh.count(); o++ {
				x := sh.x[o*nodes : (o+1)*nodes]
				c.fillDemand(sh.lo+o, sh.planGen[o], demand)
				c.accessCosts(demand, access)
				model, err := costmodel.NewSingleFile(access, []float64{c.cfg.Mu}, c.cfg.Lambda, c.cfg.K)
				if err != nil {
					t.Fatalf("epoch %d object %d: NewSingleFile: %v", epoch, sh.lo+o, err)
				}
				want, err := model.SolveKKT(1e-12)
				if err != nil {
					t.Fatalf("epoch %d object %d: SolveKKT: %v", epoch, sh.lo+o, err)
				}
				if err := model.VerifyKKT(x, want.Q, tol); err != nil {
					t.Errorf("epoch %d object %d: plan %v not certified: %v", epoch, sh.lo+o, x, err)
				}
			}
		}
	}
}
