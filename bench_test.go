package filealloc

// Benchmark harness: one benchmark per figure of the paper's evaluation
// (section 6 and 7.3) and per ablation indexed in DESIGN.md, plus
// micro-benchmarks of the hot paths. Each figure benchmark regenerates the
// figure's full data series per iteration, so ns/op is the cost of
// reproducing that figure.
//
// Run with:
//
//	go test -bench=. -benchmem

import (
	"context"
	"fmt"
	"math/rand"
	"runtime"
	"testing"

	"filealloc/internal/agent"
	"filealloc/internal/catalog"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/experiments"
	"filealloc/internal/gossip"
	"filealloc/internal/multicopy"
	"filealloc/internal/protocol"
	"filealloc/internal/records"
	"filealloc/internal/sim"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
)

// benchWorkers gives each figure benchmark a serial and a parallel
// variant: "serial" pins the sweep engine to one worker (the exact
// sequential reference path), "parallel" lets it use every core. The
// ratio of the two is the sweep engine's speedup on that figure.
var benchWorkers = []struct {
	name    string
	workers int
}{
	{"serial", 1},
	{"parallel", 0}, // 0 → GOMAXPROCS
}

// BenchmarkFig3ConvergenceProfiles regenerates figure 3: four convergence
// profiles (α = 0.67, 0.3, 0.19, 0.08) on the 4-node ring.
func BenchmarkFig3ConvergenceProfiles(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		profiles, err := experiments.Fig3(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 4 {
			b.Fatalf("got %d profiles", len(profiles))
		}
	}
}

// BenchmarkFig4Fragmentation regenerates figure 4: integral placement vs
// fragmented optimum across ring link costs.
func BenchmarkFig4Fragmentation(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkFig5AlphaSweep regenerates figure 5: iterations to convergence
// over 70 stepsizes, serially and with the parallel sweep engine.
func BenchmarkFig5AlphaSweep(b *testing.B) {
	for _, bw := range benchWorkers {
		b.Run(bw.name, func(b *testing.B) {
			ctx := sweep.WithWorkers(context.Background(), bw.workers)
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig5(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 70 {
					b.Fatalf("got %d rows", len(rows))
				}
			}
		})
	}
}

// BenchmarkFig6Scaling regenerates figure 6: best-stepsize iteration
// counts for fully connected networks of 4..20 nodes (grid search
// included, as the paper's "best possible α" requires), serially and
// with the 510-cell (size × α) grid spread across every core.
func BenchmarkFig6Scaling(b *testing.B) {
	for _, bw := range benchWorkers {
		b.Run(bw.name, func(b *testing.B) {
			ctx := sweep.WithWorkers(context.Background(), bw.workers)
			for i := 0; i < b.N; i++ {
				rows, err := experiments.Fig6(ctx, nil)
				if err != nil {
					b.Fatal(err)
				}
				if len(rows) != 17 {
					b.Fatalf("got %d rows", len(rows))
				}
			}
		})
	}
}

// BenchmarkFig6WorkerMatrix crosses GOMAXPROCS with the sweep worker
// count on the figure-6 grid — the repo's largest sweep (510 cells) —
// so a single run shows how much of the chunked engine's speedup
// survives core starvation and worker oversubscription. Sub-benchmarks
// are named procs_<P>/workers_<W>; P values beyond the machine's CPU
// count are skipped rather than benchmarked as fiction.
func BenchmarkFig6WorkerMatrix(b *testing.B) {
	procsSet := []int{1, 2, 4, runtime.GOMAXPROCS(0)}
	workerSet := []int{1, 4, 8}
	seen := make(map[int]bool)
	for _, procs := range procsSet {
		if procs > runtime.NumCPU() || seen[procs] {
			continue
		}
		seen[procs] = true
		for _, workers := range workerSet {
			b.Run(fmt.Sprintf("procs_%d/workers_%d", procs, workers), func(b *testing.B) {
				prev := runtime.GOMAXPROCS(procs)
				defer runtime.GOMAXPROCS(prev)
				ctx := sweep.WithWorkers(context.Background(), workers)
				for i := 0; i < b.N; i++ {
					rows, err := experiments.Fig6(ctx, nil)
					if err != nil {
						b.Fatal(err)
					}
					if len(rows) != 17 {
						b.Fatalf("got %d rows", len(rows))
					}
				}
			})
		}
	}
}

// BenchmarkFig8MultiCopyProfiles regenerates figure 8: the two 60-
// iteration multi-copy ring profiles.
func BenchmarkFig8MultiCopyProfiles(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		profiles, err := experiments.Fig8(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 2 {
			b.Fatalf("got %d profiles", len(profiles))
		}
	}
}

// BenchmarkFig9OscillationDamping regenerates figure 9: fixed α = 0.1 and
// 0.05 profiles plus the adaptive-decay run.
func BenchmarkFig9OscillationDamping(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		profiles, err := experiments.Fig9(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(profiles) != 3 {
			b.Fatalf("got %d profiles", len(profiles))
		}
	}
}

// BenchmarkValidationSim regenerates the E7 validation table (analytic vs
// discrete-event simulation) at a reduced access count per row.
func BenchmarkValidationSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Validate(30000, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkAblationSecondOrder regenerates the E8 scale-resilience table.
func BenchmarkAblationSecondOrder(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationSecondOrder(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) == 0 {
			b.Fatal("no rows")
		}
	}
}

// BenchmarkDecentralizedRuntime regenerates the E9 table: full protocol
// runs (broadcast and coordinator) over the in-memory transport, including
// goroutine spawn, the binary codec, and round synchronization.
func BenchmarkDecentralizedRuntime(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.AblationDecentralized(ctx, nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkAblationPriceDirected regenerates the E10 mechanism-contrast
// report.
func BenchmarkAblationPriceDirected(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		if _, err := experiments.AblationPriceDirected(ctx); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkOptimalCopies regenerates the E11 replication-degree sweep
// (six oscillation-tolerant multi-copy solves).
func BenchmarkOptimalCopies(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		res, err := experiments.OptimalCopies(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Rows) != 6 {
			b.Fatalf("got %d rows", len(res.Rows))
		}
	}
}

// BenchmarkNeighborOnly regenerates the E13 neighbours-only comparison.
func BenchmarkNeighborOnly(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.NeighborOnly(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 2 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkAvailability regenerates the E14 graceful-degradation table.
func BenchmarkAvailability(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Availability(0.1)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkAdaptiveEstimation regenerates the E12 estimation-driven
// adaptation table (three full drift simulations with periodic
// re-planning).
func BenchmarkAdaptiveEstimation(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Adaptive(ctx, nil, int64(i+1))
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 3 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkQuantize regenerates the E15 record-rounding table.
func BenchmarkQuantize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Quantize(nil)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 5 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// BenchmarkRecordPopularity regenerates the E16 non-uniform-popularity
// table (optimization + four Zipf partitions of 10000 records).
func BenchmarkRecordPopularity(b *testing.B) {
	ctx := context.Background()
	for i := 0; i < b.N; i++ {
		rows, err := experiments.RecordPopularity(ctx, nil, 10000)
		if err != nil {
			b.Fatal(err)
		}
		if len(rows) != 4 {
			b.Fatalf("got %d rows", len(rows))
		}
	}
}

// ---- catalog benchmarks (cold fill vs warm re-solve) ----

// catalogBenchSize is the catalog scale for the cold/warm contrast: large
// enough that per-object overheads dominate noise, and the scale the
// warm-over-cold throughput gate in scripts/check.sh is recorded at.
const catalogBenchSize = 100000

func newBenchCatalog(b *testing.B) *catalog.Catalog {
	b.Helper()
	cat, err := catalog.New(catalog.Config{
		Objects:       catalogBenchSize,
		DriftFraction: 0.1,
		Seed:          1,
	})
	if err != nil {
		b.Fatal(err)
	}
	return cat
}

// BenchmarkCatalogNew measures laying out the benchmark catalog: the
// allocation slab plus per-object generations and the sensing slab for
// every object, and one solver kit to check the settings. Allocations
// are per shard, not per object.
func BenchmarkCatalogNew(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		newBenchCatalog(b)
	}
	b.ReportMetric(float64(catalogBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
}

// BenchmarkCatalogCold measures a full cold fill: every object solved
// from the uniform allocation. ns/op is one pass over the whole catalog.
func BenchmarkCatalogCold(b *testing.B) {
	ctx := context.Background()
	cat := newBenchCatalog(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		st, err := cat.SolveCold(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if st.Cold != catalogBenchSize {
			b.Fatalf("cold pass solved %d of %d objects", st.Cold, catalogBenchSize)
		}
	}
	b.ReportMetric(float64(catalogBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
}

// BenchmarkCatalogWarm measures one re-solve epoch after 10% of objects
// drift: un-drifted objects are skipped via their estimate trackers and
// the rest take KKT-certified incremental steps. Drift synthesis runs
// with the timer stopped, so ns/op is the re-solve pass alone — directly
// comparable to BenchmarkCatalogCold's pass over the same catalog.
func BenchmarkCatalogWarm(b *testing.B) {
	ctx := context.Background()
	cat := newBenchCatalog(b)
	if _, err := cat.SolveCold(ctx); err != nil {
		b.Fatal(err)
	}
	if err := cat.Sense(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := cat.Drift(ctx); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		st, err := cat.ReSolve(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if st.Drifted == 0 || st.Skipped == 0 {
			b.Fatalf("degenerate epoch: %+v", st)
		}
	}
	b.ReportMetric(float64(catalogBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
}

// BenchmarkCatalogEpoch measures one whole epoch after 10% of objects
// drift: Drift's demand re-draws and sensing of every object, then the
// re-solve pass. ns/op is the epoch an operator waits for, sensing
// included, where BenchmarkCatalogWarm times the re-solve pass alone.
func BenchmarkCatalogEpoch(b *testing.B) {
	ctx := context.Background()
	cat := newBenchCatalog(b)
	if _, err := cat.SolveCold(ctx); err != nil {
		b.Fatal(err)
	}
	if err := cat.Sense(ctx); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cat.Drift(ctx); err != nil {
			b.Fatal(err)
		}
		st, err := cat.ReSolve(ctx)
		if err != nil {
			b.Fatal(err)
		}
		if st.Drifted == 0 || st.Skipped == 0 {
			b.Fatalf("degenerate epoch: %+v", st)
		}
	}
	b.ReportMetric(float64(catalogBenchSize)*float64(b.N)/b.Elapsed().Seconds(), "objects/s")
}

// ---- micro-benchmarks of the hot paths ----

func benchModel(b *testing.B, n int) *costmodel.SingleFile {
	b.Helper()
	mesh, err := topology.FullMesh(n, 1)
	if err != nil {
		b.Fatal(err)
	}
	access, err := topology.AccessCosts(mesh, topology.UniformRates(n, 1), topology.RoundTrip)
	if err != nil {
		b.Fatal(err)
	}
	m, err := costmodel.NewSingleFile(access, []float64{1.5}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	return m
}

// BenchmarkGradient64 measures one marginal-utility evaluation on a
// 64-node system — the per-node, per-round work of the protocol.
func BenchmarkGradient64(b *testing.B) {
	m := benchModel(b, 64)
	x := make([]float64, 64)
	for i := range x {
		x[i] = 1.0 / 64
	}
	grad := make([]float64, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.Gradient(grad, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPlanStep64 measures one active-set re-allocation plan.
func BenchmarkPlanStep64(b *testing.B) {
	m := benchModel(b, 64)
	x := make([]float64, 64)
	x[0] = 1 // worst case: boundary handling engaged
	grad := make([]float64, 64)
	if err := m.Gradient(grad, x); err != nil {
		b.Fatal(err)
	}
	group := make([]int, 64)
	for i := range group {
		group[i] = i
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.PlanStep(x, grad, group, 0.1); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolve256 measures a full solve on a 256-node mesh with the
// dynamic Theorem-2 stepsize.
func BenchmarkSolve256(b *testing.B) {
	m := benchModel(b, 256)
	init := make([]float64, 256)
	init[0] = 1
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		alloc, err := core.NewAllocator(m, core.WithEpsilon(1e-6), core.WithDynamicAlpha(0.5))
		if err != nil {
			b.Fatal(err)
		}
		res, err := alloc.Run(context.Background(), init)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("did not converge: %+v", res.Reason)
		}
	}
}

// BenchmarkSolveKKT measures the water-filling reference solver.
func BenchmarkSolveKKT(b *testing.B) {
	m := benchModel(b, 64)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := m.SolveKKT(1e-12); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSolveSecondOrder8 measures one cold Newton solve of a
// catalog-shaped object, the work a catalog fill repeats per object: an
// 8-node unit ring, skew-1 Zipf demand scaled by a random factor per
// node, μ = 1.5, λ = 1, K = 1, solved from the uniform allocation with
// WithSecondOrder, ε = 1e-6 and the KKT check through RunWithScratch on
// one reused model and scratch, as a catalog sweep worker does. Ops cycle
// over 64 demand draws. steps/op is the mean number of Newton steps per
// solve; 100k × ns/op sets against one BenchmarkCatalogCold pass on one
// worker.
func BenchmarkSolveSecondOrder8(b *testing.B) {
	const nodes, shapes = 8, 64
	ring, err := topology.Ring(nodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	zipf, err := records.Zipf(nodes, 1)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1))
	rows := make([][]float64, shapes)
	demand := make([]float64, nodes)
	for o := range rows {
		for j := range demand {
			demand[j] = zipf.Prob((j+o)%nodes) * (0.5 + rng.Float64())
		}
		if rows[o], err = topology.AccessCosts(ring, demand, topology.RoundTrip); err != nil {
			b.Fatal(err)
		}
	}
	model, err := costmodel.NewSingleFile(rows[0], []float64{1.5}, 1, 1)
	if err != nil {
		b.Fatal(err)
	}
	alloc, err := core.NewAllocator(model, core.WithSecondOrder(), core.WithEpsilon(1e-6), core.WithKKTCheck())
	if err != nil {
		b.Fatal(err)
	}
	init := make([]float64, nodes)
	for j := range init {
		init[j] = 1.0 / nodes
	}
	ctx := context.Background()
	scratch := core.NewScratch()
	steps := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := model.SetAccessCosts(rows[i%shapes]); err != nil {
			b.Fatal(err)
		}
		res, err := alloc.RunWithScratch(ctx, init, scratch)
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged {
			b.Fatalf("object %d: %v after %d steps", i%shapes, res.Reason, res.Iterations)
		}
		steps += res.Iterations
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkRingGradient measures the piecewise-analytic gradient of the
// 32-node multi-copy ring (O(n²) prefix walks).
func BenchmarkRingGradient(b *testing.B) {
	costs := make([]float64, 32)
	for i := range costs {
		costs[i] = 1
	}
	r, err := multicopy.New(multicopy.Config{
		LinkCosts:    costs,
		Rates:        []float64{1},
		ServiceRates: []float64{2},
		K:            1,
		Copies:       3,
	})
	if err != nil {
		b.Fatal(err)
	}
	x := make([]float64, 32)
	for i := range x {
		x[i] = 3.0 / 32
	}
	grad := make([]float64, 32)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := r.Gradient(grad, x); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSimulator measures discrete-event throughput (accesses
// simulated per op: 10000).
func BenchmarkSimulator(b *testing.B) {
	ring, err := topology.Ring(4, 1)
	if err != nil {
		b.Fatal(err)
	}
	pair, err := topology.PairCosts(ring, topology.RoundTrip)
	if err != nil {
		b.Fatal(err)
	}
	service := make([]sim.Sampler, 4)
	for i := range service {
		service[i] = sim.ExpSampler{Rate: 1.5}
	}
	w := sim.SingleFileWorkload([]float64{0.25, 0.25, 0.25, 0.25},
		topology.UniformRates(4, 1), pair, service, 1)
	w.Accesses = 10000
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Seed = int64(i)
		if _, err := sim.Run(w); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGossipRound runs one full tree-mode aggregation solve over a
// 64-node random connected graph per iteration and reports the wire
// bill alongside ns/op: msgs/round and bytes/round are the quantities
// the gossip subsystem exists to shrink versus the N(N-1) broadcast
// reference (E19), so a regression here is a protocol regression even
// when the wall clock holds steady.
func BenchmarkGossipRound(b *testing.B) {
	const n = 64
	ctx := context.Background()
	g, err := topology.RandomConnected(n, 2*n, 0.1, 1, 42)
	if err != nil {
		b.Fatal(err)
	}
	rng := rand.New(rand.NewSource(42))
	models := make([]agent.LocalModel, n)
	for i := range models {
		models[i] = agent.LocalModel{
			AccessCost:  0.5 + 2*rng.Float64(),
			ServiceRate: 1.5 + rng.Float64(),
			Lambda:      1,
			K:           1,
		}
	}
	init := make([]float64, n)
	for i := range init {
		init[i] = 1 / float64(n)
	}
	b.ResetTimer()
	var bill gossip.Bill
	for i := 0; i < b.N; i++ {
		res, err := gossip.RunCluster(ctx, gossip.ClusterConfig{
			Graph:  g,
			Models: models,
			Init:   append([]float64(nil), init...),
			Alpha:  0.3,
		})
		if err != nil {
			b.Fatal(err)
		}
		if !res.Converged || !res.Certified {
			b.Fatalf("converged=%v certified=%v after %d rounds",
				res.Converged, res.Certified, res.Rounds)
		}
		bill = res.Bill
	}
	b.ReportMetric(bill.MessagesPerRound(), "msgs/round")
	b.ReportMetric(bill.BytesPerRound(), "bytes/round")
}

// BenchmarkReportCodec times one encode plus one decode of each message
// the hot exchanges send: a broadcast or coordinator round's Report and
// 16-node Update, a tree pass's AggUp and AggDown, a push-sum tick's
// GossipExtrema with its share, and a serving Access.
func BenchmarkReportCodec(b *testing.B) {
	delta := make([]float64, 16)
	for i := range delta {
		delta[i] = (float64(i) - 7.5) / 3e4
	}
	cases := []struct {
		name   string
		encode func() ([]byte, error)
	}{
		{"report", func() ([]byte, error) {
			return protocol.EncodeReport(protocol.Report{Round: 70, Node: 3, Marginal: -2.9387528349794507, Alloc: 0.0625, Curvature: -0.5, Planned: 0xFFFF})
		}},
		{"update16", func() ([]byte, error) {
			return protocol.EncodeUpdate(protocol.Update{Round: 70, Delta: delta})
		}},
		{"aggup", func() ([]byte, error) {
			return protocol.EncodeAggUp(protocol.CodecBinary, protocol.AggUp{Round: 88, Pass: 1, Node: 17, Agg: protocol.Aggregate{
				SumG: -2.9387528349794507, SumH: -1, SumX: 0.015625, Count: 1,
				MinG: -2.9387528349794507, MaxG: -2.9387528349794507, OutNode: -1,
			}})
		}},
		{"aggdown", func() ([]byte, error) {
			return protocol.EncodeAggDown(protocol.CodecBinary, protocol.AggDown{Round: 88, Pass: 1, Avg: -2.9387528349794507, Count: 64, Readmit: -1, Final: true, Truncation: 1, Spread: 1e-4})
		}},
		{"extrema", func() ([]byte, error) {
			return protocol.EncodeGossipExtrema(protocol.GossipExtrema{Round: 12, Tick: 5, Node: 17, HasInt: true, IntMinG: -3.25, IntMaxG: -2.75, BoundOK: true, OutNode: -1,
				HasShare: true, SG: -1.4693764174897253, WA: 0.5, SX: 0.0078125, WN: 0.5})
		}},
		{"access", func() ([]byte, error) {
			return protocol.EncodeAccess(protocol.Access{ID: 123456, Origin: 3, T: 417.25, Epoch: 4})
		}},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				p, err := c.encode()
				if err != nil {
					b.Fatal(err)
				}
				if _, err := protocol.Decode(p); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
