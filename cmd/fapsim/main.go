// Command fapsim regenerates the paper's evaluation figures (Kurose &
// Simha, "A Microeconomic Approach to Optimal File Allocation", ICDCS
// 1986) and this reproduction's validation/ablation studies.
//
// Usage:
//
//	fapsim [-csv] [-v] [-workers N] [-chunk N] <experiment>
//
// where <experiment> is one of: fig3, fig4, fig5, fig6, fig8, fig9,
// validate, second-order, decentralized, price-directed, chaos,
// chaos-churn, catalog, all.
// -v streams agent round events to stderr for the experiments that run
// the decentralized runtime. -workers bounds the parameter-sweep
// concurrency (default: GOMAXPROCS); -workers 1 reproduces the serial
// path exactly — results are identical either way, only wall-clock
// changes. -chunk overrides the number of contiguous sweep items a
// worker claims per scheduling step (default: automatic, ⌈n/(4·workers)⌉);
// results are identical for every chunk size, so the flag exists for
// performance experiments only.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"strings"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/experiments"
	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
	"filealloc/internal/trace"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fapsim:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fapsim", flag.ContinueOnError)
	csv := fs.Bool("csv", false, "emit raw CSV instead of rendered tables/plots")
	accesses := fs.Int("accesses", 200000, "simulated accesses for the validate experiment")
	seed := fs.Int64("seed", 1, "simulation seed")
	verbose := fs.Bool("v", false, "log agent round events to stderr (decentralized/chaos)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"parameter-sweep concurrency; 1 runs every sweep serially (results are identical either way)")
	chunk := fs.Int("chunk", 0,
		"sweep items claimed per scheduling step; 0 picks the size automatically (results are identical either way)")
	metricsOut := fs.String("metrics-out", "",
		"write the run's metrics-registry snapshot as JSON to this file ('-' for stdout)")
	objects := fs.Int("objects", 4096, "catalog size for the catalog experiment")
	epochs := fs.Int("epochs", 3, "drift/re-solve epochs for the catalog experiment")
	drift := fs.Float64("drift", 0.1, "per-epoch fraction of catalog objects whose demand is re-drawn")
	snapshotOut := fs.String("snapshot-out", "",
		"write the solved catalog snapshot as JSON to this file (catalog experiment; query it with 'fapctl placements')")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *chunk < 0 {
		return fmt.Errorf("-chunk must be non-negative, got %d", *chunk)
	}
	var obs agent.Observer
	if *verbose {
		obs = agent.NewLogObserver(os.Stderr)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("want exactly one experiment, got %d args (use 'all' to run everything)", fs.NArg())
	}
	ctx := sweep.WithWorkers(context.Background(), *workers)
	if *chunk > 0 {
		ctx = sweep.WithChunkSize(ctx, *chunk)
	}
	// A registry collects sweep metrics (via the context) for every
	// experiment and the full agent/transport surface for chaos-churn,
	// which threads it through the cluster runtime itself.
	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
		ctx = sweep.WithMetrics(ctx, reg)
	}
	name := fs.Arg(0)
	runners := map[string]func() error{
		"fig3":           func() error { return runFig3(ctx, w, *csv) },
		"fig4":           func() error { return runFig4(ctx, w, *csv) },
		"fig5":           func() error { return runFig5(ctx, w, *csv) },
		"fig6":           func() error { return runFig6(ctx, w, *csv) },
		"fig8":           func() error { return runFig8(ctx, w, *csv) },
		"fig9":           func() error { return runFig9(ctx, w, *csv) },
		"validate":       func() error { return runValidate(w, *accesses, *seed, *csv) },
		"second-order":   func() error { return runSecondOrder(ctx, w, *csv) },
		"decentralized":  func() error { return runDecentralized(ctx, w, obs, *csv) },
		"price-directed": func() error { return runPriceDirected(ctx, w, *csv) },
		"chaos":          func() error { return runChaos(ctx, w, obs, *csv) },
		"chaos-churn":    func() error { return runChaosChurn(ctx, w, obs, reg, *csv) },
		"copies":         func() error { return runCopies(ctx, w, *csv) },
		"neighbor":       func() error { return runNeighbor(ctx, w, *csv) },
		"availability":   func() error { return runAvailability(w, *csv) },
		"adaptive":       func() error { return runAdaptive(ctx, w, *seed, *csv) },
		"quantize":       func() error { return runQuantize(w, *csv) },
		"records":        func() error { return runRecords(ctx, w, *csv) },
		"catalog": func() error {
			return runCatalog(ctx, w, *objects, *epochs, *drift, *seed, *snapshotOut, reg, *csv)
		},
	}
	if name == "all" {
		order := []string{"fig3", "fig4", "fig5", "fig6", "fig8", "fig9",
			"validate", "second-order", "decentralized", "price-directed",
			"chaos", "chaos-churn", "copies", "neighbor", "availability", "adaptive", "quantize", "records", "catalog"}
		for _, exp := range order {
			fmt.Fprintf(w, "==== %s ====\n", exp)
			if err := runners[exp](); err != nil {
				return fmt.Errorf("%s: %w", exp, err)
			}
			fmt.Fprintln(w)
		}
		return metrics.WriteSnapshot(reg, *metricsOut, w)
	}
	runner, ok := runners[name]
	if !ok {
		return fmt.Errorf("unknown experiment %q (want fig3|fig4|fig5|fig6|fig8|fig9|validate|second-order|decentralized|price-directed|chaos|chaos-churn|copies|neighbor|availability|adaptive|quantize|records|catalog|all)", name)
	}
	if err := runner(); err != nil {
		return err
	}
	return metrics.WriteSnapshot(reg, *metricsOut, w)
}

func runRecords(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.RecordPopularity(ctx, nil, 10000)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "skew,hot_node_records,hot_node_share,share_error,cost_penalty_pct")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%d,%g,%g,%g\n", r.Skew, r.HotNodeRecords, r.HotNodeShare, r.ShareError, r.CostPenaltyPct)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — non-uniform record popularity (§4's relaxation), 10000 records")
	fmt.Fprintln(w, "the optimal ACCESS shares are popularity-independent; the records realizing them are not")
	fmt.Fprintf(w, "  %-10s %-18s %-16s %-14s %s\n", "Zipf s", "hot-node records", "hot-node share", "share error", "cost penalty")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10g %-18d %-16.4f %-14.6f %.6f%%\n",
			r.Skew, r.HotNodeRecords, r.HotNodeShare, r.ShareError, r.CostPenaltyPct)
	}
	return nil
}

func runQuantize(w io.Writer, csv bool) error {
	rows, err := experiments.Quantize(nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "records,max_deviation,cost_penalty_pct")
		for _, r := range rows {
			fmt.Fprintf(w, "%d,%g,%g\n", r.Records, r.MaxDeviation, r.CostPenaltyPct)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — rounding fractions to record boundaries (§8.1)")
	fmt.Fprintf(w, "  %-10s %-16s %s\n", "records", "max deviation", "cost penalty")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10d %-16.6f %.6f%%\n", r.Records, r.MaxDeviation, r.CostPenaltyPct)
	}
	return nil
}

func runCopies(ctx context.Context, w io.Writer, csv bool) error {
	res, err := experiments.OptimalCopies(ctx)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "m,access_cost,storage_cost,consistency_cost,total_cost")
		for _, r := range res.Rows {
			fmt.Fprintf(w, "%d,%g,%g,%g,%g\n", r.M, r.AccessCost, r.StorageCost, r.ConsistencyCost, r.TotalCost)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — optimal number of copies (§8.2), 6-node ring, 20% updates")
	fmt.Fprintf(w, "  %-4s %-12s %-12s %-14s %-12s\n", "m", "access", "storage", "consistency", "total")
	for i, r := range res.Rows {
		marker := ""
		if i == res.Best {
			marker = "  ← optimal"
		}
		fmt.Fprintf(w, "  %-4d %-12.4f %-12.4f %-14.4f %-12.4f%s\n",
			r.M, r.AccessCost, r.StorageCost, r.ConsistencyCost, r.TotalCost, marker)
	}
	return nil
}

func runNeighbor(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.NeighborOnly(ctx)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "topology,full_iterations,full_messages,neighbor_iterations,neighbor_messages,cost_gap_pct")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%g\n", r.Topology, r.FullIterations, r.FullMessages,
				r.NeighborIterations, r.NeighborMessages, r.CostGapPct)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — neighbours-only communication (§8.2), 8 nodes, start (1,0,…)")
	fmt.Fprintf(w, "  %-10s %-22s %-22s %s\n", "topology", "full (iters / msgs)", "neighbor (iters / msgs)", "cost gap")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10s %-22s %-22s %.3f%%\n", r.Topology,
			fmt.Sprintf("%d / %d", r.FullIterations, r.FullMessages),
			fmt.Sprintf("%d / %d", r.NeighborIterations, r.NeighborMessages),
			r.CostGapPct)
	}
	return nil
}

func runAvailability(w io.Writer, csv bool) error {
	rows, err := experiments.Availability(0.1)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "strategy,copies,expected_accessible,all_or_nothing")
		for _, r := range rows {
			fmt.Fprintf(w, "%q,%d,%g,%g\n", r.Strategy, r.Copies, r.ExpectedAccessible, r.AllOrNothing)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — graceful degradation (§4), node failure probability 0.1")
	fmt.Fprintf(w, "  %-38s %-8s %-22s %s\n", "strategy", "copies", "E[accessible fraction]", "P[whole file up]")
	for _, r := range rows {
		whole := fmt.Sprintf("%.4f", r.AllOrNothing)
		if r.AllOrNothing != r.AllOrNothing { // NaN
			whole = "—"
		}
		fmt.Fprintf(w, "  %-38s %-8d %-22.4f %s\n", r.Strategy, r.Copies, r.ExpectedAccessible, whole)
	}
	return nil
}

func runAdaptive(ctx context.Context, w io.Writer, seed int64, csv bool) error {
	rows, err := experiments.Adaptive(ctx, nil, seed)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "half_life,steady_gap_pct,post_drift_gap_pct,recovered_gap_pct")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%g,%g,%g\n", r.HalfLife, r.SteadyGapPct, r.PostDriftGapPct, r.RecoveredGapPct)
		}
		return nil
	}
	fmt.Fprintln(w, "Extension — estimation-driven adaptation (§8), workload drift at t=300")
	fmt.Fprintln(w, "cost gap vs clairvoyant optimum (lower is better)")
	fmt.Fprintf(w, "  %-12s %-16s %-16s %s\n", "half-life", "steady state", "after drift", "after recovery")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12g %-16s %-16s %s\n", r.HalfLife,
			fmt.Sprintf("%.2f%%", r.SteadyGapPct),
			fmt.Sprintf("%.2f%%", r.PostDriftGapPct),
			fmt.Sprintf("%.2f%%", r.RecoveredGapPct))
	}
	return nil
}

func runFig3(ctx context.Context, w io.Writer, csv bool) error {
	profiles, err := experiments.Fig3(ctx)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "alpha,iteration,cost")
		for _, p := range profiles {
			for i, c := range p.Costs {
				fmt.Fprintf(w, "%g,%d,%g\n", p.Alpha, i, c)
			}
		}
		return nil
	}
	fmt.Fprintln(w, "Figure 3 — convergence profiles, 4-node ring, start (0.8,0.1,0.1,0)")
	fmt.Fprintln(w, "paper: 4 its @ α=0.67, 10 @ 0.30, 20 @ 0.19, 51 @ 0.08; optimum (0.25,…) ")
	series := make([][]float64, len(profiles))
	labels := make([]string, len(profiles))
	for i, p := range profiles {
		series[i] = p.Costs
		labels[i] = fmt.Sprintf("%s (%d iterations)", p.Label, p.Iterations)
	}
	plot, err := trace.AsciiPlot(series, labels, 72, 18)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, plot)
	for _, p := range profiles {
		fmt.Fprintf(w, "  %-8s iterations=%-3d final cost=%.6f x=%.4v\n",
			p.Label, p.Iterations, p.Costs[len(p.Costs)-1], p.FinalX)
	}
	return nil
}

func runFig4(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.Fig4(ctx, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "link_cost,integral_cost,fragmented_cost,reduction_pct,iterations")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%g,%g,%g,%d\n", r.LinkCost, r.IntegralCost, r.FragmentedCost, r.ReductionPct, r.Iterations)
		}
		return nil
	}
	fmt.Fprintln(w, "Figure 4 — fragmentation vs best integral placement (start: whole file at node 4)")
	fmt.Fprintln(w, "paper: ≈25% cost reduction (equal link costs of unstated magnitude)")
	fmt.Fprintf(w, "  %-10s %-14s %-16s %-12s %s\n", "link cost", "integral cost", "fragmented cost", "reduction", "iterations")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-10g %-14.4f %-16.4f %-11.1f%% %d\n",
			r.LinkCost, r.IntegralCost, r.FragmentedCost, r.ReductionPct, r.Iterations)
	}
	// Show the v=1 convergence profile, the figure's actual curve.
	spark, err := trace.Sparkline(rows[0].Profile, 60)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "  profile (v=%g): %s\n", rows[0].LinkCost, spark)
	return nil
}

func runFig5(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.Fig5(ctx, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "alpha,iterations,converged")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%d,%v\n", r.Alpha, r.Iterations, r.Converged)
		}
		return nil
	}
	fmt.Fprintln(w, "Figure 5 — iterations to convergence vs stepsize α (4-node ring)")
	fmt.Fprintln(w, "paper: steep growth at small α, wide near-optimal basin")
	var series []float64
	for _, r := range rows {
		if r.Converged {
			series = append(series, float64(r.Iterations))
		}
	}
	plot, err := trace.AsciiPlot([][]float64{series}, []string{"iterations (converged α, ascending)"}, 72, 14)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, plot)
	for _, r := range rows {
		if !r.Converged {
			fmt.Fprintf(w, "  α=%.2f did not converge (stability threshold 2/s ≈ 1.30)\n", r.Alpha)
		}
	}
	return nil
}

func runFig6(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.Fig6(ctx, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "n,best_alpha,iterations")
		for _, r := range rows {
			fmt.Fprintf(w, "%d,%g,%d\n", r.N, r.BestAlpha, r.Iterations)
		}
		return nil
	}
	fmt.Fprintln(w, "Figure 6 — iterations (best α) vs network size, fully connected, unit links")
	fmt.Fprintln(w, "paper: iteration count essentially flat in N")
	fmt.Fprintf(w, "  %-4s %-10s %s\n", "N", "best α", "iterations")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-4d %-10.2f %d %s\n", r.N, r.BestAlpha, r.Iterations, strings.Repeat("█", r.Iterations))
	}
	return nil
}

func runFig8(ctx context.Context, w io.Writer, csv bool) error {
	profiles, err := experiments.Fig8(ctx)
	if err != nil {
		return err
	}
	return printMultiCopy(w, "Figure 8 — multi-copy virtual ring (m=2) profiles, α=0.1",
		"paper: comm-dominated links (4,1,1,1) oscillate more than unit links", profiles, csv)
}

func runFig9(ctx context.Context, w io.Writer, csv bool) error {
	profiles, err := experiments.Fig9(ctx)
	if err != nil {
		return err
	}
	return printMultiCopy(w, "Figure 9 — decreasing α on the oscillating ring (links 4,1,1,1)",
		"paper: smaller α → smaller oscillations; §7.3 decay rule terminates", profiles, csv)
}

func printMultiCopy(w io.Writer, title, note string, profiles []experiments.MultiCopyProfile, csv bool) error {
	if csv {
		fmt.Fprintln(w, "label,iteration,cost")
		for _, p := range profiles {
			for i, c := range p.Costs {
				fmt.Fprintf(w, "%q,%d,%g\n", p.Label, i, c)
			}
		}
		return nil
	}
	fmt.Fprintln(w, title)
	fmt.Fprintln(w, note)
	series := make([][]float64, len(profiles))
	labels := make([]string, len(profiles))
	for i, p := range profiles {
		series[i] = p.Costs
		labels[i] = fmt.Sprintf("%s (osc %.4f, best %.4f)", p.Label, p.Oscillation, p.BestCost)
	}
	plot, err := trace.AsciiPlot(series, labels, 72, 16)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, plot)
	return nil
}

func runValidate(w io.Writer, accesses int, seed int64, csv bool) error {
	rows, err := experiments.Validate(accesses, seed)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "label,analytic,simulated,error_pct")
		for _, r := range rows {
			fmt.Fprintf(w, "%q,%g,%g,%g\n", r.Label, r.Analytic, r.Simulated, r.ErrorPct)
		}
		return nil
	}
	fmt.Fprintln(w, "Validation — analytic equation-1 cost vs discrete-event simulation")
	fmt.Fprintf(w, "  %-18s %-26s %-10s %-10s %s\n", "allocation", "x", "analytic", "simulated", "error")
	for _, r := range rows {
		xs := make([]string, len(r.X))
		for i, v := range r.X {
			xs[i] = fmt.Sprintf("%.2f", v)
		}
		fmt.Fprintf(w, "  %-18s %-26s %-10.4f %-10.4f %.2f%%\n",
			r.Label, "("+strings.Join(xs, ", ")+")", r.Analytic, r.Simulated, r.ErrorPct)
	}
	return nil
}

func runSecondOrder(ctx context.Context, w io.Writer, csv bool) error {
	rows, err := experiments.AblationSecondOrder(ctx, nil)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "scale,first_order_iterations,second_order_iterations")
		for _, r := range rows {
			fmt.Fprintf(w, "%g,%d,%d\n", r.Scale, r.FirstOrderIterations, r.SecondOrderIterations)
		}
		return nil
	}
	fmt.Fprintln(w, "Ablation — second-derivative algorithm (§8.2) vs first-order under cost scaling")
	fmt.Fprintf(w, "  %-8s %-24s %s\n", "scale", "1st-order iterations", "2nd-order iterations")
	for _, r := range rows {
		first := fmt.Sprintf("%d", r.FirstOrderIterations)
		if r.FirstOrderIterations < 0 {
			first = "diverged"
		}
		fmt.Fprintf(w, "  %-8g %-24s %d\n", r.Scale, first, r.SecondOrderIterations)
	}
	return nil
}

func runDecentralized(ctx context.Context, w io.Writer, obs agent.Observer, csv bool) error {
	rows, err := experiments.AblationDecentralized(ctx, obs)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "mode,rounds,central_iterations,messages,max_allocation_diff")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%g\n", r.Mode, r.Rounds, r.CentralIterations, r.Messages, r.MaxAllocationDiff)
		}
		return nil
	}
	fmt.Fprintln(w, "Ablation — decentralized runtime vs in-process solver (figure-3 system, α=0.3)")
	fmt.Fprintf(w, "  %-12s %-8s %-10s %-10s %s\n", "mode", "rounds", "central", "messages", "max |Δx|")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-12s %-8d %-10d %-10d %g\n", r.Mode, r.Rounds, r.CentralIterations, r.Messages, r.MaxAllocationDiff)
	}
	return nil
}

func runChaos(ctx context.Context, w io.Writer, obs agent.Observer, csv bool) error {
	rows, err := experiments.Chaos(ctx, obs)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "scenario,mode,outcome,rounds,messages,faults_injected,send_retries,discarded,timeouts,max_allocation_diff")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%s,%s,%d,%d,%d,%d,%d,%d,%g\n",
				r.Scenario, r.Mode, chaosOutcome(r), r.Rounds, r.Messages,
				r.FaultsInjected, r.SendRetries, r.Discarded, r.Timeouts, r.MaxAllocationDiff)
		}
		return nil
	}
	fmt.Fprintln(w, "Chaos — decentralized runtime under injected transport faults (figure-3 system, α=0.3)")
	fmt.Fprintln(w, "contract: converge bit-identical to the fault-free allocation, or time out loudly")
	fmt.Fprintf(w, "  %-11s %-12s %-10s %-8s %-10s %-8s %-9s %-10s %-9s %s\n",
		"scenario", "mode", "outcome", "rounds", "messages", "faults", "retries", "discarded", "timeouts", "max |Δx|")
	for _, r := range rows {
		fmt.Fprintf(w, "  %-11s %-12s %-10s %-8d %-10d %-8d %-9d %-10d %-9d %g\n",
			r.Scenario, r.Mode, chaosOutcome(r), r.Rounds, r.Messages,
			r.FaultsInjected, r.SendRetries, r.Discarded, r.Timeouts, r.MaxAllocationDiff)
	}
	return nil
}

func runChaosChurn(ctx context.Context, w io.Writer, obs agent.Observer, reg *metrics.Registry, csv bool) error {
	rows, err := experiments.ChaosChurn(ctx, obs, reg)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "scenario,converged,rounds,survivors,restarts,crashes,departs,rejoins,max_kkt_gap,sum_error")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%v,%d,%d,%d,%d,%d,%d,%g,%g\n",
				r.Scenario, r.Converged, r.Rounds, r.Survivors, r.Restarts,
				r.Crashes, r.Departs, r.Rejoins, r.MaxKKTGap, r.SumError)
		}
		return nil
	}
	fmt.Fprintln(w, "Chaos-churn — supervised crash recovery and membership churn (figure-3 system, α=0.3)")
	fmt.Fprintln(w, "contract: converge to the KKT optimum of the surviving support, or fail with a typed error")
	fmt.Fprintf(w, "  %-18s %-10s %-8s %-10s %-9s %-8s %-8s %-8s %-12s %s\n",
		"scenario", "outcome", "rounds", "survivors", "restarts", "crashes", "departs", "rejoins", "max KKT gap", "|Σx−1|")
	for _, r := range rows {
		outcome := "failed"
		if r.Converged {
			outcome = "converged"
		}
		fmt.Fprintf(w, "  %-18s %-10s %-8d %-10d %-9d %-8d %-8d %-8d %-12.4g %g\n",
			r.Scenario, outcome, r.Rounds, r.Survivors, r.Restarts,
			r.Crashes, r.Departs, r.Rejoins, r.MaxKKTGap, r.SumError)
	}
	return nil
}

func runCatalog(ctx context.Context, w io.Writer, objects, epochs int, drift float64, seed int64, snapshotOut string, reg *metrics.Registry, csv bool) error {
	if seed < 0 {
		return fmt.Errorf("-seed must be non-negative for the catalog experiment, got %d", seed)
	}
	rows, cat, err := experiments.Catalog(ctx, experiments.CatalogConfig{
		Objects:       objects,
		Epochs:        epochs,
		DriftFraction: drift,
		Seed:          uint64(seed),
	}, reg, func() int64 { return time.Now().UnixNano() })
	if err != nil {
		return err
	}
	perSec := func(r experiments.CatalogRow) float64 {
		if r.ElapsedNS <= 0 {
			return 0
		}
		return float64(r.Objects) / (float64(r.ElapsedNS) * 1e-9)
	}
	if csv {
		fmt.Fprintln(w, "phase,objects,drift_applied,drifted,skipped,warm,fallback,cold,steps,elapsed_ns,objects_per_sec")
		for _, r := range rows {
			fmt.Fprintf(w, "%s,%d,%d,%d,%d,%d,%d,%d,%d,%d,%g\n",
				r.Phase, r.Objects, r.DriftApplied, r.Drifted, r.Skipped,
				r.Warm, r.Fallback, r.Cold, r.Steps, r.ElapsedNS, perSec(r))
		}
	} else {
		fmt.Fprintf(w, "Catalog — sharded batch solves with warm-start re-solves (%d objects, drift %g/epoch)\n",
			objects, drift)
		fmt.Fprintln(w, "warm passes skip un-drifted objects and re-solve the rest incrementally (KKT-certified)")
		fmt.Fprintf(w, "  %-10s %-8s %-8s %-9s %-7s %-9s %-7s %-9s %s\n",
			"phase", "drifted", "skipped", "warm", "fb", "cold", "steps", "ms", "objects/sec")
		for _, r := range rows {
			fmt.Fprintf(w, "  %-10s %-8d %-8d %-9d %-7d %-9d %-7d %-9.1f %.0f\n",
				r.Phase, r.Drifted, r.Skipped, r.Warm, r.Fallback, r.Cold,
				r.Steps, float64(r.ElapsedNS)/1e6, perSec(r))
		}
		if coldNS, warmNS := rows[0].ElapsedNS, maxElapsed(rows[1:]); coldNS > 0 && warmNS > 0 {
			fmt.Fprintf(w, "  warm vs cold throughput: %.1fx (slowest warm epoch)\n",
				float64(coldNS)/float64(warmNS))
		}
	}
	if snapshotOut != "" {
		b, err := cat.Snapshot().Encode()
		if err != nil {
			return fmt.Errorf("encoding catalog snapshot: %w", err)
		}
		if err := os.WriteFile(snapshotOut, b, 0o644); err != nil {
			return fmt.Errorf("writing catalog snapshot: %w", err)
		}
	}
	return nil
}

// maxElapsed returns the largest per-row elapsed time, 0 when rows is
// empty or untimed.
func maxElapsed(rows []experiments.CatalogRow) int64 {
	var max int64
	for _, r := range rows {
		if r.ElapsedNS > max {
			max = r.ElapsedNS
		}
	}
	return max
}

func chaosOutcome(r experiments.ChaosRow) string {
	if r.TimedOut {
		return "timeout"
	}
	if r.Converged {
		return "converged"
	}
	return "failed"
}

func runPriceDirected(ctx context.Context, w io.Writer, csv bool) error {
	rep, err := experiments.AblationPriceDirected(ctx)
	if err != nil {
		return err
	}
	if csv {
		fmt.Fprintln(w, "mechanism,iterations,worst_infeasibility,cost,monotone")
		fmt.Fprintf(w, "price-directed,%d,%g,%g,\n", rep.PriceIterations, rep.PriceWorstInfeasibility, rep.PriceCost)
		fmt.Fprintf(w, "resource-directed,%d,%g,%g,%v\n", rep.ResourceIterations, rep.ResourceWorstInfeasibility, rep.ResourceCost, rep.ResourceMonotone)
		return nil
	}
	fmt.Fprintln(w, "Ablation — price-directed tâtonnement vs resource-directed algorithm (§2)")
	fmt.Fprintf(w, "  %-20s %-12s %-22s %-10s %s\n", "mechanism", "iterations", "worst infeasibility", "cost", "monotone")
	fmt.Fprintf(w, "  %-20s %-12d %-22g %-10.6f %s\n", "price-directed", rep.PriceIterations, rep.PriceWorstInfeasibility, rep.PriceCost, "no guarantee")
	fmt.Fprintf(w, "  %-20s %-12d %-22g %-10.6f %v\n", "resource-directed", rep.ResourceIterations, rep.ResourceWorstInfeasibility, rep.ResourceCost, rep.ResourceMonotone)
	return nil
}
