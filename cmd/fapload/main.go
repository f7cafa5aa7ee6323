// Command fapload fires a phased load script at a live in-process
// fapnode serving cluster and emits the deterministic phase report.
//
// Usage:
//
//	fapload [-spec file.json] [-workers N] [-seed N] [-json out.json]
//	        [-csv out.csv] [-hedge] [-v]
//
// With no -spec the canonical steady → shift → burst → crash script over
// five nodes runs. The report (per-phase p50/p95/p99 latency, error
// classes, re-plan counts, and post-shift convergence lag in ticks) is a
// pure function of (spec, seed): the engine drives a virtual tick clock,
// every recorded latency is model-derived, and the worker count never
// changes a byte of output. -hedge enables hedged second requests with a
// p99-derived delay; hedging races wall-clock timers, so it trades the
// determinism guarantee for tail-latency coverage.
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/loadgen"
	"filealloc/internal/metrics"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fapload:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fapload", flag.ContinueOnError)
	specPath := fs.String("spec", "", "JSON load spec (default: the built-in steady-shift-burst-crash script)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0), "request-firing concurrency; the report is identical at any setting")
	seed := fs.Int64("seed", 0, "override the spec's seed (0 keeps it)")
	jsonOut := fs.String("json", "", "also write the JSON report to this file")
	csvOut := fs.String("csv", "", "also write the CSV report to this file")
	hedge := fs.Bool("hedge", false, "hedge tail requests with a p99-derived delay (trades determinism for tail latency)")
	timeout := fs.Duration("timeout", 2*time.Minute, "abort the whole run after this wall-clock budget")
	verbose := fs.Bool("v", false, "log cluster lifecycle events to stderr")
	metricsOut := fs.String("metrics-out", "",
		"write the run's metrics-registry snapshot as JSON to this file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if fs.NArg() != 0 {
		fs.Usage()
		return fmt.Errorf("unexpected arguments %v", fs.Args())
	}

	spec := loadgen.DefaultSpec()
	if *specPath != "" {
		b, err := os.ReadFile(*specPath)
		if err != nil {
			return fmt.Errorf("reading spec: %w", err)
		}
		spec, err = loadgen.ParseSpec(b)
		if err != nil {
			return err
		}
	}
	if *seed != 0 {
		spec.Seed = *seed
	}

	var obs agent.Observer
	if *verbose {
		obs = agent.NewLogObserver(os.Stderr)
	}
	reg := metrics.New()

	// Real time exists only at this CLI edge: the wall-clock budget and
	// the per-request deadlines. Everything in the report derives from
	// the virtual tick clock.
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()

	sc, err := newClusterForSpec(ctx, spec, *hedge, reg, obs)
	if err != nil {
		return err
	}
	defer func() {
		if cerr := sc.Close(); cerr != nil {
			fmt.Fprintln(os.Stderr, "fapload: closing cluster:", cerr)
		}
	}()

	rep, err := loadgen.Run(ctx, loadgen.Config{Spec: spec, Target: sc, Workers: *workers, Registry: reg})
	if err != nil {
		return err
	}

	j, err := rep.JSON()
	if err != nil {
		return err
	}
	if _, err := w.Write(j); err != nil {
		return err
	}
	if *jsonOut != "" {
		if err := os.WriteFile(*jsonOut, j, 0o644); err != nil {
			return fmt.Errorf("writing JSON report: %w", err)
		}
	}
	if *csvOut != "" {
		if err := os.WriteFile(*csvOut, rep.CSV(), 0o644); err != nil {
			return fmt.Errorf("writing CSV report: %w", err)
		}
	}
	if *metricsOut != "" {
		if err := metrics.WriteSnapshot(reg, *metricsOut, w); err != nil {
			return err
		}
	}
	return nil
}

// newClusterForSpec sizes a live serving cluster for the spec: per-node
// service rate 2.2x the peak tick rate divided across nodes, so total
// capacity comfortably exceeds demand even with a node crashed.
func newClusterForSpec(ctx context.Context, spec loadgen.Spec, hedge bool, reg *metrics.Registry, obs agent.Observer) (*agent.ServeCluster, error) {
	peak := 0.0
	for _, p := range spec.Phases {
		if p.RPS > peak {
			peak = p.RPS
		}
	}
	mu := make([]float64, spec.Nodes)
	rates := make([]float64, spec.Nodes)
	for i := range mu {
		mu[i] = 2.2 * peak / float64(spec.Nodes)
		rates[i] = spec.Phases[0].RPS / float64(spec.Nodes)
	}
	cfg := agent.ServeClusterConfig{
		N:              spec.Nodes,
		Mu:             mu,
		K:              1,
		InitRates:      rates,
		RequestTimeout: 2 * time.Second,
		Retries:        2,
		DownAfter:      2,
		Seed:           spec.Seed,
		Registry:       reg,
		Observer:       obs,
	}
	if hedge {
		// The starting delay; each tick re-derives it from the observed p99.
		cfg.HedgeDelay = 5 * time.Millisecond
	}
	sc, err := agent.NewServeCluster(ctx, cfg)
	if err != nil {
		return nil, err
	}
	return sc, nil
}
