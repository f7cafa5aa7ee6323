// Command e2ebench is the repository's end-to-end benchmark. One command
// runs one seeded workload through the public APIs of the placement
// system and prints, as its last line, one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// With -trace 0 the metrics are the end-to-end metrics, measured with no
// instrumentation in the timed path. With -trace 1 the run measures the
// same operations untraced and then traced, reports the per-layer metrics
// from the traced half, and writes the recorded spans to -trace-dir.
//
// Usage (from the repository root, through the launcher that builds it):
//
//	bash e2ebench/run.sh --workload catalog-epoch --seed 1 --seconds 10 --trace 0
//
// See README.md for why each workload exists and what each metric means.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"time"
)

// workloadFunc runs one workload for the configured window and fills res.
// A returned error aborts the run: no result line is printed.
type workloadFunc func(cfg runConfig, res *result) error

var workloads = map[string]workloadFunc{
	"catalog-epoch": runCatalogEpoch,
	"tcp-solve":     runTCPSolve,
	"gossip-tree":   runGossipTree,
	"serve-phased":  runServePhased,
}

// runConfig is what every workload receives: the seed its inputs derive
// from, the length of the measured window, and the tracer (nil in an
// untraced run).
type runConfig struct {
	seed    int64
	window  time.Duration
	workers int
	tracer  *tracer
}

func main() {
	if err := run(os.Args[1:], os.Stdout, os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "e2ebench:", err)
		os.Exit(1)
	}
}

func run(args []string, stdout, stderr io.Writer) error {
	fs := flag.NewFlagSet("e2ebench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run: catalog-epoch | tcp-solve | gossip-tree | serve-phased")
	seed := fs.Int64("seed", 1, "seed every input of the workload derives from")
	seconds := fs.Int("seconds", 10, "length of the measured window in seconds")
	trace := fs.Int("trace", 0, "1: measure per-layer metrics from a traced run and write its spans")
	traceDir := fs.String("trace-dir", ".bench_build/traces", "directory the spans of a traced run are written to")
	if err := fs.Parse(args); err != nil {
		return err
	}
	fn, ok := workloads[*name]
	if !ok {
		return fmt.Errorf("unknown -workload %q", *name)
	}
	if *seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1, got %d", *seconds)
	}
	if *trace != 0 && *trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1, got %d", *trace)
	}

	host := describeHost()
	cfg := runConfig{
		seed:    *seed,
		window:  time.Duration(*seconds) * time.Second,
		workers: host.NProc,
	}
	if *trace == 1 {
		cfg.tracer = newTracer()
	}
	res := newResult(*trace == 1)
	if err := fn(cfg, res); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if err := res.complete(); err != nil {
		return fmt.Errorf("%s: %w", *name, err)
	}
	if cfg.tracer != nil {
		path, err := cfg.tracer.write(*traceDir, *name, *seed, host)
		if err != nil {
			return err
		}
		fmt.Fprintf(stderr, "e2ebench: %d spans written to %s\n", cfg.tracer.len(), path)
	}

	hostLine, err := json.Marshal(map[string]any{"workload": *name, "seed": *seed, "host": host})
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(hostLine))
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	fmt.Fprintln(stdout, string(line))
	return nil
}
