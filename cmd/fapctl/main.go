// Command fapctl drives a complete allocation run from one terminal: it
// spins up an in-process cluster of protocol agents (over an in-memory
// network by default, or real TCP loopback sockets with -tcp), lets them
// negotiate the allocation, and prints the outcome next to the
// centralized solver's for comparison.
//
//	fapctl -n 8 -topology mesh -alpha 0.5
//	fapctl -tcp -mode coordinator
//
// The checkpoint subcommand inspects crash-recovery state written by
// fapnode -checkpoint-dir: it loads a checkpoint file (or the newest valid
// one in a directory), validates its checksum and shape, and prints it as
// JSON — exiting non-zero when nothing valid is found.
//
//	fapctl checkpoint /var/lib/fapnode/ckpt-000000012.json
//	fapctl checkpoint /var/lib/fapnode
//
// The metrics subcommand scrapes a fapnode observability endpoint
// (started with -metrics-addr) and pretty-prints the Prometheus text
// exposition grouped by metric family:
//
//	fapctl metrics http://127.0.0.1:9090/metrics
//
// The health subcommand probes a whole node set's /healthz and /metrics
// endpoints and prints an aligned liveness table — per-node protocol
// round, lag behind the most advanced node, convergence spread, and (for
// serving nodes) the live plan epoch and access count. It exits non-zero
// when any node is down:
//
//	fapctl health http://127.0.0.1:9090 http://127.0.0.1:9091
//
// The gossip subcommand runs a large cluster (1000 nodes by default)
// that agrees on the allocation by hierarchical tree aggregation or
// epidemic push-sum instead of all-pairs broadcast, certifies the fixed
// point against the KKT conditions, and prints the per-round message
// bill next to broadcast's N·(N−1):
//
//	fapctl gossip -n 1000 -mode both
//	fapctl gossip -n 200 -churn 3 -metrics-out gossip-metrics.json
//
// The placements subcommand queries a solved-catalog snapshot written by
// fapsim -snapshot-out: with no object ids it summarises the snapshot;
// with ids it prints each object's placement (node, share, demand share),
// largest share first.
//
//	fapctl placements catalog.json
//	fapctl placements catalog.json 0 17 4095
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/baseline"
	"filealloc/internal/catalog"
	"filealloc/internal/core"
	"filealloc/internal/costmodel"
	"filealloc/internal/recovery"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "fapctl:", err)
		os.Exit(1)
	}
}

func run(args []string, w io.Writer) (err error) {
	if len(args) > 0 && args[0] == "checkpoint" {
		return runCheckpoint(args[1:], w)
	}
	if len(args) > 0 && args[0] == "metrics" {
		return runMetrics(args[1:], w)
	}
	if len(args) > 0 && args[0] == "placements" {
		return runPlacements(args[1:], w)
	}
	if len(args) > 0 && args[0] == "health" {
		return runHealth(args[1:], w)
	}
	if len(args) > 0 && args[0] == "gossip" {
		return runGossip(args[1:], w)
	}
	fs := flag.NewFlagSet("fapctl", flag.ContinueOnError)
	n := fs.Int("n", 4, "cluster size")
	topo := fs.String("topology", "ring", "network topology: ring | mesh | star")
	linkCost := fs.Float64("linkcost", 1, "uniform link cost")
	lambda := fs.Float64("lambda", 1, "total access rate")
	mu := fs.Float64("mu", 1.5, "service rate μ")
	k := fs.Float64("k", 1, "delay scaling factor")
	alpha := fs.Float64("alpha", 0.3, "stepsize α")
	epsilon := fs.Float64("epsilon", 1e-3, "termination threshold ε")
	mode := fs.String("mode", "broadcast", "aggregation: broadcast | coordinator")
	useTCP := fs.Bool("tcp", false, "run agents over TCP loopback sockets instead of in-memory channels")
	if err := fs.Parse(args); err != nil {
		return err
	}

	model, err := buildModel(*topo, *n, *linkCost, *lambda, *mu, *k)
	if err != nil {
		return err
	}
	var agentMode agent.Mode
	switch *mode {
	case "broadcast":
		agentMode = agent.Broadcast
	case "coordinator":
		agentMode = agent.Coordinator
	default:
		return fmt.Errorf("unknown -mode %q", *mode)
	}
	init := make([]float64, *n)
	init[0] = 0.8
	if *n > 1 {
		init[1] = 0.1
	}
	if *n > 2 {
		init[2] = 0.1
	}

	cfg := agent.ClusterConfig{
		Agent:  agent.Config{Alpha: *alpha, Epsilon: *epsilon, Mode: agentMode},
		Models: agent.ModelsFromSingleFile(model),
		Init:   init,
	}
	if *useTCP {
		if cfg.Endpoints, err = transport.ListenLoopback(*n); err != nil {
			return err
		}
		defer func() { err = errors.Join(err, transport.CloseAll(cfg.Endpoints)) }()
	}
	start := time.Now()
	res, err := agent.RunCluster(context.Background(), cfg)
	if err != nil {
		return err
	}
	elapsed := time.Since(start)

	central, err := core.NewAllocator(model, core.WithAlpha(*alpha), core.WithEpsilon(*epsilon))
	if err != nil {
		return err
	}
	centralRes, err := central.Run(context.Background(), init)
	if err != nil {
		return err
	}
	finalX := res.X
	distCost, err := model.Cost(finalX)
	if err != nil {
		return err
	}
	integral, err := baseline.BestIntegral(model)
	if err != nil {
		return err
	}

	transportName := "memory"
	if *useTCP {
		transportName = "tcp"
	}
	fmt.Fprintf(w, "cluster: n=%d topology=%s mode=%s transport=%s\n", *n, *topo, *mode, transportName)
	fmt.Fprintf(w, "distributed: rounds=%d converged=%v messages=%d cost=%.6f elapsed=%s\n",
		res.Rounds, res.Converged, res.Messages, distCost, elapsed.Round(time.Millisecond))
	fmt.Fprintf(w, "centralized: iterations=%d cost=%.6f\n", centralRes.Iterations, -centralRes.Utility)
	fmt.Fprintf(w, "best integral placement: node=%d cost=%.6f (fragmentation saves %.1f%%)\n",
		integral.Node, integral.Cost, 100*(integral.Cost-distCost)/integral.Cost)
	fmt.Fprintf(w, "allocation: %.4v\n", finalX)
	var maxDiff float64
	for i := range finalX {
		if d := finalX[i] - centralRes.X[i]; d > maxDiff || -d > maxDiff {
			if d < 0 {
				d = -d
			}
			maxDiff = d
		}
	}
	fmt.Fprintf(w, "max |distributed − centralized| = %g\n", maxDiff)
	return nil
}

// checkpointReport is the JSON the checkpoint subcommand prints for a
// valid checkpoint.
type checkpointReport struct {
	File     string    `json:"file"`
	Version  int       `json:"version"`
	Node     int       `json:"node"`
	Peers    int       `json:"peers"`
	Round    int       `json:"round"`
	X        float64   `json:"x"`
	FullX    []float64 `json:"full_x"`
	SumX     float64   `json:"sum_x"`
	Support  []int     `json:"support"`
	Alive    []bool    `json:"alive"`
	Planned  string    `json:"planned"`
	Checksum string    `json:"checksum"`
	// SkippedInvalid counts newer files in the directory that failed
	// validation and were passed over.
	SkippedInvalid int `json:"skipped_invalid,omitempty"`
}

// runCheckpoint implements `fapctl checkpoint <file-or-dir>`: validate a
// crash-recovery checkpoint and print it as JSON. For a directory it
// reports the newest valid checkpoint (matching fapnode's resume choice);
// any error — unreadable path, corrupt file, no valid checkpoint — exits
// non-zero.
func runCheckpoint(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fapctl checkpoint", flag.ContinueOnError)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 1 {
		return fmt.Errorf("usage: fapctl checkpoint <checkpoint-file-or-dir>")
	}
	path := fs.Arg(0)
	info, err := os.Stat(path)
	if err != nil {
		return err
	}
	var (
		ck      recovery.Checkpoint
		file    string
		skipped int
	)
	if info.IsDir() {
		entries, err := os.ReadDir(path)
		if err != nil {
			return err
		}
		var names []string
		for _, e := range entries {
			name := e.Name()
			if e.IsDir() || len(name) < 5 || name[:5] != "ckpt-" || filepath.Ext(name) != ".json" {
				continue
			}
			names = append(names, name)
		}
		if len(names) == 0 {
			return fmt.Errorf("no checkpoint files in %s: %w", path, recovery.ErrNoCheckpoint)
		}
		// Fixed-width names: lexical descending = round descending.
		sort.Sort(sort.Reverse(sort.StringSlice(names)))
		var firstErr error
		found := false
		for _, name := range names {
			c, err := recovery.ReadFile(filepath.Join(path, name))
			if err != nil {
				if firstErr == nil {
					firstErr = err
				}
				skipped++
				continue
			}
			ck, file, found = c, filepath.Join(path, name), true
			break
		}
		if !found {
			return fmt.Errorf("no valid checkpoint among %d files in %s (first error: %w)", len(names), path, firstErr)
		}
	} else {
		file = path
		if ck, err = recovery.ReadFile(path); err != nil {
			return err
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(checkpointReport{
		File:           file,
		Version:        ck.Version,
		Node:           ck.Node,
		Peers:          ck.Peers,
		Round:          ck.Round,
		X:              ck.X,
		FullX:          ck.FullX,
		SumX:           ck.SumX(),
		Support:        ck.Support(),
		Alive:          ck.Alive,
		Planned:        fmt.Sprintf("%#x", ck.Planned),
		Checksum:       ck.Checksum,
		SkippedInvalid: skipped,
	})
}

// runPlacements implements `fapctl placements <snapshot.json> [id...]`:
// query a solved-catalog snapshot written by fapsim -snapshot-out. With
// no ids it prints a one-line summary; with ids it prints each object's
// non-zero placements, largest share first.
func runPlacements(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fapctl placements", flag.ContinueOnError)
	asJSON := fs.Bool("json", false, "emit placements as JSON instead of a table")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() < 1 {
		return fmt.Errorf("usage: fapctl placements [-json] <snapshot.json> [objectID...]")
	}
	raw, err := os.ReadFile(fs.Arg(0))
	if err != nil {
		return err
	}
	snap, err := catalog.DecodeSnapshot(raw)
	if err != nil {
		return err
	}
	if fs.NArg() == 1 {
		fmt.Fprintf(w, "%s: %d objects × %d nodes in %d shards, epoch %d (skew %g, λ %g)\n",
			fs.Arg(0), snap.Objects, snap.Nodes, snap.Shards, snap.Epoch, snap.Skew, snap.Lambda)
		return nil
	}
	type objectPlacements struct {
		Object     int                 `json:"object"`
		Placements []catalog.Placement `json:"placements"`
	}
	var report []objectPlacements
	for _, arg := range fs.Args()[1:] {
		id, err := strconv.Atoi(arg)
		if err != nil {
			return fmt.Errorf("object id %q is not an integer", arg)
		}
		ps, err := snap.Placements(id)
		if err != nil {
			return err
		}
		report = append(report, objectPlacements{Object: id, Placements: ps})
	}
	if *asJSON {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(report)
	}
	for _, op := range report {
		fmt.Fprintf(w, "object %d:\n", op.Object)
		fmt.Fprintf(w, "  %-6s %-10s %s\n", "node", "share", "demand")
		for _, p := range op.Placements {
			fmt.Fprintf(w, "  %-6d %-10.6f %.6f\n", p.Node, p.Share, p.Demand)
		}
	}
	return nil
}

func buildModel(topo string, n int, linkCost, lambda, mu, k float64) (*costmodel.SingleFile, error) {
	g, ok, err := topology.Named(topo, n, linkCost)
	if !ok {
		return nil, fmt.Errorf("unknown -topology %q", topo)
	}
	if err != nil {
		return nil, err
	}
	rates := topology.UniformRates(n, lambda)
	access, err := topology.AccessCosts(g, rates, topology.RoundTrip)
	if err != nil {
		return nil, err
	}
	return costmodel.NewSingleFile(access, []float64{mu}, lambda, k)
}
