package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/gossip"
	"filealloc/internal/metrics"
	"filealloc/internal/sweep"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// broadcastMeasureLimit caps the cluster size at which the broadcast
// reference is actually run; above it the bill row is the analytic
// N·(N−1), which is exact for the all-pairs exchange anyway.
const broadcastMeasureLimit = 64

// runGossip implements `fapctl gossip`: spin up an in-process cluster of
// n nodes, let them agree on the allocation by hierarchical (tree) or
// epidemic (push-sum) aggregation, certify the result against the KKT
// conditions, and print the message bill next to what all-pairs
// broadcast would have cost.
func runGossip(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("fapctl gossip", flag.ContinueOnError)
	n := fs.Int("n", 1000, "cluster size")
	topo := fs.String("topology", "random", "network topology: random | ring | mesh | star")
	extraEdges := fs.Int("extra-edges", -1, "extra random edges beyond the spanning tree (random topology; -1 picks 2n)")
	linkCost := fs.Float64("linkcost", 1, "uniform link cost (ring/mesh/star)")
	lambda := fs.Float64("lambda", 1, "total access rate")
	mu := fs.Float64("mu", 1.5, "per-node service rate μ")
	k := fs.Float64("k", 1, "delay scaling factor")
	alpha := fs.Float64("alpha", 0.1, "stepsize α")
	epsilon := fs.Float64("epsilon", 1e-3, "termination threshold ε (tree and broadcast)")
	gossipEpsilon := fs.Float64("gossip-epsilon", 5e-3,
		"termination threshold for push-sum runs, whose averages carry mixing error the tree scheme does not have")
	kktTol := fs.Float64("kkt-tol", 0, "certification tolerance; 0 picks the mode's default")
	ticks := fs.Int("ticks", 0, "push-sum mixing ticks per round; 0 derives from the topology depth")
	seed := fs.Int64("seed", 42, "topology and exchange-schedule seed")
	mode := fs.String("mode", "tree", "aggregation scheme: tree | gossip | both")
	churn := fs.Int("churn", 0, "crash this many nodes mid-protocol (highest ids first)")
	workers := fs.Int("workers", runtime.GOMAXPROCS(0),
		"access-cost precompute concurrency; results are byte-identical for any value")
	maxRounds := fs.Int("max-rounds", 20000, "total round budget across churn epochs")
	roundTimeout := fs.Duration("round-timeout", 10*time.Second,
		"per-round aggregation deadline; hitting it triggers the churn/retry path")
	metricsOut := fs.String("metrics-out", "",
		"write the run's metrics-registry snapshot as JSON to this file ('-' for stdout)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *workers < 1 {
		return fmt.Errorf("-workers must be at least 1, got %d", *workers)
	}
	if *roundTimeout <= 0 {
		return fmt.Errorf("-round-timeout must be positive, got %s", *roundTimeout)
	}
	var modes []gossip.Mode
	switch *mode {
	case "tree":
		modes = []gossip.Mode{gossip.ModeTree}
	case "gossip":
		modes = []gossip.Mode{gossip.ModeGossip}
	case "both":
		modes = []gossip.Mode{gossip.ModeTree, gossip.ModeGossip}
	default:
		return fmt.Errorf("unknown -mode %q (want tree | gossip | both)", *mode)
	}
	if *churn >= *n {
		return fmt.Errorf("-churn %d would kill the whole %d-node cluster", *churn, *n)
	}

	g, err := buildGossipGraph(*topo, *n, *extraEdges, *linkCost, *seed)
	if err != nil {
		return err
	}
	rates := topology.UniformRates(*n, *lambda)
	access, err := parallelAccessCosts(g, rates, *workers)
	if err != nil {
		return err
	}
	models := make([]agent.LocalModel, *n)
	for i := range models {
		models[i] = agent.LocalModel{
			AccessCost:  access[i],
			ServiceRate: *mu,
			Lambda:      *lambda,
			K:           *k,
		}
	}
	init := make([]float64, *n)
	for i := range init {
		init[i] = 1 / float64(*n)
	}
	var faults *transport.FaultConfig
	if *churn > 0 {
		rules := make([]transport.FaultRule, *churn)
		for i := range rules {
			// Kill the highest ids so the tree root (lowest alive id)
			// survives unless every other node is gone; use -churn with a
			// low-id victim count of n-1 to watch the root die too.
			rules[i] = transport.FaultRule{
				Kind:      transport.FaultCrash,
				Nodes:     []int{*n - 1 - i},
				FromRound: 3, ToRound: 4,
			}
		}
		faults = &transport.FaultConfig{Seed: *seed, Rules: rules}
	}

	var reg *metrics.Registry
	if *metricsOut != "" {
		reg = metrics.New()
	}

	fmt.Fprintf(w, "gossip cluster: n=%d topology=%s seed=%d alpha=%g epsilon=%g wire=binary churn=%d\n",
		*n, *topo, *seed, *alpha, *epsilon, *churn)

	type billRow struct {
		scheme   string
		rounds   int
		messages float64 // per round
		bytes    float64 // per round
		note     string
	}
	rows := []billRow{}
	var failed []string
	broadcast := float64(gossip.BroadcastMessages(*n))
	if *n <= broadcastMeasureLimit && *churn == 0 {
		ref, err := agent.RunCluster(context.Background(), agent.ClusterConfig{
			Agent:  agent.Config{Alpha: *alpha, Epsilon: *epsilon, MaxRounds: *maxRounds},
			Models: models,
			Init:   init,
		})
		if err != nil {
			return fmt.Errorf("broadcast reference: %w", err)
		}
		perRound := float64(ref.Messages) / float64(max(ref.Rounds, 1))
		rows = append(rows, billRow{"broadcast", ref.Rounds, perRound, 0, "measured"})
	} else {
		rows = append(rows, billRow{"broadcast", 0, broadcast, 0, "analytic N(N-1)"})
	}

	for _, m := range modes {
		eps := *epsilon
		if m == gossip.ModeGossip {
			eps = *gossipEpsilon
		}
		start := time.Now()
		res, err := gossip.RunCluster(context.Background(), gossip.ClusterConfig{
			Graph:        g,
			Models:       models,
			Init:         init,
			Alpha:        *alpha,
			Epsilon:      eps,
			Mode:         m,
			Seed:         *seed,
			Ticks:        *ticks,
			KKTTol:       *kktTol,
			Faults:       faults,
			MaxRounds:    *maxRounds,
			RoundTimeout: *roundTimeout,
			Metrics:      reg,
		})
		if err != nil {
			return fmt.Errorf("%s run: %w", m, err)
		}
		elapsed := time.Since(start)
		alive := 0
		var sum float64
		for i, ok := range res.Alive {
			if ok {
				alive++
			}
			sum += res.X[i]
		}
		fmt.Fprintf(w, "%s: rounds=%d epochs=%d converged=%v certified=%v q=%.6f alive=%d/%d sum=%.6f elapsed=%s\n",
			m, res.Rounds, res.Epochs, res.Converged, res.Certified, res.Q, alive, *n,
			sum, elapsed.Round(time.Millisecond))
		rows = append(rows, billRow{m.String(), res.Rounds, res.Bill.MessagesPerRound(), res.Bill.BytesPerRound(), ""})
		if !res.Converged || !res.Certified {
			fmt.Fprintf(w, "warning: %s run did not reach a certified fixed point\n", m)
			failed = append(failed, m.String())
		}
	}

	fmt.Fprintf(w, "message bill (per round, broadcast = %s messages):\n", formatCount(broadcast))
	fmt.Fprintf(w, "  %-10s %10s %12s %12s %12s  %s\n", "scheme", "rounds", "messages", "bytes", "vs broadcast", "")
	for _, r := range rows {
		factor := "1.0x"
		if r.messages > 0 && r.scheme != "broadcast" {
			factor = fmt.Sprintf("%.1fx fewer", broadcast/r.messages)
		}
		byteCol := "-"
		if r.bytes > 0 {
			byteCol = formatCount(r.bytes)
		}
		roundCol := "-"
		if r.rounds > 0 {
			roundCol = fmt.Sprintf("%d", r.rounds)
		}
		fmt.Fprintf(w, "  %-10s %10s %12s %12s %12s  %s\n",
			r.scheme, roundCol, formatCount(r.messages), byteCol, factor, r.note)
	}
	if err := metrics.WriteSnapshot(reg, *metricsOut, w); err != nil {
		return err
	}
	if len(failed) > 0 {
		return fmt.Errorf("uncertified run: %s", strings.Join(failed, ", "))
	}
	return nil
}

// formatCount renders a per-round quantity compactly and stably.
func formatCount(v float64) string {
	switch {
	case v >= 1e6:
		return fmt.Sprintf("%.2fM", v/1e6)
	case v >= 1e4:
		return fmt.Sprintf("%.1fk", v/1e3)
	default:
		return fmt.Sprintf("%.1f", v)
	}
}

// buildGossipGraph constructs the run topology. Random graphs get 2n
// extra edges by default: enough shortcuts to keep the spanning tree
// shallow at n=1000 without approaching mesh densities.
func buildGossipGraph(topo string, n, extraEdges int, linkCost float64, seed int64) (*topology.Graph, error) {
	if topo == "random" {
		if extraEdges < 0 {
			extraEdges = 2 * n
		}
		return topology.RandomConnected(n, extraEdges, 0.1, 1, seed)
	}
	g, ok, err := topology.Named(topo, n, linkCost)
	if !ok {
		return nil, fmt.Errorf("unknown -topology %q (want random | ring | mesh | star)", topo)
	}
	return g, err
}

// parallelAccessCosts computes topology.AccessCosts with the per-source
// shortest-path sweeps spread over a worker pool (sweep.Run). The
// round-trip pair costs and the reduction over sources are then built
// serially with topology's own arithmetic, so the result is
// byte-identical to the serial computation for any worker count.
func parallelAccessCosts(g *topology.Graph, rates []float64, workers int) ([]float64, error) {
	n := g.NumNodes()
	sp := make([][]float64, n)
	err := sweep.Run(context.Background(), n, workers, func(_ context.Context, src int) (err error) {
		sp[src], err = g.ShortestFrom(src)
		return err
	})
	if err != nil {
		return nil, err
	}
	// Round-trip pair costs c_ji = sp(j,i) + sp(i,j), c_jj = 0, in place.
	for j := range sp {
		sp[j][j] = 0
		for i := j + 1; i < n; i++ {
			c := sp[j][i] + sp[i][j]
			sp[j][i], sp[i][j] = c, c
		}
	}
	return topology.AccessCostsFrom(sp, rates)
}
