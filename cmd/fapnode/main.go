// Command fapnode runs ONE node of the decentralized file allocation
// protocol over TCP. Start one fapnode per network node (one per machine,
// container, or terminal); together they negotiate the optimal
// fragmentation of the file and each prints its own final fragment.
//
// Every node must be given the same topology, workload, and algorithm
// parameters; its node id selects which row it plays. Example 4-node
// cluster on one machine:
//
//	fapnode -id 0 -addrs :7000,:7001,:7002,:7003 -init 0.8,0.1,0.1,0.0
//	fapnode -id 1 -addrs :7000,:7001,:7002,:7003 -init 0.8,0.1,0.1,0.0
//	fapnode -id 2 -addrs :7000,:7001,:7002,:7003 -init 0.8,0.1,0.1,0.0
//	fapnode -id 3 -addrs :7000,:7001,:7002,:7003 -init 0.8,0.1,0.1,0.0
//
// By default the topology is a ring with unit link costs and the paper's
// parameters (μ=1.5, k=1, λ=1 split uniformly).
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
	"filealloc/internal/recovery"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

func main() {
	sigc := make(chan os.Signal, 1)
	signal.Notify(sigc, os.Interrupt, syscall.SIGTERM)
	if err := run(os.Args[1:], os.Stdout, sigc); err != nil {
		fmt.Fprintln(os.Stderr, "fapnode:", err)
		os.Exit(1)
	}
}

type result struct {
	Node      int     `json:"node"`
	Fragment  float64 `json:"fragment"`
	Rounds    int     `json:"rounds"`
	Converged bool    `json:"converged"`
	Messages  int     `json:"messages"`
	Restarts  int     `json:"restarts"`
	Resumed   int     `json:"resumed_from_round,omitempty"`
}

// run executes one fapnode. A signal on sigc (SIGINT/SIGTERM in main;
// injectable in tests, nil blocks forever) triggers a graceful shutdown:
// the batch protocol is cancelled cleanly, and serving mode drains
// in-flight /access requests, flushes a final checkpoint, and closes the
// metrics listener before returning.
func run(args []string, out io.Writer, sigc <-chan os.Signal) error {
	fs := flag.NewFlagSet("fapnode", flag.ContinueOnError)
	id := fs.Int("id", 0, "this node's id (row in -addrs)")
	addrsFlag := fs.String("addrs", "", "comma-separated listen addresses, one per node (required)")
	topo := fs.String("topology", "ring", "network topology: ring | mesh | star")
	linkCost := fs.Float64("linkcost", 1, "uniform link cost")
	ratesFlag := fs.String("rates", "", "comma-separated per-node access rates (default: uniform summing to -lambda)")
	lambda := fs.Float64("lambda", 1, "total access rate when -rates is not given")
	mu := fs.Float64("mu", 1.5, "service rate μ (uniform)")
	k := fs.Float64("k", 1, "delay/communication scaling factor")
	alpha := fs.Float64("alpha", 0.3, "stepsize α")
	epsilon := fs.Float64("epsilon", 1e-3, "termination threshold ε")
	initFlag := fs.String("init", "", "comma-separated initial allocation (default: uniform)")
	mode := fs.String("mode", "broadcast", "aggregation mode: broadcast | coordinator")
	coordinator := fs.Int("coordinator", 0, "coordinator node id in coordinator mode")
	timeout := fs.Duration("round-timeout", 30*time.Second, "per-round message wait")
	maxRounds := fs.Int("max-rounds", 10000, "round budget")
	verbose := fs.Bool("v", false, "log round events and transport errors to stderr")
	ckptDir := fs.String("checkpoint-dir", "", "write per-round checkpoints here and resume from the latest valid one on start (broadcast mode)")
	maxRestarts := fs.Int("max-restarts", 0, "supervised in-process restarts after a crash-class failure (0: run once)")
	quorum := fs.Int("quorum", 0, "finish a round at its deadline once this many reports (incl. own) arrived; 0 requires full rounds (broadcast mode)")
	departAfter := fs.Int("depart-after", 0, "declare a peer departed after this many consecutive missed quorum rounds (requires -quorum)")
	metricsAddr := fs.String("metrics-addr", "", "serve /metrics (Prometheus text), /healthz, and /debug/pprof on this address (empty: disabled)")
	serveFlag := fs.Bool("serve", false, "keep serving /access after convergence with live drift-triggered re-planning (requires -metrics-addr and -mode broadcast)")
	serveHalfLife := fs.Float64("serve-halflife", 2, "serving mode: demand-estimate half-life in seconds")
	replanInterval := fs.Duration("replan-interval", time.Second, "serving mode: how often sensed demand is checked for drift")
	if err := fs.Parse(args); err != nil {
		return err
	}
	addrs := splitNonEmpty(*addrsFlag)
	n := len(addrs)
	if n < 2 {
		return fmt.Errorf("-addrs must list at least two nodes, got %d", n)
	}
	if *id < 0 || *id >= n {
		return fmt.Errorf("-id %d outside cluster of %d nodes", *id, n)
	}

	rates, err := parseVector(*ratesFlag, n)
	if err != nil {
		return fmt.Errorf("parsing -rates: %w", err)
	}
	if rates == nil {
		rates = topology.UniformRates(n, *lambda)
	}
	init, err := parseVector(*initFlag, n)
	if err != nil {
		return fmt.Errorf("parsing -init: %w", err)
	}
	if init == nil {
		init = topology.UniformRates(n, 1) // uniform fractions
	}

	g, err := buildGraph(*topo, n, *linkCost)
	if err != nil {
		return err
	}
	model, err := modelFromGraph(g, rates, *mu, *k)
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
	recoverable := *ckptDir != "" || *maxRestarts != 0
	if recoverable && agentMode != agent.Broadcast {
		return fmt.Errorf("-checkpoint-dir and -max-restarts require -mode broadcast")
	}
	if *serveFlag {
		if *metricsAddr == "" {
			return fmt.Errorf("-serve requires -metrics-addr (the /access endpoint is served there)")
		}
		if agentMode != agent.Broadcast {
			return fmt.Errorf("-serve requires -mode broadcast (serving needs the full converged allocation)")
		}
	}

	var obs agent.Observer = agent.NopObserver{}
	if *verbose {
		obs = agent.NewLogObserver(os.Stderr)
	}
	var reg *metrics.Registry
	if *metricsAddr != "" {
		reg = metrics.New()
		obs = agent.MultiObserver{obs, agent.NewMetricsObserver(reg)}
	}
	// Read-loop errors (oversized or garbled frames, resets mid-stream)
	// happen outside any Send/Recv call; route them to the observer so
	// they are never silently swallowed.
	readErrs := transport.WithReadErrorHook(func(remote string, err error) {
		obs.TransportError(*id, fmt.Sprintf("read from %s: %v", remote, err))
	})
	ep, err := transport.ListenTCP(*id, addrs, readErrs)
	if err != nil {
		return err
	}
	defer ep.Close() //nolint:errcheck // process exit follows

	fmt.Fprintf(os.Stderr, "fapnode %d: listening on %s, C_i=%.4f, waiting for peers...\n",
		*id, ep.Addr(), model.AccessCost(*id))

	var (
		agentEP transport.Endpoint = ep
		srv     *http.Server
		access  *accessServer
	)
	if reg != nil {
		agentEP = transport.NewMeteredEndpoint(ep, reg)
		mux := metricsMux(reg, *id)
		if *serveFlag {
			access, err = newAccessServer(*id, n, g, *mu, *k, serveOptions{
				halfLife: *serveHalfLife,
				interval: *replanInterval,
			}, reg, obs)
			if err != nil {
				return err
			}
			mux.HandleFunc("/access", access.handleAccess)
		}
		ln, err := net.Listen("tcp", *metricsAddr)
		if err != nil {
			return fmt.Errorf("metrics listener: %w", err)
		}
		srv = &http.Server{Handler: mux}
		go srv.Serve(ln)  //nolint:errcheck // reports ErrServerClosed on shutdown
		defer srv.Close() //nolint:errcheck // backstop; the serve path shuts down gracefully first
		fmt.Fprintf(os.Stderr, "fapnode %d: observability on http://%s (/metrics, /healthz, /debug/pprof)\n", *id, ln.Addr())
	}

	// A signal cancels the protocol context: the batch run unwinds
	// cleanly, and serving mode leaves its serve loop to drain and exit.
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var signalled atomic.Bool
	go func() {
		select {
		case <-sigc:
			signalled.Store(true)
			cancel()
		case <-ctx.Done():
		}
	}()

	cfg := agent.Config{
		Endpoint:      agentEP,
		Model:         agent.ModelsFromSingleFile(model)[*id],
		Init:          init[*id],
		Alpha:         *alpha,
		Epsilon:       *epsilon,
		MaxRounds:     *maxRounds,
		Mode:          agentMode,
		CoordinatorID: *coordinator,
		RoundTimeout:  *timeout,
		Observer:      obs,
		Quorum:        *quorum,
		DepartAfter:   *departAfter,
	}

	resumedFrom := 0
	var store recovery.Resumer = recovery.NewMemStore(*id, n)
	if *ckptDir != "" {
		s, err := recovery.NewStore(*ckptDir, *id, n)
		if err != nil {
			return err
		}
		store = s
		// A restarted process picks up where its predecessor died: the
		// latest valid checkpoint becomes the starting round.
		ck, ok, err := s.Latest()
		if err != nil {
			return err
		}
		if ok {
			cfg.Resume = ck.State()
			resumedFrom = ck.Round
			obs.RecoveryEvent(*id, ck.Round, "resume", "process start resuming from checkpoint")
			fmt.Fprintf(os.Stderr, "fapnode %d: resuming from round-%d checkpoint in %s\n", *id, ck.Round, s.Dir())
		}
	}

	var (
		outcome  agent.Outcome
		restarts int
	)
	if *maxRestarts != 0 {
		sout, serr := recovery.RunSupervisedAgent(ctx, cfg, recovery.SupervisorConfig{
			MaxRestarts: *maxRestarts,
			Seed:        int64(*id) + 1,
		}, store)
		if serr != nil {
			if signalled.Load() {
				fmt.Fprintf(os.Stderr, "fapnode %d: interrupted, shutting down cleanly\n", *id)
				return nil
			}
			return serr
		}
		outcome, restarts = sout.Outcome, sout.Restarts
	} else {
		if recoverable {
			cfg.Checkpoint = store
		}
		outcome, err = agent.Run(ctx, cfg)
		if err != nil {
			if signalled.Load() {
				fmt.Fprintf(os.Stderr, "fapnode %d: interrupted, shutting down cleanly\n", *id)
				return nil
			}
			return err
		}
	}
	enc := json.NewEncoder(out)
	if err := enc.Encode(result{
		Node:      *id,
		Fragment:  outcome.X,
		Rounds:    outcome.Rounds,
		Converged: outcome.Converged,
		Messages:  outcome.MessagesSent,
		Restarts:  restarts,
		Resumed:   resumedFrom,
	}); err != nil {
		return err
	}
	if access == nil {
		return nil
	}
	return serveUntilSignal(ctx, access, srv, store, outcome, rates, *id, *ckptDir != "")
}

// serveUntilSignal is the serving-mode tail of run: activate a certified
// plan warm-started from the converged one, sense demand and re-plan on
// drift until the signal context is cancelled, then drain in-flight
// /access requests, flush a final checkpoint, and close the
// observability listener.
func serveUntilSignal(ctx context.Context, access *accessServer, srv *http.Server, store recovery.Resumer, outcome agent.Outcome, rates []float64, id int, persist bool) error {
	fullX := outcome.FullX
	if len(fullX) == 0 {
		return fmt.Errorf("fapnode %d: serve mode needs the full allocation but the outcome has none", id)
	}
	// The batch run's membership (all alive when it reports none) is what
	// the serving plans are solved over and what the final checkpoint
	// records.
	alive := outcome.Alive
	if len(alive) != len(fullX) {
		alive = make([]bool, len(fullX))
		for i := range alive {
			alive[i] = true
		}
	}
	if err := access.activate(ctx, fullX, rates, alive); err != nil {
		return fmt.Errorf("fapnode %d: %w", id, err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		access.replanLoop(ctx)
	}()
	fmt.Fprintf(os.Stderr, "fapnode %d: serving /access (re-plan interval %s); SIGINT/SIGTERM drains and exits\n",
		id, access.opts.interval)
	<-ctx.Done()
	wg.Wait()

	// Drain: in-flight /access requests finish under the plan that
	// admitted them; new connections are refused.
	shctx, shcancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer shcancel()
	if err := srv.Shutdown(shctx); err != nil {
		fmt.Fprintf(os.Stderr, "fapnode %d: draining access server: %v\n", id, err)
	}

	plan := access.rp.Plan()
	epoch, x := plan.Epoch, plan.X
	if persist {
		round := outcome.Rounds + epoch
		if err := store.SaveRound(agent.RoundState{Round: round, X: x[id], FullX: x, Alive: alive}); err != nil {
			return fmt.Errorf("fapnode %d: final checkpoint: %w", id, err)
		}
		fmt.Fprintf(os.Stderr, "fapnode %d: flushed final checkpoint (round %d, epoch %d)\n", id, round, epoch)
	}
	fmt.Fprintf(os.Stderr, "fapnode %d: shutdown complete (served epoch %d)\n", id, epoch)
	return nil
}

func buildModel(topo string, n int, linkCost float64, rates []float64, mu, k float64) (*costmodel.SingleFile, error) {
	g, err := buildGraph(topo, n, linkCost)
	if err != nil {
		return nil, err
	}
	return modelFromGraph(g, rates, mu, k)
}

func buildGraph(topo string, n int, linkCost float64) (*topology.Graph, error) {
	g, ok, err := topology.Named(topo, n, linkCost)
	if !ok {
		return nil, fmt.Errorf("unknown -topology %q", topo)
	}
	return g, err
}

func modelFromGraph(g *topology.Graph, rates []float64, mu, k float64) (*costmodel.SingleFile, error) {
	access, err := topology.AccessCosts(g, rates, topology.RoundTrip)
	if err != nil {
		return nil, err
	}
	var lambda float64
	for _, r := range rates {
		lambda += r
	}
	return costmodel.NewSingleFile(access, []float64{mu}, lambda, k)
}

func splitNonEmpty(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := parts[:0]
	for _, p := range parts {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

func parseVector(s string, n int) ([]float64, error) {
	if s == "" {
		return nil, nil
	}
	parts := splitNonEmpty(s)
	if len(parts) != n {
		return nil, fmt.Errorf("want %d values, got %d", n, len(parts))
	}
	out := make([]float64, n)
	for i, p := range parts {
		v, err := strconv.ParseFloat(p, 64)
		if err != nil {
			return nil, fmt.Errorf("value %d: %w", i, err)
		}
		out[i] = v
	}
	return out, nil
}
