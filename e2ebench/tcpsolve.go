package main

import (
	"context"
	"fmt"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
	"filealloc/internal/transport"
)

// The tcp-solve inputs.
const (
	tcpNodes      = 16
	tcpAlpha      = 0.3
	tcpEpsilon    = 1e-4
	tcpWarmups    = 8 // untimed solves per set-up: lazy dials and the slow first solves
	tcpSetups     = 5
	tcpPool       = 64 // seeded instances a run rotates through
	tcpSpansPerOp = 14_000
	tcpCapture    = 4096 // sent payloads kept for the codec replay
	solveTimeout  = time.Minute
)

// clusterInputs derives one solve's inputs from seed: a random connected
// graph of n nodes with 2n extra links of cost [0.1, 1), uniform access
// rates summing to λ = 1, service rate μ = 1.5 and k = 1 on every node.
// The nodes' models differ in their access costs. It returns the per-node
// models and the equivalent whole-file cost model the output checks use.
func clusterInputs(n int, seed int64) (*topology.Graph, []agent.LocalModel, *costmodel.SingleFile, error) {
	g, err := topology.RandomConnected(n, 2*n, 0.1, 1, seed)
	if err != nil {
		return nil, nil, nil, err
	}
	access, err := topology.AccessCosts(g, topology.UniformRates(n, 1), topology.RoundTrip)
	if err != nil {
		return nil, nil, nil, err
	}
	mu := make([]float64, n)
	models := make([]agent.LocalModel, n)
	for i := range models {
		mu[i] = 1.5
		models[i] = agent.LocalModel{AccessCost: access[i], ServiceRate: mu[i], Lambda: 1, K: 1}
	}
	whole, err := costmodel.NewSingleFile(access, mu, 1, 1)
	if err != nil {
		return nil, nil, nil, err
	}
	return g, models, whole, nil
}

// tcpInstance is one seeded solve: per-node models and the whole-file
// model its output is checked against.
type tcpInstance struct {
	models []agent.LocalModel
	whole  *costmodel.SingleFile
}

// tcpCluster is the set-up of tcp-solve: one loopback TCP endpoint per
// node with a complete address book. Connections are dialed lazily by the
// first solve and reused by every later one.
type tcpCluster struct {
	eps []*transport.TCPEndpoint
}

func newTCPCluster(n int) (*tcpCluster, error) {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = "127.0.0.1:0"
	}
	c := &tcpCluster{}
	for i := 0; i < n; i++ {
		ep, err := transport.ListenTCP(i, addrs)
		if err != nil {
			c.close()
			return nil, err
		}
		c.eps = append(c.eps, ep)
	}
	for _, ep := range c.eps {
		for j, peer := range c.eps {
			if err := ep.SetPeerAddr(j, peer.Addr()); err != nil {
				c.close()
				return nil, err
			}
		}
	}
	return c, nil
}

func (c *tcpCluster) close() {
	for _, ep := range c.eps {
		if err := ep.Close(); err != nil {
			fmt.Fprintln(os.Stderr, "e2ebench: closing endpoint:", err)
		}
	}
}

// tcpSolve runs one broadcast-mode solve over the given endpoints, the
// whole file starting at node 0, and returns every node's outcome.
func tcpSolve(eps []transport.Endpoint, models []agent.LocalModel, obs agent.Observer) ([]agent.Outcome, error) {
	ctx, cancel := context.WithTimeout(context.Background(), solveTimeout)
	defer cancel()
	outs := make([]agent.Outcome, len(eps))
	errs := make([]error, len(eps))
	var wg sync.WaitGroup
	for i := range eps {
		init := 0.0
		if i == 0 {
			init = 1
		}
		cfg := agent.Config{
			Endpoint: eps[i], Model: models[i], Init: init,
			Alpha: tcpAlpha, Epsilon: tcpEpsilon, Mode: agent.Broadcast, Observer: obs,
		}
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			outs[i], errs[i] = agent.Run(ctx, cfg)
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			return nil, fmt.Errorf("node %d: %w", i, err)
		}
	}
	return outs, nil
}

// checkSolve verifies one solve's outputs: every node converged after the
// same number of rounds, and the assembled allocation is feasible and
// KKT-optimal for the whole-file model.
func checkSolve(res *result, whole *costmodel.SingleFile, outs []agent.Outcome) bool {
	x := make([]float64, len(outs))
	ok := true
	for i, o := range outs {
		x[i] = o.X
		if !o.Converged || o.Rounds != outs[0].Rounds {
			res.check(false, "node %d: converged=%v after %d rounds, node 0 after %d", i, o.Converged, o.Rounds, outs[0].Rounds)
			ok = false
		}
	}
	if msg := verifyAlloc(nil, whole, x, kktCheckTol); msg != "" {
		res.check(false, "assembled allocation: %s", msg)
		ok = false
	}
	return ok
}

// runTCPSolve times certified 16-node solves over loopback TCP. The
// operation is one solve; the work items are solves.
func runTCPSolve(cfg runConfig, res *result) error {
	var insts []tcpInstance
	for k := 0; k < tcpPool; k++ {
		_, models, whole, err := clusterInputs(tcpNodes, instanceSeed(cfg.seed, tcpPool, k))
		if err != nil {
			return err
		}
		insts = append(insts, tcpInstance{models, whole})
	}
	var err error
	var cluster *tcpCluster
	var setups, firsts []float64
	for i := 0; i < tcpSetups; i++ {
		if cluster != nil {
			cluster.close()
		}
		settle()
		start := time.Now()
		cluster, err = newTCPCluster(tcpNodes)
		if err != nil {
			return err
		}
		for w := 0; w < tcpWarmups; w++ {
			inst := insts[w%len(insts)]
			t0 := time.Now()
			outs, err := tcpSolve(plainEndpoints(cluster.eps), inst.models, nil)
			if err != nil {
				cluster.close()
				return fmt.Errorf("warm-up solve: %w", err)
			}
			if w == 0 {
				firsts = append(firsts, time.Since(t0).Seconds())
			}
			checkSolve(res, inst.whole, outs)
		}
		setups = append(setups, time.Since(start).Seconds())
	}
	defer cluster.close()
	res.set("setup_s", median(setups))
	res.set("cold_plan_ms", 1e3*median(firsts))
	res.set("heap_mb", heapMB())

	var plain, traced []float64
	var solveID int64
	tel := &tcpTelemetry{}
	op := func(tr bool) error {
		inst := insts[solveID%int64(len(insts))]
		solveID++
		eps := plainEndpoints(cluster.eps)
		var obs agent.Observer
		var solveSpan int32 = -1
		if tr {
			solveSpan = cfg.tracer.add(span{Name: "agent.solve", Start: cfg.tracer.now(), Parent: -1, ID: solveID, Node: -1})
			ro := newRoundObserver(cfg.tracer, tcpNodes, solveSpan, solveID)
			obs = ro
			for i := range eps {
				eps[i] = &timingEndpoint{inner: eps[i], t: cfg.tracer, rounds: ro, tel: tel}
			}
		}
		start := time.Now()
		outs, err := tcpSolve(eps, inst.models, obs)
		d := time.Since(start)
		if err != nil {
			return err
		}
		res.Attempted++
		if !checkSolve(res, inst.whole, outs) {
			res.Failed++
		}
		if tr {
			tel.rounds += outs[0].Rounds
			cfg.tracer.finish(solveSpan, cfg.tracer.now())
			traced = append(traced, d.Seconds())
		} else {
			plain = append(plain, d.Seconds())
		}
		return nil
	}
	if err := loop(cfg, cfg.window, tcpSpansPerOp, op); err != nil {
		return err
	}

	solves := plain
	if cfg.tracer != nil {
		solves = traced
	}
	res.setOperations(solves)
	res.set("work_per_s", 1/median(solves))
	if cfg.tracer == nil {
		return nil
	}
	res.set("trace.slowdown_ratio", ratio(median(traced), median(plain)))
	tel.report(cfg.tracer, res, len(traced))
	return nil
}

func plainEndpoints(eps []*transport.TCPEndpoint) []transport.Endpoint {
	out := make([]transport.Endpoint, len(eps))
	for i, ep := range eps {
		out[i] = ep
	}
	return out
}

// tcpTelemetry accumulates the counts the timing endpoints and the
// observer see across all traced solves.
type tcpTelemetry struct {
	msgs, bytes atomic.Int64
	rounds      int // agent-reported rounds, summed over solves

	mu       sync.Mutex
	captured [][]byte
}

func (tel *tcpTelemetry) capture(payload []byte) {
	tel.mu.Lock()
	if len(tel.captured) < tcpCapture {
		tel.captured = append(tel.captured, append([]byte(nil), payload...))
	}
	tel.mu.Unlock()
}

// report derives the tcp-solve layer metrics from the spans and runs the
// round-accounting self-test. A node's round is split into send and
// recv-wait (the decorator's spans), step (ReportsCollected→StepApplied),
// compute (RoundStarted→first send: the marginal and the report
// encoding) and decode (the gaps between consecutive receives, where the
// agent decodes and buffers each report). The parts must not overlap, and
// over all traced rounds they must account for the rounds' wall time to
// within roundRemainderMax.
func (tel *tcpTelemetry) report(t *tracer, res *result, solves int) {
	spans := t.snapshot()
	kids := children(spans)
	names := byName(spans)
	var wall, parts, compute, decode float64
	var overlapping int
	for i, sp := range spans {
		if sp.Name != "agent.round" {
			continue
		}
		var p int64
		firstSend, lastRecvEnd := int64(-1), int64(-1)
		for _, k := range kids[int32(i)] { // in time order: one node's calls are sequential
			c := spans[k]
			switch c.Name {
			case "transport.send":
				if firstSend < 0 {
					firstSend = c.Start
				}
			case "transport.recv":
				if lastRecvEnd >= 0 && c.Start > lastRecvEnd {
					decode += float64(c.Start - lastRecvEnd)
					p += c.Start - lastRecvEnd
				}
				lastRecvEnd = c.End
			case "agent.step":
			default:
				continue
			}
			p += c.dur()
		}
		if firstSend >= 0 {
			compute += float64(firstSend - sp.Start)
			p += firstSend - sp.Start
		}
		if float64(p) > 1.01*float64(sp.dur()) {
			overlapping++
		}
		wall += float64(sp.dur())
		parts += float64(p)
	}
	unaccounted := ratio(wall-parts, wall)
	t.note("tcp.round_wall_ns", wall)
	t.note("tcp.round_parts_ns", parts)
	t.note("tcp.round_compute_share", ratio(compute, wall))
	t.note("tcp.round_decode_share", ratio(decode, wall))
	res.set("agent.round_unaccounted_ratio", unaccounted)
	res.check(wall > 0, "self-test: no traced round")
	res.check(overlapping == 0, "self-test: %d rounds whose parts exceed the round's wall time", overlapping)
	res.check(unaccounted >= 0 && unaccounted <= roundRemainderMax,
		"self-test: send + recv-wait + step + compute + decode = %.0f ns of %.0f ns round time (remainder %.3f, want 0..%.2f)", parts, wall, unaccounted, roundRemainderMax)

	rounds := len(names["agent.round"]) / tcpNodes // rounds started, per cluster
	res.set("agent.rounds_per_solve", ratio(float64(tel.rounds), float64(solves)))
	res.set("agent.round_us_p50", median(names["agent.round"])/1e3)
	res.set("agent.collect_us_p50", median(names["agent.collect"])/1e3)
	res.set("agent.step_us_p50", median(names["agent.step"])/1e3)
	res.set("transport.send_us_p50", median(names["transport.send"])/1e3)
	res.set("transport.send_us_p99", quantile(names["transport.send"], 0.99)/1e3)
	res.set("transport.recv_wait_us_p50", median(names["transport.recv"])/1e3)
	res.set("transport.msgs_per_round", ratio(float64(tel.msgs.Load()), float64(rounds)))
	res.set("transport.bytes_per_msg", ratio(float64(tel.bytes.Load()), float64(tel.msgs.Load())))
	res.set("transport.wire_bytes_per_solve", ratio(float64(tel.bytes.Load()), float64(solves)))

	enc, dec := replayJSON(tel.captured)
	res.set("protocol.json_encode_ns", enc)
	res.set("protocol.json_decode_ns", dec)
}

// roundRemainderMax bounds the share of round time the self-test lets go
// unattributed: the gaps between sends, the observer's own bookkeeping,
// and scheduling delays that fall between spans.
const roundRemainderMax = 0.05

// replayJSON times protocol.Decode and protocol.EncodeReport over the
// captured report payloads, repeating the pass until it has run for
// codecReplayMin, and returns nanoseconds per message.
func replayJSON(payloads [][]byte) (encNs, decNs float64) {
	if len(payloads) == 0 {
		return 0, 0
	}
	reports := make([]protocol.Report, 0, len(payloads))
	for _, p := range payloads {
		env, err := protocol.Decode(p)
		if err == nil && env.Report != nil {
			reports = append(reports, *env.Report)
		}
	}
	decNs = perMessage(len(payloads), func(i int) {
		_, _ = protocol.Decode(payloads[i]) // decoded once above; errors cannot appear on the replay
	})
	encNs = perMessage(len(reports), func(i int) {
		_, _ = protocol.EncodeReport(reports[i]) // a report that decoded encodes
	})
	return encNs, decNs
}

// timingEndpoint is a transport.Endpoint decorator that records every
// Send and Recv as a span under the sending or receiving node's current
// round, counts messages and payload bytes, and keeps a sample of the
// payloads for the codec replay.
type timingEndpoint struct {
	inner  transport.Endpoint
	t      *tracer
	rounds *roundObserver
	tel    *tcpTelemetry
}

func (e *timingEndpoint) ID() int    { return e.inner.ID() }
func (e *timingEndpoint) Peers() int { return e.inner.Peers() }

func (e *timingEndpoint) Send(ctx context.Context, to int, payload []byte) error {
	start := e.t.now()
	err := e.inner.Send(ctx, to, payload)
	e.t.add(span{Name: "transport.send", Start: start, End: e.t.now(), Parent: e.rounds.current(e.inner.ID()), ID: e.rounds.solveID, Node: int32(e.inner.ID())})
	if err == nil {
		e.tel.msgs.Add(1)
		e.tel.bytes.Add(int64(len(payload)))
		e.tel.capture(payload)
	}
	return err
}

func (e *timingEndpoint) Recv(ctx context.Context) (transport.Message, error) {
	start := e.t.now()
	msg, err := e.inner.Recv(ctx)
	e.t.add(span{Name: "transport.recv", Start: start, End: e.t.now(), Parent: e.rounds.current(e.inner.ID()), ID: e.rounds.solveID, Node: int32(e.inner.ID())})
	return msg, err
}

func (e *timingEndpoint) Close() error { return e.inner.Close() }

// roundObserver is an agent.Observer that timestamps the round events of
// one solve: it keeps each node's open round span, and records the
// collect (RoundStarted→ReportsCollected) and step
// (ReportsCollected→StepApplied, or →RunFinished on the converging round)
// spans under it.
type roundObserver struct {
	agent.NopObserver
	t       *tracer
	solve   int32
	solveID int64

	mu        sync.Mutex
	round     []int32 // open round span per node, -1 between rounds
	collected []int64 // ReportsCollected time per node in the open round
}

func newRoundObserver(t *tracer, n int, solve int32, solveID int64) *roundObserver {
	o := &roundObserver{t: t, solve: solve, solveID: solveID, round: make([]int32, n), collected: make([]int64, n)}
	for i := range o.round {
		o.round[i] = -1
	}
	return o
}

// current is node's open round span (-1 outside a round).
func (o *roundObserver) current(node int) int32 {
	o.mu.Lock()
	defer o.mu.Unlock()
	return o.round[node]
}

func (o *roundObserver) RoundStarted(node, round int) {
	now := o.t.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	if prev := o.round[node]; prev >= 0 {
		o.t.finish(prev, now)
	}
	o.round[node] = o.t.add(span{Name: "agent.round", Start: now, Parent: o.solve, ID: o.solveID, Node: int32(node)})
	o.collected[node] = 0
}

func (o *roundObserver) ReportsCollected(node, round, got, want int) {
	now := o.t.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.round[node]
	if cur < 0 {
		return
	}
	o.collected[node] = now
	o.t.add(span{Name: "agent.collect", Start: o.t.start(cur), End: now, Parent: cur, ID: o.solveID, Node: int32(node)})
}

func (o *roundObserver) StepApplied(node, round int, deltaU float64, activeSet int) {
	o.endStep(node, false)
}

func (o *roundObserver) RunFinished(node, rounds int, converged bool) {
	o.endStep(node, true)
}

// endStep records the open round's step span and, when last is set,
// closes the round.
func (o *roundObserver) endStep(node int, last bool) {
	now := o.t.now()
	o.mu.Lock()
	defer o.mu.Unlock()
	cur := o.round[node]
	if cur < 0 {
		return
	}
	if from := o.collected[node]; from > 0 {
		o.t.add(span{Name: "agent.step", Start: from, End: now, Parent: cur, ID: o.solveID, Node: int32(node)})
		o.collected[node] = 0
	}
	if last {
		o.t.finish(cur, now)
		o.round[node] = -1
	}
}
