package main

import (
	"context"
	"fmt"
	"math"
	"sort"
	"sync"
	"time"

	"filealloc/internal/agent"
	"filealloc/internal/costmodel"
	"filealloc/internal/gossip"
	"filealloc/internal/metrics"
	"filealloc/internal/protocol"
	"filealloc/internal/topology"
)

// The gossip-tree inputs.
const (
	gossipNodes      = 64
	gossipAlpha      = 0.3
	gossipEpsilon    = 1e-3
	gossipKKTTol     = 0.02 // the cluster's own certification tolerance
	gossipSetups     = 9
	gossipPool       = 16 // seeded instances a run rotates through
	gossipSpansPerOp = 200
)

// gossipInstance is one seeded tree-aggregation problem.
type gossipInstance struct {
	graph  *topology.Graph
	models []agent.LocalModel
	whole  *costmodel.SingleFile
	init   []float64
	bill   *gossip.Bill // the first solve's bill; every later solve must match it
}

// runGossipTree times certified 64-node tree-aggregation solves over the
// in-process memory network with the binary codec and the coalescer. The
// operation is one solve; the work items are solves.
func runGossipTree(cfg runConfig, res *result) error {
	var insts []*gossipInstance
	var setups, firsts []float64
	for i := 0; i < gossipSetups; i++ {
		settle()
		start := time.Now()
		insts = insts[:0]
		for k := 0; k < gossipPool; k++ {
			g, models, whole, err := clusterInputs(gossipNodes, instanceSeed(cfg.seed, gossipPool, k))
			if err != nil {
				return err
			}
			init := make([]float64, gossipNodes)
			for j := range init {
				init[j] = 1 / float64(gossipNodes)
			}
			insts = append(insts, &gossipInstance{graph: g, models: models, whole: whole, init: init})
		}
		t0 := time.Now()
		r, err := gossip.RunCluster(context.Background(), gossipConfig(insts[0], nil, nil))
		if err != nil {
			return fmt.Errorf("warm-up solve: %w", err)
		}
		firsts = append(firsts, time.Since(t0).Seconds())
		checkGossip(res, insts[0], r, false)
		setups = append(setups, time.Since(start).Seconds())
	}
	res.set("setup_s", median(setups))
	res.set("cold_plan_ms", 1e3*median(firsts))
	res.set("heap_mb", heapMB())

	var plain, traced []float64
	var solves int
	var rounds, epochs, msgs, frames, bytes float64
	var roundDurs []float64
	var last gossip.ClusterResult
	op := func(tr bool) error {
		inst := insts[solves%len(insts)]
		solves++
		var rec *roundRecorder
		var reg *metrics.Registry
		var solveSpan int32 = -1
		if tr {
			rec = &roundRecorder{t: cfg.tracer}
			reg = metrics.New()
			solveSpan = cfg.tracer.add(span{Name: "gossip.solve", Start: cfg.tracer.now(), Parent: -1, ID: int64(solves), Node: -1})
		}
		start := time.Now()
		r, err := gossip.RunCluster(context.Background(), gossipConfig(inst, rec, reg))
		d := time.Since(start)
		if err != nil {
			return err
		}
		res.Attempted++
		if !checkGossip(res, inst, r, true) {
			res.Failed++
		}
		last = r
		if !tr {
			plain = append(plain, d.Seconds())
			return nil
		}
		end := cfg.tracer.now()
		cfg.tracer.finish(solveSpan, end)
		traced = append(traced, d.Seconds())
		roundDurs = append(roundDurs, rec.spans(solveSpan, int64(solves))...)
		rounds += float64(r.Rounds)
		epochs += float64(r.Epochs)
		snap := counters(reg)
		res.check(snap["gossip_messages_total"] == r.Bill.Messages && snap["gossip_frames_total"] == r.Bill.Frames && snap["gossip_bytes_total"] == r.Bill.Bytes,
			"metrics registry %v disagrees with the bill %+v", snap, r.Bill)
		msgs += float64(r.Bill.Messages)
		frames += float64(r.Bill.Frames)
		bytes += float64(r.Bill.Bytes)
		return nil
	}
	if err := loop(cfg, cfg.window, gossipSpansPerOp, op); err != nil {
		return err
	}

	times := plain
	if cfg.tracer != nil {
		times = traced
	}
	res.setOperations(times)
	res.set("work_per_s", 1/median(times))
	if cfg.tracer == nil {
		return nil
	}
	n := float64(len(traced))
	res.set("trace.slowdown_ratio", ratio(median(traced), median(plain)))
	res.set("gossip.rounds_per_solve", rounds/n)
	res.set("gossip.epochs_per_solve", epochs/n)
	res.set("gossip.round_us_p50", median(roundDurs)/1e3)
	res.set("gossip.msgs_per_round", ratio(msgs, rounds))
	res.set("transport.coalesce_ratio", ratio(msgs, frames))
	res.set("protocol.binary_bytes_per_msg", ratio(bytes, msgs))
	res.set("transport.wire_bytes_per_solve", bytes/n)
	enc, dec := replayBinary(insts[0], last)
	res.set("protocol.binary_encode_ns", enc)
	res.set("protocol.binary_decode_ns", dec)
	return nil
}

// instanceSeed derives the seed of the k-th of pool instances from the
// run seed. Workloads rotate through a pool of seeded instances so that a
// run's median covers many inputs and moves less from seed to seed than
// one instance's cost does.
func instanceSeed(seed int64, pool, k int) int64 {
	return seed*int64(pool) + int64(k)
}

func gossipConfig(inst *gossipInstance, rec *roundRecorder, reg *metrics.Registry) gossip.ClusterConfig {
	cfg := gossip.ClusterConfig{
		Graph:   inst.graph,
		Models:  inst.models,
		Init:    inst.init,
		Alpha:   gossipAlpha,
		Epsilon: gossipEpsilon,
		Mode:    gossip.ModeTree,
		KKTTol:  gossipKKTTol,
		Metrics: reg,
	}
	if rec != nil {
		cfg.OnRound = rec.onRound
	}
	return cfg
}

// checkGossip verifies one solve: converged and certified, a feasible
// allocation that is KKT-optimal at the exact water-filling price to the
// cluster's own tolerance, and, when sameBill is set, the same message
// bill as the instance's first solve.
func checkGossip(res *result, inst *gossipInstance, r gossip.ClusterResult, sameBill bool) bool {
	ok := true
	fail := func(format string, args ...any) {
		res.check(false, format, args...)
		ok = false
	}
	if !r.Converged || !r.Certified {
		fail("gossip solve: converged=%v certified=%v", r.Converged, r.Certified)
	}
	if msg := verifyAlloc(nil, inst.whole, r.X, gossipKKTTol); msg != "" {
		fail("gossip allocation: %s", msg)
	}
	if inst.bill == nil {
		b := r.Bill
		inst.bill = &b
	} else if sameBill && r.Bill != *inst.bill {
		fail("gossip bill %+v differs from the first solve's %+v", r.Bill, *inst.bill)
	}
	return ok
}

// roundRecorder timestamps gossip.ClusterConfig.OnRound calls: every node
// reports each step it applies.
type roundRecorder struct {
	t      *tracer
	mu     sync.Mutex
	events []roundEvent
}

type roundEvent struct {
	epoch, round int
	t            int64
}

func (r *roundRecorder) onRound(epoch, round, node int, x float64) {
	t := r.t.now()
	r.mu.Lock()
	r.events = append(r.events, roundEvent{epoch, round, t})
	r.mu.Unlock()
}

// spans turns the events into one span per round: from the moment the
// last node applied the previous round's step (the solve start for the
// first round) to the moment the last node applied this round's. It
// records them under parent and returns their durations.
func (r *roundRecorder) spans(parent int32, id int64) []float64 {
	t := r.t
	type key struct{ epoch, round int }
	last := make(map[key]int64)
	for _, e := range r.events {
		k := key{e.epoch, e.round}
		if e.t > last[k] {
			last[k] = e.t
		}
	}
	keys := make([]key, 0, len(last))
	for k := range last {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool {
		if keys[i].epoch != keys[j].epoch {
			return keys[i].epoch < keys[j].epoch
		}
		return keys[i].round < keys[j].round
	})
	t.mu.Lock()
	prev := t.spans[parent].Start
	t.mu.Unlock()
	durs := make([]float64, 0, len(keys))
	for _, k := range keys {
		end := last[k]
		t.add(span{Name: "gossip.round", Start: prev, End: end, Parent: parent, ID: id, Node: -1})
		durs = append(durs, float64(end-prev))
		prev = end
	}
	return durs
}

// replayBinary times the binary codec on messages shaped like the run's:
// one AggUp per node carrying that node's final marginal and allocation,
// and one AggDown per node carrying the final round's average. It returns
// nanoseconds per message for encoding and for decoding.
func replayBinary(inst *gossipInstance, r gossip.ClusterResult) (encNs, decNs float64) {
	n := len(inst.models)
	ups := make([]protocol.AggUp, n)
	downs := make([]protocol.AggDown, n)
	var avg float64
	for i, m := range inst.models {
		g, err := m.Marginal(r.X[i])
		if err != nil {
			g = math.NaN()
		}
		avg += g / float64(n)
		ups[i] = protocol.AggUp{Round: r.Rounds, Pass: 1, Epoch: r.Epochs - 1, Node: i, Agg: protocol.Aggregate{
			SumG: g, SumH: -1, SumX: r.X[i], Count: 1, MinG: g, MaxG: g, OutNode: -1,
		}}
	}
	for i := range downs {
		downs[i] = protocol.AggDown{Round: r.Rounds, Pass: 1, Epoch: r.Epochs - 1, Avg: avg, Count: n, Readmit: -1, Final: true, Truncation: 1, Spread: 1e-4}
	}
	frames := make([][]byte, 0, 2*n)
	encNs = perMessage(2*n, func(i int) {
		var b []byte
		var err error
		if i < n {
			b, err = protocol.EncodeAggUp(protocol.CodecBinary, ups[i])
		} else {
			b, err = protocol.EncodeAggDown(protocol.CodecBinary, downs[i-n])
		}
		if err == nil && len(frames) < 2*n {
			frames = append(frames, b)
		}
	})
	decNs = perMessage(len(frames), func(i int) {
		_, _ = protocol.Decode(frames[i]) // frames the encoder just produced
	})
	return encNs, decNs
}
