package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"

	"filealloc/internal/costmodel"
	"filealloc/internal/metrics"
)

// metricDef names one reported metric and its unit. The two tables below
// are the benchmark's whole vocabulary; BENCHMARK.json at the repository
// root lists the same names (TestManifestMatchesTables checks it).
type metricDef struct {
	name, unit string
}

// endToEnd is reported by every untraced run, on every workload. Each
// metric has one definition that applies to all four workloads; README.md
// spells out what "operation" and "first plan" are on each.
var endToEnd = []metricDef{
	{"setup_s", "s"},       // median build time of the system under test, warm-up included
	{"heap_mb", "MB"},      // live heap after set-up
	{"ok_ratio", "ratio"},  // operations served and certified ÷ attempted
	{"op_ms_p50", "ms"},    // median wall time of one operation
	{"op_ms_p75", "ms"},    // 75th percentile of the same
	{"work_per_s", "1/s"},  // work items per operation ÷ median operation time (serve: median over script runs)
	{"cold_plan_ms", "ms"}, // freshly built system to its first certified plan
}

// perLayer is reported by every traced run, on every workload. A layer a
// workload does not exercise reads 0 there.
var perLayer = []metricDef{
	// catalog-epoch
	{"catalog.cold_objects_per_s", "1/s"},
	{"catalog.warm_objects_per_s", "1/s"},
	{"catalog.resolve_s_p50", "s"},
	{"catalog.drift_s_p50", "s"},
	{"catalog.skip_ratio", "ratio"},
	{"catalog.warm_ratio", "ratio"},
	{"core.steps_per_cold_solve", "count"},
	{"core.steps_per_resolve", "count"},
	{"core.self_us_per_solve", "us"},
	{"costmodel.gradient_ns", "ns"},
	{"costmodel.utility_ns", "ns"},
	{"costmodel.calls_per_step", "count"},
	{"costmodel.verify_kkt_us", "us"},
	{"sweep.worker_imbalance", "ratio"},
	// tcp-solve
	{"agent.rounds_per_solve", "count"},
	{"agent.round_us_p50", "us"},
	{"agent.collect_us_p50", "us"},
	{"agent.step_us_p50", "us"},
	{"agent.round_unaccounted_ratio", "ratio"},
	{"transport.send_us_p50", "us"},
	{"transport.send_us_p99", "us"},
	{"transport.recv_wait_us_p50", "us"},
	{"transport.msgs_per_round", "count"},
	{"transport.bytes_per_msg", "bytes"},
	{"transport.wire_bytes_per_solve", "bytes"},
	{"protocol.json_encode_ns", "ns"},
	{"protocol.json_decode_ns", "ns"},
	// gossip-tree
	{"gossip.rounds_per_solve", "count"},
	{"gossip.epochs_per_solve", "count"},
	{"gossip.round_us_p50", "us"},
	{"gossip.msgs_per_round", "count"},
	{"transport.coalesce_ratio", "ratio"},
	{"protocol.binary_bytes_per_msg", "bytes"},
	{"protocol.binary_encode_ns", "ns"},
	{"protocol.binary_decode_ns", "ns"},
	// serve-phased
	{"agent.tick_us_p50", "us"},
	{"agent.replan_tick_us_p50", "us"},
	{"agent.replan_certified_ratio", "ratio"},
	{"agent.cold_fallback_ratio", "ratio"},
	{"agent.solve_iters_per_replan", "count"},
	{"agent.fire_us_p99", "us"},
	{"transport.client_retries_per_req", "ratio"},
	{"transport.fallbacks_per_req", "ratio"},
	{"transport.degraded_per_req", "ratio"},
	{"loadgen.model_us_p99", "us"},
	{"loadgen.replan_lag_ticks", "ticks"},
	// every workload
	{"trace.slowdown_ratio", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the run's last output line plus the bookkeeping that fills it.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`

	defs     []metricDef
	traced   bool
	problems []string
}

func newResult(traced bool) *result {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	return &result{Metrics: make(map[string]metricValue), defs: defs, traced: traced}
}

// set records a metric if it belongs to this run's table; a traced run
// silently drops end-to-end values and vice versa, so workloads compute
// both without branching.
func (r *result) set(name string, v float64) {
	for _, d := range r.defs {
		if d.name == name {
			r.Metrics[name] = metricValue{Value: v, Unit: d.unit}
			return
		}
	}
}

// setOperations reports the metrics every workload derives the same way:
// ok_ratio from the operation counts, and op_ms_p50 and op_ms_p75 from
// the operations' wall times in seconds.
func (r *result) setOperations(times []float64) {
	r.set("ok_ratio", float64(r.Attempted-r.Failed)/float64(r.Attempted))
	r.set("op_ms_p50", 1e3*median(times))
	r.set("op_ms_p75", 1e3*quantile(append([]float64(nil), times...), 0.75))
}

// check records a failed output check when ok is false.
func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// complete validates the table and fixes the verdict. Every end-to-end
// metric must have been measured and be positive and finite; per-layer
// metrics of layers the workload bypasses read 0.
func (r *result) complete() error {
	for _, d := range r.defs {
		m, ok := r.Metrics[d.name]
		if !r.traced {
			if !ok {
				return fmt.Errorf("end-to-end metric %s was not measured", d.name)
			}
			if !(m.Value > 0) || math.IsInf(m.Value, 0) {
				return fmt.Errorf("end-to-end metric %s = %v, want a positive finite value", d.name, m.Value)
			}
			continue
		}
		if !ok {
			r.Metrics[d.name] = metricValue{Value: 0, Unit: d.unit}
		} else if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			return fmt.Errorf("per-layer metric %s = %v", d.name, m.Value)
		}
	}
	if r.Attempted < 1 {
		return fmt.Errorf("no operation was attempted")
	}
	for _, p := range r.problems {
		fmt.Fprintln(os.Stderr, "e2ebench: check failed:", p)
	}
	r.Correct = len(r.problems) == 0
	return nil
}

// hostShape is recorded with every result: the numbers are only
// comparable between runs on the same shape.
type hostShape struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	CPU        string `json:"cpu"`
	Go         string `json:"go"`
}

func describeHost() hostShape {
	return hostShape{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		CPU:        cpuModel(),
		Go:         runtime.Version(),
	}
}

// cpuModel reads the first "model name" of /proc/cpuinfo ("unknown" where
// there is none).
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// quantile is the nearest-rank quantile of xs (which it sorts in place);
// 0 for an empty slice.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(xs) {
		i = len(xs) - 1
	}
	return xs[i]
}

// median is quantile(xs, 0.5) on a copy, leaving xs untouched.
func median(xs []float64) float64 {
	return quantile(append([]float64(nil), xs...), 0.5)
}

func sum(xs []float64) float64 {
	var s float64
	for _, x := range xs {
		s += x
	}
	return s
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, 0 when b is 0.
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// settle collects the garbage earlier set-ups left, so that every timed
// set-up starts from the same heap.
func settle() { runtime.GC() }

// heapMB forces a collection and reports the live heap in megabytes. The
// second collection finishes sweeping what the first one freed.
func heapMB() float64 {
	runtime.GC()
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / 1e6
}

// Output-check tolerances shared by every workload.
const (
	kktCheckTol = 1e-4  // relative VerifyKKT tolerance
	supportTol  = 1e-12 // shares at most this are judged as boundary nodes
)

// verifyAlloc checks one allocation: x ≥ 0, Σx = 1 and the KKT
// conditions, to relative tolerance tol, at the price the model's own
// water-filling solution gives.
// Shares of at most supportTol are rounding residue of the iterative
// step and are judged as boundary nodes. It returns "" when all hold.
// With a tracer the VerifyKKT call is recorded as a span.
func verifyAlloc(t *tracer, m *costmodel.SingleFile, x []float64, tol float64) string {
	var total float64
	for _, v := range x {
		if v < 0 {
			return fmt.Sprintf("negative share %v", v)
		}
		total += v
	}
	if math.Abs(total-1) > 1e-9 {
		return fmt.Sprintf("shares sum to %v", total)
	}
	kkt, err := m.SolveKKT(1e-12)
	if err != nil {
		return err.Error()
	}
	support := make([]float64, len(x))
	for i, v := range x {
		if v > supportTol {
			support[i] = v
		}
	}
	var verr error
	if t == nil {
		verr = m.VerifyKKT(support, kkt.Q, tol)
	} else {
		sp := span{Name: "costmodel.verify_kkt", Start: t.now(), Parent: -1, Node: -1}
		verr = m.VerifyKKT(support, kkt.Q, tol)
		sp.End = t.now()
		t.add(sp)
	}
	if verr != nil {
		return verr.Error()
	}
	return ""
}

// counters reads every counter of a registry by name (labels summed).
func counters(reg *metrics.Registry) map[string]int64 {
	out := make(map[string]int64)
	for _, c := range reg.Snapshot().Counters {
		out[c.Name] += c.Value
	}
	return out
}
