package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// spanLimit bounds the spans one traced run keeps in memory (about 10 MB).
// Workloads stop starting traced operations once it is reached, so every
// traced operation is traced whole.
const spanLimit = 200_000

// span is one timed call into a layer. Times are nanoseconds since the
// tracer started, on the monotonic clock.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"` // index of the enclosing span, -1 for none
	ID     int64  `json:"id"`     // solve, epoch or request the span belongs to
	Node   int32  `json:"node"`   // cluster node, -1 when not per node
}

func (s span) dur() int64 { return s.End - s.Start }

// tracer keeps spans in memory and writes them out when the run ends.
// It is safe for concurrent use.
type tracer struct {
	t0 time.Time

	mu    sync.Mutex
	spans []span
	notes map[string]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), notes: make(map[string]float64)}
}

// now is the tracer clock.
func (t *tracer) now() int64 { return int64(time.Since(t.t0)) }

// add stores a span and returns its index.
func (t *tracer) add(s span) int32 {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, s)
	return int32(len(t.spans) - 1)
}

// start is the start time of a stored span.
func (t *tracer) start(i int32) int64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.spans[i].Start
}

// finish sets the end of a span stored open by add.
func (t *tracer) finish(i int32, end int64) {
	t.mu.Lock()
	t.spans[i].End = end
	t.mu.Unlock()
}

// full reports whether starting another traced operation of about
// perOp spans would pass the limit.
func (t *tracer) full(perOp int) bool {
	return t.len()+perOp > spanLimit
}

func (t *tracer) len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.spans)
}

// note records a named run-level number (tracing overhead, self-test
// residuals) written into the trace file's header.
func (t *tracer) note(key string, v float64) {
	t.mu.Lock()
	t.notes[key] = v
	t.mu.Unlock()
}

// snapshot copies the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// write stores the spans as JSON lines under dir, after one header line
// that carries the workload, seed, host shape and notes.
func (t *tracer) write(dir, workload string, seed int64, host hostShape) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("creating trace directory: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.jsonl", workload, seed))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("creating trace file: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	defer t.mu.Unlock()
	header := map[string]any{"workload": workload, "seed": seed, "host": host, "spans": len(t.spans), "notes": t.notes}
	if err := enc.Encode(header); err != nil {
		return "", fmt.Errorf("writing trace header: %w", err)
	}
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			return "", fmt.Errorf("writing span: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("writing trace file: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("closing trace file: %w", err)
	}
	return path, nil
}

// byName groups span durations (in nanoseconds) by span name.
func byName(spans []span) map[string][]float64 {
	out := make(map[string][]float64)
	for _, s := range spans {
		out[s.Name] = append(out[s.Name], float64(s.dur()))
	}
	return out
}

// children lists, for every span index, the indices of its direct
// children.
func children(spans []span) map[int32][]int32 {
	out := make(map[int32][]int32)
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], int32(i))
		}
	}
	return out
}

// covered is the length of the part of [lo, hi) that the given spans
// cover, each clipped to the interval and overlaps counted once.
func covered(lo, hi int64, spans []span, idx []int32) int64 {
	type iv struct{ a, b int64 }
	ivs := make([]iv, 0, len(idx))
	for _, i := range idx {
		a, b := max(spans[i].Start, lo), min(spans[i].End, hi)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var total, end int64 = 0, lo
	for _, v := range ivs {
		if v.b <= end {
			continue
		}
		if v.a < end {
			v.a = end
		}
		total += v.b - v.a
		end = v.b
	}
	return total
}

// timed runs fn and returns its wall time.
func timed(fn func() error) (time.Duration, error) {
	start := time.Now()
	err := fn()
	return time.Since(start), err
}

// timedSpan times fn and, when tr is set, records it as a span.
func timedSpan(t *tracer, tr bool, name string, parent int32, id int64, fn func() error) (time.Duration, error) {
	if !tr {
		return timed(fn)
	}
	s := span{Name: name, Start: t.now(), Parent: parent, ID: id, Node: -1}
	err := fn()
	s.End = t.now()
	t.add(s)
	return time.Duration(s.dur()), err
}

// loop runs op until the window closes. In a traced run the first half of
// the window runs op untraced and the second half traced, stopping early
// once another traced operation of about perOp spans would pass the span
// limit. Every half runs op at least once.
func loop(cfg runConfig, window time.Duration, perOp int, op func(traced bool) error) error {
	if cfg.tracer != nil {
		window /= 2
	}
	deadline := time.Now().Add(window)
	for n := 0; n == 0 || time.Now().Before(deadline); n++ {
		if err := op(false); err != nil {
			return err
		}
	}
	if cfg.tracer == nil {
		return nil
	}
	deadline = time.Now().Add(window)
	for n := 0; n == 0 || (time.Now().Before(deadline) && !cfg.tracer.full(perOp)); n++ {
		if err := op(true); err != nil {
			return err
		}
	}
	return nil
}

// codecReplayMin is how long a codec replay repeats its pass.
const codecReplayMin = 200 * time.Millisecond

// perMessage runs fn over [0, n) until codecReplayMin has passed and
// returns the mean nanoseconds per call.
func perMessage(n int, fn func(i int)) float64 {
	if n == 0 {
		return 0
	}
	var calls int
	start := time.Now()
	for time.Since(start) < codecReplayMin {
		for i := 0; i < n; i++ {
			fn(i)
		}
		calls += n
	}
	return float64(time.Since(start).Nanoseconds()) / float64(calls)
}
