#!/usr/bin/env sh
# Figure-benchmark harness: runs the serial and parallel variants of the
# figure benchmarks and the layer benchmarks with -benchmem and emits
# machine-readable BENCH_figures.json next to this repo's root, one object
# per benchmark with ns/op, every other reported value by unit (B/op,
# allocs/op and the benchmark's own units), and the parallel-over-serial
# speedup per figure.
#
# Usage:
#
#	scripts/bench.sh [bench-regex] [benchtime]
#
# defaults: 'Fig|Catalog|Gossip|DecentralizedRuntime|ReportCodec|TCPSendRecv|PlanStep64|Gradient64|RingGradient|SolveKKT|SolveSecondOrder8|Solve256|Simulator'
# (every figure benchmark, the catalog cold/warm contrast, both users of
# the agent round loop: the gossip wire-bill round and the E9
# broadcast/coordinator runs, and the layer benchmarks: the wire codec's
# per-kind cost, one loopback TCP send/recv, one step plan, one gradient,
# the multi-copy ring's gradient, the water-filling solver, one
# catalog-shaped Newton solve, one 256-node dynamic-α solve and one
# discrete-event simulation) and 5x. The regex selects top-level
# benchmarks. benchtime applies to every selected benchmark except the
# layer benchmarks (LAYERS below), which always run for 1s: one of their
# ops takes nanoseconds to microseconds, so a fixed handful of iterations
# would record warm-up, not the steady state.
# BENCH_OUT overrides the output path (check.sh's floor gate writes to a
# temp file so the committed trajectory is untouched). The JSON is built by
# scripts/bench_json.awk from `go test -bench` output — no extra tooling
# required; the awk stage itself is pinned by a fixture diff in check.sh.
set -eu

cd "$(dirname "$0")/.."

PATTERN="${1:-Fig|Catalog|Gossip|DecentralizedRuntime|ReportCodec|TCPSendRecv|PlanStep64|Gradient64|RingGradient|SolveKKT|SolveSecondOrder8|Solve256|Simulator}"
BENCHTIME="${2:-5x}"
LAYERS='^Benchmark(ReportCodec|TCPSendRecv|PlanStep64|Gradient64|RingGradient|SolveKKT|SolveSecondOrder8|Solve256|Simulator)$'
OUT="${BENCH_OUT:-BENCH_figures.json}"
RAW="$(mktemp)"
PART="$(mktemp)"
trap 'rm -f "$RAW" "$PART"' EXIT

# bench REGEX BENCHTIME [go test args...] appends one go test -bench run to
# $RAW. Capture first, pipe never: POSIX sh has no pipefail, so
# `go test ... | tee` would swallow a failing benchmark run and the awk
# stage below would happily emit a truncated $OUT. Fail loudly instead,
# leaving any previous $OUT untouched.
bench() {
	regex=$1
	benchtime=$2
	shift 2
	echo "== go test -bench $regex -benchtime $benchtime $*"
	if ! go test -bench "$regex" -benchtime "$benchtime" -benchmem -run '^$' "$@" . > "$PART" 2>&1; then
		cat "$PART" >&2
		echo "bench.sh: go test -bench failed; $OUT not written" >&2
		exit 1
	fi
	cat "$PART"
	cat "$PART" >> "$RAW"
}

bench "$PATTERN" "$BENCHTIME" -skip "$LAYERS"
SELECTED="$(go test -list "$PATTERN" . | grep -E "$LAYERS" | paste -sd '|' -)"
if [ -n "$SELECTED" ]; then
	bench "^($SELECTED)\$" 1s
fi

CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
awk -v cores="$CORES" -f scripts/bench_json.awk "$RAW" > "$OUT"

echo "== wrote $OUT"
