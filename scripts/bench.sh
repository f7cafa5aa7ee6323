#!/usr/bin/env sh
# Figure-benchmark harness: runs the serial and parallel variants of the
# figure benchmarks with -benchmem and emits machine-readable
# BENCH_figures.json next to this repo's root, one object per benchmark
# with ns/op, every other reported value by unit (B/op, allocs/op and the
# benchmark's own units), and the parallel-over-serial speedup per figure.
#
# Usage:
#
#	scripts/bench.sh [bench-regex] [benchtime]
#
# defaults: 'Fig|Catalog|Gossip|DecentralizedRuntime|ReportCodec' (every
# figure benchmark, the catalog cold/warm contrast, both users of the
# agent round loop: the gossip wire-bill round and the E9
# broadcast/coordinator runs, and the wire codec's per-kind cost) and 5x.
# BENCH_OUT overrides the output path (check.sh's floor gate writes to a
# temp file so the committed trajectory is untouched). The JSON is built by
# scripts/bench_json.awk from `go test -bench` output — no extra tooling
# required; the awk stage itself is pinned by a fixture diff in check.sh.
set -eu

cd "$(dirname "$0")/.."

PATTERN="${1:-Fig|Catalog|Gossip|DecentralizedRuntime|ReportCodec}"
BENCHTIME="${2:-5x}"
OUT="${BENCH_OUT:-BENCH_figures.json}"
RAW="$(mktemp)"
trap 'rm -f "$RAW"' EXIT

echo "== go test -bench $PATTERN -benchtime $BENCHTIME"
# Capture first, pipe never: POSIX sh has no pipefail, so
# `go test ... | tee` would swallow a failing benchmark run and the awk
# stage below would happily emit a truncated $OUT. Fail loudly instead,
# leaving any previous $OUT untouched.
if ! go test -bench "$PATTERN" -benchtime "$BENCHTIME" -benchmem -run '^$' . > "$RAW" 2>&1; then
	cat "$RAW" >&2
	echo "bench.sh: go test -bench failed; $OUT not written" >&2
	exit 1
fi
cat "$RAW"

CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
awk -v cores="$CORES" -f scripts/bench_json.awk "$RAW" > "$OUT"

echo "== wrote $OUT"
