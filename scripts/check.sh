#!/usr/bin/env sh
# Tier-2 gate: everything tier-1 checks (build + tests) plus formatting,
# static analysis (go vet and the repo's own fapvet suite), the race
# detector, and a bench-harness regression check. Run before sending a
# change.
set -eu

cd "$(dirname "$0")/.."

# require_tests PATTERN PKG...: fail unless every listed package has at
# least one test matching the -run PATTERN, so a targeted gate cannot pass
# by running nothing after its tests move or are renamed.
require_tests() {
	pattern=$1
	shift
	for pkg in "$@"; do
		if ! go test -list "$pattern" "$pkg" | grep -q '^Test'; then
			echo "no test in $pkg matches -run '$pattern'" >&2
			exit 1
		fi
	done
}

echo "== gofmt -l"
UNFORMATTED="$(gofmt -l . 2>&1 | grep -v '^internal/lint/testdata/' || true)"
if [ -n "$UNFORMATTED" ]; then
	echo "gofmt: the following files need formatting:" >&2
	echo "$UNFORMATTED" >&2
	exit 1
fi

echo "== go vet ./..."
go vet ./...

echo "== e2ebench module: go vet + go test (offline)"
# e2ebench/ is its own Go module, so the ./... runs here never compile it:
# an API change that breaks the benchmark would otherwise show up only
# when the benchmark pipeline runs. Offline and workspace-free, as
# e2ebench/run.sh builds it.
(
	cd e2ebench
	export GOWORK=off GOPROXY=off GOFLAGS=
	go vet ./... && go test ./...
)

echo "== fapvet -unused-ignores ./..."
# Full eight-analyzer suite plus the stale-suppression audit: a directive
# that stopped suppressing anything fails the gate until it is deleted.
go run ./cmd/fapvet -unused-ignores ./...

echo "== fapvet -json report"
# The machine-readable report CI uploads as an artifact must parse and be
# empty of findings: "[]" exactly, modulo whitespace.
FAPVET_JSON="$(mktemp)"
trap 'rm -f "$FAPVET_JSON"' EXIT
go run ./cmd/fapvet -json ./... > "$FAPVET_JSON"
awk 'BEGIN { RS = "" } { gsub(/[ \t\n]/, "") } $0 != "[]" { print "fapvet -json report is not an empty array:"; print; exit 1 }' "$FAPVET_JSON"

echo "== go test -race ./..."
go test -race ./...

echo "== chaos-churn matrix under -race"
# The crash-recovery and membership-churn scenarios are the tests most
# sensitive to scheduling; run them explicitly under the race detector so
# a cached ./... pass cannot mask them. The metrics-determinism test
# compares five chaos-churn registry snapshots byte for byte. The agent
# package holds the cluster harness those scenarios run through.
CHURN_RUN='TestChaosChurnContract|TestChaosChurnMetricsDeterministic|TestChurn|TestCrash|TestDoubleCrash|TestPartitionDepart|TestDepartRejoin|TestSupervise|TestFaultCrash|TestRunClusterValidation|TestClusterOverTCP|TestChaosOverTCP'
CHURN_PKGS='./internal/experiments/ ./internal/recovery/ ./internal/transport/ ./internal/agent/'
require_tests "$CHURN_RUN" $CHURN_PKGS
go test -race -count 1 -run "$CHURN_RUN" $CHURN_PKGS

echo "== gossip chaos + property battery under -race"
# The thousand-node aggregation contract: under injected faults a run
# either certifies or fails loudly, and the tree fold's compensated mean
# stays within 1 ulp for any fold shape; the push-sum pin holds one
# seeded run's bits and the tree bill pin one tree run's bits, bill and
# metrics. All are scheduling-sensitive
# (node goroutines, fault timing), so run them uncached under the race
# detector; -short keeps the property instances at smoke size here —
# the plain ./... pass above runs the full 1000 instances.
GOSSIP_RUN='TestChaosMatrix|TestProperty|TestPushSumDeterminismPin|TestTreeBillPin|TestGossipCommandWorkersByteIdentical'
require_tests "$GOSSIP_RUN" ./internal/gossip/ ./cmd/fapctl/
go test -race -count 1 -short -run "$GOSSIP_RUN" ./internal/gossip/ ./cmd/fapctl/

echo "== bounded codec and planner fuzzing (10s per target)"
# go test replays only the seed corpora; this runs the fuzz engine on the
# wire decoder and on the step planner, first order (feasibility, ascent)
# and second order (bit-identity with its reference, feasibility, ascent),
# for a fixed budget. -fuzz must match exactly one target, hence one
# invocation each.
for target in FuzzBinaryCodec FuzzDecode; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/protocol
done
for target in FuzzPlanStep FuzzPlanSecondOrderStep; do
	go test -run '^$' -fuzz "^$target\$" -fuzztime 10s ./internal/core
done

echo "== closed-loop serving smoke under -race"
# The fapload gate: a steady phase then a crash phase over a live 5-node
# serving cluster, fired through the hardened client path. The test itself
# asserts the contract — zero failed requests through the crash, a
# certified degraded re-plan within the convergence-lag ceiling, and no
# stale-plan errors — so a bare pass here is the acceptance bar. The
# fapload digest pin holds the default run's report, CSV and metrics bytes
# at two worker counts, and the cluster builder must release everything
# it started when it fails. agent.Replanner is the one re-plan loop both
# the in-process cluster and fapnode's serving mode step, so its own
# tests and fapnode's serving tests run here too.
LOOP_RUN='TestClosedLoopSmoke|TestPhaseReportDeterministicAcrossWorkers|TestDefaultSpecDigests|TestNewServeClusterReleasesOnError|TestReplannerStep|TestReplannerRetriesRejectedMembershipChange|TestServeReplanSkipsDepartedPeer|TestRunServeModeReplansAndShutsDownGracefully'
LOOP_PKGS='./internal/loadgen/ ./cmd/fapload/ ./internal/agent/ ./cmd/fapnode/'
require_tests "$LOOP_RUN" $LOOP_PKGS
go test -race -count 1 -run "$LOOP_RUN" $LOOP_PKGS

echo "== catalog determinism under -race"
# The catalog batch-solves shards across sweep workers; its byte-identical
# determinism and digest pins are exactly the kind of contract a data race
# would break silently, so run them explicitly under the race detector
# too, with the sensing slab's differential property against per-event
# RateEstimators, its zero-alloc pin, the sensing config checks, the
# pin that layout and passes allocate per shard, not per object, and the
# pin on the bytes the layout stores per object.
CATALOG_RUN='TestCatalogDeterminism|TestCatalogDigests|TestCatalogExperimentDeterminism|TestCatalogLifecycle|TestCatalogReSolveCertifiesWarm|TestCatalogValidation|TestShardSensingAllocatesNothing|TestSlabMatchesRateEstimator|TestNewAllocatesPerShard|TestCatalogLayoutBytes'
CATALOG_PKGS='./internal/catalog/ ./internal/experiments/ ./internal/estimate/'
require_tests "$CATALOG_RUN" $CATALOG_PKGS
go test -race -count 1 -run "$CATALOG_RUN" $CATALOG_PKGS

echo "== coverage floors (scripts/coverage.baseline)"
# Statement coverage must not regress below the recorded per-package
# floors. The floors carry slack, so a failure here means real test
# coverage was lost, not noise.
COVER="$(go test -cover ./...)" || { echo "$COVER" >&2; exit 1; }
echo "$COVER" | awk -v base=scripts/coverage.baseline '
BEGIN {
	while ((getline line < base) > 0) {
		if (line ~ /^#/ || line == "") continue
		n = split(line, f, " "); if (n >= 2) floor[f[1]] = f[2] + 0
	}
	close(base)
}
/coverage:/ {
	pkg = $2
	pct = -1
	for (i = 1; i <= NF; i++) if ($i == "coverage:") pct = $(i + 1) + 0
	if (pkg in floor && pct >= 0) {
		seen[pkg] = 1
		if (pct < floor[pkg]) {
			printf "coverage: %s at %.1f%% is below its %d%% floor\n", pkg, pct, floor[pkg]
			bad = 1
		}
	}
}
END {
	for (p in floor) if (!(p in seen)) {
		printf "coverage: no result for %s -- stale baseline entry?\n", p
		bad = 1
	}
	exit bad
}'

echo "== bench_json.awk fixture"
# The JSON emitter is plain awk; pin it against a recorded go-test
# transcript (including malformed lines, benchmark-specific units and a
# cpu string with quotes and a backslash) so a matcher or escaping
# regression shows up as a diff, not as invalid JSON in CI artifacts.
AWK_OUT="$(mktemp)"
trap 'rm -f "$FAPVET_JSON" "$AWK_OUT"' EXIT
awk -v cores=8 -f scripts/bench_json.awk scripts/testdata/bench_raw.txt > "$AWK_OUT"
if ! diff -u scripts/testdata/bench_golden.json "$AWK_OUT"; then
	echo "bench_json.awk output diverged from scripts/testdata/bench_golden.json" >&2
	exit 1
fi

echo "== bench smoke (go test -bench . -benchtime 1x)"
go test -bench . -benchtime 1x -run '^$' . > /dev/null

echo "== bench.sh failure propagation"
# A malformed benchtime makes `go test -bench` fail; bench.sh must exit
# nonzero instead of writing a truncated BENCH_figures.json.
if scripts/bench.sh Fig not-a-benchtime > /dev/null 2>&1; then
	echo "bench.sh swallowed a go test failure" >&2
	exit 1
fi

echo "== BENCH_figures.json trajectory"
# The perf trajectory is committed; it must exist and must cover every
# figure benchmark currently in bench_test.go, plus both users of the
# agent round loop (gossip and the E9 runtime) and the layer benchmarks
# (the wire codec's per-kind cost, loopback TCP send/recv, one step plan,
# one gradient, the ring gradient, the water-filling solver, one
# catalog-shaped Newton solve, one 256-node solve, the simulator), so
# adding a benchmark without re-running scripts/bench.sh fails here
# instead of silently shipping a stale record.
if [ ! -f BENCH_figures.json ]; then
	echo "BENCH_figures.json is missing; run scripts/bench.sh and commit the result" >&2
	exit 1
fi
STALE=0
for bench in $(go test -list '^Benchmark(Fig|Catalog|Gossip|DecentralizedRuntime|ReportCodec|TCPSendRecv|PlanStep64|Gradient64|RingGradient|SolveKKT|SolveSecondOrder8|Solve256|Simulator)' . | grep '^Benchmark'); do
	if ! grep -q "\"name\": \"$bench" BENCH_figures.json; then
		echo "BENCH_figures.json has no entry for $bench -- stale; re-run scripts/bench.sh" >&2
		STALE=1
	fi
done
[ "$STALE" -eq 0 ] || exit 1

echo "== sweep speedup floor (Fig5 >= 1.5x, Fig6 >= 1.0x)"
# Fresh measurement, not the committed file: the chunked sweep engine
# must actually pay on this machine. On fewer than 4 cores the parallel
# variant degenerates to (nearly) the serial path and the ratio is pure
# noise, so the gate only runs where parallelism can show up.
CORES="$(nproc 2>/dev/null || getconf _NPROCESSORS_ONLN 2>/dev/null || echo 1)"
if [ "$CORES" -lt 4 ]; then
	echo "   skipped: $CORES core(s) < 4, speedup would be noise"
else
	FLOOR_OUT="$(mktemp)"
	trap 'rm -f "$FAPVET_JSON" "$AWK_OUT" "$FLOOR_OUT"' EXIT
	BENCH_OUT="$FLOOR_OUT" scripts/bench.sh 'Fig5AlphaSweep|Fig6Scaling' 5x > /dev/null
	awk '
	/"figure":/ {
		fig = $0; sub(/.*"figure": "/, "", fig); sub(/".*/, "", fig)
		sp = $0; sub(/.*"speedup": /, "", sp); sub(/[^0-9.].*/, "", sp)
		floor = 0
		if (fig == "BenchmarkFig5AlphaSweep") floor = 1.5
		if (fig == "BenchmarkFig6Scaling") floor = 1.0
		if (floor == 0) next
		seen[fig] = 1
		if (sp + 0 < floor) {
			printf "speedup: %s at %.3fx is below its %.1fx floor\n", fig, sp, floor
			bad = 1
		} else {
			printf "speedup: %s %.3fx (floor %.1fx)\n", fig, sp, floor
		}
	}
	END {
		if (!("BenchmarkFig5AlphaSweep" in seen) || !("BenchmarkFig6Scaling" in seen)) {
			print "speedup: bench output is missing a gated figure"
			bad = 1
		}
		exit bad
	}' "$FLOOR_OUT"
fi

echo "== catalog warm-over-cold floor (>= 3x objects/sec)"
# Fresh measurement again: warm-start re-solves must beat cold fills by at
# least 3x on the 100k-object catalog with 10% drift, or the incremental
# path has regressed into re-solving everything. ns/op per pass at a fixed
# object count makes the ns ratio the throughput ratio. On a starved box
# the sweep engine can't spread the shards and the contrast is noise, so
# like the sweep floor this gate needs 4 cores.
if [ "$CORES" -lt 4 ]; then
	echo "   skipped: $CORES core(s) < 4, contrast would be noise"
else
	WARM_OUT="$(mktemp)"
	trap 'rm -f "$FAPVET_JSON" "$AWK_OUT" "$FLOOR_OUT" "$WARM_OUT"' EXIT
	BENCH_OUT="$WARM_OUT" scripts/bench.sh 'Catalog(Cold|Warm)' 1x > /dev/null
	awk '
	/"name": "BenchmarkCatalog(Cold|Warm)"/ {
		name = $0; sub(/.*"name": "/, "", name); sub(/".*/, "", name)
		ns = $0; sub(/.*"ns_per_op": /, "", ns); sub(/[^0-9.eE+-].*/, "", ns)
		nsop[name] = ns + 0
	}
	END {
		cold = nsop["BenchmarkCatalogCold"]
		warm = nsop["BenchmarkCatalogWarm"]
		if (cold <= 0 || warm <= 0) {
			print "catalog floor: bench output is missing a catalog benchmark"
			exit 1
		}
		ratio = cold / warm
		if (ratio < 3) {
			printf "catalog floor: warm at %.3fx cold throughput is below the 3x floor\n", ratio
			exit 1
		}
		printf "catalog floor: warm %.3fx cold throughput (floor 3x)\n", ratio
	}' "$WARM_OUT"
fi

echo "ok"
