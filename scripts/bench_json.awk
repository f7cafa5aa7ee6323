# bench_json.awk — turns `go test -bench` output into the repo's
# BENCH_figures.json. Invoked by scripts/bench.sh (and by check.sh's
# fixture stage) as:
#
#	awk -v cores="$CORES" -f scripts/bench_json.awk raw-bench-output.txt
#
# A benchmark result line is
#
#	BenchmarkName/sub-P  <iterations>  <ns-per-op>  ns/op  [<value> <unit>]...
#
# and only lines of exactly that shape are stored: the matcher validates
# every field, and a line whose trailing value/unit pairs do not pair up
# or carry a non-numeric value is dropped whole. Schema 2 keeps every
# pair after ns/op — B/op and allocs/op from -benchmem, and a
# benchmark's own units such as msgs/round or objects/s — in the row's
# "metrics" object, keyed by unit. The previous inline
# version had two defects this file pins down (see the fixture under
# scripts/testdata/): an `a && b || c` precedence slip let an arm that
# tested `$3 == "ns/op"` fire on malformed lines and store the literal
# string "ns/op" as the ns_per_op value — invalid JSON — and the cpu
# model string was interpolated into the JSON unescaped.

function jesc(s) {
	# gsub replacements interpret backslashes a second time, hence the
	# doubling-of-the-doubling: these emit \\ and \" into the JSON.
	gsub(/\\/, "\\\\\\\\", s)
	gsub(/"/, "\\\"", s)
	return s
}
BEGIN { n = 0 }
/^cpu:/ { sub(/^cpu: */, ""); cpu = $0 }
/^goos:/ { goos = $2 }
/^goarch:/ { goarch = $2 }
function numeric(v) { return v ~ /^[0-9]+(\.[0-9]+)?([eE][+-]?[0-9]+)?$/ }
/^Benchmark/ && NF >= 4 && NF % 2 == 0 && $4 == "ns/op" \
	&& $2 ~ /^[0-9]+$/ && numeric($3) {
	extra = ""
	for (f = 5; f < NF; f += 2) {
		if (!numeric($f)) next
		extra = extra (extra == "" ? "" : ", ") sprintf("\"%s\": %s", jesc($(f + 1)), $f)
	}
	name = $1
	sub(/-[0-9]+$/, "", name)   # strip the -GOMAXPROCS suffix
	iters[n] = $2
	nsop[n] = $3
	metrics[n] = extra
	names[n] = name
	n++
}
END {
	printf "{\n"
	printf "  \"schema\": \"filealloc-bench/2\",\n"
	printf "  \"goos\": \"%s\",\n", jesc(goos)
	printf "  \"goarch\": \"%s\",\n", jesc(goarch)
	printf "  \"cpu\": \"%s\",\n", jesc(cpu)
	printf "  \"gomaxprocs\": %d,\n", cores
	printf "  \"benchmarks\": [\n"
	for (i = 0; i < n; i++) {
		printf "    {\"name\": \"%s\", \"iterations\": %s, \"ns_per_op\": %s, \"metrics\": {%s}}%s\n", \
			jesc(names[i]), iters[i], nsop[i], metrics[i], (i < n-1 ? "," : "")
	}
	printf "  ],\n"
	printf "  \"speedups\": [\n"
	first = 1
	for (i = 0; i < n; i++) {
		if (names[i] !~ /\/serial$/) continue
		base = names[i]
		sub(/\/serial$/, "", base)
		for (j = 0; j < n; j++) {
			if (names[j] == base "/parallel" && nsop[j] + 0 > 0) {
				if (!first) printf ",\n"
				first = 0
				printf "    {\"figure\": \"%s\", \"serial_ns\": %s, \"parallel_ns\": %s, \"speedup\": %.3f}", \
					jesc(base), nsop[i], nsop[j], nsop[i] / nsop[j]
			}
		}
	}
	if (!first) printf "\n"
	printf "  ]\n"
	printf "}\n"
}
