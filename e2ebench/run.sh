#!/usr/bin/env bash
# Builds the benchmark from source and runs it. Run from the repository
# root:
#
#   bash e2ebench/run.sh --workload tcp-solve --seed 7 --seconds 10 --trace 0
#
# Everything the build and the run write stays under .bench_build/ in the
# current directory: the Go build cache, the binary and the span files of
# traced runs. The build fails, and so does this script, when the
# repository's own module is not next to e2ebench/.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
out="$(pwd)/.bench_build"
mkdir -p "$out"

export GOCACHE="$out/gocache"
export GOPATH="$out/gopath"
export GOENV=off
export GOWORK=off
export GOFLAGS=
export GOTOOLCHAIN=local
export GOPROXY=off

(cd "$here" && go build -trimpath -o "$out/e2ebench" .)
exec "$out/e2ebench" -trace-dir "$out/traces" "$@"
