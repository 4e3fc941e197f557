#!/usr/bin/env bash
# Builds the benchmark from source and runs it with the given arguments.
# Run from the repository root, for example:
#
#   bash benchmark/run.sh --workload central-bpa2 --seed 1 --seconds 25 --trace 0
#
# Everything the build and the run write stays under the build directory
# ($CARGO_TARGET_DIR, default .bench_build): the Go build cache, the
# binary, temporary files and the benchmark's own scratch files.
set -euo pipefail

if [[ ! -f go.mod || ! -f benchmark/go.mod ]]; then
	echo "run.sh: run from the root of a topk checkout (go.mod and benchmark/go.mod)" >&2
	exit 2
fi

out="${CARGO_TARGET_DIR:-.bench_build}"
mkdir -p "$out/tmp" "$out/work"
out="$(cd "$out" && pwd)"

export GOCACHE="$out/gocache" GOPATH="$out/gopath" GOTMPDIR="$out/tmp" TMPDIR="$out/tmp"
export GOENV=off GOTOOLCHAIN=local GOFLAGS= GOPROXY=off GOWORK=off

(cd benchmark && go build -o "$out/topk-benchmark" .)
exec "$out/topk-benchmark" --workdir "$out/work" "$@"
