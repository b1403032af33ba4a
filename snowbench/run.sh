#!/usr/bin/env bash
# Builds the benchmark from the checkout's sources and runs it with the
# given arguments. Run it from the repository root:
#
#   bash snowbench/run.sh --workload fuzz-syz --seed 1 --seconds 20 --trace 0
#
# Everything the build writes (Go's build cache included) stays under
# .bench_build/ in the working directory.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build"
mkdir -p "$out/gocache" "$out/gotmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/gotmp" GOPATH="$out/gopath" GOMODCACHE="$out/gomod" \
	GOENV=off GOFLAGS= GOTOOLCHAIN=local GOPROXY=off GOWORK=off
(cd "$root/snowbench" && go build -o "$out/snowbench" .)
exec "$out/snowbench" "$@"
