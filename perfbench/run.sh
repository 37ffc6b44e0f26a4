#!/usr/bin/env bash
# Builds iqserver and the benchmark from the checkout this is run in, then
# runs the benchmark. Run from the repository root:
#
#   bash perfbench/run.sh --workload cold-solve --seed 1 --seconds 20 --trace 0
#
# Every build product, cache and temporary file lands under .bench_build/.
set -euo pipefail
root=$(pwd)
out="$root/.bench_build/perfbench"
mkdir -p "$out/tmp"
export GOCACHE="$out/gocache" GOTMPDIR="$out/tmp" GOPATH="$out/gopath"
export GOPROXY=off GOFLAGS= GOTOOLCHAIN=local GOWORK=off
go build -o "$out/iqserver" ./cmd/iqserver
(cd perfbench && go build -o "$out/perfbench" .)
exec "$out/perfbench" -server "$out/iqserver" -workdir "$out/tmp" -spec BENCHMARK.json "$@"
