#!/bin/sh
# CI gate: identical to `make check`, for environments without make.
#
# Every test invocation carries an explicit -timeout so a hung solve (the
# exact failure mode the cancellation work guards against) fails the build
# with a goroutine dump instead of stalling CI at the default 10 minutes
# per package. The broad race pass runs -short — the TestStress suite is
# skipped there and run separately, twice, with its own budget.
set -eux
go build ./...
go vet ./...
go test -race -short -timeout 5m ./...
go test -race -run TestStress -count=2 -timeout 10m ./...
# Differential fuzz of the serving path's hit counter: threshold vectors
# against a brute-force recount and ESE on tiny workloads (seed corpus in
# internal/core/testdata/fuzz/FuzzThresholdHits).
go test -run '^$' -fuzz FuzzThresholdHits -fuzztime 15s -timeout 5m ./internal/core
# Fuzz of untrusted cost expressions: NewExprCost/Of must reject or evaluate
# every input without a panic or a stack overflow, and cost 0 at the zero
# strategy (seed corpus in internal/core/testdata/fuzz/FuzzExprCost).
go test -run '^$' -fuzz FuzzExprCost -fuzztime 15s -timeout 5m ./internal/core
# The benchmark harness is a nested module (perfbench/go.mod), so the root
# ./... patterns skip it; build and test it on its own so an engine API
# change that breaks the benchmark fails here.
(cd perfbench && go vet ./... && go test -timeout 5m ./...)
# Live observability gate: boot a real iqserver and validate its /metrics
# exposition with iqtool's built-in parser (fails on unparseable output or
# a registry with no engine series).
./scripts/metricscheck.sh
# Live tracing gate: boot a real iqserver, capture a traced solve through
# the flight recorder, and validate the downloaded trace_event JSON.
./scripts/tracecheck.sh
# Solve-cache benchmark gate: reduced-scale cached-vs-uncached A/B of both
# solvers; fails if the warm-cache path stops saving allocations.
./scripts/benchcheck.sh
# Live durability gate: kill -9 a real iqserver mid-commit, restart over the
# same data dir, and require the acknowledged epoch and a bit-identical
# reference solve.
./scripts/crashcheck.sh
# Live workload-analytics gate: boot a real iqserver, drive a skewed
# workload, and validate /v1/stats/workload and /debug/workload end to end.
./scripts/analyzecheck.sh
# Live SLO/telemetry gate: boot a real iqserver with an impossible latency
# target, drive solves until the burn-rate alert fires (on the stats
# surface and the log stream), then kill -9 and restart to prove the
# telemetry history journal survived.
./scripts/healthcheck.sh
