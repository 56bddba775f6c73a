#!/bin/sh
# ci.sh — the repo's verification gate. Run before every commit.
#
#   1. gofmt lint (no unformatted files)
#   2. go vet + full build
#   3. race-detector pass over the concurrent hot paths (the GEMM kernels,
#      solver incl. the batched MOGD multi-start path, models, core, the
#      problem-layer evaluator, the composite space and recommendation
#      layers), the cross-method conformance suite incl. the composite-space
#      suites, and the observability layer (telemetry registry + spans, run
#      registry, calibration ledger, HTTP service incl. the sharded serving
#      cache and the /observe loop, watchdog)
#   4. full test suite
#   5. benchmark smoke: one iteration of the MOGD benchmarks, so a broken
#      benchmark harness fails CI instead of the next perf investigation
#   6. vet and test the /optimize benchmark module (perfbench/, its own Go
#      module), so removing an identifier it compiles against fails CI
#      instead of the benchmark run
set -eu

cd "$(dirname "$0")/.."

UNFORMATTED=$(gofmt -l .)
if [ -n "$UNFORMATTED" ]; then
    echo "gofmt needed on:" >&2
    echo "$UNFORMATTED" >&2
    exit 1
fi

go vet ./...
go build ./...
go test -race ./internal/linalg/... ./internal/solver/... ./internal/model/... ./internal/core/... ./internal/problem/... ./internal/space/... ./internal/recommend/... ./internal/conformance/... ./internal/telemetry/... ./internal/runlog/... ./internal/calib/... ./internal/watch/... ./internal/serving/... ./internal/service/...
go test ./...
go test -run '^$' -bench MOGD -benchtime 1x ./internal/solver/mogd/
(cd perfbench && go vet ./... && go test ./...)

echo "ci: all gates passed"
