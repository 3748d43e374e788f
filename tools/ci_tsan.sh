#!/bin/sh
# CI-style race gate: configure a separate ThreadSanitizer build
# (VARSCHED_TSAN) and run the threaded suites against it — the
# work-stealing ThreadPool and chunked parallelFor, the span tracer,
# the metrics registry, the sweep orchestrator and its sidecar locks
# (with the bench-entry merge that shares them), the state-keyed field
# caches, and the runBatch / die-population bit-identity suites. Any
# reported race fails the run (TSan exits nonzero). Keeps the default
# build directory untouched. Usage:
#   tools/ci_tsan.sh [build-dir]          # default: build-tsan
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-tsan"}

cmake -B "$build" -S "$repo" -DVARSCHED_TSAN=ON
cmake --build "$build" -j --target varsched_tests
ctest --test-dir "$build" --output-on-failure -j 2 -R \
    '^(ThreadPool|TraceFixture|Metrics(Histogram|Registry)|SweepOrchestratorTest|SidecarLock|PerfRecorder(Recovery)?|BatchDeterminism|DiePopulation|Field(Factor|Sample|Spectrum)Cache)\.'
