#!/bin/sh
# CI-style smoke of the VARSCHED_NATIVE configuration: configure a
# separate host-tuned build, build it, run the fast test tiers (unit
# tests, bench smokes and the vsbench_smoke benchmark tier, including
# the simd_forced_scalar fallback configuration and the sampling_guard
# sampled-vs-exact tier), then run the perf gate: a same-host A/B of
# the benchmark, this working tree against a parent ref
# (tools/vsbench_ab.py). It fails when an end-to-end metric is worse
# than its BENCHMARK.json bound or when disabled-by-default tracing
# costs more than 1% (trace.overhead_frac) on any workload. A trailing
# observability tier checks that a traced full-scale run emits the
# expected span families. Keeps the default build directory untouched.
# Usage:
#   tools/ci_native.sh [build-dir] [parent-ref]
#       # defaults: build-native, HEAD~1
set -eu

repo=$(CDPATH= cd -- "$(dirname -- "$0")/.." && pwd)
build=${1:-"$repo/build-native"}
parent=${2:-HEAD~1}

cmake -B "$build" -S "$repo" -DVARSCHED_NATIVE=ON
cmake --build "$build" -j
ctest --test-dir "$build" --output-on-failure -j

# Explicit pass over the sampled-vs-exact guard tier: every sampled
# bench re-runs against its exact reference (VARSCHED_BENCH_COMPARE=1
# aborts beyond the error budget).
ctest --test-dir "$build" -L sampling_guard --output-on-failure

# Perf gate: interleaved same-host seed pairs of every benchmark
# workload, parent against change, judged against the bounds in
# BENCHMARK.json, plus the traced-run overhead gate.
python3 "$repo/tools/vsbench_ab.py" "$parent"

# Traced run: a full-scale fig13 under VARSCHED_TRACE must produce a
# well-formed Chrome/Perfetto trace carrying every instrumented span
# family (trace_summarize exits nonzero on a malformed file or a
# missing --expect). VARSCHED_THREADS=2 forces the ThreadPool path
# even on single-core hosts, where the batch runner would otherwise
# go serial and never emit pool.task spans.
trace_json="$build/fig13.trace.json"
rm -f "$trace_json"
VARSCHED_TRACE="$trace_json" VARSCHED_THREADS=2 \
    VARSCHED_BENCH_JSON="$build/bench_traced.json" \
    "$build/bench/bench_fig13_weighted" > /dev/null
"$build/tools/trace_summarize" "$trace_json" \
    --expect physics. --expect pm.decide --expect chip.snapshot \
    --expect sched.place \
    --expect pool.task --expect experiment.trial
