#!/bin/sh
# Benchmark smoke: run one vsbench workload for one second of timed
# rounds (it still waits for the workload's minimum die count) and
# require its result line, the last line of output, to report
# "correct": true. Keeps the benchmark program building and passing
# its output checks against the library. Usage:
#   vsbench_smoke_test.sh VSBENCH_BINARY WORKLOAD
set -eu

out=$("$1" --workload "$2" --seed 1 --seconds 1 --trace 0)
last=$(printf '%s\n' "$out" | tail -n 1)
printf '%s\n' "$last"
case $last in
*'"correct": true'*) ;;
*)
    echo "vsbench $2: result line does not report correct" >&2
    exit 1
    ;;
esac
