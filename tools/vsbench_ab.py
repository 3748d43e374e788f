#!/usr/bin/env python3
"""Same-host A/B of the varsched benchmark: working tree against a parent ref.

    python3 tools/vsbench_ab.py PARENT_REF

The parent ref is exported with `git archive` into .vsbench_ab/ (the
repository's .git is only read). Both trees are built and run through
their own vsbench/run.py, each under its own CARGO_TARGET_DIR. For every
workload in BENCHMARK.json the driver runs ten seed pairs at the
configured run length, alternating which side goes first, and reports
for each end-to-end metric the median change/parent ratio with a
bootstrap 95% interval, how many pairs the change won, and the median
gain next to the parent's quartile spread. A gain can be claimed when
the change wins at least nine pairs in ten and its median gain exceeds
that spread (the "claim" column). A metric whose median is worse than its
BENCHMARK.json bound fails the comparison, unless the parent's own
quartile spread is wider than the bound, in which case it is reported
as unresolved (unless every change run beats every parent run). A
larger share of failed dies than the parent's also fails. One traced
run of the change per workload must keep trace.overhead_frac at or
below 0.01. Exits 0 when every gate holds.
"""

import json
import os
import random
import shutil
import statistics
import subprocess
import sys
import tarfile

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SCRATCH = os.path.join(ROOT, ".vsbench_ab")
PAIRS = 10
CLAIM_WIN_SHARE = 0.9
SEEDS = [101 + i for i in range(PAIRS)]
TRACE_SEED = 2026
TRACE_OVERHEAD_MAX = 0.01
BOOTSTRAP_RESAMPLES = 2000


def fail(message):
    print(f"vsbench_ab: {message}", file=sys.stderr)
    sys.exit(2)


def git(*args):
    result = subprocess.run(["git", "-C", ROOT, *args], capture_output=True,
                            text=True)
    if result.returncode != 0:
        fail(f"git {' '.join(args)}: {result.stderr.strip()}")
    return result.stdout.strip()


def export_parent(ref):
    """Extract `ref` into .vsbench_ab/parent-<sha>/tree, reusing a
    finished export (and its build) of the same commit."""
    sha = git("rev-parse", "--verify", f"{ref}^{{commit}}")
    side = os.path.join(SCRATCH, f"parent-{sha[:12]}")
    os.makedirs(SCRATCH, exist_ok=True)
    for name in os.listdir(SCRATCH):
        path = os.path.join(SCRATCH, name)
        if name.startswith("parent-") and path != side:
            shutil.rmtree(path)
    tree = os.path.join(side, "tree")
    stamp = os.path.join(side, "exported")
    if not os.path.exists(stamp):
        shutil.rmtree(side, ignore_errors=True)
        os.makedirs(tree)
        archive = os.path.join(side, "tree.tar")
        git("archive", "--format=tar", "-o", archive, sha)
        with tarfile.open(archive) as tar:
            if hasattr(tarfile, "data_filter"):
                tar.extractall(tree, filter="data")
            else:
                tar.extractall(tree)
        os.remove(archive)
        open(stamp, "w").close()
    if not os.path.isfile(os.path.join(tree, "vsbench", "run.py")):
        fail(f"{ref} has no vsbench/run.py to compare against")
    return sha, tree, os.path.join(side, "build")


def run_bench(command, tree, build_dir, workload, seed, seconds, trace):
    """One benchmark run; returns (stdout lines, result object)."""
    env = dict(os.environ, CARGO_TARGET_DIR=build_dir)
    args = command + ["--workload", workload, "--seed", str(seed),
                      "--seconds", str(seconds), "--trace", str(trace)]
    result = subprocess.run(args, cwd=tree, env=env, capture_output=True,
                            text=True)
    lines = result.stdout.strip().splitlines()
    if result.returncode != 0 or not lines:
        sys.stderr.write(result.stderr[-4000:])
        fail(f"{workload} seed {seed} in {tree} exited with code "
             f"{result.returncode}")
    outcome = json.loads(lines[-1])
    if not outcome.get("correct"):
        fail(f"{workload} seed {seed} in {tree} reported incorrect output")
    return lines, outcome


def quartile_spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return (q3 - q1) / median if median else float("inf")


def bootstrap_ci(ratios, rng):
    medians = sorted(
        statistics.median(rng.choices(ratios, k=len(ratios)))
        for _ in range(BOOTSTRAP_RESAMPLES))
    return (medians[int(0.025 * BOOTSTRAP_RESAMPLES)],
            medians[int(0.975 * BOOTSTRAP_RESAMPLES) - 1])


def main():
    if len(sys.argv) != 2 or sys.argv[1].startswith("-"):
        print(__doc__.strip().splitlines()[0])
        print("usage: python3 tools/vsbench_ab.py PARENT_REF")
        sys.exit(2)
    ref = sys.argv[1]
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    command = [sys.executable if c == "python3" else c
               for c in spec["command"]]
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]

    sha, parent_tree, parent_build = export_parent(ref)
    sides = {
        "parent": (parent_tree, parent_build),
        "change": (ROOT, os.path.join(SCRATCH, "build-change")),
    }
    # The first run of each side builds its tree; the warm-up result is
    # discarded so no timed run shares a process start with a build.
    host = ""
    for name, (tree, build_dir) in sides.items():
        print(f"building {name} ({tree})", file=sys.stderr, flush=True)
        lines, _ = run_bench(command, tree, build_dir, workloads[0], 1, 1,
                             0)
        host = next((l for l in lines if l.startswith("host:")), host)

    results = {w: {"parent": [], "change": []} for w in workloads}
    for workload in workloads:
        for i, seed in enumerate(SEEDS):
            order = ("parent", "change") if i % 2 == 0 else \
                ("change", "parent")
            for name in order:
                tree, build_dir = sides[name]
                print(f"{workload} seed {seed} {name}", file=sys.stderr,
                      flush=True)
                _, outcome = run_bench(command, tree, build_dir, workload,
                                       seed, seconds, 0)
                results[workload][name].append(outcome)

    rng = random.Random(2026)
    worse = []
    print(host)
    print(f"vsbench A/B: working tree vs {ref} ({sha[:12]}), {PAIRS} seed "
          f"pairs per workload, {seconds} s runs")
    print(f"{'workload':<14} {'metric':<13} {'parent':>10} {'change':>10} "
          f"{'ratio':>7} {'95% CI':>16} {'wins':>5} {'gain':>7} "
          f"{'spread':>7} {'bound':>6} {'claim':>5}  verdict")
    for workload in workloads:
        runs = results[workload]
        failed = {name: sum(r["failed"] for r in rs) /
                  max(1, sum(r["attempted"] for r in rs))
                  for name, rs in runs.items()}
        if failed["change"] > failed["parent"]:
            worse.append(f"{workload} failed share")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            parent = [r["metrics"][key]["value"] for r in runs["parent"]]
            change = [r["metrics"][key]["value"] for r in runs["change"]]
            ratios = [c / p for c, p in zip(change, parent)]
            ratio = statistics.median(ratios)
            lo, hi = bootstrap_ci(ratios, rng)
            spread = quartile_spread(parent)
            bound = metric["bound"]
            if metric["better"] == "lower":
                is_worse = ratio > 1.0 + bound
                all_better = max(change) < min(parent)
                wins = sum(c < p for c, p in zip(change, parent))
                gain = 1.0 - ratio
            else:
                is_worse = ratio < 1.0 - bound
                all_better = min(change) > max(parent)
                wins = sum(c > p for c, p in zip(change, parent))
                gain = ratio - 1.0
            claim = "yes" if (wins >= CLAIM_WIN_SHARE * len(ratios) and
                              gain > spread) else "no"
            if spread > bound and not all_better:
                verdict = "unresolved"
            elif is_worse:
                verdict = "WORSE"
                worse.append(f"{workload} {key}")
            else:
                verdict = "ok"
            print(f"{workload:<14} {key:<13} "
                  f"{statistics.median(parent):>10.4g} "
                  f"{statistics.median(change):>10.4g} {ratio:>7.3f} "
                  f"[{lo:.3f}, {hi:.3f}] {wins:>2}/{len(ratios):<2} "
                  f"{gain:>7.3f} {spread:>7.3f} {bound:>6.2f} {claim:>5}  "
                  f"{verdict}")
        print(f"{workload:<14} {'failed share':<13} "
              f"{failed['parent']:>10.4g} {failed['change']:>10.4g}")

    tree, build_dir = sides["change"]
    for workload in workloads:
        _, outcome = run_bench(command, tree, build_dir, workload,
                               TRACE_SEED, seconds, 1)
        overhead = outcome["metrics"]["trace.overhead_frac"]["value"]
        verdict = "ok" if overhead <= TRACE_OVERHEAD_MAX else "OVER"
        if verdict != "ok":
            worse.append(f"{workload} trace.overhead_frac")
        print(f"{workload:<14} trace.overhead_frac (change, --trace 1) "
              f"{overhead:.4f} <= {TRACE_OVERHEAD_MAX}  {verdict}")

    if worse:
        print("vsbench A/B: FAILED: " + ", ".join(worse))
        sys.exit(1)
    print("vsbench A/B: every gate holds")


if __name__ == "__main__":
    main()
