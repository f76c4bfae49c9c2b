#!/usr/bin/env python3
"""Steadiness check: do two sets of runs of the same build agree?

Runs the benchmark (BENCHMARK.json's command, run_seconds and end-to-end
metrics) in two sets of RUNS runs per workload, each run with its own seed,
and prints for every workload and end-to-end metric:

  * each set's median and its per-run spread: the interquartile range of
    the set's values (statistics.quantiles, n=4) as a share of its median;
  * how much worse set B's median is than set A's, against the metric's
    bound.

By default the sets are interleaved (A, B, B, A, A, B, ...), so slow drift
of the host lands on both sets alike; --sequential runs all of A, then all
of B, to show that drift.

    python3 perfbench/steady.py --runs 10
    python3 perfbench/steady.py --workloads lossy-mix --runs 5 --sequential

Run from the root of a checkout. Exit status 1 when a spread (setup_s
excepted) or a median difference exceeds its bound, or a run fails.
"""
import argparse
import json
import os
import statistics
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_once(spec, workload, seed):
    cmd = spec["command"] + ["--workload", workload, "--seed", str(seed),
                             "--seconds", str(spec["run_seconds"]),
                             "--trace", "0"]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    if proc.returncode != 0 or not lines:
        sys.stderr.write(proc.stdout[-2000:] + proc.stderr[-2000:])
        raise SystemExit("run failed: %s seed %d" % (workload, seed))
    result = json.loads(lines[-1])
    if not result["correct"] or result["failed"]:
        raise SystemExit("incorrect run: %s seed %d" % (workload, seed))
    return {k: v["value"] for k, v in result["metrics"].items()}


def spread(values):
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def worse_by(base, other, better):
    """Share by which `other` is worse than `base` (negative = better)."""
    change = (other - base) / base
    return change if better == "lower" else -change


def main():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=names, choices=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--sequential", action="store_true")
    opts = parser.parse_args()
    if opts.runs < 2:
        parser.error("--runs must be at least 2 (a spread needs two values)")

    # Set A takes the odd seeds, set B the even ones: no seed repeats.
    plan = []
    for i in range(opts.runs):
        pair = [("A", 2 * i + 1), ("B", 2 * i + 2)]
        plan.append(pair if i % 2 == 0 else pair[::-1])
    order = ([r for pair in plan for r in pair if r[0] == "A"] +
             [r for pair in plan for r in pair if r[0] == "B"]
             if opts.sequential else [r for pair in plan for r in pair])

    values = {(w, s): [] for w in opts.workloads for s in "AB"}
    for label, seed in order:
        for w in opts.workloads:
            metrics = run_once(spec, w, seed)
            values[(w, label)].append(metrics)
            print("%s %-13s seed %-4d %s" % (label, w, seed, " ".join(
                "%s=%.4g" % (m["name"], metrics[m["name"]])
                for m in spec["end_to_end"])), flush=True)

    ok = True
    print("\n%-13s %-15s %12s %12s %8s %8s %9s %6s" % (
        "workload", "metric", "median A", "median B", "IQR A", "IQR B",
        "B worse", "bound"))
    for w in opts.workloads:
        for m in spec["end_to_end"]:
            a = [r[m["name"]] for r in values[(w, "A")]]
            b = [r[m["name"]] for r in values[(w, "B")]]
            sa, sb = spread(a), spread(b)
            worse = worse_by(statistics.median(a), statistics.median(b),
                             m["better"])
            bound = m["bound"]
            flags = []
            if m["name"] != "setup_s" and max(sa, sb) > bound:
                flags.append("SPREAD")
            if worse > bound:
                flags.append("DRIFT")
            if m["name"] != "setup_s" and max(sa, sb) > bound / 3:
                flags.append("(spread > bound/3)")
            ok = ok and not any(f in ("SPREAD", "DRIFT") for f in flags)
            print("%-13s %-15s %12.5g %12.5g %7.1f%% %7.1f%% %8.1f%% %5.0f%% %s"
                  % (w, m["name"], statistics.median(a), statistics.median(b),
                     100 * sa, 100 * sb, 100 * worse, 100 * bound,
                     " ".join(flags)))
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
