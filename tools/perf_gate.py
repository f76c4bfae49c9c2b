#!/usr/bin/env python3
"""Perf gate: perfbench's exact traced seed-1 counts against BENCH_mix.txt.

Usage, from the root of a checkout:

    for w in reliable-mix lossy-mix large-world; do
      python3 perfbench/run.py --workload $w --seed 1 --seconds 1 --trace 1 \\
        > build/perf/$w.txt
    done
    python3 tools/perf_gate.py build/perf/*.txt > BENCH_mix.txt
    python3 tools/perf_gate.py --baseline BENCH_mix.txt build/perf/*.txt

Each RUN file holds one run's stdout. The script exits 1 unless every run is
traced on seed 1 and its result line says `correct: true` and `failed: 0`;
a session whose report misses its pinned digest makes `correct` false.
Otherwise it prints one header line naming the compiler perfbench was built
with, then one sorted `<workload> <metric> <value>` line per metric whose
unit is `count` or `B`. That output is the baseline.

With --baseline the output is compared with the committed baseline instead
of printed. Any difference fails, in either direction: an extra allocation
or transmission, and equally a count that fell, since a baseline that no
longer describes the code gates nothing. Timings are never compared.
"""

import argparse
import difflib
import json
import sys

GATED_UNITS = ("count", "B")


def fail(message):
    print("perf gate: " + message, file=sys.stderr)
    sys.exit(1)


def fields(line):
    """`key=value` pairs of a perfbench header line."""
    return dict(part.split("=", 1) for part in line.split() if "=" in part)


def read_run(path):
    """(workload, compiler, {metric: value}) of one run's stdout."""
    try:
        with open(path) as f:
            lines = [line.strip() for line in f if line.strip()]
    except OSError as err:
        fail("cannot read %s: %s" % (path, err))
    run = next((fields(l) for l in lines if l.startswith("session_mix ")), None)
    host = next((l for l in lines if l.startswith("host ")), None)
    if run is None or host is None or "compiler=" not in host:
        fail("%s is not perfbench output" % path)
    if run.get("seed") != "1" or run.get("trace") != "1":
        fail("%s is not a traced seed-1 run" % path)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        fail("%s does not end with a result line" % path)
    if result.get("correct") is not True or result.get("failed") != 0:
        fail("%s: correct: %s, failed: %s" % (
            path, json.dumps(result.get("correct")), result.get("failed")))
    counts = {name: m["value"] for name, m in result.get("metrics", {}).items()
              if m["unit"] in GATED_UNITS}
    return run["workload"], host.split("compiler=", 1)[1], counts


def counts_text(paths):
    compilers = set()
    rows = []
    workloads = set()
    for path in paths:
        workload, compiler, counts = read_run(path)
        if workload in workloads:
            fail("two runs of %s" % workload)
        workloads.add(workload)
        compilers.add(compiler)
        rows += ["%s %s %s" % (workload, name, value)
                 for name, value in counts.items()]
    if len(compilers) != 1:
        fail("runs built with different compilers: " + ", ".join(compilers))
    return "compiler %s\n" % compilers.pop() + "".join(
        row + "\n" for row in sorted(rows))


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--baseline", help="committed baseline to compare with")
    parser.add_argument("runs", nargs="+", metavar="RUN")
    opts = parser.parse_args()

    fresh = counts_text(opts.runs)
    if opts.baseline is None:
        sys.stdout.write(fresh)
        return
    try:
        with open(opts.baseline) as f:
            baseline = f.read()
    except OSError as err:
        fail("cannot read baseline: %s" % err)
    if fresh == baseline:
        print("perf gate: %d counts match %s" % (
            fresh.count("\n") - 1, opts.baseline))
        return
    sys.stdout.writelines(difflib.unified_diff(
        baseline.splitlines(True), fresh.splitlines(True),
        opts.baseline, "this run"))
    fail("the counts differ from %s. If the change is meant, rewrite it "
         "from these runs:\n  python3 tools/perf_gate.py %s > %s" % (
             opts.baseline, " ".join(opts.runs), opts.baseline))


if __name__ == "__main__":
    main()
