#!/usr/bin/env python3
"""Fixture tests for tools/perf_gate.py (run from CTest).

Synthetic perfbench runs are built from the committed BENCH_mix.txt and fed
through the gate exactly as CI does (`--baseline BENCH_mix.txt`). The
unchanged runs and a run whose timings moved must pass; each fault the gate
exists for must fail: an extra allocation, an extra transmission, a digest
mismatch (`correct: false`), a failed session, a count below the baseline
(a stale baseline) and a different compiler.

Exit status: 0 all expectations hold, 1 otherwise.
"""

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
GATE = REPO / "tools" / "perf_gate.py"
BASELINE = REPO / "BENCH_mix.txt"


def baseline_runs():
    """(compiler, {workload: {metric: value}}) from the committed baseline."""
    lines = BASELINE.read_text().splitlines()
    compiler = lines[0].split(" ", 1)[1]
    runs = {}
    for line in lines[1:]:
        workload, metric, value = line.split()
        runs.setdefault(workload, {})[metric] = int(value)
    return compiler, runs


def write_run(path, workload, compiler, counts, correct=True, failed=0,
              pump_ms=100.0):
    metrics = {name: {"value": value, "unit": "B" if name.endswith("bytes_peak")
                      else "count"} for name, value in counts.items()}
    metrics["pump.self_ms"] = {"value": pump_ms, "unit": "ms"}
    result = {"correct": correct, "attempted": 10, "failed": failed,
              "metrics": metrics}
    path.write_text(
        "session_mix workload=%s seed=1 seconds=1 trace=1\n"
        "host nproc=4 cpu=\"fixture\" commit=fixture build=RelWithDebInfo "
        "compiler=%s\n%s\n" % (workload, compiler, json.dumps(result)))


def gate(tmp, compiler, runs, **fault):
    """Exit code of the gate on `runs`, with `fault` applied to lossy-mix."""
    paths = []
    for workload, counts in runs.items():
        path = Path(tmp) / (workload + ".txt")
        write_run(path, workload, compiler, counts,
                  **(fault if workload == "lossy-mix" else {}))
        paths.append(str(path))
    return subprocess.run(
        [sys.executable, str(GATE), "--baseline", str(BASELINE)] + paths,
        capture_output=True, text=True).returncode


def bumped(runs, metric, delta):
    out = {w: dict(counts) for w, counts in runs.items()}
    out["lossy-mix"][metric] += delta
    return out


def main():
    compiler, runs = baseline_runs()
    cases = [
        ("the committed baseline", 0, compiler, runs, {}),
        ("a timing change", 0, compiler, runs, {"pump_ms": 250.0}),
        ("session.allocs + 1", 1, compiler,
         bumped(runs, "session.allocs", 1), {}),
        ("engine.transmissions + 1", 1, compiler,
         bumped(runs, "engine.transmissions", 1), {}),
        ("correct: false", 1, compiler, runs, {"correct": False}),
        ("failed: 1", 1, compiler, runs, {"failed": 1}),
        ("a count below the baseline", 1, compiler,
         bumped(runs, "protocol.calls", -1), {}),
        ("a changed compiler", 1, compiler + "-other", runs, {}),
    ]
    failures = []
    with tempfile.TemporaryDirectory() as tmp:
        for name, expected, comp, case_runs, fault in cases:
            code = gate(tmp, comp, case_runs, **fault)
            if code != expected:
                failures.append("%s: exit %d, expected %d" % (name, code,
                                                              expected))
    for failure in failures:
        print("FAIL: " + failure)
    print("perf_gate fixtures: %d of %d cases hold" % (
        len(cases) - len(failures), len(cases)))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
