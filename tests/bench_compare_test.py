#!/usr/bin/env python3
"""Fixture tests for tools/bench_compare.py (run from CTest).

The perf gate must judge a run's own integrity — determinism
(``byte_identical``) and, for scale runs, the memory budget — before any
baseline policy. In particular ``--refresh-single-thread-baseline``, which
adopts a multi-core run over a 1-thread baseline, must not adopt (and so
pass) a run that broke determinism.

Exit status: 0 all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import json
import subprocess
import sys
import tempfile
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
BENCH_COMPARE = REPO / "tools" / "bench_compare.py"

failures: list[str] = []


def engine_run(threads: int, byte_identical: bool) -> dict:
    rates = {"slots_per_sec": 1000.0, "deliveries_per_sec": 5000.0}
    return {"grid_tasks": 4, "filtered": False, "schemes": ["chain"],
            "hardware_threads": threads, "byte_identical": byte_identical,
            "serial": dict(rates), "parallel": dict(rates, threads=threads),
            "speedup": 1.0}


def scale_run(threads: int, byte_identical: bool, within_budget: bool) -> dict:
    return {"bench": "scale", "hardware_threads": threads,
            "byte_identical": byte_identical, "within_budget": within_budget,
            "curve": [{"n": 1000, "replay_nodes_per_sec": 1.0e6}]}


def expect(name: str, current: dict, baseline: dict, code: int,
           adopted: bool) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        cur_path = Path(tmp) / "current.json"
        base_path = Path(tmp) / "baseline.json"
        cur_path.write_text(json.dumps(current))
        base_text = json.dumps(baseline)
        base_path.write_text(base_text)
        proc = subprocess.run(
            [sys.executable, str(BENCH_COMPARE), str(cur_path),
             str(base_path), "--refresh-single-thread-baseline"],
            capture_output=True, text=True)
        was_adopted = base_path.read_text() != base_text
    ok = proc.returncode == code and was_adopted == adopted
    print(f"  {'PASS' if ok else 'FAIL'}  {name}")
    if not ok:
        print(f"    exit {proc.returncode} (want {code}), adopted "
              f"{was_adopted} (want {adopted})\n{proc.stdout}{proc.stderr}")
        failures.append(name)


def main() -> int:
    expect("refresh does not adopt a non-byte-identical engine run",
           engine_run(4, byte_identical=False), engine_run(1, True),
           code=1, adopted=False)
    expect("refresh adopts a byte-identical engine run",
           engine_run(4, byte_identical=True), engine_run(1, True),
           code=0, adopted=True)
    expect("refresh does not adopt a scale run that breaks replay identity",
           scale_run(4, byte_identical=False, within_budget=True),
           scale_run(1, True, True), code=1, adopted=False)
    expect("refresh does not adopt a scale run over its memory budget",
           scale_run(4, byte_identical=True, within_budget=False),
           scale_run(1, True, True), code=1, adopted=False)
    expect("like-for-like engine run still fails on a determinism break",
           engine_run(4, byte_identical=False), engine_run(4, True),
           code=1, adopted=False)
    print()
    if failures:
        print(f"bench_compare fixtures: {len(failures)} expectation(s) "
              f"FAILED")
        return 1
    print("bench_compare fixtures: all expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
