#!/usr/bin/env python3
"""Bench goldens: run a bench and compare its stdout, byte for byte, with
the committed tests/bench_golden/<bench>.txt.

  check.py BENCH...           exit 1 unless every bench exits 0 and prints
                              exactly its golden (a unified diff otherwise)
  check.py --update BENCH...  rewrite the goldens and list the ones that
                              moved

A BENCH is a bench binary, or a directory of them such as build/bench, in
which case every bench that has a golden here runs. CTest runs one binary
per test (tests/CMakeLists.txt). A golden moves only with a CHANGES.md
entry that names the bench and the reason.

Exit status: 0 all match (or updated), 1 a bench failed or differed.
"""

from __future__ import annotations

import argparse
import difflib
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def benches(targets: list[Path]) -> list[Path]:
    out: list[Path] = []
    for target in targets:
        if target.is_dir():
            out += [target / g.stem for g in sorted(HERE.glob("*.txt"))]
        else:
            out.append(target)
    return out


def main() -> int:
    parser = argparse.ArgumentParser(
        description="Diff bench stdout against tests/bench_golden.")
    parser.add_argument("--update", action="store_true",
                        help="rewrite the goldens instead of diffing")
    parser.add_argument("bench", nargs="+", type=Path)
    args = parser.parse_args()

    failed: list[str] = []
    moved: list[str] = []
    for exe in benches(args.bench):
        name = exe.name
        golden = HERE / f"{name}.txt"
        proc = subprocess.run([str(exe)], capture_output=True, text=True,
                              check=False)
        if proc.returncode != 0:
            print(f"{name}: exit status {proc.returncode}\n{proc.stderr}")
            failed.append(name)
            continue
        want = golden.read_text() if golden.exists() else ""
        if proc.stdout == want:
            print(f"{name}: matches {golden.name}")
            continue
        if args.update:
            golden.write_text(proc.stdout)
            moved.append(name)
            continue
        sys.stdout.writelines(difflib.unified_diff(
            want.splitlines(keepends=True),
            proc.stdout.splitlines(keepends=True),
            fromfile=f"golden/{golden.name}", tofile=f"{name} stdout"))
        failed.append(name)

    if args.update:
        print("moved: " + (", ".join(moved) if moved else "none"))
    if failed:
        print("bench goldens FAILED: " + ", ".join(failed))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
