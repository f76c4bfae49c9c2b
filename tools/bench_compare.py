#!/usr/bin/env python3
"""Compare a BENCH_engine.json / BENCH_scale.json run against the baseline.

Usage:
    tools/bench_compare.py CURRENT.json [BASELINE.json]
                           [--tolerance 0.10] [--update]

Fails (exit 1) when the current run regresses:
  * ``byte_identical`` is false — the parallel runner broke determinism
    (engine bench), or the closed-form replay stopped matching the per-slot
    pump (scale bench);
  * serial ``slots_per_sec`` fell more than ``--tolerance`` below baseline;
  * parallel ``slots_per_sec`` or ``speedup`` fell more than the tolerance
    below baseline, compared only when both runs used the same thread
    count (a 1-core shard is not a regression relative to an 8-core one).

Scale benches (a ``curve`` array, from bench/perf_scale): the gate checks
``byte_identical`` and ``within_budget``, then compares replay nodes/sec at
every N the two curves share.

The run's own integrity checks — ``byte_identical`` (both benches) and
``within_budget`` (scale bench) — run first and judge the current run
alone, so no baseline policy can skip them: a run that fails one exits 1
whatever the flags.

Single-thread baselines: a baseline recorded with ``hardware_threads: 1``
cannot say anything about parallel speedup (its own speedup is ~1.0 by
construction). When the *current* run also comes from a 1-thread host the
comparison still runs with a loud warning (like vs like); when the current
host has more than one hardware thread the stale baseline is a hard
failure — pass ``--refresh-single-thread-baseline`` to adopt the current
multi-core run as the new baseline instead of failing (the CI perf job
does this, self-healing a baseline captured on a 1-core container). Only a
run that passed its integrity checks is adopted. Any ``warnings`` array
embedded in the baseline JSON is echoed either way.

Scheme filters: perf_sweep emits the canonical scheme names its grid
covered as a ``schemes`` array (it accepts ``--schemes=a,b`` to restrict
the grid). Throughput ratios are only compared when both runs covered the
same scheme set; a baseline predating the array is treated as the full
grid. ``--schemes`` here asserts what the current run was filtered to.

``--update`` rewrites the baseline with the current run instead of
comparing, for intentional re-baselining after a hardware or engine
change.
"""

from __future__ import annotations

import argparse
import json
import pathlib
import shutil
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
DEFAULT_BASELINE = REPO_ROOT / "BENCH_engine.json"


def load(path: pathlib.Path) -> dict:
    try:
        with path.open() as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as err:
        sys.exit(f"bench_compare: cannot read {path}: {err}")


def check_ratio(label: str, current: float, baseline: float,
                tolerance: float) -> list[str]:
    if baseline <= 0:
        return []
    ratio = current / baseline
    verdict = "OK" if ratio >= 1.0 - tolerance else "REGRESSION"
    print(f"  {label:28s} {current:14.1f} vs {baseline:14.1f} "
          f"({ratio:6.2%}) {verdict}")
    if verdict == "REGRESSION":
        return [f"{label}: {current:.1f} < {baseline:.1f} "
                f"- {tolerance:.0%} tolerance"]
    return []


def check_single_thread_baseline(current: dict, baseline: dict,
                                 baseline_path: pathlib.Path) -> list[str]:
    """1-thread-baseline policy: warning on a 1-thread host, hard failure
    on a multi-core one (the baseline's ~1.0x speedup would rubber-stamp
    any parallel regression)."""
    for note in baseline.get("warnings", []):
        print(f"  baseline warning: {note}")
    if baseline.get("hardware_threads") != 1:
        return []
    cur_threads = current.get("hardware_threads", 1)
    if cur_threads > 1:
        return [f"baseline {baseline_path.name} was recorded on a 1-thread "
                f"host but this host has {cur_threads} hardware threads; "
                f"its ~1.0x speedup cannot gate multi-core scaling. "
                f"Re-baseline with --update, or pass "
                f"--refresh-single-thread-baseline to adopt this run."]
    print("  " + "!" * 66)
    print(f"  !! baseline {baseline_path.name} was recorded on a "
          f"1-thread host.")
    print("  !! Its parallel speedup (~1.0x) says nothing about "
          "multi-core scaling;")
    print("  !! re-baseline with --update on a multi-core host before "
          "trusting it.")
    print("  " + "!" * 66)
    return []


def integrity_failures(current: dict, scale: bool) -> list[str]:
    """Checks that judge the current run alone, before any baseline
    policy: determinism, and for scale runs the memory budget."""
    failures: list[str] = []
    if scale:
        if not current.get("within_budget", False):
            failures.append("scale run exceeded its declared memory budget")
        if not current.get("byte_identical", False):
            failures.append("closed-form replay does not byte-match the "
                            "per-slot pump")
    elif not current.get("byte_identical", False):
        failures.append("parallel reports are not byte-identical to serial")
    return failures


def report(failures: list[str], passed: str = "PASS") -> int:
    if failures:
        print("bench_compare: FAIL")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    print(f"bench_compare: {passed}")
    return 0


def compare_scale(current: dict, baseline: dict, tolerance: float,
                  failures: list[str]) -> None:
    base_points = {p["n"]: p for p in baseline.get("curve", [])}
    for point in current.get("curve", []):
        base = base_points.get(point["n"])
        if base is None:
            print(f"  n={point['n']:>9}: no baseline point, skipped")
            continue
        failures.extend(check_ratio(
            f"replay nodes/sec @ n={point['n']}",
            point["replay_nodes_per_sec"],
            base["replay_nodes_per_sec"],
            tolerance,
        ))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("current", type=pathlib.Path)
    parser.add_argument("baseline", type=pathlib.Path, nargs="?",
                        default=DEFAULT_BASELINE)
    parser.add_argument("--tolerance", type=float, default=0.10,
                        help="allowed fractional slowdown (default 0.10)")
    parser.add_argument("--update", action="store_true",
                        help="overwrite the baseline with the current run")
    parser.add_argument("--refresh-single-thread-baseline",
                        action="store_true",
                        help="when the baseline was recorded on a 1-thread "
                             "host and this host is multi-core, adopt the "
                             "current run as the new baseline and exit 0 "
                             "instead of failing")
    parser.add_argument("--schemes",
                        help="comma-separated canonical scheme names the "
                             "current run must have covered (validated "
                             "against its \"schemes\" array)")
    args = parser.parse_args()

    current = load(args.current)

    if args.update:
        shutil.copyfile(args.current, args.baseline)
        print(f"bench_compare: baseline {args.baseline} updated")
        return 0

    baseline = load(args.baseline)
    failures: list[str] = []

    print(f"bench_compare: {args.current} vs {args.baseline} "
          f"(tolerance {args.tolerance:.0%})")
    failures += integrity_failures(current, "curve" in current)
    stale = check_single_thread_baseline(current, baseline, args.baseline)
    if stale:
        if args.refresh_single_thread_baseline and not failures:
            shutil.copyfile(args.current, args.baseline)
            print(f"bench_compare: 1-thread baseline {args.baseline} "
                  f"refreshed with this multi-core run "
                  f"(hardware_threads: {current.get('hardware_threads')})")
            return 0
        if args.refresh_single_thread_baseline:
            print("bench_compare: not adopting a run that failed its "
                  "integrity checks as the new baseline")
        failures += stale

    if "curve" in current or "curve" in baseline:
        if ("curve" in current) != ("curve" in baseline):
            failures.append("scale curve present in only one of the two "
                            "files; compare like with like")
        else:
            compare_scale(current, baseline, args.tolerance, failures)
        return report(failures)

    cur_schemes = current.get("schemes")
    if args.schemes is not None:
        want = [name for name in args.schemes.split(",") if name]
        if cur_schemes is None:
            failures.append("current run has no \"schemes\" array to "
                            "validate the filter against")
        else:
            # Schemes the registry gained since the expectation was written
            # are a warning, not a failure: a freshly registered scheme
            # joining the full grid must not hard-fail the perf gate before
            # anyone has had a chance to re-baseline. Missing expected
            # schemes still fail.
            missing = sorted(set(want) - set(cur_schemes))
            extra = sorted(set(cur_schemes) - set(want))
            if missing:
                failures.append(f"scheme filter mismatch: run is missing "
                                f"{missing} (covered {sorted(cur_schemes)})")
            elif extra:
                print(f"  WARNING: run covered schemes beyond the expected "
                      f"set: {extra} (newly registered?); update the "
                      f"--schemes list and re-baseline with --update")

    # A baseline written before the array existed covered the full grid;
    # comparing throughput is only meaningful when both runs covered the
    # same grid, so a filtered current run against it is also skipped.
    base_schemes = baseline.get("schemes")
    grids_differ = (cur_schemes is not None and base_schemes is not None
                    and sorted(cur_schemes) != sorted(base_schemes))
    filtered_vs_full = current.get("filtered", False) and base_schemes is None
    if grids_differ or filtered_vs_full:
        detail = (f"{sorted(cur_schemes)} vs baseline "
                  f"{sorted(base_schemes)}" if grids_differ
                  else "current run is scheme-filtered, baseline is the "
                       "full grid")
        print(f"  throughput comparison skipped: {detail}")
        if grids_differ and set(cur_schemes) > set(base_schemes):
            new = sorted(set(cur_schemes) - set(base_schemes))
            print(f"  WARNING: baseline predates scheme(s) {new}; the "
                  f"throughput gate is inactive until the baseline is "
                  f"refreshed with --update")
        return report(failures, "PASS (determinism only)")

    failures += check_ratio(
        "serial slots/sec",
        current["serial"]["slots_per_sec"],
        baseline["serial"]["slots_per_sec"],
        args.tolerance,
    )
    failures += check_ratio(
        "serial deliveries/sec",
        current["serial"]["deliveries_per_sec"],
        baseline["serial"]["deliveries_per_sec"],
        args.tolerance,
    )

    cur_threads = current["parallel"]["threads"]
    base_threads = baseline["parallel"]["threads"]
    if cur_threads == base_threads:
        failures += check_ratio(
            "parallel slots/sec",
            current["parallel"]["slots_per_sec"],
            baseline["parallel"]["slots_per_sec"],
            args.tolerance,
        )
        failures += check_ratio(
            "speedup",
            current["speedup"],
            baseline["speedup"],
            args.tolerance,
        )
    else:
        print(f"  parallel metrics skipped: thread counts differ "
              f"({cur_threads} vs baseline {base_threads})")

    return report(failures)


if __name__ == "__main__":
    sys.exit(main())
