#!/usr/bin/env python3
"""Golden fixture tests for tools/lint_ast.py (run from CTest).

Each fixture directory contains a `bad/` tree that must produce findings of
a specific rule in specific files and/or a `clean/` tree that must produce
none. In the newer bad trees every violating line carries a trailing
`// expect: <rule>` comment, and the lint must report exactly those
(file, line, rule) triples, each once. The alias, member-typedef and
multi-line trees hold violations that no single line spells out; only the
lint's type resolution and paren-balanced scanning can flag them.

Exit status: 0 all expectations hold, 1 otherwise.
"""

from __future__ import annotations

import re
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
REPO = HERE.parent.parent
LINT_AST = REPO / "tools" / "lint_ast.py"
EXPECT = re.compile(r"//\s*expect:\s*([a-z-]+)")
REPORTED = re.compile(r"^(\S+):(\d+): \[([a-z-]+)\]", re.MULTILINE)

failures: list[str] = []


def lint_ast(paths: list[Path | str]) -> tuple[int, str]:
    proc = subprocess.run(
        [sys.executable, str(LINT_AST), *map(str, paths)],
        capture_output=True, text=True, cwd=REPO)
    return proc.returncode, proc.stdout + proc.stderr


def check(name: str, ok: bool, detail: str = ""):
    if ok:
        print(f"  PASS  {name}")
    else:
        print(f"  FAIL  {name}\n{detail}")
        failures.append(name)


def expect_finding(name: str, target: Path, rule: str, in_file: str):
    code, out = lint_ast([target])
    hit = any(f"[{rule}]" in line and in_file in line
              for line in out.splitlines())
    check(name, code == 1 and hit, out)


def expect_clean(name: str, target: Path):
    code, out = lint_ast([target])
    check(name, code == 0, out)


def expect_marked(name: str, target: Path, root: Path | str | None = None):
    """The findings under `target` are exactly its `// expect:` lines, in
    repo-relative paths. `root` is the argument the lint gets (default:
    the absolute target)."""
    files = [target] if target.is_file() else sorted(target.rglob("*.*"))
    want = sorted(
        (str(f.relative_to(REPO)), lineno, m.group(1))
        for f in files
        for lineno, line in enumerate(f.read_text().splitlines(), start=1)
        if (m := EXPECT.search(line)))
    code, out = lint_ast([root or target])
    got = sorted((path, int(lineno), rule)
                 for path, lineno, rule in REPORTED.findall(out))
    check(name, code == 1 and bool(want) and got == want,
          f"want {want}\ngot  {got}\n{out}")


def main() -> int:
    # rng via file-level alias: the use site spells no engine name.
    expect_finding("rng alias: semantic engine flags use.cpp",
                   HERE / "rng_alias" / "bad", "rng", "use.cpp")
    expect_clean("rng alias: util::Prng alias stays clean",
                 HERE / "rng_alias" / "clean")

    # rng via member typedef: the second alias shape.
    expect_finding("rng member typedef: semantic engine flags use.cpp",
                   HERE / "rng_member_typedef" / "bad", "rng", "use.cpp")

    # rng by name: the C generator, engine names, a temporary.
    expect_marked("rng names: every marked line flagged once",
                  HERE / "rng_names" / "bad")
    expect_clean("rng names: util::Prng and look-alikes stay clean",
                 HERE / "rng_names" / "clean")

    # unordered iteration via alias declared in a header.
    expect_finding("unordered alias: semantic engine flags iterate.cpp",
                   HERE / "unordered_alias" / "bad",
                   "unordered-iteration", "iterate.cpp")
    expect_clean("unordered alias: ordered iteration stays clean",
                 HERE / "unordered_alias" / "clean")
    expect_marked("unordered same file: range-for flagged",
                  HERE / "unordered_same_file" / "bad")

    # wall-clock reads; steady_clock durations are fine.
    expect_marked("wallclock: every marked read flagged once",
                  HERE / "wallclock" / "bad")
    expect_clean("wallclock: steady_clock and look-alikes stay clean",
                 HERE / "wallclock" / "clean")

    # raw std::thread construction.
    expect_marked("raw thread: std::thread construction flagged",
                  HERE / "raw_thread" / "bad")
    expect_clean("raw thread: jthread and hardware_concurrency stay clean",
                 HERE / "raw_thread" / "clean")

    # [&] into parallel_for: across lines, and on the call's own line.
    expect_finding("sweep capture: multi-line [&] flagged",
                   HERE / "sweep_capture" / "bad",
                   "sweep-capture", "sweep.cpp")
    expect_marked("sweep capture: same-line [&] flagged, bound or inline",
                  HERE / "sweep_capture" / "bad" / "same_line.cpp")
    expect_clean("sweep capture: named captures stay clean",
                 HERE / "sweep_capture" / "clean")

    # hot-path-alloc: tagged files ban raw new, std::vector and node-based
    # container spellings.
    expect_finding("hot-path alloc: raw new flagged in tagged file",
                   HERE / "hot_path_alloc" / "bad",
                   "hot-path-alloc", "hot.cpp")
    code, out = lint_ast([HERE / "hot_path_alloc" / "bad"])
    check("hot-path alloc: vector spelling also flagged",
          code == 1 and sum("[hot-path-alloc]" in line
                            for line in out.splitlines()) >= 2, out)
    for container in ("map", "set", "multimap", "multiset", "unordered_set",
                      "unordered_map", "list", "deque"):
        check(f"hot-path alloc: std::{container} spelling flagged",
              code == 1 and any(
                  "[hot-path-alloc]" in line and "hot_nodes.cpp" in line
                  and f"std::{container}<" in line
                  for line in out.splitlines()), out)
    expect_clean("hot-path alloc: arena alias + allow markers stay clean",
                 HERE / "hot_path_alloc" / "clean")

    # layer DAG: upward and same-rank edges, against the real layers.toml.
    expect_finding("layer DAG: upward include flagged",
                   HERE / "layer_dag" / "bad", "layer-dag", "up.hpp")
    expect_finding("layer DAG: same-rank include flagged",
                   HERE / "layer_dag" / "bad", "layer-dag", "peer.hpp")
    expect_clean("layer DAG: downward includes stay clean",
                 HERE / "layer_dag" / "clean")

    # scheme-dispatch: Scheme switches stay behind the scheme registry.
    expect_marked("scheme dispatch: case arms flagged outside src/scheme",
                  HERE / "scheme_dispatch" / "bad")
    expect_clean("scheme dispatch: src/scheme path stays clean",
                 HERE / "scheme_dispatch" / "clean")

    # policy-dispatch: recovery strategy switches stay behind the registry.
    expect_finding("policy dispatch: case arm flagged outside src/policy",
                   HERE / "policy_dispatch" / "bad",
                   "policy-dispatch", "dispatch.cpp")
    code, out = lint_ast([HERE / "policy_dispatch" / "bad"])
    check("policy dispatch: every arm and the switch expression flagged",
          code == 1 and sum("[policy-dispatch]" in line
                            for line in out.splitlines()) >= 4, out)
    expect_clean("policy dispatch: src/policy path and allow markers clean",
                 HERE / "policy_dispatch" / "clean")

    # overlay-seed: literal Prng seeds, only under src/rrd and src/dyntree.
    overlay_bad = HERE / "overlay_seed" / "bad"
    expect_marked("overlay seed: literal seeds flagged in rrd and dyntree",
                  overlay_bad)
    # The scope is read from the repo-relative path, so a relative root (as
    # CI passes `src`) scopes the same as an absolute one.
    expect_marked("overlay seed: relative root from the repo root",
                  overlay_bad, root=overlay_bad.relative_to(REPO))
    expect_clean("overlay seed: threaded seeds and out-of-scope literals",
                 HERE / "overlay_seed" / "clean")

    # session-shim: core::run_session is the one entry point outside
    # src/core/; the forwards stay for the session-mix benchmark only.
    expect_marked("session shim: forwards and old methods flagged",
                  HERE / "session_shim" / "bad")
    expect_clean("session shim: run_session, look-alikes and src/core clean",
                 HERE / "session_shim" / "clean")

    # allow() suppressions silence the rules.
    expect_clean("suppression: allow() markers honored",
                 HERE / "suppression")

    print()
    if failures:
        print(f"lint fixtures: {len(failures)} expectation(s) FAILED")
        return 1
    print("lint fixtures: all expectations hold")
    return 0


if __name__ == "__main__":
    sys.exit(main())
