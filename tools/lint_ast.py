#!/usr/bin/env python3
"""Determinism lint + module-layer DAG check (DESIGN.md §13).

Every result must be a pure function of its seeded config (DESIGN.md §3);
this lint fails CI on the ways that property rots, and on include edges
that climb the module DAG. Rules, matched on comment- and string-stripped
source:

  rng        — rand()/srand(), any std <random> engine or random_device by
               name, and any declaration whose type canonicalizes to one
               (aliases, `auto`, member typedefs). The repo ships
               util::Prng instead.
  wallclock  — wall-clock reads (system_clock, time(), gettimeofday,
               localtime/gmtime/ctime, CLOCK_REALTIME). Monotonic
               steady_clock is allowed: benches may measure durations, they
               may not let the date into results.
  unordered-iteration — a range-for over a std::unordered_{map,set,
               multimap,multiset}, wherever the declaration lives (other
               file, alias, member typedef). Hash order is
               implementation-defined.
  raw-thread — std::thread construction: workers are std::jthread or go
               through run::parallel_for, which join deterministically.
               std::thread::hardware_concurrency() is a query, not a spawn.
  sweep-capture — a default-by-reference capture `[&]`/`[&, ...]` inside
               a run::parallel_for or run::run_sweep argument list (across
               line breaks), or bound on the call's line just before it.
               Sweep bodies name their captures so each is auditable.
  scheme-dispatch — a `case Scheme::` arm outside src/scheme/: dispatch
               lives in the scheme registry.
  policy-dispatch — a `case Recovery...::` arm or a switch over a
               RecoveryMode expression outside src/policy/: strategies
               route through policy::recovery_policy(name).
  overlay-seed — a util::Prng built from a numeric literal under src/rrd/
               or src/dyntree/: overlay randomness flows from
               SessionConfig::seed.
  session-shim — StreamingSession, run_lossy(, run_scale( or run_startup(
               outside src/core/: core::run_session is the one session
               entry point; the StreamingSession forwards stay only for the
               session-mix benchmark (perfbench/, outside the lint roots).
  layer-dag  — an #include edge that climbs the module-layer DAG declared
               in tools/layers.toml: module A may include module B only if
               A == B or B's rank is strictly lower. Same-rank modules are
               mutually off limits; a src/ module absent from layers.toml
               is itself a finding.
  hot-path-alloc — a direct heap allocation in a file tagged as hot
               path (a comment containing `streamcast: hot-path`): any
               `new` expression or standard-container spelling —
               `std::vector<`, and the node-based `std::map<`, `std::set<`,
               `std::multimap<`, `std::multiset<`, `std::unordered_*<`,
               `std::list<`, `std::forward_list<` and `std::deque<`, which
               allocate per element. Hot-path containers live on the
               per-engine util::Arena (util::ArenaVector) or are flat
               vectors whose growth is bounded and reused; each such
               spelling carries a suppression that says why. Uniquely for
               this rule the suppression may sit on the line ABOVE the
               declaration (long member declarations cannot fit an
               80-column trailing comment).

Path scopes are read from the repo-relative path, so relative and absolute
roots behave the same.

Engines, for the type-resolving half of rng, unordered-iteration and
sweep-capture; every other rule is textual and runs under both:

  clang    — libclang (python `clang.cindex`): real canonical types from a
             real parse. CI pins and installs it; see .github/workflows.
  builtin  — no dependencies: a whole-tree alias/typedef table resolved to
             canonical type names, plus paren-balanced scanning for
             multi-line sweep captures. An approximation of the clang
             engine, used with a visible warning when clang is not
             importable.

Suppress a deliberate use with a same-line comment:  // lint: allow(<rule>)

Usage: tools/lint_ast.py [dir|file ...]   (default: src tests bench)
Exit status: 0 clean, 1 findings, 2 usage/configuration error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path
from typing import NamedTuple

try:
    import tomllib
except ModuleNotFoundError:  # pragma: no cover - Python < 3.11
    tomllib = None

REPO = Path(__file__).resolve().parent.parent
SOURCE_SUFFIXES = {".cpp", ".hpp", ".h", ".cc", ".cxx"}
DEFAULT_DIRS = ["src", "tests", "bench"]

# The std <random> engines: the alias names and the class templates they
# canonicalize to, plus random_device. The builtin engine resolves aliases
# down to whichever name the chain ends at, the clang engine sees only the
# canonical template.
RNG_NAMES = re.compile(
    r"\bstd::(?:random_device|mt19937(?:_64)?|minstd_rand0?|"
    r"default_random_engine|ranlux\w+|knuth_b|mersenne_twister_engine|"
    r"linear_congruential_engine|subtract_with_carry_engine|"
    r"discard_block_engine|shuffle_order_engine)\b"
)
UNORDERED = re.compile(r"\bstd::unordered_(map|set|multimap|multiset)\b")
SWEEP_CALL = re.compile(r"\b(parallel_for|run_sweep)\s*\(")
REF_DEFAULT = re.compile(r"\[\s*&\s*[\],]")
ALLOW = re.compile(r"lint:\s*allow\(([a-z-]+)\)")

Finding = tuple[Path, int, str, str]


def relpath(path: Path) -> str:
    try:
        return str(path.resolve().relative_to(REPO))
    except ValueError:
        return str(path)


def src_relative(path: Path) -> str | None:
    """Repo-relative path below its innermost src/ component, e.g.
    'rrd/protocol.cpp'; None if not under one (tests and benches)."""
    parts = Path(relpath(path)).parts
    for i in range(len(parts) - 1, 0, -1):
        if parts[i - 1] == "src":
            return "/".join(parts[i:])
    return None


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments and string/char literals, preserving newlines so
    line numbers survive. A lint: allow() marker is checked against the raw
    line, so removing comments here is safe."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if c == "/" and nxt == "/":
            while i < n and text[i] != "\n":
                i += 1
        elif c == "/" and nxt == "*":
            i += 2
            while i + 1 < n and not (text[i] == "*" and text[i + 1] == "/"):
                if text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 2
        elif c in "\"'":
            quote = c
            i += 1
            while i < n and text[i] != quote:
                if text[i] == "\\":
                    i += 1
                elif text[i] == "\n":
                    out.append("\n")
                i += 1
            i += 1
        else:
            out.append(c)
            i += 1
    return "".join(out)


class Source:
    """One parsed file: raw lines for reporting/suppression, stripped lines
    (comments and strings blanked) for matching."""

    def __init__(self, path: Path):
        self.path = path
        text = path.read_text(encoding="utf-8")
        self.raw_lines = text.splitlines()
        self.code = strip_comments_and_strings(text)
        self.code_lines = self.code.splitlines()
        self.src_rel = src_relative(path)

    def allowed(self, lineno: int, rule: str) -> bool:
        if lineno < 1 or lineno > len(self.raw_lines):
            return False
        m = ALLOW.search(self.raw_lines[lineno - 1])
        return bool(m) and m.group(1) == rule

    def snippet(self, lineno: int) -> str:
        if lineno < 1 or lineno > len(self.raw_lines):
            return ""
        return self.raw_lines[lineno - 1].strip()


# --------------------------------------------------------------------------
# textual line rules (both engines)
# --------------------------------------------------------------------------


class TextRule(NamedTuple):
    name: str
    patterns: list[re.Pattern]
    only: frozenset[str] = frozenset()  # src/ modules it is limited to
    exempt: frozenset[str] = frozenset()  # src/ modules it skips


LITERAL = r"\s*[({]\s*(0[xX][0-9a-fA-F]+|\d+)\s*[)}]"

TEXT_RULES = [
    # By name, so temporaries such as std::mt19937(5)() are caught too.
    TextRule("rng", [
        RNG_NAMES,
        re.compile(r"(?<![\w:])(std::)?s?rand\s*\("),
    ]),
    TextRule("wallclock", [
        re.compile(r"system_clock"),
        re.compile(r"(?<![\w:])(std::)?time\s*\(\s*(0|NULL|nullptr)?\s*\)"),
        re.compile(r"\bgettimeofday\s*\("),
        re.compile(r"\b(localtime|gmtime|ctime)\s*\("),
        re.compile(r"CLOCK_REALTIME"),
    ]),
    TextRule("raw-thread", [re.compile(r"std::thread\b(?!::)")]),
    # The lambda bound on the call's line, before it; a capture inside the
    # call's argument list is each engine's own check.
    TextRule("sweep-capture",
             [re.compile(REF_DEFAULT.pattern + ".*" + SWEEP_CALL.pattern)]),
    TextRule("scheme-dispatch",
             [re.compile(r"case\s+(streamcast::)?(core::)?Scheme::")],
             exempt=frozenset({"scheme"})),
    TextRule("policy-dispatch",
             [re.compile(r"\bcase\s+(?:\w+\s*::\s*)*Recovery\w*\s*::"
                         r"|\bswitch\s*\([^)]*\bRecoveryMode\b")],
             exempt=frozenset({"policy"})),
    TextRule("overlay-seed", [
        re.compile(r"Prng\s+\w+" + LITERAL),
        re.compile(r"Prng" + LITERAL),
        re.compile(r"\bprng_" + LITERAL),
    ], only=frozenset({"rrd", "dyntree"})),
    TextRule("session-shim", [
        re.compile(r"\bStreamingSession\b"),
        re.compile(r"\brun_(lossy|scale|startup)\s*\("),
    ], exempt=frozenset({"core"})),
]


def check_text_rules(src: Source) -> list[Finding]:
    module = src.src_rel.split("/", 1)[0] if src.src_rel else None
    rules = [r for r in TEXT_RULES
             if (not r.only or module in r.only) and module not in r.exempt]
    findings: list[Finding] = []
    for lineno, line in enumerate(src.code_lines, start=1):
        for rule in rules:
            if (any(p.search(line) for p in rule.patterns)
                    and not src.allowed(lineno, rule.name)):
                findings.append(
                    (src.path, lineno, rule.name, src.snippet(lineno)))
    return findings


# --------------------------------------------------------------------------
# layer-dag (textual; both engines)
# --------------------------------------------------------------------------

INCLUDE_SRC = re.compile(r'^\s*#\s*include\s+"src/([^"]+)"')


def load_layers(layers_path: Path):
    if tomllib is None:
        raise RuntimeError("tomllib unavailable; cannot check layer DAG")
    with open(layers_path, "rb") as fh:
        data = tomllib.load(fh)
    rank = {}
    for level, group in enumerate(data.get("ranks", [])):
        for module in group:
            rank[module] = level
    overrides = dict(data.get("overrides", {}))
    return rank, overrides


def module_of(rel_to_src: str, overrides: dict[str, str]) -> str:
    """Module of a path expressed relative to a src/ root, e.g.
    'core/config.hpp' -> the override 'config', 'sim/engine.cpp' -> 'sim'."""
    if rel_to_src in overrides:
        return overrides[rel_to_src]
    return rel_to_src.split("/", 1)[0]


def check_layers(src: Source, rank, overrides) -> list[Finding]:
    if src.src_rel is None:
        return []
    me = module_of(src.src_rel, overrides)
    findings: list[Finding] = []
    if me not in rank:
        findings.append(
            (src.path, 1, "layer-dag",
             f"module '{me}' is not declared in layers.toml")
        )
        return findings
    # Raw lines: the include path is a string literal, which the
    # comment/string stripper would blank out.
    for lineno, line in enumerate(src.raw_lines, start=1):
        m = INCLUDE_SRC.match(line)
        if not m:
            continue
        target = module_of(m.group(1), overrides)
        if target == me:
            continue
        if target not in rank:
            if not src.allowed(lineno, "layer-dag"):
                findings.append(
                    (src.path, lineno, "layer-dag",
                     f"include of undeclared module '{target}'")
                )
            continue
        if rank[target] >= rank[me] and not src.allowed(lineno, "layer-dag"):
            findings.append(
                (src.path, lineno, "layer-dag",
                 f"'{me}' (rank {rank[me]}) must not include '{target}' "
                 f"(rank {rank[target]}): edges go strictly down the DAG")
            )
    return findings


# --------------------------------------------------------------------------
# hot-path-alloc (textual; both engines)
# --------------------------------------------------------------------------

HOT_PATH_TAG = re.compile(r"streamcast:\s*hot-path")
HOT_ALLOC = re.compile(
    r"\bnew\b"
    r"|\bstd::(?:vector|map|set|multimap|multiset|unordered_\w+|list"
    r"|forward_list|deque)\s*<")


def check_hot_path_alloc(src: Source) -> list[Finding]:
    """In files carrying the hot-path tag, every `new` expression and every
    standard-container spelling (vector and the node-based containers)
    needs an explicit allow — the hot path allocates through the engine
    arena (util::ArenaVector) or through flat vectors whose growth is
    bounded, and anything else must be visibly declared cold."""
    if not any(HOT_PATH_TAG.search(line) for line in src.raw_lines):
        return []
    findings: list[Finding] = []
    for lineno, line in enumerate(src.code_lines, start=1):
        if not HOT_ALLOC.search(line):
            continue
        if (src.allowed(lineno, "hot-path-alloc")
                or src.allowed(lineno - 1, "hot-path-alloc")):
            continue
        findings.append(
            (src.path, lineno, "hot-path-alloc", src.snippet(lineno)))
    return findings


# --------------------------------------------------------------------------
# builtin engine: whole-tree alias resolution + paren-balanced scanning
# --------------------------------------------------------------------------

USING_ALIAS = re.compile(r"\busing\s+(\w+)\s*=\s*([^;]+?)\s*;")
TYPEDEF = re.compile(r"\btypedef\s+(.+?)\s+(\w+)\s*;")


def collect_aliases(sources: list[Source]) -> dict[str, str]:
    """name -> right-hand type text, across the whole tree. Scope-less by
    design: a lint prefers a rare false positive (suppressible) to an
    evasion, and the repo's alias names are unique in practice."""
    aliases: dict[str, str] = {}
    for src in sources:
        for line in src.code_lines:
            for m in USING_ALIAS.finditer(line):
                aliases[m.group(1)] = m.group(2)
            for m in TYPEDEF.finditer(line):
                aliases[m.group(2)] = m.group(1)
    return aliases


def canonical_type(text: str, aliases: dict[str, str]) -> str:
    """Resolve a type expression through the alias table to the name its
    chain bottoms out at (template arguments and qualifiers stripped)."""
    seen: set[str] = set()
    t = text.strip()
    while True:
        t = re.sub(r"\b(const|volatile|typename|struct|class)\b", " ", t)
        t = t.replace("&", " ").replace("*", " ").strip()
        base = t.split("<", 1)[0].strip()
        # Member typedefs are looked up by their last component.
        key = base.split("::")[-1].strip()
        if key in aliases and key not in seen:
            seen.add(key)
            t = aliases[key]
            continue
        return base


def banned_alias_names(aliases: dict[str, str],
                       pattern: re.Pattern) -> set[str]:
    return {name for name in aliases
            if pattern.search(canonical_type(name, aliases))}


def builtin_rng(sources: list[Source], aliases: dict[str, str]
                ) -> list[Finding]:
    """Declarations and constructions through an alias that canonicalizes
    to a std engine; the engine names themselves are the textual rng row."""
    rng_aliases = banned_alias_names(aliases, RNG_NAMES)
    if not rng_aliases:
        return []
    names = "|".join(re.escape(n) for n in sorted(rng_aliases))
    use = re.compile(
        # Declaration or construction through the alias:  Rng r;  Rng{...}
        r"\b(?:" + names + r")\s*(?:<[^;]*>)?\s*(?:\w+\s*[;({=]|[({])"
        # Member-typedef use:  Foo::engine_type r;
        r"|\w+::(?:" + names + r")\b")
    findings: list[Finding] = []
    for src in sources:
        for lineno, line in enumerate(src.code_lines, start=1):
            if use.search(line) and not src.allowed(lineno, "rng"):
                findings.append(
                    (src.path, lineno, "rng", src.snippet(lineno)))
    return findings


RANGE_FOR = re.compile(r"\bfor\s*\([^;)]*:\s*([^)]+)\)")
LAST_IDENT = re.compile(r"(\w+)\s*(?:\(\s*\))?\s*$")


def builtin_unordered(sources: list[Source], aliases: dict[str, str]
                      ) -> list[Finding]:
    """Range-for over a variable whose declared type canonicalizes to an
    unordered container — declaration may live in any file (headers
    included), through any alias chain."""
    unordered_aliases = banned_alias_names(aliases, UNORDERED)
    type_names = [r"std::unordered_(?:map|set|multimap|multiset)"] + [
        re.escape(n) for n in sorted(unordered_aliases)
    ]
    decl = re.compile(
        r"\b(?:" + "|".join(type_names) + r")\s*(?:<[^;{}()]*>)?\s+(\w+)\s*[;{=(]"
    )
    unordered_vars: set[str] = set()
    for src in sources:
        for line in src.code_lines:
            for m in decl.finditer(line):
                unordered_vars.add(m.group(1))
    findings: list[Finding] = []
    if not unordered_vars:
        return findings
    for src in sources:
        for lineno, line in enumerate(src.code_lines, start=1):
            m = RANGE_FOR.search(line)
            if not m:
                continue
            last = LAST_IDENT.search(m.group(1).strip())
            if (last and last.group(1) in unordered_vars
                    and not src.allowed(lineno, "unordered-iteration")):
                findings.append(
                    (src.path, lineno, "unordered-iteration",
                     src.snippet(lineno))
                )
    return findings


def builtin_sweep_capture(sources: list[Source]) -> list[Finding]:
    """Default-by-reference capture anywhere inside the parenthesized
    argument list of a parallel_for/run_sweep call, across newlines."""
    findings: list[Finding] = []
    for src in sources:
        code = src.code
        for call in SWEEP_CALL.finditer(code):
            depth = 0
            i = call.end() - 1
            while i < len(code):
                c = code[i]
                if c == "(":
                    depth += 1
                elif c == ")":
                    depth -= 1
                    if depth == 0:
                        break
                elif c == "[":
                    m = REF_DEFAULT.match(code, i)
                    if m:
                        lineno = code.count("\n", 0, i) + 1
                        if not src.allowed(lineno, "sweep-capture"):
                            findings.append(
                                (src.path, lineno, "sweep-capture",
                                 src.snippet(lineno))
                            )
                i += 1
    return findings


def run_builtin(sources: list[Source]) -> list[Finding]:
    aliases = collect_aliases(sources)
    findings: list[Finding] = []
    findings += builtin_rng(sources, aliases)
    findings += builtin_unordered(sources, aliases)
    findings += builtin_sweep_capture(sources)
    return findings


# --------------------------------------------------------------------------
# clang engine: canonical types from a real parse
# --------------------------------------------------------------------------

LIBCLANG_CANDIDATES = [
    "/usr/lib/llvm-14/lib/libclang-14.so.1",
    "/usr/lib/llvm-14/lib/libclang.so.1",
    "/usr/lib/x86_64-linux-gnu/libclang-14.so.1",
]


def load_cindex():
    """Returns (cindex module, None) or (None, reason)."""
    try:
        import clang.cindex as ci
    except ImportError as exc:
        return None, f"python clang bindings unavailable ({exc})"
    for candidate in LIBCLANG_CANDIDATES:
        if Path(candidate).is_file():
            try:
                ci.Config.set_library_file(candidate)
            except Exception:  # already configured; keep going
                pass
            break
    try:
        ci.Index.create()
    except Exception as exc:
        return None, f"libclang not loadable ({exc})"
    return ci, None


def clang_lint_file(ci, index, src: Source) -> list[Finding]:
    tu = index.parse(
        str(src.path),
        args=["-std=c++20", f"-I{REPO}", "-x", "c++"],
    )
    findings: list[Finding] = []
    this_file = str(src.path)

    def canonical(node_type) -> str:
        try:
            return node_type.get_canonical().spelling
        except Exception:
            return ""

    def emit(node, rule: str):
        lineno = node.location.line
        if not src.allowed(lineno, rule):
            findings.append((src.path, lineno, rule, src.snippet(lineno)))

    def lambda_has_ref_default(node) -> bool:
        tokens = []
        for tok in node.get_tokens():
            tokens.append(tok.spelling)
            if tok.spelling == "]" or len(tokens) > 8:
                break
        return (len(tokens) >= 3 and tokens[0] == "["
                and tokens[1] == "&" and tokens[2] in ("]", ","))

    def walk(node, in_sweep_call: bool):
        loc = node.location
        in_this_file = loc.file is not None and loc.file.name == this_file
        kind = node.kind.name
        if in_this_file:
            if kind in ("VAR_DECL", "FIELD_DECL", "PARM_DECL"):
                if RNG_NAMES.search(canonical(node.type)):
                    emit(node, "rng")
            elif kind == "CXX_FOR_RANGE_STMT":
                children = list(node.get_children())
                # Layout: [loop variable decl, range expression, body].
                for child in children:
                    if child.kind.name in ("VAR_DECL", "COMPOUND_STMT"):
                        continue
                    if UNORDERED.search(canonical(child.type)):
                        emit(node, "unordered-iteration")
                    break
            elif kind == "LAMBDA_EXPR" and in_sweep_call:
                if lambda_has_ref_default(node):
                    emit(node, "sweep-capture")
        sweep = in_sweep_call
        if kind == "CALL_EXPR" and node.spelling in (
                "parallel_for", "run_sweep"):
            sweep = True
        for child in node.get_children():
            walk(child, sweep)

    walk(tu.cursor, False)
    return findings


def run_clang(ci, sources: list[Source]) -> list[Finding]:
    index = ci.Index.create()
    findings: list[Finding] = []
    for src in sources:
        findings.extend(clang_lint_file(ci, index, src))
    return findings


# --------------------------------------------------------------------------


def gather_files(roots: list[str]) -> list[Path] | None:
    files: list[Path] = []
    for root in roots:
        base = Path(root) if Path(root).exists() else REPO / root
        if base.is_file():
            files.append(base)
        elif base.is_dir():
            files.extend(
                p for p in sorted(base.rglob("*"))
                if p.suffix in SOURCE_SUFFIXES
                # Deliberately-violating golden fixtures are linted only
                # when named explicitly (their runner passes the dir).
                and ("lint_fixtures" not in p.parts
                     or "lint_fixtures" in base.parts)
            )
        else:
            print(f"lint_ast: no such file or directory: {root}",
                  file=sys.stderr)
            return None
    return files


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(
        description="Determinism lint + layer DAG check")
    parser.add_argument("roots", nargs="*", default=DEFAULT_DIRS,
                        help="directories or files (default: src tests bench)")
    args = parser.parse_args(argv[1:])

    files = gather_files(args.roots)
    if files is None:
        return 2
    try:
        rank, overrides = load_layers(REPO / "tools" / "layers.toml")
    except RuntimeError as exc:
        print(f"lint_ast: {exc}", file=sys.stderr)
        return 2
    sources = [Source(p) for p in files]

    ci, reason = load_cindex()
    if ci is None:
        print(
            "lint_ast: WARNING: falling back to builtin semantic engine "
            f"({reason}); canonical-type checks are approximated",
            file=sys.stderr,
        )
        engine, findings = "builtin", run_builtin(sources)
    else:
        engine, findings = "clang", run_clang(ci, sources)

    for src in sources:
        findings += check_text_rules(src)
        findings += check_hot_path_alloc(src)
        findings += check_layers(src, rank, overrides)

    # An engine check and a textual row may both flag one line.
    findings = sorted(set(findings), key=lambda f: (str(f[0]), f[1], f[2]))
    for path, lineno, rule, detail in findings:
        print(f"{relpath(path)}:{lineno}: [{rule}] {detail}")

    if findings:
        print(
            f"lint_ast: {len(findings)} finding(s) in {len(files)} files "
            f"(engine: {engine})",
            file=sys.stderr,
        )
        return 1
    print(f"lint_ast: clean ({len(files)} files, engine: {engine})")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
