#!/usr/bin/env python3
"""Session-mix benchmark: build perfbench/ from source, run one workload.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload reliable-mix --seed 1 --seconds 20 --trace 0

The first run configures and builds the library and the session_mix binary
into $CARGO_TARGET_DIR (default .bench_build); later runs rebuild
incrementally. With --trace 0 the run reports the end-to-end metrics; set-up
time is the median over several fresh processes (SETUP_REPS set-up-only
processes plus the measuring one). With --trace 1 it reports the per-layer
metrics and writes the traced spans next to the build. The last line of
stdout is the result object; anything else goes before it.

--pin rewrites the per-session digests of the default seed
(perfbench/digests/<workload>.txt) from this build's reports.
"""
import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BENCH = os.path.join(ROOT, "perfbench")
WORKLOADS = ("reliable-mix", "lossy-mix", "large-world")
SETUP_REPS = 4
# A run measures --seconds plus at most one pass; anything near the 180 s
# limit is a hang.
RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build_dir():
    path = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return path if os.path.isabs(path) else os.path.join(ROOT, path)


def build(out):
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no streamcast sources next to perfbench/ (expected src/)")
    log_path = os.path.join(out, "build.log")
    os.makedirs(out, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(out, "CMakeCache.txt")):
        steps.append(["cmake", "-S", BENCH, "-B", out,
                      "-DCMAKE_BUILD_TYPE=RelWithDebInfo"])
    steps.append(["cmake", "--build", out, "--target", "session_mix",
                  "-j", jobs])
    deadline = time.monotonic() + BUILD_TIMEOUT_S
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      cwd=ROOT,
                                      timeout=max(1, deadline - time.monotonic())
                                      ).returncode
            except (OSError, subprocess.TimeoutExpired) as err:
                fail("build failed: %s (log: %s)" % (err, log_path))
            if code != 0:
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(out, "session_mix")


def source_id():
    """The commit when the checkout is a git repository, else a hash of the
    sources the benchmark builds."""
    # The ceiling keeps git from reading a repository above the checkout.
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(ROOT))
    try:
        head = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                              capture_output=True, text=True, timeout=10)
        if head.returncode == 0:
            return head.stdout.strip()
    except (OSError, subprocess.TimeoutExpired):
        pass
    digest = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                digest.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    digest.update(f.read())
    return "tree-" + digest.hexdigest()[:16]


def run_binary(binary, args):
    """Runs session_mix and returns (exit code, stdout lines)."""
    cmd = [binary, "--spawn-ns", str(time.monotonic_ns())] + args
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("session_mix timed out: " + " ".join(args))
    sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true")
    opts = parser.parse_args()

    out = build_dir()
    binary = build(out)
    digests = os.path.join(BENCH, "digests", opts.workload + ".txt")
    args = ["--workload", opts.workload, "--seed", str(opts.seed),
            "--seconds", repr(opts.seconds), "--trace", str(opts.trace),
            "--commit", source_id()]
    if opts.pin:
        args += ["--pin", digests]
    else:
        args += ["--digests", digests]
    if opts.trace:
        args += ["--spans", os.path.join(
            out, "spans-%s-seed%d.jsonl" % (opts.workload, opts.seed))]

    setup = []
    if not opts.trace:
        setup_args = ["--workload", opts.workload, "--seed", str(opts.seed),
                      "--setup-only"]
        for _ in range(SETUP_REPS):
            code, lines = run_binary(binary, setup_args)
            if code != 0 or not lines:
                fail("set-up failed: " + "\n".join(lines))
            setup.append(json.loads(lines[-1])["setup_s"])

    code, lines = run_binary(binary, args)
    if not lines:
        fail("session_mix printed nothing (exit %d)" % code)
    try:
        result = json.loads(lines[-1])
    except ValueError:
        print("\n".join(lines))
        fail("session_mix did not end with a result (exit %d)" % code)
    if setup:
        setup.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setup)
        lines[-1:] = ["setup_s over %d processes: %s" % (
            len(setup), " ".join("%.4f" % s for s in setup))]
    else:
        lines.pop()
    print("\n".join(lines))
    print(json.dumps(result))
    sys.exit(code)


if __name__ == "__main__":
    main()
