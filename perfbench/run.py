#!/usr/bin/env python3
"""Entry point of the repository benchmark (see perfbench/README.md).

    python3 perfbench/run.py --workload sweep_g24|transient_g32 \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --workload NAME --record-reference [--seed N]
    python3 perfbench/run.py --selftest

`--seconds` is accepted and ignored: every run makes the same number of
passes, so its per-unit minima compare between runs (README.md).

Builds the `perfbench` program from the repository sources (CMake, Release) into
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench, relative to
the repository root), runs it, and checks that the last line of its
output is the result object.  Build output goes to stderr, so stdout
carries only the program's diagnostics ("# " lines) and its result line.
"""

import argparse
import fcntl
import json
import os
import shutil
import signal
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep_g24", "transient_g32")
RESULT_KEYS = {"correct", "attempted", "failed", "metrics"}
BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175


def fail(msg, code=2):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return (path if path.is_absolute() else ROOT / path) / "perfbench"


def build(bdir, target):
    if not (ROOT / "src" / "core" / "evaluator.hpp").is_file():
        fail(f"the tacos sources are missing under {ROOT / 'src'}")
    bdir.mkdir(parents=True, exist_ok=True)
    with open(bdir / "build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)  # one build at a time per checkout
        if not (bdir / "CMakeCache.txt").is_file():
            generator = ["-G", "Ninja"] if shutil.which("ninja") else []
            subprocess.run(["cmake", "-S", str(HERE), "-B", str(bdir),
                            *generator, "-DCMAKE_BUILD_TYPE=Release"],
                           stdout=sys.stderr, check=True,
                           timeout=BUILD_TIMEOUT_S)
        jobs = str(min(4, os.cpu_count() or 1))
        subprocess.run(["cmake", "--build", str(bdir), "--target", target,
                        "--parallel", jobs],
                       stdout=sys.stderr, check=True, timeout=BUILD_TIMEOUT_S)
    return bdir / target


def check_result(line):
    try:
        result = json.loads(line)
    except json.JSONDecodeError:
        return "the last output line is not JSON"
    if not isinstance(result, dict) or set(result) != RESULT_KEYS:
        return f"the result keys are not {sorted(RESULT_KEYS)}"
    if not isinstance(result["attempted"], int) or result["attempted"] < 1:
        return "attempted must be a whole number of at least 1"
    return None


def main(argv):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", choices=WORKLOADS)
    p.add_argument("--seed", type=int)
    p.add_argument("--seconds", type=int, default=45,
                   help="accepted and ignored; runs make a fixed pass count")
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--record-reference", action="store_true",
                   help="print one pass's outputs in the reference format")
    p.add_argument("--selftest", action="store_true",
                   help="build and run the benchmark's own unit tests")
    args = p.parse_args(argv)
    if args.seed is not None and args.seed < 0:
        fail("--seed must be non-negative")
    if not args.selftest and args.workload is None:
        fail("--workload is required")

    # A terminated run stops (and waits for) the program it started.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        if args.selftest:
            tests = build(build_dir(), "perfbench_tests")
            return subprocess.run([str(tests)], timeout=RUN_TIMEOUT_S).returncode
        binary = build(build_dir(), "perfbench")
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired) as e:
        fail(f"build failed: {e}")

    # Run directories a killed earlier run left behind would be replayed.
    runs = build_dir() / "runs"
    shutil.rmtree(runs, ignore_errors=True)
    cmd = [str(binary), "--workload", args.workload, "--trace", str(args.trace),
           "--reference-dir", str(HERE / "reference"),
           "--scratch-dir", str(runs)]
    if args.seed is not None:
        cmd += ["--seed", str(args.seed)]
    if args.record_reference:
        cmd.append("--record-reference")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail(f"perfbench ran past {RUN_TIMEOUT_S} s", 3)
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    if args.record_reference:
        return proc.returncode
    lines = proc.stdout.strip().splitlines()
    problem = check_result(lines[-1]) if lines else "perfbench printed nothing"
    if problem:
        fail(problem, 3)
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
