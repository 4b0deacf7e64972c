#!/usr/bin/env python3
"""Build and run the treesat end-to-end service benchmark.

    python3 servebench/run.py --workload drift_mix --seed 1 --seconds 20 --trace 0
    python3 servebench/run.py --workload all --seed 1 --seconds 20 --trace 1

Run from the repository root. The benchmark is compiled from source with
CMake into $CARGO_TARGET_DIR/servebench (default .bench_build/servebench);
each workload runs in its own process. The last line of standard output is
the result of the last workload run, as one JSON object. Build output goes
to standard error. Exit code 0 when every output check passed, 1 when one
failed, and 2 on a fatal error (no sources, a failed build, a crash or a
timeout); a fatal error prints no result for the workload that failed.
"""
import argparse
import json
import os
import shutil
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORKLOADS = ["drift_mix", "stress_mix", "spill_churn"]
RUN_TIMEOUT_S = 170


def fatal(message):
    sys.stderr.write(f"servebench: {message}\n")
    sys.exit(2)


def build_root():
    base = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    return base if os.path.isabs(base) else os.path.join(ROOT, base)


def build():
    """Configures and builds the benchmark; returns the binary's path."""
    for needed in ("CMakeLists.txt", "src"):
        if not os.path.exists(os.path.join(ROOT, needed)):
            fatal(f"{needed} not found in {ROOT}; nothing to build")
    out = os.path.join(build_root(), "servebench")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", out, "-j", jobs],
    ]
    for step in steps:
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fatal(f"build step failed: {' '.join(step)}")
    return os.path.join(out, "servebench")


def run(binary, workload, args, scratch):
    """Runs one workload in its own process and relays its output."""
    cmd = [binary, "--workload", workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--scratch", scratch]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fatal(f"{workload} did not finish within {RUN_TIMEOUT_S} s")
    lines = proc.stdout.splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    if proc.returncode not in (0, 1) or not isinstance(result, dict):
        sys.stderr.write(proc.stdout)
        fatal(f"{workload} failed with exit code {proc.returncode}")
    sys.stdout.write(proc.stdout)
    sys.stdout.flush()
    return proc.returncode == 0 and result.get("correct") is True


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], required=True)
    args = parser.parse_args()
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")

    binary = build()
    scratch = os.path.join(build_root(), "servebench-scratch")
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    ok = True
    try:
        for workload in workloads:
            ok = run(binary, workload, args, scratch) and ok
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    sys.exit(0 if ok else 1)


if __name__ == "__main__":
    main()
