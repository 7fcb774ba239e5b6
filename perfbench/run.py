#!/usr/bin/env python3
"""Builds and runs the repository benchmark (see README.md in this directory).

    python3 perfbench/run.py --workload table_replay|large_ia|daemon_mesh \\
        --seed <n> --seconds <s> --trace 0|1

Run from the root of a checkout. The first call configures and builds
perfbench/ (which compiles the libraries from src/) into
$CARGO_TARGET_DIR/perfbench, default .bench_build/perfbench; later calls only
re-run the incremental build. Build output goes to stderr. The benchmark's
stdout is passed through: its last line is the JSON result. A traced run
writes its spans to <build dir>/traces/<workload>.csv. Exits non-zero, without
a result, when the build or the run fails.
"""
import argparse
import os
import subprocess
import sys

RUN_TIMEOUT_S = 170
BUILD_TIMEOUT_S = 850


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr; True on success."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout)
    except (OSError, subprocess.TimeoutExpired) as err:
        print(f"perfbench: {' '.join(cmd)}: {err}", file=sys.stderr)
        return False
    return proc.returncode == 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=["table_replay", "large_ia", "daemon_mesh"])
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=["0", "1"])
    args = parser.parse_args()

    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    os.chdir(root)
    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR") or ".bench_build", "perfbench")
    binary = os.path.join(build_dir, "dbgp_perfbench")
    if not os.path.exists(binary):
        if not run_logged(["cmake", "-S", "perfbench", "-B", build_dir,
                           "-DCMAKE_BUILD_TYPE=Release"], BUILD_TIMEOUT_S):
            return 1
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not run_logged(["cmake", "--build", build_dir, "-j", jobs], BUILD_TIMEOUT_S):
        return 1

    trace_dir = os.path.join(build_dir, "traces")
    os.makedirs(trace_dir, exist_ok=True)
    cmd = [binary,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", args.trace,
           "--trace-out", os.path.join(trace_dir, args.workload + ".csv")]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} did not finish in {RUN_TIMEOUT_S} s", file=sys.stderr)
        return 1
    sys.stdout.write(proc.stdout.decode())
    sys.stdout.flush()
    return proc.returncode


if __name__ == "__main__":
    sys.exit(main())
