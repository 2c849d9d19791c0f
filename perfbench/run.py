#!/usr/bin/env python3
"""Build and run the SSDKeeper pipeline benchmark.

    python3 perfbench/run.py --workload replay_gc|label_keeper|fleet \
        --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --selftest

Builds the benchmark package in this directory in Release into
.bench_build/perfbench; the package builds the simulator libraries from the
repository's own CMake project (tests, benches and examples off). Then it
runs the benchmark binary. Build output goes to stderr; the benchmark's last
stdout line is its JSON result. --selftest runs the correctness checks
against deliberately wrong inputs instead.
"""
import argparse
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build"
RUN_TIMEOUT_S = 170


def sh(cmd):
    """Run a build command with its output on stderr; exit 1 on failure."""
    result = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr)
    if result.returncode != 0:
        sys.stderr.write("perfbench: build step failed: %s\n" % " ".join(cmd))
        sys.exit(1)


def build():
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    bench_dir = BUILD / "perfbench"
    if not (bench_dir / "CMakeCache.txt").exists():
        sh(["cmake", "-S", str(HERE), "-B", str(bench_dir),
            "-DCMAKE_BUILD_TYPE=Release"])
    sh(["cmake", "--build", str(bench_dir), "-j", jobs])
    return bench_dir


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload",
                        choices=["replay_gc", "label_keeper", "fleet"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args()
    if not args.selftest and args.workload is None:
        parser.error("--workload is required")

    bench_dir = build()
    if args.selftest:
        cmd = [str(bench_dir / "ssdk_perfbench_checks")]
    else:
        cmd = [str(bench_dir / "ssdk_perfbench"),
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--out", str(BUILD / "out")]
    proc = subprocess.Popen(cmd)
    try:
        code = proc.wait(timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        sys.stderr.write("perfbench: run exceeded %d s\n" % RUN_TIMEOUT_S)
        return 1
    return code


if __name__ == "__main__":
    sys.exit(main())
