#!/usr/bin/env python3
"""Builds and runs the repo benchmark (see perfbench/README.md).

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload tpch_serial|groupby_card
        --seed N --seconds S --trace 0|1 [binary options...]

Builds perfbench/ (which compiles ../src) with CMake in Release mode into
$CARGO_TARGET_DIR, or .bench_build when that is unset, then runs the
benchmark binary. Its last line is the result object. With --trace 1 the
Chrome trace it wrote must pass tools/check_trace.py --check-nesting, or
the run fails without a result. Extra options (--rows-log2,
--perturb-reference) go to the binary unchanged.

Exit codes: the binary's (0 ok, 1 a statement failed or mismatched its
reference, 2 refused configuration), 2 when the build fails, 1 when the
trace check fails.
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def log(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr, flush=True)


def build() -> str | None:
    """Configures and builds the binary; returns its path or None."""
    build_dir = os.path.join(
        ROOT, os.environ.get("CARGO_TARGET_DIR", ".bench_build")
    )
    steps = [
        ["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", build_dir, "-j", str(os.cpu_count() or 1)],
    ]
    for step in steps:
        done = subprocess.run(
            step, stdout=sys.stderr, stderr=sys.stderr, check=False
        )
        if done.returncode != 0:
            log(f"build step failed: {' '.join(step)}")
            return None
    return os.path.join(build_dir, "perfbench")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", required=True, choices=("0", "1"))
    args, extra = parser.parse_known_args()

    if "ICP_FORCE_KERNEL" in os.environ:
        log("ICP_FORCE_KERNEL is set; refusing to measure a forced tier")
        return 2
    binary = build()
    if binary is None:
        return 2

    out_dir = os.path.join(ROOT, ".bench_out")
    command = [
        binary,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", args.trace,
        "--out-dir", out_dir,
        *extra,
    ]
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, check=False, cwd=ROOT
    )
    lines = done.stdout.strip().splitlines()
    if done.returncode not in (0, 1) or len(lines) < 2:
        sys.stdout.write(done.stdout)
        log(f"benchmark binary exited with {done.returncode}")
        return done.returncode or 2

    if args.trace == "1":
        trace = json.loads(lines[-2])["meta"]["trace_file"]
        check = subprocess.run(
            [
                sys.executable,
                os.path.join(ROOT, "tools", "check_trace.py"),
                trace,
                "--min-events", "100",
                "--check-nesting",
            ],
            stdout=sys.stderr, stderr=sys.stderr, check=False,
        )
        if check.returncode != 0:
            log(f"trace {trace} failed tools/check_trace.py")
            return 1

    print("\n".join(lines), flush=True)
    return done.returncode


if __name__ == "__main__":
    sys.exit(main())
