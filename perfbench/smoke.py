#!/usr/bin/env python3
"""Tiny-size smoke check of the repo benchmark.

For every workload in BENCHMARK.json it runs perfbench/run.py on a 2^14-row
table and checks that

  * the untraced run is correct and prints exactly the end_to_end metrics,
    each with its declared unit;
  * the traced run is correct and prints exactly the per_layer metrics,
    each with its declared unit;
  * a run with one deliberately perturbed reference answer exits non-zero
    and reports correct = false.

Usage, from the root of a checkout:  python3 perfbench/smoke.py
Exit code 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from typing import Any

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
TINY = ["--rows-log2", "14"]


def run(workload: str, trace: str, *extra: str) -> tuple[int, Any]:
    done = subprocess.run(
        [
            sys.executable, os.path.join(HERE, "run.py"),
            "--workload", workload, "--seed", "7", "--seconds", "0.5",
            "--trace", trace, *TINY, *extra,
        ],
        stdout=subprocess.PIPE, stderr=subprocess.DEVNULL, text=True,
        check=False, cwd=ROOT,
    )
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1]) if lines else None
    return done.returncode, result


def check_metrics(
    label: str, result: Any, declared: list[dict[str, Any]]
) -> list[str]:
    errors = []
    if result is None or result.get("correct") is not True:
        return [f"{label}: run not correct: {result}"]
    got = result["metrics"]
    want = {m["name"]: m["unit"] for m in declared}
    if set(got) != set(want):
        errors.append(
            f"{label}: metric names differ; missing "
            f"{sorted(set(want) - set(got))}, extra "
            f"{sorted(set(got) - set(want))}"
        )
    for name, unit in want.items():
        if name in got and got[name]["unit"] != unit:
            errors.append(
                f"{label}: {name} unit {got[name]['unit']!r} != {unit!r}"
            )
    return errors


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    errors: list[str] = []
    for workload in (w["name"] for w in spec["workloads"]):
        _, result = run(workload, "0")
        errors += check_metrics(f"{workload} --trace 0", result,
                                spec["end_to_end"])
        _, result = run(workload, "1")
        errors += check_metrics(f"{workload} --trace 1", result,
                                spec["per_layer"])
        code, result = run(workload, "0", "--perturb-reference")
        if code == 0 or result is None or result["correct"] is not False:
            errors.append(
                f"{workload}: perturbed reference not caught "
                f"(exit {code}, {result and result['correct']})"
            )
        print(f"smoke: {workload} checked", flush=True)
    for error in errors:
        print(f"smoke: FAIL {error}", file=sys.stderr)
    print("smoke: " + ("FAILED" if errors else "all checks passed"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
