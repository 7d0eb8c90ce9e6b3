"""Self-test of the benchmark at smoke length (one repetition per run).

Usage, from the root of a checkout:

    python3 bench/selftest.py

It checks that
  - every workload of BENCHMARK.json runs untraced and traced, passes every
    operation against bench/reference.json, and prints exactly the metric
    names BENCHMARK.json registers for that mode;
  - every workload and metric name uses only letters, digits, `_`, `.`, `-`;
  - in a copy of the tree whose bench/reference.json holds one deliberately
    wrong value, the wrong value is counted as a failed operation (correct
    false, failed_frac above 0);
  - in a directory holding only BENCHMARK.json and bench/, the benchmark
    exits non-zero without printing a result.
Exits 0 when all hold and 1 otherwise, listing what failed.
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
import tempfile

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def bench(workload: str, trace: int, cwd: str = ROOT):
    argv = [sys.executable, os.path.join(cwd, "bench", "run.py"), "--workload", workload,
            "--seed", "0", "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(argv, cwd=cwd, capture_output=True, text=True, timeout=180)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        registry = json.load(fh)
    problems = []
    expected = {0: [m["name"] for m in registry["end_to_end"]], 1: [m["name"] for m in registry["per_layer"]]}
    for name in [w["name"] for w in registry["workloads"]] + expected[0] + expected[1]:
        if not NAME.fullmatch(name):
            problems.append(f"name '{name}' uses characters outside [A-Za-z0-9_.-] or is too long")

    for workload in [w["name"] for w in registry["workloads"]]:
        for trace in (0, 1):
            code, result = bench(workload, trace)
            where = f"{workload} --trace {trace}"
            if code != 0 or result is None:
                problems.append(f"{where}: exit {code}, result {result!r}")
                continue
            if set(result) != {"correct", "attempted", "failed", "metrics"}:
                problems.append(f"{where}: result keys {sorted(result)}")
            if not result["correct"] or result["failed"] or result["attempted"] < 1:
                problems.append(f"{where}: {result['failed']}/{result['attempted']} operations failed")
            printed = sorted(result["metrics"])
            if printed != sorted(expected[trace]):
                problems.append(f"{where}: printed {printed}, registered {sorted(expected[trace])}")
            print(f"ok {where}: {result['attempted']} operations, {len(printed)} metrics", file=sys.stderr)

    os.makedirs(os.path.join(ROOT, ".bench_work"), exist_ok=True)
    with tempfile.TemporaryDirectory(dir=os.path.join(ROOT, ".bench_work")) as work:
        # A copy of the tree whose reference holds one wrong value.
        wrong = os.path.join(work, "wrong")
        skip = shutil.ignore_patterns("__pycache__", ".bench_work")
        for part in ("bench", "src", "configs"):
            shutil.copytree(os.path.join(ROOT, part), os.path.join(wrong, part), ignore=skip)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), wrong)
        path = os.path.join(wrong, "bench", "reference.json")
        with open(path) as fh:
            reference = json.load(fh)
        reference["toy_cli"]["0"]["values"]["bound"]["bound.json:bound"] *= 1.0 + 1e-6
        with open(path, "w") as fh:
            json.dump(reference, fh)
        code, result = bench("toy_cli", 0, cwd=wrong)
        if code != 0 or result is None or result["correct"] or not result["failed"]:
            problems.append(f"a wrong reference value was not counted as a failure: {result!r}")
        else:
            print(f"ok wrong reference: failed_frac {result['failed'] / result['attempted']:.3f}",
                  file=sys.stderr)

        bare = os.path.join(work, "bare")
        shutil.copytree(BENCH_DIR, os.path.join(bare, "bench"), ignore=skip)
        shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
        code, result = bench("toy_cli", 0, cwd=bare)
        if code == 0 or result is not None:
            problems.append(f"without the program the benchmark exited {code} with {result!r}")
        else:
            print(f"ok without the program: exit {code}, no result", file=sys.stderr)

    for problem in problems:
        print(f"FAIL {problem}", file=sys.stderr)
    print("selftest " + ("failed" if problems else "passed"))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
