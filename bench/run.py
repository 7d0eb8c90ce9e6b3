"""genbound benchmark: one workload, one seed, one measured run.

Usage, from the root of a checkout:

    python3 bench/run.py --workload WORKLOAD --seed N --seconds S --trace 0|1

WORKLOAD is one of the names in BENCHMARK.json, or `all` to run each in
turn.  With --trace 0 the run reports the end-to-end metrics; with --trace 1
it reports the per-layer metrics, timed by wrapping genbound's functions from
outside, plus the tracing overhead.  Each run prints the machine facts and a
table of metrics, then one JSON object on the last line of standard output.

The workload itself runs in a child process whose environment this script
sets: `src/` on PYTHONPATH, OPENBLAS_NUM_THREADS and GENBOUND_THREADS equal to
the number of usable cores, and nothing else from the caller's environment
that could change the timings.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)
WORK_DIR = os.path.join(ROOT, ".bench_work")
TIME_LIMIT_S = 170.0
_KEEP_ENV = ("PATH", "HOME", "LANG", "LC_ALL", "LD_LIBRARY_PATH")


class BenchError(Exception):
    pass


def child_env() -> dict:
    threads = str(len(os.sched_getaffinity(0)))
    env = {k: os.environ[k] for k in _KEEP_ENV if k in os.environ}
    env.update(
        PYTHONPATH=os.path.join(ROOT, "src"),
        PYTHONHASHSEED="0",
        OPENBLAS_NUM_THREADS=threads,
        GENBOUND_THREADS=threads,
    )
    return env


def _child(argv: list[str], env: dict, deadline: float) -> str:
    """Run a Python child to completion and return its last stdout line."""
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise BenchError("out of time before starting " + os.path.basename(argv[0]))
    try:
        proc = subprocess.run(
            [sys.executable, *argv],
            env=env,
            cwd=ROOT,
            stdout=subprocess.PIPE,
            text=True,
            timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{os.path.basename(argv[0])} did not finish in {timeout:.0f} s") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise BenchError(f"{os.path.basename(argv[0])} exited with code {proc.returncode}")
    return lines[-1]


def run_workload(name: str, args, registry: dict, deadline: float) -> dict:
    env = child_env()
    os.makedirs(WORK_DIR, exist_ok=True)
    work = tempfile.mkdtemp(prefix=f"{name}-", dir=WORK_DIR)
    try:
        line = _child(
            [
                os.path.join(BENCH_DIR, "worker.py"),
                "--workload", name,
                "--seed", str(args.seed),
                "--seconds", str(args.seconds),
                "--trace", str(args.trace),
                "--root", ROOT,
                "--work", work,
            ],
            env,
            deadline,
        )
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with contextlib.suppress(OSError):  # still in use by a concurrent run
            os.rmdir(WORK_DIR)
    worker = json.loads(line)
    if args.trace:
        values = worker["layers"]
        kind = "per_layer"
    else:
        wall = statistics.median(worker["walls"])
        values = {
            "wall_s": wall,
            "steps_per_s": worker["steps"] / wall,
            "setup_s": statistics.median(worker["setup"]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
        kind = "end_to_end"
    metrics = {}
    for entry in registry[kind]:
        if entry["name"] not in values:
            raise BenchError(f"workload {name} did not measure {entry['name']}")
        metrics[entry["name"]] = {"value": values[entry["name"]], "unit": entry["unit"]}
    failures = [(op, why) for op, why in worker["ops"] if why]
    return {
        "machine": worker["machine"],
        "walls": {"untraced": worker["walls"], "traced": worker.get("traced_walls")},
        "attempted": len(worker["ops"]),
        "failed": len(failures),
        "failures": failures,
        "metrics": metrics,
    }


def _print_table(name: str, res: dict) -> None:
    print(f"== {name}: {res['failed']}/{res['attempted']} operations failed "
          f"(failed_frac {res['failed'] / res['attempted']:.4g})")
    for kind, walls in res["walls"].items():
        if not walls:
            continue
        q = statistics.quantiles(walls, n=4, method="inclusive") if len(walls) > 1 else walls * 3
        print(f"   {kind} repetitions: {len(walls)}, wall s min {min(walls):.4g} "
              f"q1 {q[0]:.4g} median {q[1]:.4g} q3 {q[2]:.4g} max {max(walls):.4g}")
    for metric, m in res["metrics"].items():
        print(f"   {metric:<36} {m['value']:>14.6g} {m['unit']}")
    for op, why in res["failures"][:10]:
        print(f"   FAILED {op}: {'; '.join(why)[:300]}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="genbound benchmark")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = ap.parse_args(argv)
    load_avg = os.getloadavg()
    try:
        for path in (
            os.path.join(ROOT, "src", "genbound", "cli.py"),
            os.path.join(ROOT, "configs"),
            os.path.join(ROOT, "BENCHMARK.json"),
        ):
            if not os.path.exists(path):
                raise BenchError(f"{path} is missing; run from a full checkout of the repository")
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            registry = json.load(fh)
        names = [w["name"] for w in registry["workloads"]]
        chosen = names if args.workload == "all" else [args.workload]
        if any(name not in names for name in chosen):
            raise BenchError(f"unknown workload '{args.workload}'; choose from {', '.join(names)} or all")
        results = {
            name: run_workload(name, args, registry, time.monotonic() + TIME_LIMIT_S)
            for name in chosen
        }
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    facts = dict(next(iter(results.values()))["machine"], load_avg_1m_at_start=load_avg[0])
    print("machine " + json.dumps(facts, sort_keys=True))
    for name, res in results.items():
        _print_table(name, res)
    if len(chosen) == 1:
        metrics = results[chosen[0]]["metrics"]
    else:
        metrics = {f"{name}.{m}": v for name, res in results.items() for m, v in res["metrics"].items()}
    failed = sum(r["failed"] for r in results.values())
    summary = {
        "correct": failed == 0,
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": failed,
        "metrics": metrics,
    }
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
