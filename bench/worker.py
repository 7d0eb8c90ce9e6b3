"""Measures one workload in this process and prints the result as JSON.

`run.py` starts this script with a controlled environment (BLAS and
genbound thread counts fixed, `src/` on the path) and reads the JSON object
on the last line of its standard output.  Run `run.py`, not this file.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field

import spans
import workloads

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
REFERENCE = os.path.join(BENCH_DIR, "reference.json")
SETUP_PROBES = 21


def setup_probe(configs: list[str]) -> float:
    """Seconds a fresh interpreter spends importing genbound and setting up `configs`."""
    proc = subprocess.run(
        [sys.executable, os.path.join(BENCH_DIR, "setup_probe.py"), *configs],
        stdout=subprocess.PIPE,
        text=True,
        check=True,
        timeout=60,
    )
    return float(proc.stdout.split()[-1])


@dataclass
class Measured:
    walls: list[float] = field(default_factory=list)  # untraced repetitions
    steps: list[int] = field(default_factory=list)  # training steps of each untraced repetition
    traced_walls: list[float] = field(default_factory=list)
    reps: list[list[spans.Span]] = field(default_factory=list)  # spans of each traced repetition
    ops: list[tuple[str, list[str]]] = field(default_factory=list)
    setup: list[float] = field(default_factory=list)


def measure(plan, main, reference, seconds, tracer=None) -> Measured:
    """Repeat the workload until the next repetition would pass `seconds`.

    With a tracer, repetitions alternate untraced and traced, so that drift
    in the machine's speed reaches both alike, and at least one of each
    runs.  Without one, `SETUP_PROBES` set-up probes run between
    repetitions, spread over the window in proportion to the time elapsed,
    so that drift reaches the set-up time as it reaches the wall times; one
    untimed probe first writes the bytecode cache.  Time spent in probes
    does not count toward `seconds`, so they take no repetitions away.
    """
    m = Measured()
    call = None
    if tracer is not None:
        call = lambda label, fn, argv: tracer.call(f"cli.command.{label}", fn, argv)  # noqa: E731
    else:
        setup_probe(plan.configs)
    traced = False
    begin = time.perf_counter()
    probing = 0.0
    while True:
        if traced:
            tracer.spans = []
            tracer.install()
            try:
                wall, exits = workloads.run_rep(plan, main, call)
            finally:
                tracer.restore()
            m.traced_walls.append(wall)
            m.reps.append(tracer.spans)
        else:
            with spans.StepCounter() as counter:
                wall, exits = workloads.run_rep(plan, main)
            m.walls.append(wall)
            m.steps.append(counter.steps)
        m.ops += workloads.operations(plan, exits, reference)
        elapsed = time.perf_counter() - begin - probing
        done = elapsed + statistics.median(m.walls + m.traced_walls) > seconds
        if tracer is None:
            due = SETUP_PROBES if done else math.ceil(SETUP_PROBES * elapsed / seconds)
            start = time.perf_counter()
            while len(m.setup) < min(due, SETUP_PROBES):
                m.setup.append(setup_probe(plan.configs))
            probing += time.perf_counter() - start
        if done and (tracer is None or m.traced_walls):
            return m
        traced = tracer is not None and not traced


def machine_facts() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "OPENBLAS_NUM_THREADS": os.environ.get("OPENBLAS_NUM_THREADS"),
        "GENBOUND_THREADS": os.environ.get("GENBOUND_THREADS"),
        "dtype": str(np.dtype(float)),
    }


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--root", required=True)
    ap.add_argument("--work", required=True)
    args = ap.parse_args()

    import genbound.cli

    src = os.path.join(os.path.realpath(args.root), "src")
    if not os.path.realpath(genbound.cli.__file__).startswith(src + os.sep):
        print(f"error: genbound was imported from {genbound.cli.__file__}, not {src}", file=sys.stderr)
        return 2
    with open(REFERENCE) as fh:
        reference = json.load(fh)
    plan = workloads.plan(args.workload, args.seed, args.root, args.work)

    result = {"machine": machine_facts()}
    if not args.trace:
        m = measure(plan, genbound.cli.main, reference, args.seconds)
        result.update(walls=m.walls, steps=statistics.median(m.steps), setup=m.setup)
    else:
        # Direct network calls first, so their heap state is that of a fresh
        # process whatever the workload allocated.
        network = spans.network_metrics(args.seed)
        m = measure(plan, genbound.cli.main, reference, args.seconds, spans.Tracer())
        layers = spans.layer_metrics(m.reps)
        layers.update(network)
        layers["trace_overhead_frac"] = (
            statistics.median(m.traced_walls) / statistics.median(m.walls) - 1.0
        )
        result.update(walls=m.walls, traced_walls=m.traced_walls, layers=layers)
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    result["ops"] = m.ops
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
