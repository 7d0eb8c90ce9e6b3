"""Per-layer timing from outside the program.

`Tracer` replaces the names that calling modules bind (for example
`genbound.cli.train`, `genbound.training.batch_outputs`) with wrappers that
record one span per call: name, start, end, the enclosing span in the same
thread and an optional count.  Nothing in `genbound` is edited; `restore`
puts the original functions back.

`StepCounter` counts training steps through the same names without timing
anything.  `network_metrics` times the public network functions by direct calls at the
shapes each workload trains at.
"""

from __future__ import annotations

import os
import statistics
import threading
import time
import tracemalloc
from dataclasses import dataclass

import numpy as np

import genbound.bounds
import genbound.checks
import genbound.cli
import genbound.svgchart
import genbound.training
from genbound import (
    NetworkSpec,
    batch_outputs,
    grad_f,
    init_gaussian,
    loss_and_grad,
    synth_classification,
    synth_regression,
)

from workloads import SUITES


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: str | None
    count: float = 0.0

    @property
    def seconds(self) -> float:
        return self.end - self.start


# Counts recorded with a span, from the call's result, exception and arguments.


def _train_steps(result, exc, args) -> int:
    traj = result if exc is None else getattr(exc, "trajectory", None)
    return 0 if traj is None else len(traj.steps) - 1


def _csv_bytes(result, exc, args) -> int:
    return os.path.getsize(args[2]) if exc is None else 0


def _instances(result, exc, args) -> int:
    return sum(o.instances for o in result) if exc is None else 0


class Tracer:
    """Wraps the module-level names each layer is called through."""

    def __init__(self):
        self.spans: list[Span] = []
        self._local = threading.local()
        self._saved: list[tuple[object, str, object]] = []

    def _stack(self) -> list[str]:
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _wrapped(self, name, fn, count=None):
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else None
            stack.append(name)
            result, exc = None, None
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                end = time.perf_counter()
                stack.pop()
                n = count(result, exc, args) if count is not None else 0.0
                self.spans.append(Span(name, start, end, parent, n))

        return wrapper

    def _patch(self, owner, key, name, count=None):
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = self._wrapped(name, original, count)
        else:
            original = getattr(owner, key)
            setattr(owner, key, self._wrapped(name, original, count))
        self._saved.append((owner, key, original))

    def install(self) -> None:
        cli, training = genbound.cli, genbound.training
        self._patch(cli, "train", "training.train", _train_steps)
        self._patch(genbound.checks, "train", "training.train", _train_steps)
        self._patch(training, "batch_outputs", "network.batch_outputs")
        self._patch(training, "_loss_grad_outputs", "network.loss_grad")
        self._patch(genbound.bounds, "bound_series", "bounds.series")
        self._patch(genbound.bounds, "assemble_bound", "bounds.assemble")
        self._patch(cli, "run_one", "cli.run_one")
        self._patch(cli, "write_trajectory_csv", "cli.csv_write", _csv_bytes)
        self._patch(cli, "read_trajectory_csv", "cli.csv_read")
        self._patch(cli, "_dump_json", "cli.json")
        self._patch(cli, "build_datasets", "data.build")
        self._patch(genbound.checks, "synth_regression", "data.build")
        self._patch(genbound.svgchart, "line_chart", "svgchart.chart")
        for suite in SUITES:
            self._patch(genbound.checks.SUITES, suite, f"checks.suite.{suite}", _instances)

    def restore(self) -> None:
        for owner, key, original in reversed(self._saved):
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
        self._saved.clear()

    def call(self, name: str, fn, *args):
        """Call `fn(*args)`, recording it as one span named `name`."""
        return self._wrapped(name, fn)(*args)


class StepCounter:
    """Counts the training steps `train` completes, reading no clock.

    Untraced repetitions run inside it, so `steps_per_s` comes from the
    steps the program took rather than from a count the benchmark must know
    in advance.  It wraps the same names as the tracer's `training.train`.
    """

    def __init__(self):
        self.steps = 0
        self._lock = threading.Lock()
        self._saved: list[tuple[object, object]] = []

    def _counted(self, fn):
        def wrapper(*args, **kwargs):
            result, exc = None, None
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as err:
                exc = err
                raise
            finally:
                with self._lock:
                    self.steps += _train_steps(result, exc, args)

        return wrapper

    def __enter__(self):
        for owner in (genbound.cli, genbound.checks):
            self._saved.append((owner, owner.train))
            owner.train = self._counted(owner.train)
        return self

    def __exit__(self, *exc_info):
        for owner, original in reversed(self._saved):
            owner.train = original
        self._saved.clear()


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def rep_aggregates(spans: list[Span]) -> dict[str, float]:
    """Per-repetition totals from the spans of one traced repetition."""
    def total(name, parent=None):
        return sum(s.seconds for s in spans if s.name == name and (parent is None or s.parent == parent))

    trains = [s for s in spans if s.name == "training.train"]
    steps = sum(s.count for s in trains)
    runs = [s for s in spans if s.name == "cli.run_one"]
    commands = [s for s in spans if s.name.startswith("cli.command.")]
    run_cmds = [c for c in commands if any(c.start <= r.start <= c.end for r in runs)]
    agg = {
        "training.steps": steps,
        "cli.run_one_s": sum(r.seconds for r in runs),
        "cli.runs": float(len(runs)),
        "cli.fanout_ratio": (
            sum(r.seconds for r in runs) / sum(c.seconds for c in run_cmds) if runs else 0.0
        ),
        "cli.csv_bytes": sum(s.count for s in spans if s.name == "cli.csv_write"),
        "checks.instances": sum(s.count for s in spans if s.name.startswith("checks.suite.")),
    }
    ms_per_step = 1e3 / steps if steps else 0.0
    step = total("training.train") * ms_per_step
    loss_log = total("network.batch_outputs", "training.train") * ms_per_step
    grad = total("network.loss_grad", "training.train") * ms_per_step
    agg.update(
        {
            "training.step_ms": step,
            "training.loss_log_ms": loss_log,
            "training.grad_ms": grad,
            "training.self_ms": step - loss_log - grad,
        }
    )
    for suite in SUITES:
        agg[f"checks.suite_s.{suite}"] = total(f"checks.suite.{suite}")
    return agg


# Layer metrics reported as the median duration of one call, in ms.
_PER_CALL = {
    "bounds.series_ms": "bounds.series",
    "bounds.assemble_ms": "bounds.assemble",
    "cli.csv_write_ms": "cli.csv_write",
    "cli.csv_read_ms": "cli.csv_read",
    "cli.json_ms": "cli.json",
    "data.build_ms": "data.build",
    "svgchart.chart_ms": "svgchart.chart",
}


def layer_metrics(reps: list[list[Span]]) -> dict[str, float]:
    """Per-layer metrics over traced repetitions; 0 where a layer is never entered."""
    per_rep = [rep_aggregates(spans) for spans in reps]
    out = {k: statistics.median(agg[k] for agg in per_rep) for k in per_rep[0]}
    for metric, span in _PER_CALL.items():
        out[metric] = _median([s.seconds * 1e3 for spans in reps for s in spans if s.name == span])
    return out


# ---------------------------------------------------------------------------
# Direct calls into the network layer


def _time_ms(fn, budget_s: float = 0.25, min_calls: int = 7, max_calls: int = 2000) -> float:
    fn()  # warm-up: first-touch page faults and BLAS thread start
    times = []
    stop = time.perf_counter() + budget_s
    while len(times) < max_calls and (len(times) < min_calls or time.perf_counter() < stop):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times) * 1e3


def _gemm_flops(spec, n: int) -> float:
    """Multiply-add count, times 2, of one loss_and_grad on an FNN spec.

    Computed from the shapes: each fc layer runs one GEMM forward, one for
    its weight gradient and, above the first layer, one for the gradient it
    passes down; the readout runs two matrix-vector products.
    """
    flops = 0.0
    for l in range(spec.n_hidden):
        mn = spec.widths[l] * spec.widths[l + 1]
        flops += 2.0 * n * mn * (3 if l > 0 else 2)
    return flops + 4.0 * n * spec.output_width


def network_metrics(seed: int) -> dict[str, float]:
    """Median ms per call of the public network functions at workload shapes."""
    wide = NetworkSpec(3, (), (256, 256), 256, 0.25)  # wide_gd
    sgd = NetworkSpec(3, (), (64,), 64, 0.25)  # sweep_sgd
    toy = NetworkSpec(3, (), (16,), 16, 0.5)  # toy_cli
    cnn = NetworkSpec(11, (3,), (6,), 6, 0.5)  # verify_all conv instances

    ds_wide = synth_regression(2000, seed)
    ds_sgd = synth_classification(512, seed, 0.25)
    ds_toy = synth_regression(256, seed)
    rng = np.random.default_rng(seed)
    X_cnn = rng.normal(size=(16, cnn.input_dim))
    X_cnn /= 1.0 + np.linalg.norm(X_cnn, axis=1, keepdims=True)
    y_cnn = rng.uniform(-0.5, 0.5, size=16)

    p_wide = init_gaussian(wide, 4.0, seed)
    p_sgd = init_gaussian(sgd, 1.0, seed)
    p_toy = init_gaussian(toy, 1.0, seed)
    p_cnn = init_gaussian(cnn, 1.0, seed)
    X64, y64 = ds_sgd.inputs[:64], ds_sgd.targets[:64]

    # glibc serves a large array with mmap until a large block is freed,
    # then raises its mmap threshold and reuses heap memory.  A fresh process
    # runs the wide forward in 13-15 ms before its first backward pass and
    # 5 ms after it; training sees the second state from its first step on.
    # What the process allocated before also moves these times, so the
    # worker calls this before any workload repetition.
    loss_and_grad(p_wide, ds_wide.inputs, ds_wide.targets)
    out = {
        "network.fwd_ms.wide": _time_ms(lambda: batch_outputs(p_wide, ds_wide.inputs)),
        "network.grad_ms.wide": _time_ms(
            lambda: loss_and_grad(p_wide, ds_wide.inputs, ds_wide.targets)
        ),
        "network.grad_ms.batch64": _time_ms(lambda: loss_and_grad(p_sgd, X64, y64)),
        "network.fwd_ms.full512": _time_ms(lambda: batch_outputs(p_sgd, ds_sgd.inputs)),
        "network.grad_ms.toy": _time_ms(lambda: loss_and_grad(p_toy, ds_toy.inputs, ds_toy.targets)),
        "network.grad_ms.cnn": _time_ms(lambda: loss_and_grad(p_cnn, X_cnn, y_cnn)),
        "network.point_grad_ms.cnn": _time_ms(lambda: grad_f(p_cnn, X_cnn[0])),
    }
    out["network.grad_gflops.wide"] = (
        _gemm_flops(wide, ds_wide.n) / (out["network.grad_ms.wide"] * 1e-3) / 1e9
    )
    tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        loss_and_grad(p_wide, ds_wide.inputs, ds_wide.targets)
        out["network.grad_alloc_mb.wide"] = tracemalloc.get_traced_memory()[1] / 2**20
    finally:
        tracemalloc.stop()
    return out
