"""The four benchmark workloads.

For a benchmark seed, each workload writes the configs that seed selects,
lists the genbound commands a user would type for them, and reads back the
values those commands write, so that a run can be checked against the
values recorded in `reference.json`.

The seed picks one of `VARIANTS` input sets.  Variant 0 is the shipped
config unchanged; variant v shifts the data seed by v and every training
seed by v times the seed count.  Only values change between variants, never
shapes or step counts, so the work done per run is the same for every seed.
`verify_all` has a single variant, `genbound verify --seed 0`: the verify
seed draws the random network shapes the suites check, so another seed
would change the work, by about 10% of the command's time as measured.

This module imports neither numpy nor genbound: the runner sets the BLAS
thread count before either is loaded.
"""

from __future__ import annotations

import contextlib
import copy
import csv
import io
import json
import math
import os
import shutil
import sys
import time
import traceback
from dataclasses import dataclass

NAMES = ("wide_gd", "sweep_sgd", "toy_cli", "verify_all")
VARIANTS = 10
SUITES = (
    "homogeneity",
    "value-bounds",
    "init-concentration",
    "norm-dynamics",
    "rademacher",
    "loss-decomposition",
)
RTOL = 1e-9

BENCH_DIR = os.path.dirname(os.path.abspath(__file__))


@dataclass
class Plan:
    """One workload at one seed: the commands of a repetition and their inputs."""

    workload: str
    variant: int
    configs: list[str]  # config files the workload reads (set-up builds their data)
    commands: list[tuple[str, list[str]]]  # (operation label, argv after `genbound`)
    out: str  # directory every artifact goes under; emptied before each repetition


def variants(workload: str) -> range:
    return range(1) if workload == "verify_all" else range(VARIANTS)


def variant_of(workload: str, seed: int) -> int:
    return seed % len(variants(workload))


def _vary(doc: dict, v: int) -> dict:
    doc = copy.deepcopy(doc)
    data = doc.setdefault("data", {})
    data["seed"] = int(data.get("seed", 0)) + v
    seeds = [int(s) for s in doc.get("seeds", [0])]
    doc["seeds"] = [s + len(seeds) * v for s in seeds]
    return doc


def _write_config(doc: dict, path: str) -> str:
    with open(path, "w") as fh:
        json.dump(doc, fh, indent=2)
    return path


def _load(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def plan(workload: str, seed: int, root: str, work: str) -> Plan:
    """Write the seed's configs under `work` and list the repetition's commands."""
    v = variant_of(workload, seed)
    out = os.path.join(work, "out")
    shipped = os.path.join(root, "configs")
    if workload == "wide_gd":
        doc = _vary(_load(os.path.join(BENCH_DIR, "wide_gd.json")), v)
        cfg = _write_config(doc, os.path.join(work, "wide_gd.json"))
        commands = [("train", ["train", "--config", cfg, "--out", os.path.join(out, "wide")])]
        return Plan(workload, v, [cfg], commands, out)
    if workload == "sweep_sgd":
        doc = _vary(_load(os.path.join(shipped, "sweep_noise.json")), v)
        cfg = _write_config(doc, os.path.join(work, "sweep_noise.json"))
        commands = [("sweep", ["sweep", "--config", cfg, "--out", os.path.join(out, "noise")])]
        return Plan(workload, v, [cfg], commands, out)
    if workload == "toy_cli":
        toy = _vary(_load(os.path.join(shipped, "toy_regression.json")), v)
        comp = _vary(_load(os.path.join(shipped, "compare_sgld.json")), v)
        toy_cfg = _write_config(toy, os.path.join(work, "toy_regression.json"))
        comp_cfg = _write_config(comp, os.path.join(work, "compare_sgld.json"))
        toy_out = os.path.join(out, "toy")
        commands = [
            ("train", ["train", "--config", toy_cfg, "--out", toy_out]),
            (
                "bound",
                [
                    "bound",
                    "--config",
                    toy_cfg,
                    "--trajectory",
                    os.path.join(toy_out, "trajectory.csv"),
                    "--out",
                    os.path.join(out, "bound.json"),
                ],
            ),
            ("compare", ["compare", "--config", comp_cfg, "--out", os.path.join(out, "compare")]),
        ]
        return Plan(workload, v, [toy_cfg, comp_cfg], commands, out)
    if workload == "verify_all":
        verify_out = os.path.join(out, "verify.json")
        commands = [("verify", ["verify", "--seed", str(v), "--out", verify_out])]
        return Plan(workload, v, [], commands, out)
    raise ValueError(f"unknown workload '{workload}'; choose from {', '.join(NAMES)}")


def run_rep(plan_: Plan, main, call=None) -> tuple[float, dict]:
    """Run the plan's commands once through `main(argv)`.

    Returns the wall time of the commands and each command's exit code
    (None when it raised).  `call(label, main, argv)`, when given, makes the
    call instead, so a tracer can record it.  Output directories are emptied
    first, outside the timed region, so no artifact survives from an earlier
    repetition.
    """
    shutil.rmtree(plan_.out, ignore_errors=True)
    os.makedirs(plan_.out)
    exits = {}
    sink = io.StringIO()
    start = time.perf_counter()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        for label, argv in plan_.commands:
            try:
                exits[label] = main(argv) if call is None else call(label, main, argv)
            except Exception:  # counted as a failed operation; the run goes on
                exits[label] = None
                traceback.print_exc(file=sys.__stderr__)
    return time.perf_counter() - start, exits


# ---------------------------------------------------------------------------
# Reading artifacts back


def _table(path: str) -> list[dict[str, str]]:
    """Rows of a CSV artifact, skipping `#` comment lines wherever they sit."""
    with open(path, newline="") as fh:
        lines = [line for line in fh if line.strip() and not line.startswith("#")]
    return list(csv.DictReader(lines))


def _last_row(path: str, columns: tuple[str, ...], prefix: str) -> dict:
    row = _table(path)[-1]
    return {f"{prefix}:{c}": float(row[c]) for c in columns}


def _report(path: str, keys: tuple[str, ...], prefix: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {f"{prefix}:{k}": doc[k] for k in keys}


def _trajectories(directory: str) -> dict:
    values = {}
    for name in sorted(os.listdir(directory)):
        if name.startswith("trajectory") and name.endswith(".csv"):
            values.update(
                _last_row(
                    os.path.join(directory, name),
                    ("Ln_train", "Ln_test", "CL", "bound_prefix"),
                    name,
                )
            )
    return values


_TRAIN_KEYS = ("bound", "cl", "final_ln_train", "final_ln_test", "cl_seed_mean", "bound_seed_mean")


def _train_values(directory: str) -> dict:
    values = _report(os.path.join(directory, "report.json"), _TRAIN_KEYS, "report.json")
    with open(os.path.join(directory, "report.json")) as fh:
        for i, eta in enumerate(json.load(fh)["eta_resolved"]):
            values[f"report.json:eta_resolved[{i}]"] = eta
    values.update(_trajectories(directory))
    return values


def _sweep_values(directory: str) -> dict:
    values = {}
    for row in _table(os.path.join(directory, "sweep.csv")):
        key = f"{row['axis']}={row['value']}"
        for col in ("cl", "bound", "cl_seed_mean", "bound_seed_mean"):
            values[f"sweep.csv:{key}:{col}"] = float(row[col])
        sub = os.path.join(directory, f"{row['axis']}_{row['value']}")
        values.update(_report(os.path.join(sub, "report.json"), ("bound", "cl"), f"{key}/report.json"))
        values.update(
            _last_row(os.path.join(sub, "trajectory.csv"), ("Ln_train", "CL"), f"{key}/trajectory.csv")
        )
    return values


def _compare_values(directory: str) -> dict:
    values = {}
    for row in _table(os.path.join(directory, "compare.csv")):
        key = f"{row['algorithm']}@beta={row['beta']}"
        for col in ("cl", "bound_cl", "bound_info"):
            values[f"compare.csv:{key}:{col}"] = float(row[col])
    return values


def _verify_values(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    return {o["name"]: bool(o["passed"]) for o in doc["outcomes"]}


def observe(plan_: Plan, label: str) -> dict:
    """Values the command `label` of the plan wrote, keyed by artifact and field."""
    argv = dict(plan_.commands)[label]
    target = argv[argv.index("--out") + 1]
    if label == "train":
        return _train_values(target)
    if label == "sweep":
        return _sweep_values(target)
    if label == "bound":
        return _report(target, ("bound", "cl"), "bound.json")
    if label == "compare":
        return _compare_values(target)
    if label == "verify":
        return _verify_values(target)
    raise ValueError(f"no reader for command '{label}'")


# ---------------------------------------------------------------------------
# Checking against the reference


def same(got, want) -> bool:
    """Equal at RTOL relative, with NaN equal to NaN and None only to None."""
    if isinstance(want, bool) or want is None or isinstance(got, bool) or got is None:
        return got == want
    got, want = float(got), float(want)
    if got == want:
        return True
    if math.isnan(want):
        return math.isnan(got)
    return abs(got - want) <= RTOL * max(abs(got), abs(want))


def mismatches(got: dict, want: dict) -> list[str]:
    """Keys of `want` that `got` lacks or holds a different value for."""
    return [key for key, value in want.items() if key not in got or not same(got[key], value)]


def operations(plan_: Plan, exits: dict, reference: dict) -> list[tuple[str, list[str]]]:
    """One entry per operation of a repetition: (name, reasons it failed).

    An operation is one command, or for `verify` one suite.  `exits` maps
    each command label to its exit code, or to None when it raised.
    """
    ref = reference[plan_.workload][str(plan_.variant)]
    ops = []
    for label, _ in plan_.commands:
        want_exit = ref["exit"][label]
        problems = []
        if exits[label] != want_exit:
            problems.append(f"exit {exits[label]}, expected {want_exit}")
        got = {}
        if not problems:
            try:
                got = observe(plan_, label)
            except (OSError, KeyError, ValueError, IndexError) as exc:
                problems.append(f"unreadable output: {exc!r}")
        if label != "verify":
            if not problems:
                problems += [f"{k}: got {got.get(k)!r}, want {ref['values'][label][k]!r}"
                             for k in mismatches(got, ref["values"][label])]
            ops.append((label, problems))
            continue
        for suite in SUITES:
            suite_problems = list(problems)
            if not suite_problems:
                suite_problems += [
                    f"outcome {name}: {'FAIL' if name in got else 'missing'}"
                    for name in ref["suites"][suite]
                    if got.get(name) is not True
                ]
            ops.append((f"verify/{suite}", suite_problems))
    return ops
