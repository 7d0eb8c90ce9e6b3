"""Command-line entry points: train, verify, bound, compare, sweep, gen-data.

All commands read a single JSON config (strictly validated: unknown keys
are rejected with their path) and write deterministic artifacts: given the
same config and seeds, reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import contextlib
import copy
import json
import math
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import bounds as bnd
from . import checks, data, svgchart
from .network import NetworkSpec, init_gaussian
from .training import (
    DivergenceError,
    TrainConfig,
    Trajectory,
    estimate_c_f,
    max_feasible_eta,
    train,
)

_SECTIONS = {
    "network": {"input_dim", "conv_kernels", "fc_widths", "output_width", "norm_exponent"},
    "train": {
        "algorithm",
        "eta",
        "alpha",
        "t0",
        "batch",
        "beta",
        "total_steps",
        "duration",
        "gf_substep",
        "loss_power",
        "kappa",
    },
    "data": {
        "source",
        "kind",
        "n_train",
        "n_test",
        "noise_fraction",
        "c_y",
        "seed",
        "images",
        "labels",
        "keep",
        "train_fraction",
    },
    "bound": {"lam", "delta", "rho", "epsilon"},
    "sweep": {"axis", "values"},
    "compare": {"betas", "loss_bound", "lip"},
}
_TOP_KEYS = {"network", "train", "data", "bound", "seeds", "output_dir", "svg", "sweep", "compare"}


class ConfigError(ValueError):
    pass


def _check_keys(section: str, doc: dict, allowed: set) -> None:
    for key in doc:
        if key not in allowed:
            raise ConfigError(f"unknown key '{key}' in section '{section}'")


def load_config(path: str) -> dict:
    """Parse and structurally validate a config file."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    _check_keys("<top>", doc, _TOP_KEYS)
    for name, allowed in _SECTIONS.items():
        if name in doc:
            if not isinstance(doc[name], dict):
                raise ConfigError(f"section '{name}' must be an object")
            _check_keys(name, doc[name], allowed)
    if "network" not in doc:
        raise ConfigError("missing required section 'network'")
    return doc


def build_spec(doc: dict) -> NetworkSpec:
    net = doc["network"]
    try:
        return NetworkSpec(
            input_dim=int(net["input_dim"]),
            conv_kernels=tuple(net.get("conv_kernels", ())),
            fc_widths=tuple(net.get("fc_widths", ())),
            output_width=int(net["output_width"]),
            norm_exponent=float(net["norm_exponent"]),
        )
    except KeyError as exc:
        raise ConfigError(f"section 'network' is missing key {exc}") from exc
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid network: {exc}") from exc


@contextlib.contextmanager
def _value_types(section: str):
    """Decorator: a value of the wrong type in a config section is a config error."""
    try:
        yield
    except TypeError as exc:
        raise ConfigError(f"invalid value in section '{section}': {exc}") from exc


def _seeds(doc: dict) -> list[int]:
    seeds = doc.get("seeds", [0])
    if not isinstance(seeds, list) or not seeds or not all(type(s) is int for s in seeds):
        raise ConfigError("seeds must be a nonempty list of integers")
    return seeds


def _optional_float(value):
    return None if value is None else float(value)


def _parse_beta(value):
    return math.inf if value == "inf" else _optional_float(value)


@_value_types("train")
def build_train_config(doc: dict, seed: int, eta_override: float | None = None) -> TrainConfig:
    tr = doc.get("train", {})
    bd = doc.get("bound", {})
    eta_raw = tr.get("eta", 0.1)
    if eta_override is not None:
        eta = eta_override
    elif eta_raw == "auto":
        eta = 1.0  # placeholder, resolved against the feasibility threshold
    else:
        eta = float(eta_raw)
    cfg = TrainConfig(
        algorithm=tr.get("algorithm", "GD"),
        eta=eta,
        alpha=float(tr.get("alpha", 1.0)),
        t0=int(tr.get("t0", 1)),
        batch=int(tr.get("batch", 1)),
        beta=_parse_beta(tr.get("beta")),
        total_steps=int(tr.get("total_steps", 100)),
        duration=_optional_float(tr.get("duration")),
        gf_substep=_optional_float(tr.get("gf_substep")),
        seed=seed,
        loss_power=int(tr.get("loss_power", 2)),
        lam=float(bd.get("lam", 0.5)),
        epsilon=_optional_float(bd.get("epsilon")),
        kappa=float(tr.get("kappa", 1.0)),
    )
    return cfg


@_value_types("data")
def build_datasets(doc: dict):
    """Returns (train dataset, test dataset or None) from the data section."""
    dd = doc.get("data", {})
    source = dd.get("source", "synthetic")
    if source == "synthetic":
        kind = dd.get("kind", "regression")
        n_train = int(dd.get("n_train", 256))
        n_test = int(dd.get("n_test", 0))
        seed = int(dd.get("seed", 0))
        if kind == "regression":
            ds = data.synth_regression(n_train, seed)
            ds_test = data.synth_regression(n_test, seed + 1, "test") if n_test else None
        elif kind == "classification":
            c_y = float(dd.get("c_y", 0.25))
            ds = data.synth_classification(n_train, seed, c_y)
            ds_test = (
                data.synth_classification(n_test, seed + 1, c_y, "test") if n_test else None
            )
        else:
            raise ConfigError(f"unknown synthetic kind '{kind}'")
        fraction = float(dd.get("noise_fraction", 0.0))
        if fraction > 0.0:
            if kind != "classification":
                raise ConfigError("noise_fraction needs binary labels (kind=classification)")
            ds = data.inject_label_noise(ds, fraction, seed + 2)
        return ds, ds_test
    if source == "idx":
        for key in ("images", "labels", "keep", "c_y"):
            if key not in dd:
                raise ConfigError(f"idx data source needs key '{key}'")
        ds_all = data.load_idx(dd["images"], dd["labels"], dd["keep"], float(dd["c_y"]))
        fraction = float(dd.get("train_fraction", 0.8))
        return data.split(ds_all, fraction, int(dd.get("seed", 0)))
    raise ConfigError(f"unknown data source '{source}'")


@dataclass
class RunResult:
    seed: int
    eta: float
    trajectory: Trajectory
    diverged: bool


def run_one(doc: dict, spec: NetworkSpec, ds, ds_test, seed: int) -> RunResult:
    """Train once for one seed, resolving eta='auto' against feasibility."""
    tr = doc.get("train", {})
    eta_override = None
    if tr.get("eta") == "auto":
        cfg0 = build_train_config(doc, seed)
        params0 = init_gaussian(spec, cfg0.kappa, seed)
        c_f = estimate_c_f(params0, ds.inputs)
        eta_override = max_feasible_eta(params0.norms(), spec, cfg0, c_f, ds.c_y)
    cfg = build_train_config(doc, seed, eta_override)
    try:
        traj = train(spec, ds, cfg, ds_test)
        return RunResult(seed, cfg.eta, traj, False)
    except DivergenceError as exc:
        return RunResult(seed, cfg.eta, exc.trajectory, True)


def _fmt(v) -> str:
    return repr(float(v))


# the named columns of a trajectory CSV, before normsq_1..normsq_k and bound_prefix
_CSV_COLUMNS = ["t", "eta_t", "Ln_train", "Ln_test", "psi", "CL"]


def write_trajectory_csv(traj: Trajectory, series: np.ndarray, path: str) -> None:
    n_layers = traj.normsq.shape[1]
    cols = (
        _CSV_COLUMNS
        + [f"normsq_{l + 1}" for l in range(n_layers)]
        + ["bound_prefix"]
    )
    t_col = traj.times if traj.algorithm == "GF" else traj.steps
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(traj.steps.shape[0]):
            row = [
                _fmt(t_col[k]) if traj.algorithm == "GF" else str(int(t_col[k])),
                _fmt(traj.eta[k]),
                _fmt(traj.ln_train[k]),
                _fmt(traj.ln_test[k]),
                _fmt(traj.psi[k]),
                _fmt(traj.cl[k]),
            ]
            row += [_fmt(traj.normsq[k, l]) for l in range(n_layers)]
            row.append(_fmt(series[k]))
            fh.write(",".join(row) + "\n")
        if traj.diverged_at is not None:
            fh.write(f"# diverged at step {traj.diverged_at}\n")


def read_trajectory_csv(path: str, spec: NetworkSpec, doc: dict) -> Trajectory:
    """Rebuild a logged run from its CSV; the config supplies what it omits.

    The CSV carries no seed, gradients, outputs or final parameters, so
    those fields are None.  A trailing `# diverged at step N` marker sets
    diverged_at.
    """
    diverged_at = None
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for line in fh:
            if line.startswith("# diverged at step "):
                diverged_at = int(line.rsplit(" ", 1)[1])
            elif line.strip() and not line.startswith("#"):
                rows.append([float(v) for v in line.split(",")])
    missing = [name for name in _CSV_COLUMNS if name not in header]
    if missing:
        raise ValueError(f"{path}: missing columns {', '.join(missing)}")
    n_normsq = sum(name.startswith("normsq_") for name in header)
    if n_normsq != spec.n_layers or not rows:
        raise ValueError(
            f"{path}: expected data rows with {spec.n_layers} normsq columns, "
            f"got {len(rows)} rows with {n_normsq}"
        )
    arr = np.array(rows)
    col = {name: i for i, name in enumerate(header)}
    normsq = np.stack(
        [arr[:, col[f"normsq_{l + 1}"]] for l in range(spec.n_layers)], axis=1
    )
    ds, _ = build_datasets(doc)
    tr = doc.get("train", {})
    return Trajectory(
        algorithm=tr.get("algorithm", "GD"),
        spec=spec,
        steps=np.arange(arr.shape[0]),
        times=arr[:, col["t"]],
        eta=arr[:, col["eta_t"]],
        ln_train=arr[:, col["Ln_train"]],
        ln_test=arr[:, col["Ln_test"]],
        psi=arr[:, col["psi"]],
        cl=arr[:, col["CL"]],
        normsq=normsq,
        c_y=ds.c_y,
        loss_power=int(tr.get("loss_power", 2)),
        n_train=ds.n,
        diverged_at=diverged_at,
    )


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _assemble(doc: dict, traj: Trajectory, cl_seed_mean=None):
    bd = doc.get("bound", {})
    lam = float(bd.get("lam", 0.5))
    delta = float(bd.get("delta", 0.05))
    rho = bd.get("rho", 1.0)
    rho = float(rho) if rho is not None else None
    report = bnd.assemble_bound(traj, lam, delta, rho=rho, cl_seed_mean=cl_seed_mean)
    series = bnd.bound_series(traj, lam, delta, rho=rho)
    return report, series


def cmd_train(args) -> int:
    doc = load_config(args.config)
    spec = build_spec(doc)
    out_dir = args.out or doc.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    seeds = [int(args.seed)] if args.seed is not None else _seeds(doc)
    ds, ds_test = build_datasets(doc)
    results = [run_one(doc, spec, ds, ds_test, s) for s in seeds]
    primary = results[0]
    cl_seed_mean = None
    if len(results) > 1:
        cl_seed_mean = float(np.mean([res.trajectory.cl[-1] for res in results]))
    assembled = [
        _assemble(doc, res.trajectory, cl_seed_mean if i == 0 else None)
        for i, res in enumerate(results)
    ]
    report, series = assembled[0]
    for i, (res, (_, res_series)) in enumerate(zip(results, assembled)):
        name = "trajectory.csv" if i == 0 else f"trajectory_seed{res.seed}.csv"
        write_trajectory_csv(res.trajectory, res_series, os.path.join(out_dir, name))
    payload = report.to_dict()
    payload.update(
        {
            "seeds": seeds,
            "eta_resolved": [res.eta for res in results],
            "final_ln_train": float(primary.trajectory.ln_train[-1]),
            "final_ln_test": (
                float(primary.trajectory.ln_test[-1])
                if primary.trajectory.has_test
                else None
            ),
            "max_abs_f": primary.trajectory.max_abs_f,
            "diverged": [res.diverged for res in results],
        }
    )
    _dump_json(payload, os.path.join(out_dir, "report.json"))
    if doc.get("svg", False):
        traj = primary.trajectory
        t_col = traj.times if traj.algorithm == "GF" else traj.steps
        chart = svgchart.line_chart(
            [
                ("train loss", t_col, traj.ln_train),
                ("test loss", t_col, traj.ln_test),
                ("bound", t_col, series),
            ],
            "loss and bound along training",
        )
        with open(os.path.join(out_dir, "chart.svg"), "w") as fh:
            fh.write(chart)
    if any(res.diverged for res in results):
        print("training diverged; partial trajectory written", file=sys.stderr)
        return 1
    print(f"bound {report.bound:.6g} (CL {report.cl:.6g}) -> {out_dir}")
    return 0


def cmd_bound(args) -> int:
    doc = load_config(args.config)
    spec = build_spec(doc)
    traj = read_trajectory_csv(args.trajectory, spec, doc)
    report, _ = _assemble(doc, traj)
    _dump_json(report.to_dict(), args.out)
    if traj.diverged_at is not None:
        print(f"trajectory diverged at step {traj.diverged_at}", file=sys.stderr)
        return 1
    print(f"bound {report.bound:.6g} -> {args.out}")
    return 0


def cmd_verify(args) -> int:
    names = args.suite or list(checks.SUITE_NAMES)
    try:
        outcomes = checks.run_suites(names, seed=args.seed, inject_bug=args.inject_bug)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    all_passed = all(o.passed for o in outcomes)
    for o in outcomes:
        status = "PASS" if o.passed else "FAIL"
        print(
            f"{status} {o.name}: {o.instances} instances, "
            f"max violation {o.max_violation:.3e} (tolerance {o.tolerance:.1e})"
        )
    if args.out:
        _dump_json(
            {"outcomes": [o.to_dict() for o in outcomes], "all_passed": all_passed},
            args.out,
        )
    return 0 if all_passed else 1


def cmd_compare(args) -> int:
    doc = load_config(args.config)
    if "compare" not in doc:
        raise ConfigError("missing required section 'compare'")
    comp = doc["compare"]
    for key in ("betas", "loss_bound", "lip"):
        if key not in comp:
            raise ConfigError(f"section 'compare' is missing key '{key}'")
    spec = build_spec(doc)
    seed = _seeds(doc)[0]
    out_dir = args.out or doc.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    ds, ds_test = build_datasets(doc)
    betas = [float(b) for b in comp["betas"]]
    loss_bound, lip = float(comp["loss_bound"]), float(comp["lip"])

    def run_with(algorithm: str, beta: float | None):
        local = copy.deepcopy(doc)
        local.setdefault("train", {})["algorithm"] = algorithm
        if beta is not None:
            local["train"]["beta"] = beta
        return run_one(local, spec, ds, ds_test, seed)

    jobs = [("SGLD", b) for b in betas] + [("GD", None)]
    results = [run_with(algorithm, beta) for algorithm, beta in jobs]
    rows = []
    for (algorithm, beta), res in zip(jobs, results):
        traj = res.trajectory
        report, _ = _assemble(doc, traj)
        eta_sum = float(np.sum(traj.eta[:-1]))
        info = bnd.sgld_bound(
            bnd.SgldBoundInputs(
                loss_bound, lip, beta if beta is not None else math.inf, ds.n, eta_sum=eta_sum
            )
        )
        rows.append((algorithm, beta if beta is not None else math.inf, report.cl, report.bound, info))
    path = os.path.join(out_dir, "compare.csv")
    with open(path, "w", newline="") as fh:
        fh.write("algorithm,beta,cl,bound_cl,bound_info\n")
        for algorithm, beta, cl, bound_cl, info in rows:
            fh.write(f"{algorithm},{_fmt(beta)},{_fmt(cl)},{_fmt(bound_cl)},{_fmt(info)}\n")
    print(f"compare table -> {path}")
    return 0


def _sweep_doc(doc: dict, axis: str, value) -> dict:
    local = copy.deepcopy(doc)
    if axis == "width":
        w = int(value)
        if w < 2:
            raise ConfigError("width values must be >= 2")
        net = local["network"]
        if net.get("conv_kernels"):
            raise ConfigError("the width axis applies to fully-connected networks")
        old_m = int(net["output_width"])
        old_p = float(net["norm_exponent"])
        net["fc_widths"] = [w for _ in net["fc_widths"]]
        net["output_width"] = w
        # keep the readout scale m^p fixed across widths
        net["norm_exponent"] = old_p * math.log(old_m) / math.log(w)
    elif axis == "lr":
        local.setdefault("train", {})["eta"] = float(value)
    elif axis == "noise":
        local.setdefault("data", {})["noise_fraction"] = float(value)
    else:
        raise ConfigError("axis must be one of width, lr, noise")
    return local


def cmd_sweep(args) -> int:
    doc = load_config(args.config)
    sweep = doc.get("sweep", {})
    axis = args.axis or sweep.get("axis")
    if not axis:
        raise ConfigError("no sweep axis given (--axis or config sweep.axis)")
    values = sweep.get("values")
    if not values:
        raise ConfigError("config sweep.values must be a nonempty list")
    out_dir = args.out or doc.get("output_dir", "out")
    os.makedirs(out_dir, exist_ok=True)
    seeds = _seeds(doc)

    def run_value(value):
        local = _sweep_doc(doc, axis, value)
        spec = build_spec(local)
        ds, ds_test = build_datasets(local)
        results = [run_one(local, spec, ds, ds_test, s) for s in seeds]
        cls, bound_values = [], []
        primary_report = None
        for i, res in enumerate(results):
            report, series = _assemble(local, res.trajectory)
            if i == 0:
                primary_report = report
                sub = os.path.join(out_dir, f"{axis}_{value}")
                os.makedirs(sub, exist_ok=True)
                write_trajectory_csv(
                    res.trajectory, series, os.path.join(sub, "trajectory.csv")
                )
                _dump_json(report.to_dict(), os.path.join(sub, "report.json"))
            cls.append(report.cl)
            bound_values.append(report.bound)
        return (
            value,
            primary_report.cl,
            primary_report.bound,
            float(np.mean(cls)),
            float(np.mean(bound_values)),
            any(res.diverged for res in results),
        )

    rows = [run_value(value) for value in values]
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("axis,value,cl,bound,cl_seed_mean,bound_seed_mean\n")
        for value, cl, bound, cl_mean, bound_mean, diverged in rows:
            fh.write(
                f"{axis},{value},{_fmt(cl)},{_fmt(bound)},{_fmt(cl_mean)},{_fmt(bound_mean)}\n"
            )
    if any(r[5] for r in rows):
        print("at least one sweep run diverged", file=sys.stderr)
        return 1
    print(f"sweep table -> {path}")
    return 0


def cmd_gen_data(args) -> int:
    if args.kind == "regression":
        data.save_csv(data.synth_regression(args.n, args.seed), args.out)
    elif args.kind == "classification":
        data.save_csv(data.synth_classification(args.n, args.seed), args.out)
    elif args.kind == "idx-fixture":
        rng = np.random.default_rng(args.seed)
        images = rng.integers(0, 256, size=(args.n, 4, 4), dtype=np.uint8, endpoint=False)
        labels = rng.integers(0, 2, size=args.n, dtype=np.uint8)
        data.write_idx(images, labels, args.out + "-images.idx", args.out + "-labels.idx")
        print(f"wrote {args.out}-images.idx and {args.out}-labels.idx")
        return 0
    else:
        print(f"error: unknown kind '{args.kind}'", file=sys.stderr)
        return 2
    print(f"wrote {args.out}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="genbound",
        description="train homogeneous ReLU networks and track cumulative-loss bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training and emit trajectory + bound")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=int, default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(fn=cmd_train)

    p_verify = sub.add_parser("verify", help="run the numerical check suites")
    p_verify.add_argument("--suite", action="append", choices=list(checks.SUITE_NAMES))
    p_verify.add_argument("--seed", type=int, default=0)
    p_verify.add_argument("--out", default=None)
    p_verify.add_argument("--inject-bug", action="store_true", help=argparse.SUPPRESS)
    p_verify.set_defaults(fn=cmd_verify)

    p_bound = sub.add_parser("bound", help="recompute a bound report from a trajectory CSV")
    p_bound.add_argument("--config", required=True)
    p_bound.add_argument("--trajectory", required=True)
    p_bound.add_argument("--out", required=True)
    p_bound.set_defaults(fn=cmd_bound)

    p_compare = sub.add_parser("compare", help="cumulative-loss vs information bound over beta")
    p_compare.add_argument("--config", required=True)
    p_compare.add_argument("--out", default=None)
    p_compare.set_defaults(fn=cmd_compare)

    p_sweep = sub.add_parser("sweep", help="repeat training along one hyperparameter axis")
    p_sweep.add_argument("--config", required=True)
    p_sweep.add_argument("--axis", choices=["width", "lr", "noise"], default=None)
    p_sweep.add_argument("--out", default=None)
    p_sweep.set_defaults(fn=cmd_sweep)

    p_gen = sub.add_parser("gen-data", help="write a synthetic dataset to disk")
    p_gen.add_argument("--kind", required=True, choices=["regression", "classification", "idx-fixture"])
    p_gen.add_argument("--n", type=int, default=256)
    p_gen.add_argument("--seed", type=int, default=0)
    p_gen.add_argument("--out", required=True)
    p_gen.set_defaults(fn=cmd_gen_data)

    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
