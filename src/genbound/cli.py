"""Command-line entry points: train, verify, bound, compare, sweep, gen-data.

Each run's config is one JSON document, the config file with the run's edit
(a sweep value or a compare beta) merged in, parsed once by `_parse`: each
key has one type, one default and one rule for whether it is required, and
unknown keys are rejected with their path.  Before its first run a command
range-checks every run it will make, so a config error exits 2 and writes
no file.  Given the same config and seeds, reruns are byte-identical.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from contextlib import contextmanager
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from . import bounds as bnd
from . import checks, data, svgchart
from .network import NetworkSpec
from .training import (
    ALGORITHMS,
    DivergenceError,
    FieldError,
    TrainConfig,
    Trajectory,
    feasible_eta,
    train,
)


class ConfigError(ValueError):
    """A config fault; one in a key has `where`, its (section, key), and `rule`, what its value broke."""

    def __init__(self, rule: str, where: tuple[str, str] | None = None, got: str | None = None):
        self.rule, self.where = rule, where
        message = rule if got is None else f"{rule}, got {got}"
        super().__init__(message if where is None else f"section '{where[0]}' key '{where[1]}': {message}")


@dataclass(frozen=True)
class DataConfig:
    """The data section; images, labels and keep are required for the idx source only."""

    source: str
    kind: str
    n_train: int
    n_test: int
    noise_fraction: float
    c_y: float | None  # None for synthetic regression, whose targets fix it
    seed: int
    images: str | None
    labels: str | None
    keep: tuple[int, ...] | None
    train_fraction: float


@dataclass(frozen=True)
class Config:
    """A parsed config.

    train carries seed 0 until a run sets its own, and the lam and epsilon
    of the bound section; with eta_auto, run_one replaces train.eta per seed
    by the largest feasible rate.  sweep_values is None without a sweep
    section and betas None without a compare section.
    """

    spec: NetworkSpec
    train: TrainConfig
    eta_auto: bool
    data: DataConfig
    delta: float
    rho: float | None
    seeds: tuple[int, ...]
    output_dir: str
    svg: bool
    sweep_axis: str | None  # `--axis` may give it instead
    sweep_values: tuple | None  # as the JSON spells them, which names the output directories
    betas: tuple[float, ...] | None
    loss_bound: float | None
    lip: float | None
    doc: dict  # the document parsed, into which each run's edit is merged


# A JSON value type: (its name in error messages, the test a value passes, the conversion).


def _is_int(v) -> bool:
    return type(v) is int  # neither a bool nor a float such as 2.0


def _is_number(v) -> bool:
    return type(v) in (int, float)


def _or_null(kind):
    what, accepts, convert = kind
    return (f"{what} or null", lambda v: v is None or accepts(v), lambda v: v if v is None else convert(v))


def _list_of(accepts, nonempty=False):
    return lambda v: type(v) is list and (bool(v) or not nonempty) and all(map(accepts, v))


def _one_of(*names):
    return ("one of " + ", ".join(json.dumps(n) for n in names), lambda v: v in names, str)


def _beta(v) -> float:
    return math.inf if v == "inf" else float(v)


_INT = ("an integer", _is_int, int)
_COUNT = ("an integer >= 0", lambda v: _is_int(v) and v >= 0, int)
_POSITIVE_INT = ("an integer >= 1", lambda v: _is_int(v) and v >= 1, int)
_NUMBER = ("a number", _is_number, float)
_POSITIVE = ("a number in (0, inf)", lambda v: _is_number(v) and 0 < v < math.inf, float)
_FRACTION = ("a number in (0, 1)", lambda v: _is_number(v) and 0 < v < 1, float)
_SHARE = ("a number in [0, 1]", lambda v: _is_number(v) and 0 <= v <= 1, float)
_C_Y = ("a number in (0, 1]", lambda v: _is_number(v) and 0 < v <= 1, float)
_BOOL = ("true or false", lambda v: type(v) is bool, bool)
_STR = ("a string", lambda v: type(v) is str, str)
_OBJECT = ("an object", lambda v: type(v) is dict, dict)
_INTS = ("a list of integers", _list_of(_is_int), tuple)
_SEEDS = ("a nonempty list of integers >= 0", _list_of(lambda v: _is_int(v) and v >= 0, nonempty=True), tuple)
_VALUES = ("a nonempty list of numbers", _list_of(_is_number, nonempty=True), tuple)
_ETA = ('a number or "auto"', lambda v: v == "auto" or _is_number(v), lambda v: v if v == "auto" else float(v))
_BETA = ('a number or "inf"', lambda v: v == "inf" or _is_number(v), _beta)
_BETAS = (
    'a list of positive numbers or "inf"',
    _list_of(lambda v: v == "inf" or (_is_number(v) and v > 0)),
    lambda v: tuple(map(_beta, v)),
)
_REQUIRED = object()


class _Section:
    """One config object, read key by key; a key that is never read is unknown."""

    def __init__(self, name: str, values: dict):
        self.name, self.values, self.read = name, values, set()

    def __call__(self, key: str, kind, default=_REQUIRED):
        """The value of `key` converted by its kind, or `default` when absent."""
        self.read.add(key)
        if key not in self.values:
            if default is _REQUIRED:
                raise ConfigError(f"section '{self.name}' is missing key '{key}'")
            return default
        what, accepts, convert = kind
        raw = self.values[key]
        if not accepts(raw):
            raise ConfigError(f"expected {what}", (self.name, key), json.dumps(raw))
        return convert(raw)

    def close(self) -> None:
        for key in self.values:
            if key not in self.read:
                raise ConfigError(f"unknown key '{key}' in section '{self.name}'")


def load_config(path: str) -> Config:
    """Read a config file and parse all of it, once."""
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict):
        raise ConfigError(f"{path}: top level must be an object")
    return _parse(doc)


def _parse(doc: dict) -> Config:
    top = _Section("<top>", doc)
    names = ("network", "train", "data", "bound", "sweep", "compare")
    net, tr, dd, bd, sw, cp = (_Section(name, top(name, _OBJECT, {})) for name in names)
    seeds = top("seeds", _SEEDS, (0,))
    output_dir = top("output_dir", _STR, "out")
    svg = top("svg", _BOOL, False)
    top.close()
    if "network" not in doc:
        raise ConfigError("missing required section 'network'")

    shape = {
        "input_dim": net("input_dim", _INT),
        "conv_kernels": net("conv_kernels", _INTS, ()),
        "fc_widths": net("fc_widths", _INTS, ()),
        "output_width": net("output_width", _INT),
        "norm_exponent": net("norm_exponent", _NUMBER),
    }
    try:
        spec = NetworkSpec(**shape)
    except ValueError as exc:
        raise ConfigError(f"section 'network': {exc}") from exc

    eta = tr("eta", _ETA, 0.1)
    train_config = TrainConfig(
        algorithm=tr("algorithm", _one_of(*ALGORITHMS), "GD"),
        eta=TrainConfig.eta if eta == "auto" else eta,
        alpha=tr("alpha", _NUMBER, 1.0),
        t0=tr("t0", _INT, 1),
        batch=tr("batch", _INT, 1),
        beta=tr("beta", _or_null(_BETA), None),
        total_steps=tr("total_steps", _INT, 100),
        duration=tr("duration", _or_null(_NUMBER), None),
        gf_substep=tr("gf_substep", _or_null(_NUMBER), None),
        loss_power=tr("loss_power", _INT, 2),
        lam=bd("lam", _NUMBER, 0.5),
        epsilon=bd("epsilon", _or_null(_NUMBER), None),
        kappa=tr("kappa", _NUMBER, 1.0),
    )

    source = dd("source", _one_of("synthetic", "idx"), "synthetic")
    kind = dd("kind", _one_of("regression", "classification"), "regression")
    noise_fraction = dd("noise_fraction", _SHARE, 0.0)
    if noise_fraction > 0.0 and source == "synthetic" and kind != "classification":
        raise ConfigError("label noise needs binary labels (kind=classification)", ("data", "noise_fraction"))
    idx_only = _REQUIRED if source == "idx" else None
    # synthetic regression leaves c_y unread, so close() rejects the key
    reads_c_y = source == "idx" or kind == "classification"
    data_config = DataConfig(
        source=source,
        kind=kind,
        n_train=dd("n_train", _POSITIVE_INT, 256),
        n_test=dd("n_test", _COUNT, 0),
        noise_fraction=noise_fraction,
        c_y=dd("c_y", _C_Y, _REQUIRED if source == "idx" else 0.25) if reads_c_y else None,
        seed=dd("seed", _COUNT, 0),
        images=dd("images", _STR, idx_only),
        labels=dd("labels", _STR, idx_only),
        keep=dd("keep", _INTS, idx_only),
        train_fraction=dd("train_fraction", _NUMBER, 0.8),
    )

    # the sweep and compare keys are required only where their section is given
    in_sweep = _REQUIRED if "sweep" in doc else None
    in_compare = _REQUIRED if "compare" in doc else None
    config = Config(
        spec=spec,
        train=train_config,
        eta_auto=eta == "auto",
        data=data_config,
        delta=bd("delta", _FRACTION, 0.05),
        rho=bd("rho", _or_null(_NUMBER), 1.0),
        seeds=seeds,
        output_dir=output_dir,
        svg=svg,
        sweep_axis=sw("axis", _one_of("width", "lr", "noise"), None),
        sweep_values=sw("values", _VALUES, in_sweep),
        betas=cp("betas", _BETAS, in_compare),
        loss_bound=cp("loss_bound", _POSITIVE, in_compare),
        lip=cp("lip", _POSITIVE, in_compare),
        doc=doc,
    )
    for section in (net, tr, dd, bd, sw, cp):
        section.close()
    return config


def build_datasets(config: Config):
    """Returns (train dataset, test dataset or None); label noise goes into the train split only."""
    dc = config.data
    if dc.source == "idx":
        ds_all = data.load_idx(dc.images, dc.labels, dc.keep, dc.c_y)
        ds, ds_test = data.split(ds_all, dc.train_fraction, dc.seed)
    elif dc.kind == "regression":
        ds = data.synth_regression(dc.n_train, dc.seed)
        ds_test = data.synth_regression(dc.n_test, dc.seed + 1, "test") if dc.n_test else None
    else:
        ds = data.synth_classification(dc.n_train, dc.seed, dc.c_y)
        ds_test = data.synth_classification(dc.n_test, dc.seed + 1, dc.c_y, "test") if dc.n_test else None
    if dc.noise_fraction > 0.0:
        try:
            ds = data.inject_label_noise(ds, dc.noise_fraction, dc.seed + 2)
        except ValueError as exc:  # an IDX train split may hold a single label value
            raise ConfigError(str(exc), ("data", "noise_fraction")) from exc
    return ds, ds_test


@dataclass
class RunResult:
    eta: float
    trajectory: Trajectory


def run_one(config: Config, ds, ds_test, seed: int) -> RunResult:
    """Train once for one seed, resolving eta='auto' against feasibility."""
    cfg = replace(config.train, seed=seed)
    if config.eta_auto:
        cfg = replace(cfg, eta=feasible_eta(config.spec, ds, cfg))
    try:
        return RunResult(cfg.eta, train(config.spec, ds, cfg, ds_test))
    except DivergenceError as exc:
        return RunResult(cfg.eta, exc.trajectory)


def _check_run(config: Config) -> None:
    """Range-check a run's train and bound keys, as ConfigErrors that name the key."""
    try:
        config.train.validate(config.spec.n_hidden)
        bnd._theorem(config.train.algorithm, config.rho)
    except FieldError as exc:  # lam and epsilon are keys of the bound section
        section = "bound" if exc.field in ("lam", "epsilon") else "train"
        raise ConfigError(str(exc), (section, exc.field)) from exc
    except ValueError as exc:  # validate has checked the algorithm, so _theorem's is about rho
        raise ConfigError(str(exc), ("bound", "rho")) from exc


@contextmanager
def _edit_errors(edit: dict):
    """Relabels a ConfigError in a key the edit set as the sweep value's (compare's pass)."""
    try:
        yield
    except ConfigError as exc:
        section, key = exc.where or (None, None)
        if key not in edit.get(section, {}):
            raise
        raise ConfigError(exc.rule, ("sweep", "values"), json.dumps(edit[section][key])) from exc


def _run_all(doc: dict, edits: list[dict], seeds, out_dir: str):
    """An iterator over the RunResults of `doc` with each edit merged in, at each seed, in order.

    Before it returns, every run is parsed and range-checked, each distinct
    data section is built once, in first-use order, and out_dir is made, so
    a config error writes nothing.  An error in a key an edit set, in the
    checks or in the build, names the sweep values.  Each run starts when
    its result is read.
    """
    configs = []
    for edit in edits:
        with _edit_errors(edit):
            config = _parse({**doc, **{name: {**doc.get(name, {}), **keys} for name, keys in edit.items()}})
            _check_run(config)
        configs.append(config)
    datasets = {}
    for edit, config in zip(edits, configs):
        if config.data not in datasets:
            with _edit_errors(edit):
                datasets[config.data] = build_datasets(config)
    os.makedirs(out_dir, exist_ok=True)
    return (run_one(config, *datasets[config.data], seed) for config in configs for seed in seeds)


def _fmt(v) -> str:
    return repr(float(v))


# the named columns of a trajectory CSV, before normsq_1..normsq_k and bound_prefix
_CSV_COLUMNS = ["t", "eta_t", "Ln_train", "Ln_test", "psi", "CL"]


def _fmt_col(col: np.ndarray) -> list[str]:
    """`_fmt` of each entry, formatted a column at a time."""
    return list(map(repr, np.asarray(col, dtype=float).tolist()))


def write_trajectory_csv(traj: Trajectory, series: np.ndarray, path: str) -> None:
    n_layers = traj.normsq.shape[1]
    header = _CSV_COLUMNS + [f"normsq_{l + 1}" for l in range(n_layers)] + ["bound_prefix"]
    if traj.algorithm == "GF":
        t_col = _fmt_col(traj.times)
    else:
        t_col = list(map(str, traj.steps.tolist()))
    named = (traj.eta, traj.ln_train, traj.ln_test, traj.psi, traj.cl)
    cols = [t_col] + [_fmt_col(col) for col in named]
    cols += [_fmt_col(traj.normsq[:, l]) for l in range(n_layers)] + [_fmt_col(series)]
    with open(path, "w", newline="") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(",".join(row) + "\n" for row in zip(*cols))
        if traj.diverged_at is not None:
            fh.write(f"# diverged at step {traj.diverged_at}\n")


def read_trajectory_csv(path: str, config: Config) -> tuple[Trajectory, dict[str, np.ndarray]]:
    """Rebuild a logged run from its CSV, with the CSV's psi, CL and bound_prefix columns.

    The run's own psi and cl derive from its losses.  The config supplies
    what the CSV omits; seed, gradients, outputs and final parameters are
    None.  A trailing `# diverged at step N` marker sets diverged_at.  A
    malformed marker, a row with the wrong number of cells or a cell that
    is not a number fails naming the file and its 1-based line.
    """
    spec = config.spec
    diverged_at = None
    rows = []
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        for lineno, line in enumerate(fh, start=2):
            if line.startswith("# diverged"):
                step = line.strip().removeprefix("# diverged at step ")
                if not (step.isascii() and step.isdigit()):
                    raise ValueError(
                        f"{path}: line {lineno}: malformed marker {line.strip()!r}, "
                        "expected '# diverged at step N'"
                    )
                diverged_at = int(step)
            elif line.strip() and not line.startswith("#"):
                cells = line.split(",")
                if len(cells) != len(header):
                    raise ValueError(
                        f"{path}: line {lineno}: {len(cells)} cells, the header names {len(header)}"
                    )
                try:
                    rows.append([float(v) for v in cells])
                except ValueError as exc:
                    raise ValueError(f"{path}: line {lineno}: {exc}") from None
    missing = [name for name in _CSV_COLUMNS + ["bound_prefix"] if name not in header]
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
    ln_train = arr[:, col["Ln_train"]]
    negative = np.flatnonzero(ln_train < 0.0)
    if negative.size:
        raise ValueError(f"{path}: column Ln_train is negative at data row {negative[0]}")
    ds, _ = build_datasets(config)
    traj = Trajectory(
        algorithm=config.train.algorithm,
        spec=spec,
        times=arr[:, col["t"]],
        eta=arr[:, col["eta_t"]],
        ln_train=ln_train,
        ln_test=arr[:, col["Ln_test"]],
        normsq=normsq,
        c_y=ds.c_y,
        loss_power=config.train.loss_power,
        n_train=ds.n,
        diverged_at=diverged_at,
    )
    return traj, {name: arr[:, col[name]] for name in ("psi", "CL", "bound_prefix")}


def _dump_json(payload: dict, path: str) -> None:
    with open(path, "w") as fh:
        json.dump(payload, fh, indent=2, sort_keys=True)
        fh.write("\n")


def _assemble(config: Config, traj: Trajectory, cl_seed_mean=None):
    """`assemble_bound`'s (report, series) under the config's bound section."""
    return bnd.assemble_bound(traj, config.train.lam, config.delta, config.rho, cl_seed_mean)


def cmd_train(args) -> int:
    config = load_config(args.config)
    seeds = config.seeds if args.seed is None else (args.seed,)
    out_dir = args.out or config.output_dir
    results = list(_run_all(config.doc, [{}], seeds, out_dir))
    primary = results[0]
    cl_seed_mean = None
    if len(results) > 1:
        cl_seed_mean = float(np.mean([res.trajectory.cl[-1] for res in results]))
    assembled = [
        _assemble(config, res.trajectory, cl_seed_mean if i == 0 else None)
        for i, res in enumerate(results)
    ]
    report, series = assembled[0]
    diverged = [res.trajectory.diverged_at is not None for res in results]
    for i, (res, (_, res_series)) in enumerate(zip(results, assembled)):
        name = "trajectory.csv" if i == 0 else f"trajectory_seed{res.trajectory.seed}.csv"
        write_trajectory_csv(res.trajectory, res_series, os.path.join(out_dir, name))
    payload = report.to_dict()
    payload.update(
        {
            "seeds": list(seeds),
            "eta_resolved": [res.eta for res in results],
            "final_ln_train": float(primary.trajectory.ln_train[-1]),
            "final_ln_test": (
                float(primary.trajectory.ln_test[-1])
                if primary.trajectory.has_test
                else None
            ),
            "max_abs_f": primary.trajectory.max_abs_f,
            "diverged": diverged,
        }
    )
    _dump_json(payload, os.path.join(out_dir, "report.json"))
    if config.svg:
        traj = primary.trajectory
        chart = svgchart.line_chart(
            [
                ("train loss", traj.times, traj.ln_train),
                ("test loss", traj.times, traj.ln_test),
                ("bound", traj.times, series),
            ],
            "loss and bound along training",
        )
        with open(os.path.join(out_dir, "chart.svg"), "w") as fh:
            fh.write(chart)
    if any(diverged):
        print("training diverged; partial trajectory written", file=sys.stderr)
        return 1
    print(f"bound {report.bound:.6g} (CL {report.cl:.6g}) -> {out_dir}")
    return 0


def cmd_bound(args) -> int:
    config = load_config(args.config)
    _check_run(config)
    traj, logged = read_trajectory_csv(args.trajectory, config)
    report, series = _assemble(config, traj)
    for name, what, want, depends in (
        ("psi", "psi", traj.psi, "Ln_train, c_y (data section) and loss_power"),
        ("CL", "CL", traj.cl, "psi, eta and the algorithm"),
        ("bound_prefix", "bound", series, "n, lam, delta, rho, the algorithm and the network"),
    ):
        csv_col = logged[name]
        same = (want == csv_col) | (np.isnan(want) & np.isnan(csv_col))
        if not same.all():
            row = int(np.argmin(same))
            raise ValueError(
                f"{args.trajectory}: column {name} differs from the config's {what} at data row "
                f"{row}: CSV {_fmt(csv_col[row])}, config {_fmt(want[row])}; it depends on {depends}"
            )
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
    config = load_config(args.config)
    if config.betas is None:
        raise ConfigError("missing required section 'compare'")
    # one SGLD run per beta, then a GD reference, whose information bound is infinite
    jobs = [("SGLD", beta) for beta in config.betas] + [("GD", math.inf)]
    edits = [{"train": {"algorithm": algorithm, "beta": beta}} for algorithm, beta in jobs]
    out_dir = args.out or config.output_dir
    results = _run_all(config.doc, edits, config.seeds[:1], out_dir)
    rows, diverged = [], False
    for (algorithm, beta), res in zip(jobs, results):
        traj = res.trajectory
        diverged = diverged or traj.diverged_at is not None
        report, _ = _assemble(config, traj)
        eta_sum = float(np.sum(traj.eta[:-1]))
        info = bnd.sgld_bound(config.loss_bound, config.lip, beta, traj.n_train, eta_sum)
        diverged_at = "" if traj.diverged_at is None else str(traj.diverged_at)
        cells = [_fmt(beta), _fmt(report.cl), _fmt(report.bound), _fmt(info), diverged_at]
        rows.append(",".join([algorithm] + cells) + "\n")
    path = os.path.join(out_dir, "compare.csv")
    with open(path, "w", newline="") as fh:
        fh.write("algorithm,beta,cl,bound_cl,bound_info,diverged_at\n")
        fh.writelines(rows)
    print(f"compare table -> {path}")
    if diverged:
        print("at least one compare run diverged", file=sys.stderr)
        return 1
    return 0


def _sweep_edit(spec: NetworkSpec, axis: str, value) -> dict:
    """The edit of the config document that makes the run of one sweep value."""
    if axis == "lr":
        return {"train": {"eta": value}}
    if axis == "noise":
        return {"data": {"noise_fraction": value}}
    if not _is_int(value) or value < 2:
        raise ConfigError("width values must be integers >= 2", ("sweep", "values"), json.dumps(value))
    if spec.conv_kernels:
        raise ConfigError("the width axis applies to fully-connected networks")
    # keep the readout scale m^p fixed across widths
    norm_exponent = spec.norm_exponent * math.log(spec.output_width) / math.log(value)
    widths = [value] * len(spec.fc_widths)
    return {"network": {"fc_widths": widths, "output_width": value, "norm_exponent": norm_exponent}}


def cmd_sweep(args) -> int:
    config = load_config(args.config)
    axis = args.axis or config.sweep_axis
    if not axis:
        raise ConfigError("no sweep axis given (--axis or config sweep.axis)")
    if config.sweep_values is None:
        raise ConfigError("missing required section 'sweep'")
    names = [f"{axis}_{value}" for value in config.sweep_values]
    repeated = [name for i, name in enumerate(names) if name in names[:i]]
    if repeated:
        raise ConfigError(f"two values write {repeated[0]}/", ("sweep", "values"))
    edits = [_sweep_edit(config.spec, axis, value) for value in config.sweep_values]
    out_dir = args.out or config.output_dir
    # value-major, so each value's directory is written before the next value's runs start
    results = _run_all(config.doc, edits, config.seeds, out_dir)
    rows, diverged = [], False
    for name, value in zip(names, config.sweep_values):
        value_results = [next(results) for _ in config.seeds]
        assembled = [_assemble(config, res.trajectory) for res in value_results]
        report, series = assembled[0]
        sub = os.path.join(out_dir, name)
        os.makedirs(sub, exist_ok=True)
        write_trajectory_csv(value_results[0].trajectory, series, os.path.join(sub, "trajectory.csv"))
        _dump_json(report.to_dict(), os.path.join(sub, "report.json"))
        cl_mean = float(np.mean([r.cl for r, _ in assembled]))
        bound_mean = float(np.mean([r.bound for r, _ in assembled]))
        cells = [_fmt(report.cl), _fmt(report.bound), _fmt(cl_mean), _fmt(bound_mean)]
        rows.append(",".join([axis, str(value)] + cells) + "\n")
        diverged = diverged or any(res.trajectory.diverged_at is not None for res in value_results)
        del value_results, assembled, series  # the next value's runs need not hold these
    path = os.path.join(out_dir, "sweep.csv")
    with open(path, "w", newline="") as fh:
        fh.write("axis,value,cl,bound,cl_seed_mean,bound_seed_mean\n")
        fh.writelines(rows)
    if diverged:
        print("at least one sweep run diverged", file=sys.stderr)
        return 1
    print(f"sweep table -> {path}")
    return 0


def cmd_gen_data(args) -> int:
    if args.kind == "regression":
        data.save_csv(data.synth_regression(args.n, args.seed), args.out)
    elif args.kind == "classification":
        data.save_csv(data.synth_classification(args.n, args.seed), args.out)
    else:  # idx-fixture, the last of the parser's choices
        rng = np.random.default_rng(args.seed)
        images = rng.integers(0, 256, size=(args.n, 4, 4), dtype=np.uint8, endpoint=False)
        labels = rng.integers(0, 2, size=args.n, dtype=np.uint8)
        data.write_idx(images, labels, args.out + "-images.idx", args.out + "-labels.idx")
        print(f"wrote {args.out}-images.idx and {args.out}-labels.idx")
        return 0
    print(f"wrote {args.out}")
    return 0


def _int_option(low: int, text: str) -> int:
    """argparse type, bound to its `low`, of an integer option, so a bad value exits 2 naming the option."""
    try:
        value = int(text)
    except ValueError:
        value = low - 1
    if value < low:
        raise argparse.ArgumentTypeError(f"expected an integer >= {low}, got {text!r}")
    return value


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="genbound",
        description="train homogeneous ReLU networks and track cumulative-loss bounds",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="run one training and emit trajectory + bound")
    p_train.add_argument("--config", required=True)
    p_train.add_argument("--seed", type=partial(_int_option, 0), default=None)
    p_train.add_argument("--out", default=None)
    p_train.set_defaults(fn=cmd_train)

    p_verify = sub.add_parser("verify", help="run the numerical check suites")
    p_verify.add_argument("--suite", action="append", choices=list(checks.SUITE_NAMES))
    p_verify.add_argument("--seed", type=partial(_int_option, 0), default=0)
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
    p_gen.add_argument("--n", type=partial(_int_option, 1), default=256)
    p_gen.add_argument("--seed", type=partial(_int_option, 0), default=0)
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
