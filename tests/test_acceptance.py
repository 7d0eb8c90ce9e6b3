"""Acceptance gate: one test per shipped guarantee, one printed line each.

Run with `pytest tests/test_acceptance.py -v -s` to see the PASS/FAIL line
and the measured margin for every criterion.
"""

import json
import math
import time

import numpy as np
import pytest

from genbound.bounds import (
    assemble_bound,
    bound_series,
    psi,
    sgld_bound,
)
from genbound.checks import (
    aligned_rank_one_witness,
    check_homogeneity,
    check_norm_dynamics,
    check_value_grad_bounds,
    exhaustive_rademacher_tiny,
    init_concentration_test,
    mc_rademacher_lower,
    random_ball_points,
    random_cnn_spec,
    random_fnn_spec,
    _rel,
    _rng,
)
from genbound.data import synth_classification, synth_regression, inject_label_noise
from genbound.network import NetworkSpec, grad_f, init_gaussian
from genbound.training import TrainConfig, estimate_c_f, max_feasible_eta, train
from genbound import cli

from oracles import finite_diff_grad, sample_kink_free


def _line(num: int, label: str, ok: bool, detail: str, t0: float) -> None:
    status = "PASS" if ok else "FAIL"
    print(f"{status} criterion {num} ({label}): {detail} [{time.monotonic() - t0:.1f}s]")
    assert ok, f"criterion {num}: {detail}"


def test_criterion_01_homogeneity_identities():
    t0 = time.monotonic()
    rng = _rng(101)
    worst = 0.0
    for i in range(40):
        worst = max(worst, check_homogeneity(random_fnn_spec(rng), 25, 200 + i).max_violation)
    for i in range(40):
        worst = max(worst, check_homogeneity(random_cnn_spec(rng), 25, 300 + i).max_violation)
    elapsed = time.monotonic() - t0
    ok = worst < 1e-9 and elapsed < 10.0
    _line(1, "layer homogeneity, 1000 FNN + 1000 CNN", ok,
          f"max rel violation {worst:.3e} < 1e-9, {elapsed:.1f}s < 10s", t0)


def test_criterion_02_backprop_vs_finite_differences():
    t0 = time.monotonic()
    rng = _rng(102)
    worst = 0.0
    done = 0
    while done < 200:
        spec = random_fnn_spec(rng, max_width=8, depth_range=(2, 4)) if done % 2 else random_cnn_spec(rng, max_fc_width=6)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        try:
            x, _ = sample_kink_free(params, rng, margin=1e-3)
        except RuntimeError:
            continue
        grads = grad_f(params, x)
        fd = finite_diff_grad(params, x, h=1e-4)
        for g, g_fd in zip(grads, fd):
            err = float(np.max(np.abs(g - g_fd) / (1.0 + np.abs(g_fd))))
            worst = max(worst, err)
        done += 1
    elapsed = time.monotonic() - t0
    ok = worst < 1e-4 and elapsed < 30.0
    _line(2, "backprop vs central differences", ok,
          f"max rel error {worst:.3e} < 1e-4 over 200 kink-free instances, {elapsed:.1f}s < 30s", t0)


def test_criterion_03_value_and_gradient_bounds():
    t0 = time.monotonic()
    rng = _rng(103)
    worst = -math.inf
    for i in range(20):
        worst = max(worst, check_value_grad_bounds(random_fnn_spec(rng), 25, 400 + i).max_violation)
    for i in range(20):
        worst = max(worst, check_value_grad_bounds(random_cnn_spec(rng), 25, 500 + i).max_violation)
    witness = aligned_rank_one_witness(6, 5, seed=7)
    ok = worst <= 1e-12 and witness.max_violation <= 1e-9
    _line(3, "norm-product ceilings + tight witness", ok,
          f"max slack violation {worst:.3e} <= 1e-12, witness residual {witness.max_violation:.3e} <= 1e-9", t0)


def test_criterion_04_psi_peak():
    t0 = time.monotonic()
    worst_cap = -math.inf
    worst_peak = 0.0
    for c in (0.25, 0.5, 1.0):
        grid = np.linspace(0.0, c * c, 10_000)
        worst_cap = max(worst_cap, float(np.max(psi(grid, c))) - c * c / 4.0)
        worst_peak = max(worst_peak, abs(psi(c * c / 8.0, c) - c * c / 4.0))
    ok = worst_cap <= 1e-15 and worst_peak <= 1e-12
    _line(4, "potential peak c_y^2/4 at c_y^2/8", ok,
          f"cap excess {worst_cap:.2e}, peak residual {worst_peak:.2e} <= 1e-12", t0)


def test_criterion_05_feasible_rate_norm_growth():
    t0 = time.monotonic()
    spec = NetworkSpec(3, (), (256, 256), 256, 0.25)
    ds = synth_regression(2000, seed=0)
    cfg = TrainConfig(algorithm="GD", eta=1.0, alpha=1.0, t0=1, total_steps=1000,
                      seed=0, lam=0.5, epsilon=1.0 / 3.0, kappa=4.0)
    params0 = init_gaussian(spec, cfg.kappa, cfg.seed)
    cfg.eta = max_feasible_eta(params0.norms(), spec, cfg, estimate_c_f(params0, ds.inputs), ds.c_y)
    traj = train(spec, ds, cfg)
    out = check_norm_dynamics(traj, lam=0.5)
    elapsed = time.monotonic() - t0
    ok = out.passed and elapsed < 120.0
    _line(5, "norm growth within budget at the feasible rate", ok,
          f"eta*={cfg.eta:.4f}, worst slack {out.max_violation:.3e} <= 1e-9 over {out.instances} "
          f"step-layer pairs, {elapsed:.1f}s < 120s", t0)


def test_criterion_06_init_concentration():
    t0 = time.monotonic()
    spec = NetworkSpec(1, (), (16, 256), 256, 0.5)  # layer sizes 16, 4096, 256
    outs = init_concentration_test(spec, kappa=1.5, deltas=(0.1, 0.01), draws=10_000, seed=11)
    ok = all(out.passed for out in outs)
    details = [
        f"delta={delta}: excess {out.max_violation:.2e} <= {out.tolerance:.2e}"
        for delta, out in zip((0.1, 0.01), outs)
    ]
    _line(6, "initialization norm concentration", ok, "; ".join(details), t0)


def test_criterion_07_rademacher_monte_carlo():
    t0 = time.monotonic()
    rng = _rng(107)
    specs = [NetworkSpec(4, (), (8,), 8, 0.5), NetworkSpec(4, (1,), (4,), 4, 0.5)]
    worst = -math.inf
    for si, spec in enumerate(specs):
        X = random_ball_points(rng, 8, spec.input_dim)
        for qi in range(10):
            Q = rng.uniform(0.5, 2.0, size=spec.n_layers)
            est, upper = mc_rademacher_lower(spec, Q, X, 200, 200, seed=700 + 10 * si + qi)
            worst = max(worst, _rel(est - upper, upper))
    est, upper = exhaustive_rademacher_tiny(1.3, 0.8)
    worst = max(worst, _rel(est - upper, upper))
    ok = worst <= 1e-12
    _line(7, "sampled complexity below the closed form", ok,
          f"max rel excess {worst:.3e} <= 1e-12 over 20 sampled radii + exhaustive case", t0)


def test_criterion_08_minibatch_bound_covers_gap():
    t0 = time.monotonic()
    spec = NetworkSpec(3, (), (256, 256), 256, 0.25)
    ds = synth_regression(2000, seed=0)
    ds_test = synth_regression(1000, seed=1, split="test")
    with pytest.warns(UserWarning, match="alpha=0.67"):
        cfg = TrainConfig(algorithm="SGD", eta=0.1, alpha=0.67, t0=1, batch=200,
                          total_steps=1000, seed=0, kappa=4.0)
        traj = train(spec, ds, cfg, ds_test)
    series = bound_series(traj, lam=0.5, delta=0.05, rho=1.0)
    gap = np.abs(traj.ln_test - traj.ln_train)
    finite = bool(np.all(np.isfinite(series)))
    covers = bool(np.all(series >= gap))
    inc_first = series[500] - series[0]
    inc_second = series[1000] - series[500]
    slowing = inc_second < inc_first
    elapsed = time.monotonic() - t0
    ok = finite and covers and slowing and elapsed < 300.0
    _line(8, "minibatch bound dominates the generalization gap", ok,
          f"min margin {float(np.min(series - gap)):.3f}, growth {inc_first:.3f} then "
          f"{inc_second:.3f}, {elapsed:.1f}s < 300s", t0)


def test_criterion_09_label_noise_orders_cumulative_loss():
    t0 = time.monotonic()
    spec = NetworkSpec(3, (), (64,), 64, 0.25)
    clean = synth_classification(512, seed=100, c_y=0.25)
    means = []
    for noise in (0.0, 0.5, 1.0):
        ds = inject_label_noise(clean, noise, seed=200) if noise > 0 else clean
        cls = []
        for seed in (0, 1, 2):
            cfg = TrainConfig(algorithm="SGD", eta=1.0, alpha=0.8, t0=2000, batch=64,
                              total_steps=2000, seed=seed)
            cls.append(float(train(spec, ds, cfg).cl[-1]))
        means.append(float(np.mean(cls)))
    ok = means[0] < means[1] < means[2]
    _line(9, "cumulative loss increases with label noise", ok,
          f"3-seed means {means[0]:.3f} < {means[1]:.3f} < {means[2]:.3f}", t0)


def test_criterion_10_noise_comparison_table():
    t0 = time.monotonic()
    spec = NetworkSpec(3, (), (16,), 16, 0.5)
    ds = synth_regression(128, seed=0)
    betas = (10.0, 100.0, 1000.0, 10_000.0)
    info_values, cl_bounds = [], []
    for beta in betas:
        cfg = TrainConfig(algorithm="SGLD", eta=0.05, alpha=1.0, t0=50,
                          total_steps=300, seed=0, beta=beta)
        traj = train(spec, ds, cfg)
        rep, _ = assemble_bound(traj, lam=0.5)
        eta_sum = float(np.sum(traj.eta[:-1]))
        info_values.append(sgld_bound(0.25, 1.0, beta, ds.n, eta_sum=eta_sum))
        cl_bounds.append(rep.bound)
    gd_traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.05, alpha=1.0, t0=50,
                                          total_steps=300, seed=0))
    gd_rep, _ = assemble_bound(gd_traj, lam=0.5)
    gd_info = sgld_bound(0.25, 1.0, math.inf, ds.n, eta_sum=float(np.sum(gd_traj.eta[:-1])))
    increasing = all(a < b for a, b in zip(info_values, info_values[1:]))
    finite_cl = all(map(math.isfinite, cl_bounds + [gd_rep.bound]))
    ok = increasing and gd_info == math.inf and finite_cl
    _line(10, "information bound grows with beta, trajectory bound stays finite", ok,
          f"info {', '.join(f'{v:.3f}' for v in info_values)}, GD info inf, "
          f"trajectory bounds all finite", t0)


def test_criterion_11_width_lr_grid_feasible_and_stable():
    t0 = time.monotonic()
    ds = synth_regression(512, seed=0)
    bounds = []
    all_feasible = True
    for width in (64, 256, 1024):
        p = math.log(4.0) / math.log(width)
        spec = NetworkSpec(3, (), (width,), width, p)
        params0 = init_gaussian(spec, 4.0, seed=0)
        c_f = estimate_c_f(params0, ds.inputs)
        for eta in (0.05, 0.1, 0.2):
            cfg = TrainConfig(algorithm="GD", eta=eta, alpha=0.8, t0=1,
                              total_steps=300, seed=0, kappa=4.0)
            eta_star = max_feasible_eta(params0.norms(), spec, cfg, c_f, ds.c_y)
            all_feasible = all_feasible and eta <= eta_star
            traj = train(spec, ds, cfg)
            bounds.append(assemble_bound(traj, lam=0.5)[0].bound)
    spread = max(bounds) / min(bounds)
    ok = all_feasible and spread < 3.0
    _line(11, "width/lr grid all feasible with stable bounds", ok,
          f"all 9 rates below their ceilings, bound spread {spread:.3f}x < 3x", t0)


def _run_cli_twice(args_fn, tmp_path, names):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(args_fn(str(out_a))) == 0
    assert cli.main(args_fn(str(out_b))) == 0
    for name in names:
        with open(out_a / name, "rb") as fh:
            blob_a = fh.read()
        with open(out_b / name, "rb") as fh:
            blob_b = fh.read()
        if blob_a != blob_b:
            return False
    return True


def test_criterion_12_cli_determinism(tmp_path):
    t0 = time.monotonic()
    base = {
        "network": {"input_dim": 3, "fc_widths": [8], "output_width": 8, "norm_exponent": 0.5},
        "train": {"algorithm": "GD", "eta": 0.05, "total_steps": 20},
        "data": {"source": "synthetic", "kind": "regression", "n_train": 48, "seed": 0},
        "bound": {"lam": 0.5, "delta": 0.05},
        "seeds": [0, 1],
    }
    cfg_train = tmp_path / "train.json"
    cfg_train.write_text(json.dumps(base))
    doc = dict(base)
    doc["train"] = {"algorithm": "SGLD", "eta": 0.05, "total_steps": 20, "beta": 100.0}
    doc["compare"] = {"betas": [10, 100], "loss_bound": 0.25, "lip": 1.0}
    doc["seeds"] = [0]
    cfg_cmp = tmp_path / "cmp.json"
    cfg_cmp.write_text(json.dumps(doc))
    doc2 = dict(base)
    doc2["sweep"] = {"axis": "lr", "values": [0.02, 0.05]}
    doc2["seeds"] = [0]
    cfg_sweep = tmp_path / "sweep.json"
    cfg_sweep.write_text(json.dumps(doc2))

    checks = {
        "train": _run_cli_twice(
            lambda out: ["train", "--config", str(cfg_train), "--out", out],
            tmp_path / "t", ("trajectory.csv", "trajectory_seed1.csv", "report.json"),
        ),
        "verify": None,
        "compare": _run_cli_twice(
            lambda out: ["compare", "--config", str(cfg_cmp), "--out", out],
            tmp_path / "c", ("compare.csv",),
        ),
        "sweep": _run_cli_twice(
            lambda out: ["sweep", "--config", str(cfg_sweep), "--out", out],
            tmp_path / "s", ("sweep.csv", "lr_0.02/report.json", "lr_0.05/report.json"),
        ),
        "gen-data": None,
    }
    va, vb = tmp_path / "va.json", tmp_path / "vb.json"
    assert cli.main(["verify", "--suite", "loss-decomposition", "--out", str(va)]) == 0
    assert cli.main(["verify", "--suite", "loss-decomposition", "--out", str(vb)]) == 0
    checks["verify"] = va.read_bytes() == vb.read_bytes()
    ga, gb = tmp_path / "ga.csv", tmp_path / "gb.csv"
    assert cli.main(["gen-data", "--kind", "classification", "--n", "40", "--seed", "2", "--out", str(ga)]) == 0
    assert cli.main(["gen-data", "--kind", "classification", "--n", "40", "--seed", "2", "--out", str(gb)]) == 0
    checks["gen-data"] = ga.read_bytes() == gb.read_bytes()

    bad = [k for k, v in checks.items() if not v]
    ok = not bad
    _line(12, "byte-identical reruns across all subcommands", ok,
          "train, verify, compare, sweep, gen-data all byte-stable" if ok
          else f"unstable: {', '.join(bad)}", t0)
