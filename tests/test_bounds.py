"""Potential function, the trajectory's cumulative loss, and bound assembly."""

import dataclasses
import math

import numpy as np
import pytest

from genbound.bounds import (
    LAMBDA_MAX,
    _norm_ball_complexity,
    assemble_bound,
    bound_series,
    psi,
    rademacher_constant,
    sgld_bound,
)
from genbound.data import synth_regression
from genbound.network import NetworkSpec, Parameters
from genbound.training import TrainConfig, Trajectory, train

from oracles import cl_resum, cl_trapezoid, power_integrand_reference, psi_reference


def _hand_trajectory(algorithm, eta, ln, c_y=1.0, times=None):
    spec = NetworkSpec(input_dim=1, conv_kernels=(), fc_widths=(1,), output_width=1, norm_exponent=0.0)
    params = Parameters(spec, [np.array([[1.0]]), np.array([1.0])])
    eta = np.asarray(eta, dtype=float)
    ln = np.asarray(ln, dtype=float)
    k = eta.shape[0]
    return Trajectory(
        algorithm=algorithm,
        spec=spec,
        seed=0,
        times=np.arange(k, dtype=float) if times is None else np.asarray(times, dtype=float),
        eta=eta,
        ln_train=ln,
        ln_test=np.full(k, np.nan),
        normsq=np.tile(np.array([1.0, 1.0]), (k, 1)),
        gradsq=np.zeros((k - 1, 2)),
        c_y=c_y,
        loss_power=2,
        n_train=16,
        max_abs_f=1.0,
        final_params=params,
    )


def test_psi_values():
    assert psi(0.0, 0.5) == 0.0
    # peak value c_y^2/4, attained at ln = c_y^2/8
    for c in (0.25, 0.5, 1.0):
        np.testing.assert_allclose(psi(c * c / 8.0, c), c * c / 4.0, atol=1e-15)
    # sign change at ln = c_y^2/2
    assert psi(0.5 * 0.25, 0.5) == pytest.approx(0.0, abs=1e-15)
    assert psi(0.2, 0.5) < 0.0
    grid = np.linspace(0.0, 1.0, 5000)
    vals = psi(grid, 0.5)
    assert float(np.max(vals)) <= 0.5**2 / 4.0 + 1e-15
    for ln in (0.0, 0.01, 0.3):
        np.testing.assert_allclose(psi(ln, 0.7), psi_reference(ln, 0.7), atol=1e-15)


def test_psi_validation():
    with pytest.raises(ValueError):
        psi(-0.1, 0.5)
    with pytest.raises(ValueError):
        psi(0.1, 0.0)
    with pytest.raises(ValueError):
        psi(0.1, 1.5)


@pytest.mark.parametrize("loss_power", [2, 3, 4, 5, 6])
def test_psi_of_float_equals_array_path(loss_power):
    # a Python float takes math.sqrt and float **; a 0-d array takes numpy
    rng = np.random.default_rng(loss_power)
    losses = [*rng.exponential(0.2, 2000), *(10.0 ** rng.uniform(-30, 30, 200)), 0.0, math.inf]
    for ln in map(float, losses):
        got = psi(ln, 0.6, loss_power)
        assert type(got) is float
        want = psi(np.array(ln), 0.6, loss_power)
        assert got == want and math.copysign(1.0, got) == math.copysign(1.0, want), ln
    assert psi(math.inf, 0.6, loss_power) == -math.inf
    assert math.isnan(psi(math.nan, 0.6, loss_power))
    assert math.isnan(psi(np.array(math.nan), 0.6, loss_power))
    for bad in (-1e-300, np.array(-1e-300)):
        with pytest.raises(ValueError, match="nonnegative"):
            psi(bad, 0.6, loss_power)


def test_power_integrand_reduces_to_psi():
    grid = np.linspace(0.0, 0.6, 400)
    np.testing.assert_allclose(
        psi(grid, 0.5, 2), [power_integrand_reference(x, 0.5, 2) for x in grid], atol=1e-14
    )
    # power 2 keeps the square-root formula, so the bytes of a scalar do not change
    for ln in (0.0, 0.01, 0.125, 0.3):
        assert psi(ln, 0.7, 2) == psi(ln, 0.7) == psi_reference(ln, 0.7)


def test_power_integrand_quartic():
    for ln in (0.005, 0.02, 0.1):
        np.testing.assert_allclose(
            psi(ln, 0.5, loss_power=4), power_integrand_reference(ln, 0.5, 4), atol=1e-15
        )
    for bad in (1, 2.5):
        with pytest.raises(ValueError):
            psi(0.1, 0.5, loss_power=bad)


def test_cl_discrete_hand_example():
    # one transition at eta=0.1 with psi=1/4 (ln = c_y^2/8, c_y=1): CL = 0.05
    traj = _hand_trajectory("GD", [0.1, 0.05], [0.125, 0.125])
    np.testing.assert_allclose(traj.cl, [0.0, 0.05], atol=1e-15)
    np.testing.assert_array_equal(traj.cl, cl_resum(traj.eta, psi(traj.ln_train, 1.0)))
    # the bound reads the trajectory's cl column
    assert assemble_bound(traj, lam=0.5)[0].cl == float(traj.cl[-1])


_SMALL_SPEC = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)


def test_cl_discrete_matches_logged_column():
    ds = synth_regression(64, seed=0)
    for config in (
        TrainConfig(algorithm="GD", eta=0.1, total_steps=50, seed=1),
        TrainConfig(algorithm="SGD", eta=0.1, batch=8, total_steps=50, seed=1),
        TrainConfig(algorithm="SGLD", eta=0.1, beta=100.0, total_steps=50, seed=1),
        TrainConfig(algorithm="GD", eta=0.1, total_steps=30, seed=0, loss_power=4),
    ):
        traj = train(_SMALL_SPEC, ds, config)
        assert traj.cl[0] == 0.0
        np.testing.assert_array_equal(traj.cl, cl_resum(traj.eta, traj.psi))
        assert assemble_bound(traj, lam=0.5, rho=1.0)[0].cl == float(traj.cl[-1])


def test_cl_discrete_rejects_gf():
    # gradient flow integrates 2 psi dt by the trapezoid, not the left sum
    ds = synth_regression(32, seed=3)
    config = TrainConfig(algorithm="GF", eta=0.1, duration=0.2, gf_substep=0.01, seed=0)
    traj = train(_SMALL_SPEC, ds, config)
    assert not np.allclose(traj.cl[1:], cl_resum(traj.eta, traj.psi)[1:], rtol=1e-12, atol=0.0)
    # trapezoid of the constant 2*psi=0.5 over dt=0.01
    np.testing.assert_allclose(cl_trapezoid([0.0, 0.01], [0.25, 0.25]), [0.0, 0.005], atol=1e-15)


def test_cl_continuous_trapezoid():
    # the oracle on three substeps at times 0, 0.5, 1.0 (c_y=1), decreasing loss
    p = psi(np.array([0.125, 0.0512, 0.0162]), 1.0)
    want1 = 0.5 * (2 * p[0] + 2 * p[1]) / 2
    want2 = want1 + 0.5 * (2 * p[1] + 2 * p[2]) / 2
    np.testing.assert_allclose(cl_trapezoid([0.0, 0.5, 1.0], p), [0.0, want1, want2], atol=1e-15)
    ds = synth_regression(32, seed=3)
    for loss_power in (2, 4):
        config = TrainConfig(
            algorithm="GF", eta=0.1, duration=0.2, gf_substep=0.01, seed=0, loss_power=loss_power
        )
        traj = train(_SMALL_SPEC, ds, config)
        np.testing.assert_array_equal(traj.cl, cl_trapezoid(traj.times, traj.psi))
        assert assemble_bound(traj, lam=0.5)[0].cl == float(traj.cl[-1])


def test_rademacher_constants():
    np.testing.assert_allclose(rademacher_constant(1, 3, "FNN"), 2.665109222315396, rtol=1e-12)
    # deeper nets grow like sqrt(2(L+1)log 2)
    np.testing.assert_allclose(
        rademacher_constant(3, 3, "FNN"), math.sqrt(8.0 * math.log(2.0)) + 1.0, rtol=1e-12
    )
    np.testing.assert_allclose(
        rademacher_constant(1, 4, "CNN"),
        2.0 * math.sqrt((3.0 + math.log(4.0)) * 4.0),
        rtol=1e-12,
    )
    with pytest.raises(ValueError):
        rademacher_constant(0, 3, "FNN")
    with pytest.raises(ValueError):
        rademacher_constant(1, 3, "RNN")


def test_assemble_bound_sample_size_scaling():
    traj = _hand_trajectory("GD", [0.1] * 11, [0.125] * 11)
    r1, _ = assemble_bound(dataclasses.replace(traj, n_train=100), lam=0.5)
    r4, _ = assemble_bound(dataclasses.replace(traj, n_train=400), lam=0.5)
    assert r1.complexity == pytest.approx(2.0 * r4.complexity, rel=1e-12)
    assert r1.confidence == pytest.approx(2.0 * r4.confidence, rel=1e-12)
    assert r1.bound > r4.bound


def test_assemble_bound_structure():
    traj = _hand_trajectory("GD", [0.1] * 3, [0.125] * 3)
    rep, _ = assemble_bound(traj, lam=0.5, delta=0.05)
    assert rep.theorem == "GD" and rep.algorithm == "GD"
    assert rep.hidden_constant == 1.0
    assert rep.n == traj.n_train
    # v = (1+3 lam^2) * init_sq_norms
    np.testing.assert_allclose(rep.v, 1.75 * np.array([1.0, 1.0]), atol=1e-15)
    want_complexity = (
        rademacher_constant(1, 1, "FNN") / math.sqrt(16) * math.sqrt(1.75 + rep.cl) ** 2
    )
    np.testing.assert_allclose(rep.complexity, want_complexity, rtol=1e-12)
    np.testing.assert_allclose(rep.confidence, math.sqrt(math.log(20.0) / 16), rtol=1e-12)
    assert rep.bound == pytest.approx(rep.complexity + rep.confidence)


def test_assemble_bound_negative_cl_clamped():
    # losses above c_y^2/2 make psi negative and CL < 0
    traj = _hand_trajectory("GD", [0.1] * 4, [0.9] * 4)
    rep, _ = assemble_bound(traj, lam=0.5)
    assert rep.cl < 0.0
    assert rep.cl_clamped
    # a loss of c_y^2/2 gives psi = 0 exactly, so CL = 0
    zero, _ = assemble_bound(dataclasses.replace(traj, ln_train=np.full(4, 0.5)), lam=0.5)
    assert zero.cl == 0.0
    assert rep.complexity == pytest.approx(zero.complexity, rel=1e-12)


def test_assemble_bound_sgd_rho():
    traj = _hand_trajectory("SGD", [0.1] * 5, [0.125] * 5)
    with pytest.raises(ValueError):
        assemble_bound(traj, lam=0.5)
    rep, _ = assemble_bound(traj, lam=0.5, rho=1.0)
    assert rep.theorem == "SGD" and rep.rho == 1.0
    # rho -> 0 recovers the full-batch assembly
    tiny, _ = assemble_bound(traj, lam=0.5, rho=1e-12)
    full, _ = assemble_bound(dataclasses.replace(traj, algorithm="GD"), lam=0.5)
    assert tiny.complexity == pytest.approx(full.complexity, rel=1e-9)
    # the (1+rho) factor multiplies every layer's summand
    assert rep.complexity == pytest.approx(2.0 * full.complexity, rel=1e-12)


def test_assemble_bound_sgld_runs_under_gd():
    traj = _hand_trajectory("SGLD", [0.1] * 5, [0.125] * 5)
    rep, _ = assemble_bound(traj, lam=0.5)
    assert rep.theorem == "GD" and rep.algorithm == "SGLD"


def test_assemble_bound_seed_mean():
    traj = _hand_trajectory("GD", [0.1] * 5, [0.125] * 5)
    rep, _ = assemble_bound(traj, lam=0.5, cl_seed_mean=0.0)
    assert rep.bound_seed_mean is not None
    assert rep.bound_seed_mean < rep.bound
    base, _ = assemble_bound(traj, lam=0.5)
    assert base.bound_seed_mean is None


def test_assemble_bound_validation():
    traj = _hand_trajectory("GD", [0.1] * 5, [0.125] * 5)
    for kwargs, message in (
        ({"lam": 0.0}, "lam must lie in"),
        ({"lam": 1.0}, "lam must lie in"),
        ({"lam": LAMBDA_MAX}, "lam must lie in"),
        ({"lam": 0.5, "delta": 1.5}, "delta must lie in"),
        ({"lam": 0.5, "delta": 0.0}, "delta must lie in"),
    ):
        with pytest.raises(ValueError, match=message):
            assemble_bound(traj, **kwargs)
    with pytest.raises(ValueError):
        assemble_bound(dataclasses.replace(traj, algorithm="ADAM"), lam=0.5)


@pytest.mark.parametrize(
    "kwargs, message",
    [
        ({"lam": 0.0}, "lam must lie in"),
        ({"lam": 1.0}, "lam must lie in"),
        ({"lam": 0.5, "delta": 1.5}, "delta must lie in"),
        ({"lam": 0.5, "delta": 0.0}, "delta must lie in"),
    ],
)
def test_bound_series_checks_ranges_as_assemble_bound(kwargs, message):
    traj = _hand_trajectory("GD", [0.1] * 5, [0.125] * 5)
    with pytest.raises(ValueError, match=message):
        assemble_bound(traj, **kwargs)
    with pytest.raises(ValueError, match=message):
        bound_series(traj, **kwargs)


def test_bound_series_prefix_consistency():
    ds = synth_regression(64, seed=1)
    for config, rho, factor in (
        (TrainConfig(algorithm="GD", eta=0.1, total_steps=40, seed=0), None, 1.0),
        (TrainConfig(algorithm="SGD", eta=0.1, batch=8, total_steps=40, seed=0), 1.0, 2.0),
        (TrainConfig(algorithm="GF", duration=0.2, gf_substep=0.01, seed=0), None, 1.0),
        (TrainConfig(algorithm="SGLD", eta=0.1, beta=100.0, total_steps=40, seed=0), None, 1.0),
    ):
        traj = train(_SMALL_SPEC, ds, config)
        rep, series = assemble_bound(traj, lam=0.5, delta=0.05, rho=rho)
        assert series.shape == traj.steps.shape
        np.testing.assert_array_equal(bound_series(traj, lam=0.5, delta=0.05, rho=rho), series)
        # the report is the series' last entry, bit for bit
        assert rep.bound == series[-1]
        radii = np.sqrt(factor * (np.array(rep.v) + np.maximum(traj.cl, 0.0)[:, None]))
        complexities = _norm_ball_complexity(traj.spec, radii, traj.n_train)
        assert rep.complexity == complexities[-1]
        np.testing.assert_array_equal(series, complexities + rep.confidence)
        # a loss of c_y^2/2 gives psi = 0 exactly, so CL = 0 at the last row as at the first
        zero_loss = np.full_like(traj.ln_train, traj.c_y * traj.c_y / 2.0)
        first, _ = assemble_bound(
            dataclasses.replace(traj, ln_train=zero_loss), lam=0.5, delta=0.05, rho=rho
        )
        assert first.cl == 0.0
        assert series[0] == pytest.approx(first.bound, rel=1e-12)
        # positive psi makes the prefix bound nondecreasing
        if np.all(traj.psi >= 0):
            assert np.all(np.diff(series) >= -1e-15)


def test_sgld_bound_values():
    assert sgld_bound(1.0, 1.0, 8.0, 1, eta_sum=1.0) == pytest.approx(1.0)
    assert sgld_bound(1.0, 1.0, math.inf, 4, eta_sum=3.0) == math.inf
    # quadruple n -> halve the bound
    a = sgld_bound(2.0, 0.5, 10.0, 4, eta_sum=2.0)
    b = sgld_bound(2.0, 0.5, 10.0, 16, eta_sum=2.0)
    assert a == pytest.approx(2.0 * b, rel=1e-12)


def test_sgld_bound_validation():
    with pytest.raises(TypeError):
        sgld_bound(1.0, 1.0, 8.0, 1)
    with pytest.raises(ValueError):
        sgld_bound(-1.0, 1.0, 8.0, 1, eta_sum=1.0)
    with pytest.raises(ValueError):
        sgld_bound(1.0, 1.0, -2.0, 1, eta_sum=1.0)
    with pytest.raises(ValueError, match="n must be positive"):
        sgld_bound(1.0, 1.0, 8.0, 0, eta_sum=1.0)
    with pytest.raises(ValueError, match="eta_sum"):
        sgld_bound(1.0, 1.0, 8.0, 1, eta_sum=-1.0)
