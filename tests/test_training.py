"""Optimizers: schedules, hand-checked steps, flow accuracy, reproducibility."""

import math

import numpy as np
import pytest

from genbound import training
from genbound.bounds import psi
from genbound.data import Dataset, synth_regression
from genbound.network import NetworkSpec, Parameters, init_gaussian, loss_and_grad
from genbound.training import (
    DivergenceError,
    TrainConfig,
    _minibatches,
    _update,
    estimate_c_f,
    lr_schedule,
    max_feasible_eta,
    train,
)

from oracles import cl_resum, gf_closed_form_loss, sgd_per_step


def _width_one_net():
    spec = NetworkSpec(input_dim=1, conv_kernels=(), fc_widths=(1,), output_width=1, norm_exponent=0.0)
    params = Parameters(spec, [np.array([[1.0]]), np.array([1.0])])
    ds = Dataset(np.array([[1.0]]), np.array([0.0]), c_y=0.5)
    return spec, params, ds


def test_lr_schedule_values():
    assert lr_schedule(0, 0.1, 1.0, 1) == pytest.approx(0.1)
    assert lr_schedule(5, 0.1, 0.8, 2) == pytest.approx(0.1 / 3.0**0.8)
    # flat within each window of length t0
    assert lr_schedule(0, 0.2, 0.9, 10) == lr_schedule(9, 0.2, 0.9, 10)
    assert lr_schedule(10, 0.2, 0.9, 10) == pytest.approx(0.2 / 2.0**0.9)
    with pytest.raises(ValueError):
        lr_schedule(-1, 0.1, 1.0, 1)


def test_gd_step_by_hand():
    # w = a = 1, x = 1, y = 0: f = 1, dL/dw = dL/da = 1, so one step at
    # eta = 0.1 lands both weights at 0.9
    _, params, ds = _width_one_net()
    cfg = TrainConfig(algorithm="GD", eta=0.1, alpha=1.0, t0=1)

    def step(p, t):
        _, grads = loss_and_grad(p, ds.inputs, ds.targets)
        eta_t = lr_schedule(t, cfg.eta, cfg.alpha, cfg.t0)
        return _update(p, grads, eta_t, cfg, None)[0]

    moved = step(params, 0)
    np.testing.assert_allclose(moved.layers[0], [[0.9]], atol=1e-15)
    np.testing.assert_allclose(moved.layers[1], [0.9], atol=1e-15)
    # second step uses eta_1 = eta/2 and the new gradient 0.9^3
    moved2 = step(moved, 1)
    np.testing.assert_allclose(moved2.layers[1], [0.9 - 0.05 * 0.9**3], atol=1e-15)


def test_gf_matches_closed_form():
    # seed 0 draws w > 0 > a; the flow keeps w^2 - a^2 fixed, which with the
    # initial loss determines the whole loss curve
    spec, _, ds = _width_one_net()
    cfg = TrainConfig(algorithm="GF", duration=1.0, gf_substep=1e-3, seed=0, kappa=6.0)
    traj = train(spec, ds, cfg)
    w0sq, a0sq = traj.normsq[0]
    want = gf_closed_form_loss(traj.times, traj.ln_train[0], w0sq - a0sq)
    assert traj.ln_train[-1] < 0.25 * traj.ln_train[0]
    np.testing.assert_allclose(traj.ln_train, want, rtol=2e-3)
    np.testing.assert_allclose(traj.normsq[:, 0] - traj.normsq[:, 1], w0sq - a0sq, rtol=2e-3)


def test_gf_substep_count_and_times():
    spec, _, ds = _width_one_net()
    traj = train(spec, ds, TrainConfig(algorithm="GF", eta=0.1, duration=0.05, gf_substep=0.01))
    assert traj.steps.shape == (6,)
    assert traj.gradsq.shape == (5, 2)
    np.testing.assert_allclose(traj.times, np.arange(6) * 0.01, atol=1e-15)
    np.testing.assert_allclose(traj.eta, np.full(6, 0.01), atol=1e-15)
    # the substep defaults to eta/100, and a duration shorter than half of
    # it still takes one substep
    short = train(spec, ds, TrainConfig(algorithm="GF", eta=0.1, duration=4e-4))
    assert short.steps.shape == (2,)
    np.testing.assert_array_equal(short.eta, [1e-3, 1e-3])


class _AllIndices:
    """Stands in for the SGD sample stream: every index once, in order, in each row."""

    def integers(self, low, high, size):
        return np.broadcast_to(np.arange(low, high), size)


def test_sgd_full_batch_sampler_equals_gd():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)
    ds = synth_regression(32, seed=0)
    params = init_gaussian(spec, 1.0, 4)
    _, grads = loss_and_grad(params, ds.inputs, ds.targets)
    gd, gd_grads = _update(params, grads, 0.05, TrainConfig(algorithm="GD"), None)
    cfg_sgd = TrainConfig(algorithm="SGD", batch=32)
    minibatch = next(_minibatches(ds, cfg_sgd.batch, 1, _AllIndices()))
    sgd, sgd_grads = _update(params, None, 0.05, cfg_sgd, None, minibatch)
    for a, b in zip(gd.layers + gd_grads, sgd.layers + sgd_grads):
        np.testing.assert_array_equal(a, b)
    # on a one-point dataset every draw is the full batch, so the whole
    # SGD run, loss log included, is the GD run
    one = synth_regression(1, seed=0)
    t_gd = train(spec, one, TrainConfig(algorithm="GD", eta=0.05, total_steps=30, seed=4))
    t_sgd = train(spec, one, TrainConfig(algorithm="SGD", eta=0.05, batch=1, total_steps=30, seed=4))
    np.testing.assert_array_equal(t_gd.ln_train, t_sgd.ln_train)
    np.testing.assert_array_equal(t_gd.gradsq, t_sgd.gradsq)
    for a, b in zip(t_gd.final_params.layers, t_sgd.final_params.layers):
        np.testing.assert_array_equal(a, b)


def test_sgld_infinite_beta_equals_gd():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)
    ds = synth_regression(32, seed=0)
    t_gd = train(spec, ds, TrainConfig(algorithm="GD", eta=0.05, total_steps=25, seed=1))
    t_sgld = train(
        spec, ds, TrainConfig(algorithm="SGLD", eta=0.05, beta=math.inf, total_steps=25, seed=1)
    )
    np.testing.assert_array_equal(t_gd.ln_train, t_sgld.ln_train)
    for a, b in zip(t_gd.final_params.layers, t_sgld.final_params.layers):
        np.testing.assert_array_equal(a, b)


def test_sgld_noise_scale():
    # the injected perturbation has per-coordinate variance 2*eta_t/beta
    _, params, ds = _width_one_net()
    beta, eta = 4.0, 0.1
    cfg = TrainConfig(algorithm="SGLD", eta=eta, beta=beta)
    _, grads = loss_and_grad(params, ds.inputs, ds.targets)
    clean, _ = _update(params, grads, eta, TrainConfig(algorithm="GD"), None)
    rng = np.random.default_rng(1000)
    draws = np.array(
        [_update(params, grads, eta, cfg, rng)[0].layers[1][0] for _ in range(4000)]
    ) - clean.layers[1][0]
    want_var = 2.0 * eta / beta
    assert abs(np.var(draws) - want_var) < 0.1 * want_var
    assert abs(np.mean(draws)) < 0.05


def test_sgd_draws_minibatch_from_sample_stream():
    # the first step moves along the gradient of the minibatch drawn from
    # the [seed, 17] stream, not along the full-data gradient
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    ds = synth_regression(16, seed=2)
    cfg = TrainConfig(algorithm="SGD", eta=0.01, batch=4, total_steps=1, seed=3)
    traj = train(spec, ds, cfg)
    idx = np.random.default_rng(np.random.SeedSequence([3, 17])).integers(0, 16, size=4)
    params0 = init_gaussian(spec, cfg.kappa, cfg.seed)
    _, grads = loss_and_grad(params0, ds.inputs[idx], ds.targets[idx])
    _, full = loss_and_grad(params0, ds.inputs, ds.targets)
    assert not np.allclose(grads[0], full[0])
    np.testing.assert_array_equal(traj.gradsq[0], [float(np.sum(g * g)) for g in grads])
    for got, w, g in zip(traj.final_params.layers, params0.layers, grads):
        np.testing.assert_array_equal(got, w - 0.01 * g)


@pytest.mark.parametrize("n, batch", [(512, 64), (128, 1), (7, 3), (1, 4)])
@pytest.mark.parametrize("block", [8, 40, 1 << 13])
def test_minibatch_blocks_are_per_step_draws(monkeypatch, n, batch, block):
    # a block of rows holds the indices one draw per step gives, and leaves
    # the stream where those draws leave it, on partial blocks too
    monkeypatch.setattr(training, "_BATCH_BLOCK", block)
    ds = synth_regression(n, seed=1)
    steps = 11
    got = np.random.default_rng(np.random.SeedSequence([5, 17]))
    want = np.random.default_rng(np.random.SeedSequence([5, 17]))
    batches = list(_minibatches(ds, batch, steps, got))
    assert len(batches) == steps
    for X, y in batches:
        idx = want.integers(0, n, size=batch)
        np.testing.assert_array_equal(X, ds.inputs[idx])
        np.testing.assert_array_equal(y, ds.targets[idx])
    assert got.bit_generator.state == want.bit_generator.state


@pytest.mark.parametrize("loss_power", [2, 4])
@pytest.mark.parametrize(
    "n, batch, steps",
    [
        (32, 4, 10),  # blocks of 3 rows: 3 + 3 + 3 + 1
        (32, 16, 5),  # batch*(d+1) = 64 exceeds the block: one row per block
        (1, 3, 7),  # every draw is index 0
    ],
)
def test_sgd_train_equals_per_step_draws(monkeypatch, n, batch, steps, loss_power):
    monkeypatch.setattr(training, "_BATCH_BLOCK", 48)
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8, 8), output_width=8, norm_exponent=0.5)
    ds = synth_regression(n, seed=2)
    test = synth_regression(8, seed=3, split="test")
    config = TrainConfig(
        algorithm="SGD", eta=0.05, batch=batch, total_steps=steps, seed=6, loss_power=loss_power
    )
    traj = train(spec, ds, config, test_dataset=test)
    want, layers = sgd_per_step(spec, ds, test, config)
    np.testing.assert_array_equal(traj.steps, np.arange(steps + 1))
    np.testing.assert_array_equal(traj.times, np.arange(steps + 1))
    for name, col in want.items():
        np.testing.assert_array_equal(getattr(traj, name), col, err_msg=name)
    for got, w in zip(traj.final_params.layers, layers):
        np.testing.assert_array_equal(got, w)


def test_cl_column_is_exclusive_prefix():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)
    ds = synth_regression(64, seed=3)
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.1, total_steps=40, seed=0))
    np.testing.assert_array_equal(traj.cl, cl_resum(traj.eta, traj.psi))
    assert traj.cl[0] == 0.0


@pytest.mark.parametrize("loss_power", [2, 4])
@pytest.mark.parametrize(
    "algorithm, extra",
    [
        ("GD", {"total_steps": 30}),
        ("SGD", {"total_steps": 30, "batch": 8}),
        ("SGLD", {"total_steps": 30, "beta": 100.0}),
        ("GF", {"duration": 0.2, "gf_substep": 0.01}),
    ],
)
def test_logged_psi_and_norms_are_scalar_values(algorithm, extra, loss_power):
    # each step's psi is the scalar psi of its logged loss, and each logged
    # squared norm is np.sum(w * w) of the layer, bit for bit
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8, 8), output_width=8, norm_exponent=0.5)
    ds = synth_regression(64, seed=3)
    test = synth_regression(32, seed=4, split="test") if algorithm == "SGD" else None
    config = TrainConfig(algorithm=algorithm, eta=0.1, seed=1, loss_power=loss_power, **extra)
    traj = train(spec, ds, config, test_dataset=test)
    assert traj.has_test == (test is not None)
    want = [psi(float(x), ds.c_y, loss_power) for x in traj.ln_train]
    np.testing.assert_array_equal(traj.psi, want)
    want = [float(np.sum(w * w)) for w in traj.final_params.layers]
    np.testing.assert_array_equal(traj.normsq[-1], want)


def test_trajectory_shapes_and_test_losses():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)
    ds = synth_regression(32, seed=0)
    ds_test = synth_regression(16, seed=5, split="test")
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.05, total_steps=10, seed=0), ds_test)
    assert traj.steps.shape == (11,)
    assert traj.normsq.shape == (11, 2)
    assert traj.gradsq.shape == (10, 2)
    assert traj.has_test and np.all(np.isfinite(traj.ln_test))
    assert traj.n_train == 32
    bare = train(spec, ds, TrainConfig(algorithm="GD", eta=0.05, total_steps=10, seed=0))
    assert not bare.has_test and np.all(np.isnan(bare.ln_test))
    np.testing.assert_array_equal(bare.ln_train, traj.ln_train)


def test_zero_steps_single_row():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    ds = synth_regression(8, seed=0)
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.1, total_steps=0, seed=0))
    assert traj.steps.shape == (1,)
    assert traj.cl[0] == 0.0
    assert traj.gradsq.shape == (0, 2)


def test_deterministic_reruns():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=8, norm_exponent=0.5)
    ds = synth_regression(32, seed=0)
    cfg = TrainConfig(algorithm="SGLD", eta=0.05, beta=50.0, total_steps=20, seed=7)
    a = train(spec, ds, cfg)
    b = train(spec, ds, cfg)
    np.testing.assert_array_equal(a.ln_train, b.ln_train)
    for la, lb in zip(a.final_params.layers, b.final_params.layers):
        np.testing.assert_array_equal(la, lb)
    c = train(spec, ds, TrainConfig(algorithm="SGLD", eta=0.05, beta=50.0, total_steps=20, seed=8))
    assert not np.array_equal(a.final_params.layers[0], c.final_params.layers[0])


def _assert_partial_is_whole(traj, test_set: bool):
    """A diverged run's columns end at the failing row and hold no unset entries."""
    rows = traj.diverged_at + 1
    for name in ("steps", "times", "eta", "ln_train", "ln_test", "psi", "cl", "normsq"):
        assert getattr(traj, name).shape[0] == rows, name
    assert traj.normsq.shape == (rows, traj.spec.n_layers)
    assert traj.gradsq.shape == (rows - 1, traj.spec.n_layers)
    finite = ["steps", "times", "eta", "ln_train", "psi", "cl", "normsq", "gradsq"]
    for name in finite + (["ln_test"] if test_set else []):
        assert np.all(np.isfinite(getattr(traj, name)[: rows - 1])), name


def test_divergence_guard():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(16, 16), output_width=16, norm_exponent=0.0)
    ds = synth_regression(16, seed=0)
    cfg = TrainConfig(algorithm="GD", eta=1e5, total_steps=400, seed=0, kappa=4.0)
    with pytest.raises(DivergenceError) as info:
        train(spec, ds, cfg, test_dataset=synth_regression(8, 1, "test"))
    err = info.value
    assert err.trajectory.diverged_at == err.step
    assert err.trajectory.ln_train.shape[0] == err.step + 1
    assert err.trajectory.ln_train[-1] > 1e6 or not math.isfinite(err.trajectory.ln_train[-1])
    _assert_partial_is_whole(err.trajectory, test_set=True)


def test_overflowing_step_is_divergence():
    # 2*eta overflows, so the SGLD noise is infinite: the step's non-finite
    # parameters end the run as a divergence, keeping the rows so far
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(16,), output_width=16, norm_exponent=0.5)
    cfg = TrainConfig(algorithm="SGLD", eta=1e308, beta=10, kappa=4, total_steps=50)
    with np.errstate(all="ignore"), pytest.raises(DivergenceError) as info:
        train(spec, synth_regression(128, 0), cfg)
    traj = info.value.trajectory
    assert info.value.step == traj.diverged_at == 1
    assert traj.ln_train.shape == (2,)
    assert np.all(np.isfinite(traj.normsq[0])) and not np.all(np.isfinite(traj.normsq[1]))
    _assert_partial_is_whole(traj, test_set=False)


def test_input_width_checked_once_up_front():
    # a mismatch is the input check's ValueError, not a shape error from
    # inside a workspace buffer, for the training set and for the test set
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    wide = Dataset(np.full((8, 4), 0.25), np.zeros(8), c_y=0.5)
    message = r"expected inputs of shape \(n, 3\), got \(8, 4\)"
    for algorithm in ("GD", "SGD"):
        with pytest.raises(ValueError, match=message):
            train(spec, wide, TrainConfig(algorithm=algorithm, batch=4, total_steps=3))
    with pytest.raises(ValueError, match=message):
        train(spec, synth_regression(8, 0), TrainConfig(total_steps=3), test_dataset=wide)


def test_config_validation():
    with pytest.raises(ValueError):
        TrainConfig(algorithm="ADAM").validate()
    with pytest.raises(ValueError):
        TrainConfig(eta=-0.1).validate()
    with pytest.raises(ValueError):
        TrainConfig(alpha=1.2).validate()
    with pytest.raises(ValueError):
        TrainConfig(alpha=0.0).validate()
    with pytest.raises(ValueError):
        TrainConfig(algorithm="SGLD", beta=None).validate()
    with pytest.raises(ValueError):
        TrainConfig(algorithm="GF", duration=None).validate()
    with pytest.raises(ValueError):
        TrainConfig(lam=0.7).validate()
    TrainConfig(algorithm="SGLD", beta=math.inf).validate()


def test_alpha_range_warning_only():
    # small alpha is allowed but flagged for GD at depth 3
    with pytest.warns(UserWarning):
        TrainConfig(algorithm="GD", alpha=0.67).validate(n_hidden=2)
    # fine at depth 2 where the cutoff is 2/3
    TrainConfig(algorithm="GD", alpha=0.8).validate(n_hidden=1)


def test_max_feasible_eta_hand_values():
    # L=1, lam=1/2, m^p=2, norms (2,3), c_f=0.3, c_y=0.5, t0=1, eps=1/2:
    # the schedule-mass ceiling 0.5*2*sqrt(.5)/(0.8*sqrt(1.75)) binds
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    cfg = TrainConfig(algorithm="GD", alpha=1.0, t0=1, lam=0.5, epsilon=0.5)
    got = max_feasible_eta(np.array([2.0, 3.0]), spec, cfg, c_f=0.3, c_y=0.5)
    np.testing.assert_allclose(got, 0.6681531047810609, rtol=1e-12)
    # alpha=0.9, t0=4: the decay-mass ceiling 2(1-alpha)lam^2 norm^2/(c_y^2 t0)
    cfg2 = TrainConfig(algorithm="GD", alpha=0.9, t0=4, lam=0.5)
    got2 = max_feasible_eta(np.array([2.0, 3.0]), spec, cfg2, c_f=0.3, c_y=0.5)
    np.testing.assert_allclose(got2, 0.19999999999999996, rtol=1e-12)


def test_max_feasible_eta_monotone():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    cfg = TrainConfig(algorithm="GD", alpha=1.0, t0=1, lam=0.5)
    norms = np.array([1.5, 2.5])
    base = max_feasible_eta(norms, spec, cfg, c_f=0.2, c_y=0.5)
    assert max_feasible_eta(norms, spec, cfg, c_f=0.4, c_y=0.5) <= base
    slower = TrainConfig(algorithm="GD", alpha=1.0, t0=10, lam=0.5)
    assert max_feasible_eta(norms, spec, slower, c_f=0.2, c_y=0.5) <= base


def test_max_feasible_eta_alpha_range():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4, 4), output_width=4, norm_exponent=0.5)
    cfg = TrainConfig(algorithm="GD", alpha=0.7, t0=1, lam=0.5)  # cutoff is 3/4 at L=2
    with pytest.raises(ValueError):
        max_feasible_eta(np.array([1.0, 1.0, 1.0]), spec, cfg, c_f=0.2, c_y=0.5)


def test_estimate_c_f():
    _, params, ds = _width_one_net()
    assert estimate_c_f(params, ds.inputs) == pytest.approx(1.1)
