"""The self-check battery: each check passes on honest inputs and is shown
able to fail on corrupted ones."""

import json
import math
import threading
import time
import tracemalloc

import numpy as np
import pytest

from genbound import checks
from genbound.bounds import _norm_ball_complexity, rademacher_constant
from genbound.checks import (
    SUITE_NAMES,
    CheckOutcome,
    aligned_rank_one_witness,
    check_homogeneity,
    check_loss_decomposition,
    check_norm_dynamics,
    check_value_grad_bounds,
    exhaustive_rademacher_tiny,
    init_concentration_test,
    mc_rademacher_lower,
    random_ball_points,
    random_cnn_spec,
    random_fnn_spec,
    run_suites,
)
from genbound.data import Dataset, synth_regression
from genbound.network import NetworkSpec, _value_grad, init_gaussian
from genbound.training import TrainConfig, train

from oracles import (
    check_homogeneity_per_trial,
    check_value_grad_bounds_per_trial,
    exhaustive_rademacher_tiny_concat,
    finite_diff_grad,
    init_row_sums,
    layer_tail_probability,
    mc_rademacher_estimate_per_hypothesis,
    norm_dynamics_worst,
    sample_kink_free,
    trials_one_at_a_time,
)


def test_outcome_pass_semantics():
    assert CheckOutcome("x", 1, 1e-10, 1e-9).passed
    assert not CheckOutcome("x", 1, 2e-9, 1e-9).passed
    d = CheckOutcome("x", 3, 0.5, 1.0, detail="note").to_dict()
    assert d == {
        "name": "x",
        "instances": 3,
        "max_violation": 0.5,
        "tolerance": 1.0,
        "passed": True,
        "detail": "note",
    }
    # numpy scalars must come out as builtins or json.dump rejects them
    d = CheckOutcome("x", np.int64(3), np.float64(0.5), np.float64(1.0)).to_dict()
    assert type(d["instances"]) is int
    assert type(d["max_violation"]) is float
    assert type(d["passed"]) is bool
    json.dumps(d)


def test_homogeneity_check_passes():
    rng = np.random.default_rng(0)
    for _ in range(5):
        assert check_homogeneity(random_fnn_spec(rng), 10, 0).passed
        assert check_homogeneity(random_cnn_spec(rng), 10, 0).passed


def test_homogeneity_check_can_fail():
    spec = NetworkSpec(3, (), (8,), 8, 0.5)
    assert not check_homogeneity(spec, 10, 0, grad_perturb=1e-3).passed


def test_injected_residual_scales_linearly():
    spec = NetworkSpec(3, (), (8,), 8, 0.5)
    small = check_homogeneity(spec, 10, 0, grad_perturb=1e-4).max_violation
    large = check_homogeneity(spec, 10, 0, grad_perturb=2e-4).max_violation
    np.testing.assert_allclose(large, 2.0 * small, rtol=1e-9)


def test_value_grad_bounds_pass():
    rng = np.random.default_rng(1)
    for _ in range(5):
        assert check_value_grad_bounds(random_fnn_spec(rng), 10, 1).passed
        assert check_value_grad_bounds(random_cnn_spec(rng), 10, 1).passed


def _trials_per_chunk(spec):
    return checks._per_chunk(spec, 10**6, 1)


_CHUNKED_SPECS = [
    NetworkSpec(4, (), (37, 26), 26, 0.5),
    NetworkSpec(23, (2, 3), (16, 16), 16, 0.5),
]


@pytest.mark.parametrize("spec", _CHUNKED_SPECS, ids=["fnn", "cnn"])
def test_trial_chunks_hold_each_trials_own_draws_and_pass(spec):
    # trial k is init_gaussian(spec, kappas[k], rng) continuing the one stream, whichever chunk it lands in
    trials = 2 * _trials_per_chunk(spec) + 1
    one_at_a_time = trials_one_at_a_time(spec, trials, 4)
    i = 0
    for layers, X, f, grads in checks._trial_chunks(spec, trials, 4):
        for k in range(f.shape[0]):
            params, x = next(one_at_a_time)
            f_i, grads_i = _value_grad(params, x)
            assert [W[k].tobytes() for W in layers] == [W.tobytes() for W in params.layers]
            assert X[k].tobytes() == x.tobytes()
            assert f[k].tobytes() == f_i.tobytes()
            assert [g[k].tobytes() for g in grads] == [g.tobytes() for g in grads_i]
            i += 1
    assert i == trials


def test_trial_chunks_draw_the_same_trials_at_any_chunk_size(monkeypatch):
    # kappas and points come before every normal, so the chunk budget moves no draw
    names = ["homogeneity", "value-bounds"]
    want = [json.dumps(o.to_dict()) for o in run_suites(names, seed=3)]
    for budget in (8 * 1024, 1024 * 1024):
        monkeypatch.setattr(checks, "_CHUNK_BYTES", budget)
        assert [json.dumps(o.to_dict()) for o in run_suites(names, seed=3)] == want, budget


@pytest.mark.parametrize("spec", _CHUNKED_SPECS, ids=["fnn", "cnn"])
@pytest.mark.parametrize("offset", [None, -1, 1], ids=["one", "below-boundary", "above-boundary"])
def test_chunked_checks_match_per_trial_oracles(spec, offset):
    # the stacked chunks give each trial the bits of its own pass, whatever the chunk size
    per_chunk = _trials_per_chunk(spec)
    assert 2 < per_chunk < 100
    trials = 1 if offset is None else per_chunk + offset
    for got, want in [
        (check_homogeneity(spec, trials, 5), check_homogeneity_per_trial(spec, trials, 5)),
        (check_value_grad_bounds(spec, trials, 5), check_value_grad_bounds_per_trial(spec, trials, 5)),
    ]:
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@pytest.mark.parametrize("spec", _CHUNKED_SPECS, ids=["fnn", "cnn"])
@pytest.mark.parametrize("budget", [8 * 1024, 1024 * 1024], ids=["8KB", "1MB"])
def test_chunked_checks_match_per_trial_oracles_at_any_budget(spec, budget, monkeypatch):
    # one or two trials per chunk at 8 KB, the suite's 25 trials in one chunk at 1 MB
    monkeypatch.setattr(checks, "_CHUNK_BYTES", budget)
    per_chunk = _trials_per_chunk(spec)
    assert per_chunk <= 2 if budget == 8 * 1024 else per_chunk >= 25
    for trials in (1, 25):
        for got, want in [
            (check_homogeneity(spec, trials, 5), check_homogeneity_per_trial(spec, trials, 5)),
            (check_value_grad_bounds(spec, trials, 5), check_value_grad_bounds_per_trial(spec, trials, 5)),
            (
                check_homogeneity(spec, trials, 2, grad_perturb=1e-3),
                check_homogeneity_per_trial(spec, trials, 2, grad_perturb=1e-3),
            ),
        ]:
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


@pytest.mark.parametrize("check", [check_homogeneity, check_value_grad_bounds], ids=["homogeneity", "bounds"])
@pytest.mark.parametrize("chunk", [0, 1], ids=["first-chunk", "last-chunk"])
def test_a_nan_trial_fails_the_check(check, chunk, monkeypatch):
    # max(worst, nan) keeps worst, so a NaN trial would pass unless the fold propagates NaN
    spec = _CHUNKED_SPECS[0]
    value_grad, passes = checks._value_grad, []

    def one_nan_output(params, X, workspace):
        f, grads = value_grad(params, X, workspace)
        if len(passes) == chunk:
            f[1] = math.nan
        passes.append(X.shape[0])
        return f, grads

    monkeypatch.setattr(checks, "_value_grad", one_nan_output)
    out = check(spec, _trials_per_chunk(spec) + 2, 0)
    assert len(passes) == 2
    assert math.isnan(out.max_violation)
    assert not out.passed


def test_trial_chunk_scales_its_layers_without_a_chunk_sized_temporary(monkeypatch):
    # a broadcast (h, 1) kappa factor per layer makes numpy allocate iterator buffers
    # of up to 3 x 64 KB for each multiply; drawn and scaled row by row, a chunk of a
    # wide spec holds about its own buffer, below the budget
    spec = NetworkSpec(6, (), (64, 48), 48, 0.5)
    per_chunk = _trials_per_chunk(spec)
    assert 1 < per_chunk < 25
    assert per_chunk * 64 * 48 > 8192  # more entries in layer 2 than one numpy buffer holds
    # the pass stubbed out, so the peak is the draws' and the scaling's
    monkeypatch.setattr(checks, "_value_grad", lambda params, X, workspace: (np.zeros(X.shape[0]), []))
    chunks = checks._trial_chunks(spec, 25, 0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        layers, _, _, _ = next(chunks)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert layers[1].shape == (per_chunk, 64, 48)
    assert peak < checks._CHUNK_BYTES + 16 * 1024


@pytest.mark.parametrize("spec", _CHUNKED_SPECS, ids=["fnn", "cnn"])
def test_chunked_homogeneity_perturbs_each_trial_as_the_oracle(spec):
    # grad_perturb shifts each trial's own first entry of layer 1, once
    trials = _trials_per_chunk(spec) + 1
    got = check_homogeneity(spec, trials, 2, grad_perturb=1e-3)
    want = check_homogeneity_per_trial(spec, trials, 2, grad_perturb=1e-3)
    assert not got.passed
    assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_chunked_checks_on_a_wide_spec_take_one_trial_per_chunk():
    spec = NetworkSpec(6, (), (64, 64, 64, 64), 64, 0.5)
    assert _trials_per_chunk(spec) == 1
    for got, want in [
        (check_homogeneity(spec, 3, 1), check_homogeneity_per_trial(spec, 3, 1)),
        (check_value_grad_bounds(spec, 3, 1), check_value_grad_bounds_per_trial(spec, 3, 1)),
    ]:
        assert json.dumps(got.to_dict()) == json.dumps(want.to_dict())


def test_rank_one_witness_tight():
    out = aligned_rank_one_witness(6, 5, seed=0)
    assert out.passed
    # the witness meets the product bound with equality, so the residual is
    # pure floating-point noise
    assert out.max_violation < 1e-12


def test_sample_kink_free_margin():
    rng = np.random.default_rng(2)
    spec = NetworkSpec(4, (), (6, 5), 5, 0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    x, smallest = sample_kink_free(params, rng, margin=1e-3)
    assert smallest >= 1e-3
    # the pre-activations again, by explicit products
    pre1 = x @ params.layers[0]
    pre2 = np.maximum(pre1, 0.0) @ params.layers[1]
    np.testing.assert_allclose(min(np.min(np.abs(pre1)), np.min(np.abs(pre2))), smallest, rtol=1e-12)


def test_finite_diff_restores_parameters():
    rng = np.random.default_rng(3)
    spec = NetworkSpec(3, (), (4,), 4, 0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    before = [w.copy() for w in params.layers]
    finite_diff_grad(params, np.array([0.2, -0.1, 0.4]), h=1e-4)
    for a, b in zip(params.layers, before):
        np.testing.assert_array_equal(a, b)


def test_init_concentration_matches_chi2_oracle():
    spec = NetworkSpec(1, (), (16, 256), 256, 0.5)  # layer sizes 16, 4096, 256
    kappa, delta, draws = 1.5, 0.1, 10_000
    (out,) = init_concentration_test(spec, kappa, (delta,), draws, seed=0)
    assert out.passed
    logd = math.log(1.0 / delta)
    freqs = dict(part.split(":") for part in out.detail.split(" "))
    for q in (16, 4096, 256):
        threshold = kappa * kappa * (1.0 + max(4.0 * logd / q, math.sqrt(8.0 * logd / q)))
        exact = layer_tail_probability(q, kappa, threshold)
        # the analytic tail sits below delta, and the empirical frequency
        # tracks it to a few binomial standard errors (plus detail rounding)
        assert exact <= delta
        se = math.sqrt(max(exact * (1.0 - exact), 1e-12) / draws)
        assert abs(float(freqs[f"q={q}"]) - exact) <= 4.0 * se + 1e-4


@pytest.mark.parametrize("q", [16, 256, 4096])
def test_layer_sq_norms_moments_match_summed_normals(q):
    # ||layer||^2 over q iid N(0, kappa^2/q) entries has mean kappa^2 and
    # variance 2 kappa^4/q (excess kurtosis 12/q); the chi-square draw and the
    # summed squared normals it stands for each match both within 5 SE
    kappa, draws = 1.5, 2000
    mean, var = kappa * kappa, 2.0 * kappa**4 / q
    se_mean = math.sqrt(var / draws)
    se_var = var * math.sqrt((2.0 + 12.0 / q) / draws)
    chi2_path = checks._layer_sq_norms(q, kappa, draws, np.random.default_rng(q))
    reference = init_row_sums(q, kappa, draws, np.random.default_rng(q + 1))
    for sums in (chi2_path, reference):
        assert sums.shape == (draws,)
        assert abs(float(np.mean(sums)) - mean) <= 5.0 * se_mean
        assert abs(float(np.var(sums, ddof=1)) - var) <= 5.0 * se_var


def test_init_concentration_matches_one_shot_oracle():
    # layer li draws (kappa^2/q) chi^2_q from stream [seed, li]; the outcomes
    # are assembled from those sums by hand, at a draw count that is not round
    spec = NetworkSpec(1, (), (16, 256), 256, 0.5)
    kappa, draws, seed, deltas = 1.5, 1501, 5, (0.1, 0.01)
    expected = {delta: ([], -math.inf) for delta in deltas}
    for li, q in enumerate((16, 4096, 256)):
        rng = np.random.default_rng(np.random.SeedSequence([seed, li]))
        sums = (kappa * kappa / q) * rng.chisquare(q, size=draws)
        for delta in deltas:
            logd = math.log(1.0 / delta)
            threshold = kappa * kappa * (1.0 + max(4.0 * logd / q, math.sqrt(8.0 * logd / q)))
            freq = int(np.sum(sums > threshold)) / draws
            details, worst = expected[delta]
            expected[delta] = (details + [f"q={q}:{freq:.4g}"], max(worst, freq - delta))
    outs = init_concentration_test(spec, kappa, deltas, draws, seed)
    assert [o.name for o in outs] == [f"init-concentration-delta={d}" for d in deltas]
    for out, delta in zip(outs, deltas):
        details, worst = expected[delta]
        assert out.detail == " ".join(details)
        assert out.max_violation == worst
        assert out.instances == 3 * draws


def test_init_concentration_deltas_share_draws():
    spec = NetworkSpec(1, (), (16, 256), 256, 0.5)
    both = init_concentration_test(spec, 1.5, (0.1, 0.01), 2000, seed=7)
    single = [init_concentration_test(spec, 1.5, (d,), 2000, seed=7)[0] for d in (0.1, 0.01)]
    assert both == single
    assert json.dumps([o.to_dict() for o in both]) == json.dumps([o.to_dict() for o in single])


def test_init_concentration_suite_pinned():
    # `verify --suite init-concentration --seed 0` as the chi-square draws
    # give it: a change to the streams or the sampler shows here
    outs = [o.to_dict() for o in run_suites(["init-concentration"], seed=0)]
    assert outs == [
        {
            "name": "init-concentration-delta=0.1",
            "instances": 30000,
            "max_violation": -0.0931,
            "tolerance": 0.009000000000000001,
            "passed": True,
            "detail": "q=16:0.0069 q=4096:0.0015 q=256:0.0024",
        },
        {
            "name": "init-concentration-delta=0.01",
            "instances": 30000,
            "max_violation": -0.0094,
            "tolerance": 0.0029849623113198595,
            "passed": True,
            "detail": "q=16:0.0006 q=4096:0 q=256:0.0002",
        },
    ]


def test_init_concentration_validates():
    spec = NetworkSpec(1, (), (4,), 4, 0.5)
    with pytest.raises(ValueError):
        init_concentration_test(spec, 1.0, (0.1,), 100, seed=0)
    for deltas in [(1.5,), (0.1, 1.5), (0.0, 0.1), (0.1, 0.01, -0.2), (0.1, 1.0)]:
        with pytest.raises(ValueError, match="delta"):
            init_concentration_test(spec, 1.0, deltas, 10_000, seed=0)


def test_norm_dynamics_passes_on_feasible_run():
    spec = NetworkSpec(3, (), (16,), 16, 0.5)
    ds = synth_regression(64, seed=0)
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.02, total_steps=60, seed=0, kappa=2.0))
    assert check_norm_dynamics(traj, lam=0.5).passed


def test_norm_dynamics_detects_violation():
    spec = NetworkSpec(3, (), (16,), 16, 0.5)
    ds = synth_regression(64, seed=0)
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.02, total_steps=20, seed=0, kappa=2.0))
    # inflate a late norm entry beyond any budget
    traj.normsq[-1, 0] = 100.0 * traj.normsq[0, 0]
    assert not check_norm_dynamics(traj, lam=0.5).passed


def test_norm_dynamics_nan_norm_fails():
    spec = NetworkSpec(3, (), (16,), 16, 0.5)
    ds = synth_regression(64, seed=0)
    traj = train(spec, ds, TrainConfig(algorithm="GD", eta=0.02, total_steps=20, seed=0, kappa=2.0))
    traj.normsq[5, 1] = math.nan  # a step-by-step max(worst, nan) kept the finite worst and passed
    assert not check_norm_dynamics(traj, lam=0.5).passed


def test_norm_dynamics_gf_mode():
    spec = NetworkSpec(3, (), (8,), 8, 0.5)
    ds = synth_regression(32, seed=1)
    cfg = TrainConfig(algorithm="GF", duration=0.2, gf_substep=0.002, seed=0)
    traj = train(spec, ds, cfg)
    out = check_norm_dynamics(traj, lam=0.5)
    assert out.name == "norm-dynamics-gf"
    assert out.passed


@pytest.mark.parametrize(
    "cfg",
    [
        TrainConfig(algorithm="GD", eta=0.02, total_steps=40, seed=2, kappa=2.0),
        TrainConfig(algorithm="SGD", eta=0.02, batch=8, total_steps=40, seed=3),
        TrainConfig(algorithm="GF", duration=0.1, gf_substep=0.002, seed=4),
    ],
    ids=lambda cfg: cfg.algorithm,
)
def test_norm_dynamics_matches_loop_oracle(cfg):
    spec = NetworkSpec(3, (), (8, 8), 8, 0.5)
    traj = train(spec, synth_regression(32, seed=1), cfg)
    out = check_norm_dynamics(traj, lam=0.4)
    assert out.max_violation == norm_dynamics_worst(traj, lam=0.4)
    assert out.instances == (traj.normsq.shape[0] - (cfg.algorithm == "GF")) * 3


def test_mc_rademacher_below_upper():
    rng = np.random.default_rng(4)
    spec = NetworkSpec(4, (), (8,), 8, 0.5)
    X = random_ball_points(rng, 8, 4)
    for qi in range(3):
        Q = rng.uniform(0.5, 2.0, size=2)
        est, upper = mc_rademacher_lower(spec, Q, X, 100, 100, seed=qi)
        assert 0.0 < est < upper
    with pytest.raises(ValueError):
        mc_rademacher_lower(spec, np.array([1.0]), X, 10, 10, seed=0)


def test_mc_rademacher_upper_is_the_bound_complexity():
    # the check bounds its estimate by the same function the bound runs
    rng = np.random.default_rng(6)
    spec = NetworkSpec(11, (3,), (6,), 6, 0.5)
    X = random_ball_points(rng, 8, 11)
    Q = rng.uniform(0.5, 2.0, size=spec.n_layers)
    _, upper = mc_rademacher_lower(spec, Q, X, 20, 20, seed=0)
    assert upper == _norm_ball_complexity(spec, Q, 8)
    want = rademacher_constant(2, 11, "CNN") * 6.0**-0.5 / math.sqrt(8.0) * float(np.prod(Q))
    assert upper == pytest.approx(want, rel=1e-12)


def test_mc_rademacher_scales_with_radii():
    # hypotheses scale linearly in each radius, so doubling Q doubles both
    # the estimate and the upper bound
    rng = np.random.default_rng(5)
    spec = NetworkSpec(4, (), (8,), 8, 0.5)
    X = random_ball_points(rng, 8, 4)
    Q = np.array([1.0, 1.0])
    est1, up1 = mc_rademacher_lower(spec, Q, X, 150, 150, seed=9)
    est2, up2 = mc_rademacher_lower(spec, 2.0 * Q, X, 150, 150, seed=9)
    np.testing.assert_allclose(est2, 4.0 * est1, rtol=1e-9)
    np.testing.assert_allclose(up2, 4.0 * up1, rtol=1e-12)


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(4, (), (8,), 8, 0.5),
        NetworkSpec(4, (1,), (4,), 4, 0.5),
        NetworkSpec(11, (3,), (6,), 6, 0.5),
    ],
    ids=["fnn", "cnn-1", "cnn-3"],
)
def test_mc_rademacher_matches_per_hypothesis_oracle(spec, monkeypatch):
    # the rademacher suite's specs; 200 hypotheses fit one chunk of the byte budget
    rng = np.random.default_rng(11)
    X = random_ball_points(rng, 8, spec.input_dim)
    Q = rng.uniform(0.5, 2.0, size=spec.n_layers)
    est, _ = mc_rademacher_lower(spec, Q, X, 200, 200, 3)
    assert est == mc_rademacher_estimate_per_hypothesis(spec, Q, X, 200, 200, 3)
    # chunks of 16 hypotheses: 37 leave a partial last chunk
    monkeypatch.setattr(checks, "_CHUNK_BYTES", 16 * 8 * (sum(spec.layer_sizes()) + 8 * sum(spec.widths)))
    assert checks._per_chunk(spec, 37, 8) == 16
    for seed in range(3):
        Q = rng.uniform(0.5, 2.0, size=spec.n_layers)
        est, _ = mc_rademacher_lower(spec, Q, X, 37, 200, seed)
        assert est == mc_rademacher_estimate_per_hypothesis(spec, Q, X, 37, 200, seed)


@pytest.mark.parametrize("q1, q2, grid", [(1.3, 0.8, 4096), (0.5, 2.0, 256), (2.0, 0.1, 7)])
def test_exhaustive_rademacher_matches_concatenated_signs(q1, q2, grid):
    est, _ = exhaustive_rademacher_tiny(q1, q2, grid)
    assert est == exhaustive_rademacher_tiny_concat(q1, q2, grid)


def test_exhaustive_rademacher_tiny():
    est, upper = exhaustive_rademacher_tiny(1.3, 0.8)
    assert 0.0 < est < upper
    # denser grids only refine the sweep upward
    est_coarse, _ = exhaustive_rademacher_tiny(1.3, 0.8, grid=256)
    assert est_coarse <= est + 1e-12


def test_loss_decomposition_identity_and_cap():
    rng = np.random.default_rng(6)
    for _ in range(10):
        spec = random_fnn_spec(rng)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        c_y = float(rng.uniform(0.1, 1.0))
        X = random_ball_points(rng, 16, spec.input_dim)
        y = rng.uniform(-c_y, c_y, size=16)
        assert check_loss_decomposition(params, Dataset(X, y, c_y)).passed


def test_loss_decomposition_high_loss_region():
    # scaled-up parameters push the loss past c_y^2/2 where the cap turns
    # negative; the inequality must still hold
    rng = np.random.default_rng(7)
    spec = NetworkSpec(3, (), (8,), 8, 0.5)
    params = init_gaussian(spec, 6.0, rng)
    X = random_ball_points(rng, 16, 3)
    y = rng.uniform(-0.25, 0.25, size=16)
    ds = Dataset(X, y, 0.25)
    assert check_loss_decomposition(params, ds).passed


def test_random_cnn_specs_always_chain():
    rng = np.random.default_rng(8)
    for _ in range(200):
        spec = random_cnn_spec(rng)
        assert spec.n_conv >= 1
        # constructor validates chaining; re-derive the widths here
        m = spec.input_dim
        for s in spec.conv_kernels:
            assert (m - s + 1) % s == 0
            m = (m - s + 1) // s
        assert m >= 1


def test_run_suites_unknown_name(monkeypatch):
    with pytest.raises(ValueError, match="unknown suite"):
        run_suites(["nope"])
    ran = []
    monkeypatch.setitem(checks.SUITES, "loss-decomposition", lambda *a: ran.append(a) or [])
    with pytest.raises(ValueError, match="unknown suite 'nope'"):
        run_suites(["loss-decomposition", "nope"])
    assert ran == []  # every name is checked before the first suite runs


@pytest.mark.parametrize(
    "names",
    [
        list(SUITE_NAMES),
        ["init-concentration", "loss-decomposition", "norm-dynamics"],
        ["loss-decomposition", "homogeneity", "init-concentration"],
        ["rademacher", "init-concentration", "rademacher", "init-concentration"],
    ],
    ids=["all", "init-first", "init-last", "repeated"],
)
def test_run_suites_overlap_matches_sequential_calls(names):
    # the pooled outcomes keep the bytes and the order of calling each
    # suite in turn
    got = [o.to_dict() for o in run_suites(names, seed=1)]
    want = [o.to_dict() for name in names for o in checks.SUITES[name](1)]
    assert json.dumps(got).encode() == json.dumps(want).encode()


def _stub(name, threads, error=None, delay=0.0):
    def suite(seed, inject_bug=False):  # records (name, ran on the main thread) when it ends
        time.sleep(delay)
        threads.append((name, threading.current_thread() is threading.main_thread()))
        if error is not None:
            raise error
        return [CheckOutcome(name, 1, 0.0, 1.0)]

    return suite


def test_run_suites_runs_in_calling_thread_in_request_order(monkeypatch):
    calls = []  # (suite, thread it ran on, live threads while it ran)

    def stub(name):
        def suite(seed, inject_bug=False):
            calls.append((name, threading.current_thread(), threading.active_count()))
            return [CheckOutcome(name, 1, 0.0, 1.0)]

        return suite

    for name in SUITE_NAMES:
        monkeypatch.setitem(checks.SUITES, name, stub(name))
    names = ["init-concentration", "homogeneity", "init-concentration", "rademacher"]
    before = threading.active_count()
    outs = run_suites(names)
    assert [o.name for o in outs] == names
    assert calls == [(name, threading.current_thread(), before) for name in names]


def test_run_suites_raises_first_error_in_request_order(monkeypatch):
    threads = []
    init_error, fg_error = RuntimeError("init"), RuntimeError("fg")
    monkeypatch.setitem(
        checks.SUITES, "init-concentration", _stub("init", threads, error=init_error, delay=0.1)
    )
    monkeypatch.setitem(checks.SUITES, "rademacher", _stub("rademacher", threads))
    monkeypatch.setitem(checks.SUITES, "homogeneity", _stub("homogeneity", threads, error=fg_error))
    before = threading.active_count()
    for names, error in [
        (["rademacher", "init-concentration", "homogeneity"], init_error),
        (["init-concentration", "homogeneity"], init_error),
        (["homogeneity", "init-concentration"], fg_error),
        (["rademacher", "init-concentration", "rademacher"], init_error),
    ]:
        with pytest.raises(RuntimeError) as info:
            run_suites(names)
        assert info.value is error, names
        assert threading.active_count() == before


def test_run_suites_deterministic():
    a = run_suites(["loss-decomposition"], seed=3)
    b = run_suites(["loss-decomposition"], seed=3)
    assert [o.to_dict() for o in a] == [o.to_dict() for o in b]


def test_all_suites_pass():
    outcomes = run_suites(list(SUITE_NAMES), seed=0)
    assert len(outcomes) >= len(SUITE_NAMES)
    for o in outcomes:
        assert o.passed, f"{o.name}: {o.max_violation} > {o.tolerance}"


@pytest.mark.parametrize("name", SUITE_NAMES)
def test_suite_peak_memory_stays_small(name):
    # a second run, so one-time costs such as lazy imports are not counted
    checks.SUITES[name](0)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        checks.SUITES[name](0)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    assert peak < 400 * 1024


def test_inject_bug_flips_homogeneity():
    # the flag reaches the homogeneity suite alone: every other outcome keeps its bytes
    clean = run_suites(SUITE_NAMES, seed=0)
    buggy = run_suites(SUITE_NAMES, seed=0, inject_bug=True)
    assert [o.name for o in buggy] == [o.name for o in clean]
    failed = [o.name for o in buggy if not o.passed]
    assert failed == ["homogeneity-fnn", "homogeneity-cnn"]
    for want, got in zip(clean, buggy):
        if got.name not in failed:
            assert json.dumps(got.to_dict()) == json.dumps(want.to_dict()), got.name
