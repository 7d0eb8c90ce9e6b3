"""Forward/backward correctness for the homogeneous ReLU model."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from genbound.checks import random_cnn_spec, random_fnn_spec
from genbound.network import (
    NetworkSpec,
    Parameters,
    _backward_batch,
    _forward_batch,
    _loss_grad_outputs,
    _sq_norms,
    _value_grad,
    batch_outputs,
    grad_f,
    init_gaussian,
    loss_and_grad,
)

from oracles import (
    dense_forward,
    finite_diff_grad,
    fnn_loss_grad_where,
    init_gaussian_reference,
    sample_kink_free,
)


def test_conv_chaining_accepts_valid_dims():
    spec = NetworkSpec(input_dim=11, conv_kernels=(3,), fc_widths=(3,), output_width=3, norm_exponent=0.5)
    assert spec.widths == (11, 3, 3)
    spec2 = NetworkSpec(input_dim=14, conv_kernels=(3,), fc_widths=(), output_width=4, norm_exponent=0.5)
    assert spec2.widths == (14, 4)


def test_conv_chaining_rejects_mismatch():
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=13, conv_kernels=(3,), fc_widths=(3,), output_width=3, norm_exponent=0.5)


def test_output_width_must_match_last_hidden():
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(8,), output_width=4, norm_exponent=0.5)


def test_widths_must_be_positive():
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=0, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    with pytest.raises(ValueError):
        NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(0,), output_width=0, norm_exponent=0.5)


def test_layer_counts():
    spec = NetworkSpec(input_dim=11, conv_kernels=(3,), fc_widths=(5, 3), output_width=3, norm_exponent=1.0)
    assert spec.n_conv == 1
    assert spec.n_hidden == 3
    assert spec.n_layers == 4
    assert spec.kind == "CNN"
    assert spec.out_scale == pytest.approx(1.0 / 3.0)


def test_forward_matches_dense_oracle_fnn():
    rng = np.random.default_rng(0)
    for _ in range(50):
        spec = random_fnn_spec(rng)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        x = rng.normal(size=spec.input_dim)
        x /= max(1.0, np.linalg.norm(x))
        got = _value_grad(params, x)[0]
        want = dense_forward(params, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, abs(want)))


def test_forward_matches_dense_oracle_cnn():
    rng = np.random.default_rng(1)
    for _ in range(50):
        spec = random_cnn_spec(rng)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        x = rng.normal(size=spec.input_dim)
        x /= max(1.0, np.linalg.norm(x))
        got = _value_grad(params, x)[0]
        want = dense_forward(params, x)
        np.testing.assert_allclose(got, want, rtol=0, atol=1e-12 * max(1.0, abs(want)))


def test_batch_outputs_matches_single_forward():
    rng = np.random.default_rng(2)
    spec = NetworkSpec(input_dim=11, conv_kernels=(3,), fc_widths=(3,), output_width=3, norm_exponent=0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    X = rng.normal(size=(7, 11))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    batch = batch_outputs(params, X)
    single = np.array([_value_grad(params, x)[0] for x in X])
    np.testing.assert_allclose(batch, single, atol=1e-14)


def test_gradient_matches_finite_differences():
    rng = np.random.default_rng(3)
    checked = 0
    while checked < 40:
        spec = random_fnn_spec(rng, max_width=8, depth_range=(2, 4)) if checked % 2 else random_cnn_spec(rng, max_fc_width=6)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        try:
            x, _ = sample_kink_free(params, rng, margin=1e-3)
        except RuntimeError:
            continue
        grads = grad_f(params, x)
        fd = finite_diff_grad(params, x, h=1e-4)
        for g, g_fd in zip(grads, fd):
            scale = max(1.0, float(np.max(np.abs(g_fd))))
            np.testing.assert_allclose(g, g_fd, atol=1e-6 * scale)
        checked += 1


def test_positive_homogeneity_single_layer():
    # scaling one layer by c > 0 scales the output by c
    rng = np.random.default_rng(4)
    spec = NetworkSpec(input_dim=4, conv_kernels=(), fc_widths=(6, 5), output_width=5, norm_exponent=0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    x = rng.normal(size=4)
    x /= np.linalg.norm(x) * 1.3
    f0 = batch_outputs(params, x[None, :])[0]
    for l in range(spec.n_layers):
        scaled = Parameters(spec, [2.5 * w if i == l else w for i, w in enumerate(params.layers)])
        np.testing.assert_allclose(batch_outputs(scaled, x[None, :])[0], 2.5 * f0, rtol=1e-12)


def test_positive_homogeneity_all_layers():
    rng = np.random.default_rng(5)
    spec = NetworkSpec(input_dim=11, conv_kernels=(3,), fc_widths=(3,), output_width=3, norm_exponent=1.0)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    x = rng.normal(size=11)
    x /= np.linalg.norm(x) * 1.2
    f0 = batch_outputs(params, x[None, :])[0]
    c = 1.7
    scaled = Parameters(spec, [c * layer for layer in params.layers])
    np.testing.assert_allclose(batch_outputs(scaled, x[None, :])[0], c ** spec.n_layers * f0, rtol=1e-12)


def test_euler_identity_layerwise():
    # <Theta_l, d f / d Theta_l> = f for every layer of a 1-homogeneous block
    rng = np.random.default_rng(6)
    for _ in range(20):
        spec = random_cnn_spec(rng)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        x = rng.normal(size=spec.input_dim)
        x /= max(1.0, np.linalg.norm(x))
        f, grads = _value_grad(params, x)
        for layer, g in zip(params.layers, grads):
            np.testing.assert_allclose(float(np.sum(layer * g)), f, atol=1e-11 * max(1.0, abs(f)))


def test_relu_derivative_zero_at_kink():
    # a dead unit contributes no gradient: x=0 puts every pre-activation at 0
    spec = NetworkSpec(input_dim=2, conv_kernels=(), fc_widths=(3,), output_width=3, norm_exponent=0.0)
    params = init_gaussian(spec, 1.0, seed=0)
    grads = grad_f(params, np.zeros(2))
    assert float(np.max(np.abs(grads[0]))) == 0.0


def _same_bits(a, b, equal_nan=False) -> bool:
    a, b = np.asarray(a), np.asarray(b)
    return np.array_equal(a, b, equal_nan=equal_nan) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=60, deadline=None)
@given(
    widths=st.lists(st.integers(1, 40), min_size=1, max_size=3),
    p=st.sampled_from([0.0, 0.25, 1.0]),
    sizes=st.lists(st.integers(1, 50), min_size=2, max_size=2),
    loss_power=st.sampled_from([2, 4]),
    dead=st.integers(0, 2),
    seed=st.integers(0, 2**32 - 1),
)
def test_workspace_matches_fresh_arrays_bitwise(widths, p, sizes, loss_power, dead, seed):
    # one workspace serves two parameter draws and two batch sizes; every
    # result must carry the bytes of the call without a workspace, and those
    # the bytes of the np.where backprop
    spec = NetworkSpec(3, (), tuple(widths), widths[-1], p)
    rng = np.random.default_rng(seed)
    live = init_gaussian(spec, 1.0, rng)
    # the second draw switches one layer off: its pre-activations are all
    # <= 0 (zero on the first layer, whose inputs take either sign), so
    # every unit is zeroed in place and signed zeros flow through
    layers = init_gaussian(spec, 1.0, rng).layers
    dead = min(dead, spec.n_hidden - 1)
    layers[dead] = layers[dead] * 0.0 if dead == 0 else -np.abs(layers[dead])
    switched_off = Parameters(spec, layers)
    workspace: dict = {}
    for params in (live, switched_off):
        for n in sizes:
            X = rng.normal(size=(n, 3))
            X /= 1.0 + np.linalg.norm(X, axis=1, keepdims=True)
            # targets equal to the outputs give zero residuals: the readout's
            # error signal is then zeros carrying the readout weights' signs
            for y in (rng.uniform(-0.5, 0.5, size=n), batch_outputs(params, X)):
                want = fnn_loss_grad_where(params, X, y, loss_power)
                for got in (
                    _loss_grad_outputs(params, X, y, loss_power),
                    _loss_grad_outputs(params, X, y, loss_power, workspace),
                ):
                    assert _same_bits(got[0], want[0])
                    assert _same_bits(got[2], want[2])
                    assert len(got[1]) == len(want[1])
                    for g_got, g_want in zip(got[1], want[1]):
                        assert _same_bits(g_got, g_want)
            assert _same_bits(batch_outputs(params, X, workspace), batch_outputs(params, X))
    assert all(buf.ctypes.data % 64 == 0 for buf in workspace.values())


_KINK_X = np.array([[0.5, 0.25], [0.25, 0.5], [0.6, 0.1]])


def _kink_params(nonfinite: bool) -> Parameters:
    """A 2-6-3 net whose first-layer pre-activations on `_KINK_X` are, column
    by column, NaN (or mixed), +inf (or mixed), -inf, +0.0, positive and
    negative; the second layer adds a +0.0 and a negative column."""
    spec = NetworkSpec(2, (), (6, 3), 3, 0.5)
    inf = np.inf
    first = np.array([[inf, inf, -inf, 0.0, 1.0, -1.0], [-inf, 1.0, 1.0, 0.0, 0.5, -0.5]])
    if not nonfinite:
        first[:, :2] = [[0.5, -1.0], [-1.0, 0.5]]
    second = np.array([[0.5, 0.0, -1.0]] * 6) + np.arange(6)[:, None] / 8.0
    second[:, 1] = 0.0
    second[:, 2] = -np.abs(second[:, 2])
    return Parameters._unchecked(spec, [first, second, np.array([0.75, -0.5, 1.25])])


@pytest.mark.parametrize("nonfinite", [True, False])
def test_mask_from_activations_matches_where_at_kinks(nonfinite):
    # the fc mask is read from z = max(pre, 0): at NaN, +-inf, +0.0 and
    # negative pre-activations it must keep np.where's bytes, with and
    # without a workspace, NaN counted equal and sign bits compared
    params = _kink_params(nonfinite)
    y = np.array([0.1, -0.2, 0.3])
    with np.errstate(invalid="ignore"):
        pre = _KINK_X @ params.layers[0]
        assert np.isnan(pre).any() == nonfinite and np.isneginf(pre).any()
        assert (pre == 0.0).any() and (pre > 0.0).any() and (pre < 0.0).any()
        want = fnn_loss_grad_where(params, _KINK_X, y, 2)
        assert np.isfinite(want[2]).all() != nonfinite
        workspace: dict = {}
        for ws in (None, workspace):
            loss, grads, f = _loss_grad_outputs(params, _KINK_X, y, 2, ws)
            assert _same_bits(loss, want[0], equal_nan=True)
            assert _same_bits(f, want[2], equal_nan=True)
            for g_got, g_want in zip(grads, want[1]):
                assert _same_bits(g_got, g_want, equal_nan=True)
    # one array per fc layer holds the pre-activation, then the activation,
    # with or without a workspace; a conv layer's pre-activations keep their
    # negative entries, which its mask reads
    assert not [key for key in workspace if key[1] == "pre"]
    for ws in (None, {}):
        with np.errstate(invalid="ignore"):
            _, zs, pres = _forward_batch(params, _KINK_X, ws)
        assert all(pre is z for pre, z in zip(pres, zs[1:]))
    cnn = init_gaussian(NetworkSpec(11, (3,), (3,), 3, 0.5), 1.0, 0)
    _, zs, pres = _forward_batch(cnn, np.random.default_rng(0).uniform(-0.3, 0.3, size=(4, 11)))
    assert (pres[0] < 0.0).any() and pres[1] is zs[2]


def test_mask_from_activations_at_negative_zero():
    # a matmul never returns -0.0, so the signed zero is fed to the backward
    # pass directly; z = max(pre, 0) is > 0 exactly where pre is
    spec = NetworkSpec(2, (), (6,), 6, 0.5)
    params = Parameters(spec, [np.ones((2, 6)), np.linspace(-1.0, 1.0, 6)])
    X = _KINK_X[:2]
    inf = np.inf
    pre = np.array([[np.nan, inf, -inf, -0.0, 0.0, 0.75], [-0.0, 0.5, np.nan, -inf, inf, -0.25]])
    z = np.maximum(pre, 0.0)
    np.testing.assert_array_equal(z > 0.0, pre > 0.0)
    coef = np.array([0.25, -0.5])
    G = spec.out_scale * np.outer(coef, params.layers[1])
    want = [X.T @ np.where(pre > 0.0, G, 0.0), spec.out_scale * (z.T @ coef)]
    with np.errstate(invalid="ignore"):
        for ws in (None, {}):
            for pres in ([pre], [z]):
                got = _backward_batch(params, [X, z.copy()], pres, coef, ws)
                for g_got, g_want in zip(got, want):
                    assert _same_bits(g_got, g_want, equal_nan=True)


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(3, (), (8, 5), 5, 0.5),
        NetworkSpec(11, (3,), (4,), 4, 0.5),
        NetworkSpec(3, (1, 2), (), 1, 0.0),
    ],
    ids=["fnn", "conv-fc", "conv-only"],
)
def test_backward_pass_leaves_inputs_and_parameters_unchanged(spec):
    # the backward pass writes over the activations it has consumed, never
    # over the caller's inputs, targets or parameters
    rng = np.random.default_rng(5)
    params = init_gaussian(spec, 1.0, rng)
    X = rng.uniform(-1.0, 1.0, size=(6, spec.input_dim)) / (2.0 * spec.input_dim)
    y = rng.normal(size=6)
    before = [a.tobytes() for a in (X, y, *params.layers)]
    loss_and_grad(params, X, y, 4)
    _loss_grad_outputs(params, X, y, 2)
    workspace: dict = {}
    _loss_grad_outputs(params, X, y, 2, workspace)
    _loss_grad_outputs(params, X, y, 2, workspace)
    grad_f(params, X[0])
    _value_grad(params, X[1])
    assert [a.tobytes() for a in (X, y, *params.layers)] == before


def _wide_problem(n: int):
    rng = np.random.default_rng(0)
    params = init_gaussian(NetworkSpec(3, (), (256, 256), 256, 0.5), 1.0, rng)
    X = rng.normal(size=(n, 3))
    X /= 1.0 + np.linalg.norm(X, axis=1, keepdims=True)
    return params, X, rng.normal(size=n)


def test_wide_workspace_holds_one_activation_per_fc_layer():
    # no separate error-signal buffers: the backward pass reuses the activations
    params, X, y = _wide_problem(64)
    workspace: dict = {}
    _loss_grad_outputs(params, X, y, 2, workspace)
    assert sorted(workspace) == [(l, kind) for l in (0, 1) for kind in ("grad", "on", "z")]


def test_wide_gradient_without_workspace_holds_two_activation_arrays():
    # 3-256-256 at n = 2000: each (n, m) float array is 3.9 MiB, so two of
    # them, the masks and the gradients stay below 10 MiB; four arrays do not
    params, X, y = _wide_problem(2000)
    tracemalloc.start()
    try:
        loss_and_grad(params, X, y)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 10 * 2**20


def test_init_layer_norm_scale():
    # E||Theta_l||^2 = kappa^2 for every layer
    spec = NetworkSpec(input_dim=11, conv_kernels=(3,), fc_widths=(5, 3), output_width=3, norm_exponent=0.5)
    sq = np.zeros(spec.n_layers)
    draws = 400
    for seed in range(draws):
        sq += _sq_norms(init_gaussian(spec, 1.5, seed=seed).layers, np.empty(spec.n_layers))
    sq /= draws
    np.testing.assert_allclose(sq, 1.5**2 * np.ones_like(sq), rtol=0.15)


@settings(max_examples=60, deadline=None)
@given(
    cnn=st.booleans(),
    kappa=st.floats(0.01, 100.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_init_gaussian_matches_numpy_reference_bitwise(cnn, kappa, seed):
    rng = np.random.default_rng(seed)
    spec = random_cnn_spec(rng) if cnn else random_fnn_spec(rng)
    got = init_gaussian(spec, kappa, seed).layers
    want = init_gaussian_reference(spec, kappa, seed)
    assert [a.tobytes() for a in got] == [b.tobytes() for b in want]
    assert spec.layer_sizes() == [int(np.prod(s)) for s in spec.layer_shapes]


@pytest.mark.parametrize("kappa", [np.inf, np.nan, -np.inf, 0.0])
def test_init_gaussian_rejects_bad_kappa(kappa):
    spec = NetworkSpec(3, (), (4,), 4, 0.5)
    with pytest.raises(ValueError, match="kappa must be positive and finite"):
        init_gaussian(spec, kappa, 0)


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(5, (), (7, 6), 6, 0.5),
        NetworkSpec(23, (2, 3), (5,), 5, 0.5),
        NetworkSpec(23, (2, 3), (), 3, 0.0),
    ],
    ids=["fnn", "two-conv-fc", "two-conv-only"],
)
@pytest.mark.parametrize("n", [1, 6])
def test_forward_batch_on_stacked_layers_matches_each_slice(spec, n):
    rng = np.random.default_rng(3)
    nets = [init_gaussian(spec, 1.0, rng) for _ in range(4)]
    stacked = Parameters._unchecked(spec, [np.stack(layers) for layers in zip(*(p.layers for p in nets))])
    X = rng.uniform(-1.0, 1.0, size=(n, spec.input_dim)) / spec.input_dim
    f, zs, pres = _forward_batch(stacked, X)
    assert f.shape == (4, n)
    for i, params in enumerate(nets):
        f_i, zs_i, pres_i = _forward_batch(params, X)
        assert f[i].tobytes() == f_i.tobytes()
        assert [z[i].tobytes() for z in zs[1:]] == [z.tobytes() for z in zs_i[1:]]
        assert [p[i].tobytes() for p in pres] == [p.tobytes() for p in pres_i]


@pytest.mark.parametrize(
    "spec",
    [
        NetworkSpec(5, (), (7, 6), 6, 0.5),
        NetworkSpec(23, (2, 3), (5,), 5, 0.5),
        NetworkSpec(23, (2, 3), (), 3, 0.0),
    ],
    ids=["fnn", "two-conv-fc", "two-conv-only"],
)
@pytest.mark.parametrize("points", ["shared", "per-slice"])
def test_backward_batch_on_stacked_layers_matches_each_slice(spec, points):
    # the conv-only layout writes the readout's error signal over a conv output
    rng = np.random.default_rng(4)
    nets = [init_gaussian(spec, 1.0, rng) for _ in range(4)]
    stacked = Parameters._unchecked(spec, [np.stack(layers) for layers in zip(*(p.layers for p in nets))])
    if points == "shared":
        X = rng.uniform(-1.0, 1.0, size=(6, spec.input_dim)) / spec.input_dim
        coef = rng.normal(size=6)
        slices = [(X, coef)] * 4
    else:
        X = rng.uniform(-1.0, 1.0, size=(4, 1, spec.input_dim)) / spec.input_dim
        coef = rng.normal(size=(4, 1))
        slices = list(zip(X, coef))
    grads = _backward_batch(stacked, *_forward_batch(stacked, X)[1:], coef)
    assert [g.shape for g in grads] == [(4, *shape) for shape in spec.layer_shapes]
    for i, (params, (x, c)) in enumerate(zip(nets, slices)):
        want = _backward_batch(params, *_forward_batch(params, x)[1:], c)
        assert [g[i].tobytes() for g in grads] == [g.tobytes() for g in want]


@settings(max_examples=60, deadline=None)
@given(
    cnn=st.booleans(),
    scale=st.sampled_from([1e-150, 1e-3, 1.0, 1e3, 1e150]),
    fortran=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
def test_norms_match_linalg_norm_bitwise(cnn, scale, fortran, seed):
    rng = np.random.default_rng(seed)
    spec = random_cnn_spec(rng) if cnn else random_fnn_spec(rng)
    layers = [w * scale for w in init_gaussian(spec, 1.0, rng).layers]
    if fortran:  # np.linalg.norm sums a Fortran-ordered layer in memory order
        layers = [np.asfortranarray(w) for w in layers]
    params = Parameters(spec, layers)
    want = np.array([np.linalg.norm(w) for w in layers])
    assert params.norms().tobytes() == want.tobytes()


def test_init_deterministic():
    spec = NetworkSpec(input_dim=5, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    a = init_gaussian(spec, 2.0, seed=11)
    b = init_gaussian(spec, 2.0, seed=11)
    for la, lb in zip(a.layers, b.layers):
        np.testing.assert_array_equal(la, lb)


def test_loss_and_grad_quadratic():
    # n=1, f - y residual: loss = (f-y)^2 / 2, gradient via chain rule vs FD
    rng = np.random.default_rng(7)
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    X = rng.normal(size=(6, 3))
    X /= np.maximum(1.0, np.linalg.norm(X, axis=1))[:, None]
    y = rng.uniform(-0.3, 0.3, size=6)
    loss, grads = loss_and_grad(params, X, y)
    f = batch_outputs(params, X)
    np.testing.assert_allclose(loss, float(np.mean((f - y) ** 2) / 2.0), atol=1e-14)
    eps = 1e-6
    for l in range(spec.n_layers):
        direction = np.asarray(rng.normal(size=params.layers[l].shape))
        shifted = Parameters(spec, [w.copy() for w in params.layers])
        shifted.layers[l] = shifted.layers[l] + eps * direction
        loss_plus, _ = loss_and_grad(shifted, X, y)
        shifted.layers[l] = shifted.layers[l] - 2 * eps * direction
        loss_minus, _ = loss_and_grad(shifted, X, y)
        fd = (loss_plus - loss_minus) / (2 * eps)
        np.testing.assert_allclose(float(np.sum(grads[l] * direction)), fd, atol=1e-7)


def test_loss_power_four_matches_definition():
    rng = np.random.default_rng(8)
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
    X = rng.normal(size=(5, 3)) * 0.25
    y = rng.uniform(-0.3, 0.3, size=5)
    loss, _ = loss_and_grad(params, X, y, loss_power=4)
    f = batch_outputs(params, X)
    np.testing.assert_allclose(loss, float(np.mean((f - y) ** 4) / 4.0), atol=1e-14)


def test_input_norm_warning():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    params = init_gaussian(spec, 1.0, seed=0)
    x = np.array([2.0, 0.0, 0.0])
    with pytest.warns(UserWarning, match="input norm 2 exceeds 1"):
        batch_outputs(params, x[None, :])
    with pytest.warns(UserWarning, match="input norm 2 exceeds 1"):
        grad_f(params, x)


def test_parameter_shape_validation():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    good = init_gaussian(spec, 1.0, seed=0)
    with pytest.raises(ValueError):
        Parameters(spec, [good.layers[0][:, :2], good.layers[1]])
    with pytest.raises(ValueError):
        Parameters(spec, [good.layers[0] * np.nan, good.layers[1]])


def test_add_scaled_and_norms():
    spec = NetworkSpec(input_dim=3, conv_kernels=(), fc_widths=(4,), output_width=4, norm_exponent=0.5)
    params = init_gaussian(spec, 1.0, seed=1)
    sq = _sq_norms(params.layers, np.empty(spec.n_layers))
    np.testing.assert_allclose(sq, params.norms() ** 2, atol=1e-14)
