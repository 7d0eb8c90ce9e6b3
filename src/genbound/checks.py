"""Numerical verification of the identities behind the bound machinery.

Each check draws seeded random instances, measures the worst violation in
relative units (violation / (1 + |reference|)), and passes iff that stays
within its tolerance.  The suite registry at the bottom groups the checks
into named batteries for the command-line `verify` entry point.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

import numpy as np

from .bounds import _norm_ball_complexity, psi
from .data import Dataset, synth_regression
from .network import (
    NetworkSpec,
    Parameters,
    _forward_batch,
    _loss_grad_outputs,
    _norm,
    _value_grad,
    batch_outputs,
    init_gaussian,
)
from .training import TrainConfig, Trajectory, feasible_eta, train

__all__ = [
    "CheckOutcome",
    "check_homogeneity",
    "check_value_grad_bounds",
    "aligned_rank_one_witness",
    "init_concentration_test",
    "check_norm_dynamics",
    "mc_rademacher_lower",
    "exhaustive_rademacher_tiny",
    "check_loss_decomposition",
    "SUITE_NAMES",
    "run_suites",
]


@dataclass
class CheckOutcome:
    """Result of one check battery; passes iff the violation is in budget."""

    name: str
    instances: int
    max_violation: float
    tolerance: float
    detail: str = ""

    @property
    def passed(self) -> bool:
        return bool(self.max_violation <= self.tolerance)

    def to_dict(self) -> dict:
        # builtin scalars only: numpy bools/ints are not JSON serializable
        return {
            "name": self.name,
            "instances": int(self.instances),
            "max_violation": float(self.max_violation),
            "tolerance": float(self.tolerance),
            "passed": self.passed,
            "detail": self.detail,
        }


def _rel(violation: float, reference: float) -> float:
    return violation / (1.0 + abs(reference))


def _rng(seed: int, *key: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([int(seed), *key]))


# ---------------------------------------------------------------------------
# Random instances


def random_fnn_spec(rng, max_width: int = 64, depth_range=(2, 5)) -> NetworkSpec:
    """Random fully-connected spec with total depth in depth_range."""
    depth = int(rng.integers(depth_range[0], depth_range[1] + 1))
    d = int(rng.integers(2, 7))
    widths = [int(rng.integers(1, max_width + 1)) for _ in range(depth - 1)]
    return NetworkSpec(d, (), tuple(widths), widths[-1], float(rng.uniform(0.0, 1.0)))


def random_cnn_spec(rng, max_fc_width: int = 16) -> NetworkSpec:
    """Random conv spec built inside-out so the widths always chain."""
    n_conv = int(rng.integers(1, 3))
    width = int(rng.integers(2, 5))  # pooled width after the last conv
    d = width
    kernels = []
    for _ in range(n_conv):
        s = int(rng.integers(2, 4))
        kernels.append(s)
        d = d * s + s - 1  # widths chain as m_in = m_out*s + s - 1
    kernels.reverse()
    fc = [int(rng.integers(1, max_fc_width + 1)) for _ in range(int(rng.integers(0, 3)))]
    out = fc[-1] if fc else width
    return NetworkSpec(d, tuple(kernels), tuple(fc), out, float(rng.uniform(0.0, 1.0)))


def random_ball_points(rng, n: int, d: int) -> np.ndarray:
    """n points uniform in the d-dimensional unit ball."""
    g = rng.normal(size=(n, d))
    g /= np.linalg.norm(g, axis=1, keepdims=True)
    r = rng.uniform(size=(n, 1)) ** (1.0 / d)
    return g * r


# ---------------------------------------------------------------------------
# Identities and inequalities


# Bytes of stacked layers and activations per chunk of networks, the
# trials of check_homogeneity and check_value_grad_bounds and the
# hypotheses of mc_rademacher_lower: all 25 trials of a 64-wide spec would
# stack 800 KB per layer.  At 64 KB the trial suites' tracemalloc peaks
# stay below the rademacher suite's 293 KB (270 and 259 KB, ~100 KB of it
# numpy buffers for the kappa scale); 128 KB lifts them to 449 and 440 KB
_CHUNK_BYTES = 64 * 1024


def _per_chunk(spec: NetworkSpec, count: int, points: int) -> int:
    """Networks of the spec per stacked chunk of `count`, each evaluated on `points` inputs.

    As many as _CHUNK_BYTES of float64 layers and activations hold, at least one.
    """
    entries = sum(spec.layer_sizes()) + points * sum(spec.widths)
    return max(1, min(count, _CHUNK_BYTES // (8 * entries)))


def _stacked_layers(spec: NetworkSpec, z: np.ndarray) -> list[np.ndarray]:
    """Views of z, one network's layers per row in order, as layers with a leading axis."""
    layers = []
    end = 0
    for q, shape in zip(spec.layer_sizes(), spec.layer_shapes):
        layers.append(z[:, end : end + q].reshape(z.shape[0], *shape))
        end += q
    return layers


def _trial_chunks(spec: NetworkSpec, trials: int, seed: int):
    """Random trials in stacked chunks: yields (layers, points, outputs, gradients).

    One stream, _rng(seed, 5000), a key no other draw uses, gives every
    trial's kappa in [0.5, 2), then every trial's point in the unit ball,
    then the layers: trial k holds init_gaussian(spec, kappas[k], rng)
    continuing the stream and points[k], whatever the chunk size.  Each
    chunk's normals go straight into its buffer, then through one forward
    and one backward pass over a leading trial axis, so each trial keeps
    the bits of its own pass.  The arrays yielded are buffers the next
    chunk overwrites.
    """
    rng = _rng(seed, 5000)
    kappas = rng.uniform(0.5, 2.0, size=trials)
    points = random_ball_points(rng, trials, spec.input_dim)
    sizes = spec.layer_sizes()
    ends = np.cumsum(sizes).tolist()
    per_chunk = _per_chunk(spec, trials, 1)
    # one buffer for every chunk, so a chunk's arrays are valid until the next
    z = np.empty((per_chunk, ends[-1]))
    workspace: dict = {}
    for start in range(0, trials, per_chunk):
        h = min(per_chunk, trials - start)
        rng.standard_normal(out=z[:h])  # each trial's layers in init_gaussian's order
        for q, end in zip(sizes, ends):
            z[:h, end - q : end] *= (kappas[start : start + h] / math.sqrt(q))[:, None]
        z[:h] += 0.0  # rng.normal(0, scale) computes 0 + scale * z on this stream
        layers = _stacked_layers(spec, z[:h])
        X = points[start : start + h]
        f, grads = _value_grad(Parameters._unchecked(spec, layers), X, workspace)
        yield layers, X, f, grads


def check_homogeneity(
    spec: NetworkSpec, trials: int, seed: int, grad_perturb: float = 0.0
) -> CheckOutcome:
    """<layer, d f/d layer> = f per layer and <theta, grad f> = (L+1) f.

    grad_perturb shifts each trial's first gradient entry and exists so
    callers can prove the check is able to fail.
    """
    worst = 0.0
    L1 = spec.n_layers
    for layers, _, f, grads in _trial_chunks(spec, trials, seed):
        h = f.shape[0]
        if grad_perturb:
            grads[0].reshape(h, -1)[:, 0] += grad_perturb  # a view: the gradients are contiguous
        # np.sum's reduction over each trial's products, written over the gradients
        dots = [
            np.add.reduce(np.multiply(W, g, out=g).reshape(h, -1), axis=1).tolist()
            for W, g in zip(layers, grads)
        ]
        for k, fk in enumerate(f.tolist()):
            total = 0.0
            for layer_dots in dots:
                dot = layer_dots[k]
                total += dot
                worst = max(worst, _rel(abs(dot - fk), fk))
            worst = max(worst, _rel(abs(total - L1 * fk), L1 * fk))
    return CheckOutcome("homogeneity", trials, worst, 1e-9)


def check_value_grad_bounds(spec: NetworkSpec, trials: int, seed: int) -> CheckOutcome:
    """Norm-product ceilings on |f| and on each layer gradient.

    |f| <= (1/m^p) prod_l ||layer_l|| ||x||
        <= (1/m^p) ||theta||^(L+1) ||x|| / (L+1)^((L+1)/2), and
    ||d f/d layer_l|| <= (1/m^p) prod_{i != l} ||layer_i|| ||x||
        <= (1/m^p) ||theta||^L ||x|| / L^(L/2).
    The norms and their products are taken one trial at a time.
    """
    worst = -math.inf
    L = spec.n_hidden
    scale = spec.out_scale
    for layers, X, f, grads in _trial_chunks(spec, trials, seed):
        for k, fk in enumerate(f.tolist()):
            xn = _norm(X[k])
            norms = np.array([_norm(W[k]) for W in layers])
            total = math.sqrt(np.add.reduce(norms**2))
            prod_all = float(np.prod(norms))
            val_mid = scale * prod_all * xn
            val_top = scale * total ** (L + 1) * xn / (L + 1) ** ((L + 1) / 2.0)
            worst = max(worst, _rel(abs(fk) - val_mid, val_mid), _rel(val_mid - val_top, val_top))
            for l, g in enumerate(grads):
                gn = _norm(g[k])
                others = prod_all / norms[l] if norms[l] > 0 else float(
                    np.prod(np.delete(norms, l))
                )
                g_mid = scale * others * xn
                g_top = scale * total**L * xn / L ** (L / 2.0)
                worst = max(worst, _rel(gn - g_mid, g_mid), _rel(g_mid - g_top, g_top))
    return CheckOutcome("value-grad-bounds", trials, worst, 1e-12)


def aligned_rank_one_witness(input_dim: int, width: int, seed: int) -> CheckOutcome:
    """Rank-1 aligned single-hidden-layer net meeting the value bound exactly.

    With A = c1 u v^T (u, v unit, v >= 0), a = c2 v and x = u, the output
    is (1/m^p) c1 c2 = (1/m^p) ||A|| ||a|| ||x||.
    """
    rng = _rng(seed)
    spec = NetworkSpec(input_dim, (), (width,), width, float(rng.uniform(0.0, 1.0)))
    u = rng.normal(size=input_dim)
    u /= np.linalg.norm(u)
    v = np.abs(rng.normal(size=width))
    v /= np.linalg.norm(v)
    c1, c2 = float(rng.uniform(0.5, 2.0)), float(rng.uniform(0.5, 2.0))
    params = Parameters(spec, [c1 * np.outer(u, v), c2 * v])
    f = float(batch_outputs(params, u[None, :])[0])
    target = spec.out_scale * c1 * c2
    return CheckOutcome("value-bound-witness", 1, _rel(abs(f - target), target), 1e-9)


def _layer_sq_norms(q: int, kappa: float, draws: int, rng) -> np.ndarray:
    """`draws` values of ||layer(0)||^2 for q iid N(0, kappa^2/q) entries: (kappa^2/q) chi^2_q."""
    return (kappa * kappa / q) * rng.chisquare(q, size=draws)


def init_concentration_test(
    spec: NetworkSpec, kappa: float, deltas: Sequence[float], draws: int, seed: int
) -> list[CheckOutcome]:
    """Empirical tail of ||layer(0)||^2 against its Bernstein threshold, one outcome per delta.

    Threshold: kappa^2 (1 + max(4 log(1/delta)/q, sqrt(8 log(1/delta)/q))).
    A delta's outcome passes when every layer's violation frequency stays
    within delta plus three binomial standard errors.  All deltas read the
    same draws.
    """
    deltas = tuple(deltas)
    if draws < 1000:
        raise ValueError("need at least 1000 draws for a meaningful frequency")
    if not all(0.0 < delta < 1.0 for delta in deltas):
        raise ValueError("delta must lie in (0, 1)")
    details = [[] for _ in deltas]
    worst = [-math.inf for _ in deltas]
    for li, q in enumerate(spec.layer_sizes()):
        sums = _layer_sq_norms(q, kappa, draws, _rng(seed, li))
        for di, delta in enumerate(deltas):
            logd = math.log(1.0 / delta)
            threshold = kappa * kappa * (1.0 + max(4.0 * logd / q, math.sqrt(8.0 * logd / q)))
            freq = int(np.count_nonzero(sums > threshold)) / draws
            details[di].append(f"q={q}:{freq:.4g}")
            worst[di] = max(worst[di], freq - delta)
    return [
        CheckOutcome(
            f"init-concentration-delta={delta}",
            draws * spec.n_layers,
            worst[di],
            3.0 * math.sqrt(delta * (1.0 - delta) / draws),
            detail=" ".join(details[di]),
        )
        for di, delta in enumerate(deltas)
    ]


def check_norm_dynamics(traj: Trajectory, lam: float) -> CheckOutcome:
    """Layer norms stay within the invariant the step-size budget promises.

    Discrete runs: ||layer(t)||^2 <= (1 + 2 lam^2) ||layer(0)||^2 + CL(t)
    at every logged step.  Gradient flow: each Euler substep obeys
    delta ||layer||^2 <= 2 h psi(t) + h^2 ||grad_layer||^2 exactly.
    """
    normsq = traj.normsq
    if traj.algorithm == "GF":
        h = float(traj.eta[0])
        allowed = 2.0 * h * traj.psi[:-1, None] + h * h * traj.gradsq
        slack = (np.diff(normsq, axis=0) - allowed) / (1.0 + np.abs(allowed))
        name = "norm-dynamics-gf"
    else:
        rhs = (1.0 + 2.0 * lam * lam) * normsq[0] + traj.cl[:, None]
        slack = (normsq - rhs) / (1.0 + np.abs(rhs))
        name = "norm-dynamics"
    return CheckOutcome(name, slack.size, float(np.max(slack, initial=-math.inf)), 1e-9)


# mc_rademacher_lower's sign rows per product: small enough that the
# product does not become the largest temporary array of a verify run
_SIGN_BLOCK = 16


def mc_rademacher_lower(
    spec: NetworkSpec,
    Q: np.ndarray,
    X: np.ndarray,
    hyp_samples: int,
    sigma_samples: int,
    seed: int,
) -> tuple[float, float]:
    """Monte-Carlo lower estimate of the empirical Rademacher complexity.

    Hypotheses are Gaussian draws rescaled so every layer sits exactly on
    its radius Q_l; the estimate averages max over hypotheses of the
    sign-weighted output sum.  Returns (estimate, closed-form upper bound).

    The hypotheses are drawn in stacked chunks of at most _CHUNK_BYTES of
    layers from the one normal stream, in the order and with the values
    init_gaussian(spec, 1.0, rng) gives one hypothesis after another, and
    each chunk goes through one forward pass.
    """
    Q = np.asarray(Q, dtype=float)
    if Q.shape != (spec.n_layers,) or np.any(Q <= 0):
        raise ValueError("Q must hold a positive radius per layer")
    n = X.shape[0]
    rng = _rng(seed)
    sizes = spec.layer_sizes()
    ends = np.cumsum(sizes).tolist()
    per_chunk = _per_chunk(spec, hyp_samples, n)
    F = np.empty((hyp_samples, n))
    for start in range(0, hyp_samples, per_chunk):
        h = min(per_chunk, hyp_samples - start)
        z = rng.standard_normal((h, ends[-1]))
        for q, end, radius in zip(sizes, ends, Q):
            W = z[:, end - q : end]
            W *= 1.0 / math.sqrt(q)
            W += 0.0  # rng.normal(0, 1/sqrt(q)) computes 0 + scale * z on this stream
            for row in W:
                row *= radius / _norm(row)
        layers = _stacked_layers(spec, z)
        F[start : start + h] = _forward_batch(Parameters._unchecked(spec, layers), X)[0]
    sigma = rng.choice([-1.0, 1.0], size=(sigma_samples, n))
    # max over hypotheses a block of sign rows at a time, not the whole product
    best = np.empty(sigma_samples)
    for i in range(0, sigma_samples, _SIGN_BLOCK):
        np.max(sigma[i : i + _SIGN_BLOCK] @ F.T, axis=1, out=best[i : i + _SIGN_BLOCK])
    estimate = float(np.mean(best)) / n
    return estimate, float(_norm_ball_complexity(spec, Q, n))


def exhaustive_rademacher_tiny(q1: float, q2: float, grid: int = 4096) -> tuple[float, float]:
    """Exact tiny case: one hidden unit on two planar points, all signs.

    The hypothesis ball is swept densely (direction grid times readout
    sign), the two Rademacher sign vectors are enumerated exhaustively.
    The readout -q2 negates each sign-weighted sum exactly, so the max over
    both readout signs is max(v.max(), -v.min()) over the sums v at +q2.
    """
    spec = NetworkSpec(2, (), (1,), 1, 0.0)
    X = np.array([[0.6, -0.2], [-0.3, 0.7]])
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    outs = X @ dirs.T * q1  # (2, grid)
    np.maximum(outs, 0.0, out=outs)
    outs *= q2
    total = 0.0
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            v = s1 * outs[0] + s2 * outs[1]
            total += max(v.max(), -v.min())
    estimate = total / 4.0 / 2.0
    upper = _norm_ball_complexity(spec, np.array([q1, q2]), X.shape[0])
    return float(estimate), float(upper)


def check_loss_decomposition(params: Parameters, dataset: Dataset) -> CheckOutcome:
    """Descent-rate decomposition under the quadratic loss.

    Identity: -(2/n) sum (f - y) f = -4 L_n - (2/n) sum (f - y) y, and per
    layer -2 <layer, d L_n/d layer> <= 2 psi(L_n).
    """
    y = dataset.targets
    n = dataset.n
    ln, grads, f = _loss_grad_outputs(params, dataset.inputs, y, 2)
    res = f - y
    lhs = -2.0 * float(res @ f) / n
    rhs = -4.0 * ln - 2.0 * float(res @ y) / n
    worst = _rel(abs(lhs - rhs), rhs)
    cap = 2.0 * psi(ln, dataset.c_y)
    for W, g in zip(params.layers, grads):
        descent = -2.0 * float(np.add.reduce(W * g, axis=None))
        worst = max(worst, _rel(descent - cap, cap))
    return CheckOutcome("loss-decomposition", 1 + len(grads), worst, 1e-10)


# ---------------------------------------------------------------------------
# Suites


def _merge(name: str, outcomes: list[CheckOutcome]) -> CheckOutcome:
    return CheckOutcome(
        name,
        sum(o.instances for o in outcomes),
        max(o.max_violation for o in outcomes),
        min(o.tolerance for o in outcomes),
    )


def _suite_homogeneity(seed: int, inject_bug: bool = False) -> list[CheckOutcome]:
    perturb = 1e-3 if inject_bug else 0.0
    rng = _rng(seed, 1000)
    fnn = [check_homogeneity(random_fnn_spec(rng), 25, seed + i, perturb) for i in range(20)]
    cnn = [check_homogeneity(random_cnn_spec(rng), 25, seed + 100 + i, perturb) for i in range(20)]
    return [_merge("homogeneity-fnn", fnn), _merge("homogeneity-cnn", cnn)]


def _suite_value_bounds(seed: int) -> list[CheckOutcome]:
    rng = _rng(seed, 2000)
    outs = [check_value_grad_bounds(random_fnn_spec(rng), 25, seed + i) for i in range(20)]
    outs += [check_value_grad_bounds(random_cnn_spec(rng), 25, seed + 100 + i) for i in range(20)]
    return [_merge("value-grad-bounds", outs), aligned_rank_one_witness(6, 5, seed)]


def _suite_init_concentration(seed: int) -> list[CheckOutcome]:
    spec = NetworkSpec(1, (), (16, 256), 256, 0.5)  # layer sizes 16, 4096, 256
    return init_concentration_test(spec, 1.5, (0.1, 0.01), 10_000, seed)


def _suite_norm_dynamics(seed: int) -> list[CheckOutcome]:
    ds = synth_regression(256, seed)
    spec = NetworkSpec(3, (), (32, 32), 32, math.log(4.0) / math.log(32.0))
    cfg = TrainConfig(algorithm="GD", alpha=1.0, t0=1, total_steps=150, seed=seed, kappa=2.0)
    cfg.eta = feasible_eta(spec, ds, cfg)
    gd = check_norm_dynamics(train(spec, ds, cfg), cfg.lam)
    gf_cfg = TrainConfig(
        algorithm="GF", duration=0.3, gf_substep=0.003, seed=seed, kappa=1.5
    )
    gf_spec = NetworkSpec(3, (), (16,), 16, 0.5)
    gf = check_norm_dynamics(train(gf_spec, synth_regression(128, seed + 1), gf_cfg), 0.5)
    return [gd, gf]


def _suite_rademacher(seed: int) -> list[CheckOutcome]:
    rng = _rng(seed, 3000)
    specs = [
        NetworkSpec(4, (), (8,), 8, 0.5),
        NetworkSpec(4, (1,), (4,), 4, 0.5),
        NetworkSpec(11, (3,), (6,), 6, 0.5),
    ]
    outs = []
    for si, spec in enumerate(specs):
        X = random_ball_points(rng, 8, spec.input_dim)
        worst = -math.inf
        for qi in range(6):
            Q = rng.uniform(0.5, 2.0, size=spec.n_layers)
            est, upper = mc_rademacher_lower(spec, Q, X, 200, 200, seed + 10 * si + qi)
            worst = max(worst, _rel(est - upper, upper))
        outs.append(CheckOutcome(f"rademacher-mc-{spec.kind.lower()}-{si}", 6, worst, 1e-12))
    est, upper = exhaustive_rademacher_tiny(1.3, 0.8)
    outs.append(CheckOutcome("rademacher-exhaustive", 1, _rel(est - upper, upper), 1e-12))
    return outs


def _suite_loss_decomposition(seed: int) -> list[CheckOutcome]:
    rng = _rng(seed, 4000)
    outs = []
    for i in range(40):
        spec = random_fnn_spec(rng) if i % 2 == 0 else random_cnn_spec(rng)
        params = init_gaussian(spec, rng.uniform(0.5, 2.0), rng)
        c_y = float(rng.uniform(0.1, 1.0))
        X = random_ball_points(rng, 16, spec.input_dim)
        y = rng.uniform(-c_y, c_y, size=16)
        outs.append(check_loss_decomposition(params, Dataset(X, y, c_y)))
    return [_merge("loss-decomposition", outs)]


SUITES = {
    "homogeneity": _suite_homogeneity,
    "value-bounds": _suite_value_bounds,
    "init-concentration": _suite_init_concentration,
    "norm-dynamics": _suite_norm_dynamics,
    "rademacher": _suite_rademacher,
    "loss-decomposition": _suite_loss_decomposition,
}

SUITE_NAMES = tuple(SUITES)


def run_suites(names, seed: int = 0, inject_bug: bool = False) -> list[CheckOutcome]:
    """Run the named suites (all by default) in request order; the first error propagates.

    inject_bug perturbs the homogeneity suite's gradients, the one suite that takes it.
    """
    names = list(names or SUITE_NAMES)
    for name in names:
        if name not in SUITES:
            raise ValueError(f"unknown suite '{name}'; choose from {', '.join(SUITE_NAMES)}")
    outcomes = []
    for name in names:
        suite = SUITES[name]
        outcomes += suite(seed, inject_bug) if name == "homogeneity" else suite(seed)
    return outcomes
