"""Independent reference implementations used to cross-check the package.

Everything here is deliberately written in a different style from the
library code (explicit dense matrices, plain Python loops) so that an
agreement between the two routes actually means something.
"""

import math

import numpy as np

from genbound.bounds import psi
from genbound.checks import CheckOutcome, _rel, _rng, random_ball_points
from genbound.data import Dataset
from genbound.network import (
    Parameters,
    _forward_batch,
    _norm,
    _value_grad,
    batch_outputs,
    init_gaussian,
    loss_and_grad,
)
from genbound.training import lr_schedule


def conv_matrix(kernel: np.ndarray, m_in: int) -> np.ndarray:
    """Dense matrix M with (M @ z)[k] = sum_j kernel[j] * z[j + k]."""
    s = kernel.shape[0]
    m_out = (m_in - s + 1) // s
    rows = m_out * s
    mat = np.zeros((rows, m_in))
    for k in range(rows):
        for j in range(s):
            mat[k, j + k] = kernel[j]
    return mat


def pool_matrix(m_out: int, s: int) -> np.ndarray:
    """Dense averaging matrix P with (P @ y)[i] = mean(y[i*s : (i+1)*s])."""
    mat = np.zeros((m_out, m_out * s))
    for i in range(m_out):
        for r in range(s):
            mat[i, i * s + r] = 1.0 / s
    return mat


def dense_forward(params, x: np.ndarray) -> float:
    """Network output via explicit matrix products, one layer at a time."""
    spec = params.spec
    z = np.asarray(x, dtype=float).copy()
    idx = 0
    for s in spec.conv_kernels:
        kernel = params.layers[idx]
        m_in = z.shape[0]
        mat = conv_matrix(kernel, m_in)
        pre = mat @ z
        act = np.maximum(pre, 0.0)
        m_out = (m_in - s + 1) // s
        z = pool_matrix(m_out, s) @ act
        idx += 1
    for _ in spec.fc_widths:
        w = params.layers[idx]
        pre = w.T @ z
        z = np.maximum(pre, 0.0)
        idx += 1
    a = params.layers[idx]
    return float(spec.out_scale * (a @ z))


def finite_diff_grad(params, x: np.ndarray, h: float) -> list[np.ndarray]:
    """Central finite differences of the output in every parameter.

    Each entry is moved in place and restored, so params ends unchanged.
    """
    grads = []
    for W in params.layers:
        g = np.empty_like(W)
        flat_w = W.ravel()
        flat_g = g.ravel()
        for i in range(flat_w.size):
            orig = flat_w[i]
            flat_w[i] = orig + h
            f_plus = batch_outputs(params, x[None, :])[0]
            flat_w[i] = orig - h
            f_minus = batch_outputs(params, x[None, :])[0]
            flat_w[i] = orig
            flat_g[i] = (f_plus - f_minus) / (2.0 * h)
        grads.append(g)
    return grads


def sample_kink_free(params, rng, margin: float, max_tries: int = 500):
    """Input in the unit ball whose pre-activations all clear `margin`, and its smallest |pre|."""
    for _ in range(max_tries):
        x = random_ball_points(rng, 1, params.spec.input_dim)[0]
        _, zs, pres = _forward_batch(params, x[None, :])
        # an fc layer's pre-activation is overwritten by its activation; recompute it
        pres = [pre if l < params.spec.n_conv else zs[l] @ params.layers[l] for l, pre in enumerate(pres)]
        smallest = min(float(np.min(np.abs(pre))) for pre in pres)
        if smallest >= margin:
            return x, smallest
    raise RuntimeError(f"no kink-free input found within {max_tries} tries")


def fnn_loss_grad_where(params, X: np.ndarray, y: np.ndarray, loss_power: int):
    """(loss, layer gradients, outputs) of a fully-connected net, fresh arrays.

    The exception to the different-style rule: this is the batched backprop
    the package ran before its workspace buffers, ReLU masks by `np.where`,
    kept operation for operation so a comparison with it can be bitwise,
    signed zeros included.
    """
    spec = params.spec
    zs, pres = [X], []
    for w in params.layers[:-1]:
        pres.append(zs[-1] @ w)
        zs.append(np.maximum(pres[-1], 0.0))
    f = (zs[-1] @ params.layers[-1]) * spec.out_scale
    n = X.shape[0]
    res = f - y
    if loss_power == 2:
        loss = 0.5 * float(res @ res) / n
        coef = res / n
    else:
        loss = float(np.sum(np.abs(res) ** loss_power)) / (loss_power * n)
        coef = np.sign(res) * np.abs(res) ** (loss_power - 1) / n
    grads = [None] * len(params.layers)
    grads[-1] = spec.out_scale * (zs[-1].T @ coef)
    G = spec.out_scale * np.outer(coef, params.layers[-1])
    for l in range(len(params.layers) - 2, -1, -1):
        D = np.where(pres[l] > 0.0, G, 0.0)
        grads[l] = zs[l].T @ D
        G = D @ params.layers[l].T
    return loss, grads, f


def write_trajectory_csv_per_cell(traj, series, path) -> None:
    """The trajectory CSV written cell by cell: each entry read by index and formatted alone.

    The exception to the different-style rule: the package's writer before
    it formatted a column at a time, kept so a comparison can be byte for byte.
    """
    n_layers = traj.normsq.shape[1]
    cols = (
        ["t", "eta_t", "Ln_train", "Ln_test", "psi", "CL"]
        + [f"normsq_{l + 1}" for l in range(n_layers)]
        + ["bound_prefix"]
    )
    t_col = traj.times if traj.algorithm == "GF" else traj.steps
    with open(path, "w", newline="") as fh:
        fh.write(",".join(cols) + "\n")
        for k in range(traj.steps.shape[0]):
            row = [
                repr(float(t_col[k])) if traj.algorithm == "GF" else str(int(t_col[k])),
                repr(float(traj.eta[k])),
                repr(float(traj.ln_train[k])),
                repr(float(traj.ln_test[k])),
                repr(float(traj.psi[k])),
                repr(float(traj.cl[k])),
            ]
            row += [repr(float(traj.normsq[k, l])) for l in range(n_layers)]
            row.append(repr(float(series[k])))
            fh.write(",".join(row) + "\n")
        if traj.diverged_at is not None:
            fh.write(f"# diverged at step {traj.diverged_at}\n")


def cl_resum(eta: np.ndarray, psi: np.ndarray) -> np.ndarray:
    """Prefix sums of 2*eta*psi by plain accumulation; row t excludes step t."""
    out = [0.0]
    total = 0.0
    for k in range(len(eta) - 1):
        total += 2.0 * float(eta[k]) * float(psi[k])
        out.append(total)
    return np.array(out)


def sgd_per_step(spec, ds, test_ds, config):
    """An SGD run drawing each step's minibatch with its own `rng.integers(0, n, size=batch)`.

    Returns the logged columns by name (cl by `cl_resum`) and the final layers.
    """
    rng = np.random.default_rng(np.random.SeedSequence([config.seed, 17]))
    params = init_gaussian(spec, config.kappa, config.seed)
    cols = {name: [] for name in ("eta", "ln_train", "ln_test", "psi", "normsq", "gradsq")}
    for t in range(config.total_steps + 1):
        ln, _ = loss_and_grad(params, ds.inputs, ds.targets, config.loss_power)
        cols["eta"].append(lr_schedule(t, config.eta, config.alpha, config.t0))
        cols["ln_train"].append(ln)
        ln_test, _ = loss_and_grad(params, test_ds.inputs, test_ds.targets, config.loss_power)
        cols["ln_test"].append(ln_test)
        cols["psi"].append(psi(ln, ds.c_y, config.loss_power))
        cols["normsq"].append([float(np.sum(w * w)) for w in params.layers])
        if t == config.total_steps:
            break
        idx = rng.integers(0, ds.n, size=config.batch)
        _, grads = loss_and_grad(params, ds.inputs[idx], ds.targets[idx], config.loss_power)
        cols["gradsq"].append([float(np.sum(g * g)) for g in grads])
        params = Parameters(spec, [w - cols["eta"][-1] * g for w, g in zip(params.layers, grads)])
    out = {name: np.array(col) for name, col in cols.items()}
    out["cl"] = cl_resum(out["eta"], out["psi"])
    return out, params.layers


def cl_trapezoid(times, psi) -> np.ndarray:
    """Trapezoid integrals of 2*psi dt from times[0] to each times[t]."""
    out = [0.0]
    for k in range(len(times) - 1):
        width = float(times[k + 1]) - float(times[k])
        out.append(out[-1] + width * (float(psi[k]) + float(psi[k + 1])))
    return np.array(out)


def gf_closed_form_loss(t, ln0, c):
    """Loss along gradient flow of the width-1 net a*relu(w) on (x=1, y=0).

    With f = a w and w > 0 the flow w' = -f a, a' = -f w keeps
    c = w^2 - a^2 fixed, and f' = -f (w^2 + a^2) = -f sqrt(c^2 + 4 f^2)
    integrates to |f(t)| = |c| / (2 sinh(asinh(|c| / (2 |f(0)|)) + |c| t)).
    The loss is f^2 / 2, starting from ln0.
    """
    c = abs(c)
    f0 = np.sqrt(2.0 * ln0)
    f = c / (2.0 * np.sinh(np.arcsinh(c / (2.0 * f0)) + c * np.asarray(t, dtype=float)))
    return 0.5 * f * f


def layer_tail_probability(q: int, kappa: float, threshold: float) -> float:
    """Exact P(||layer||^2 > threshold) for q iid N(0, kappa^2/q) entries."""
    from scipy.stats import chi2

    return float(chi2.sf(threshold * q / kappa**2, df=q))


def init_gaussian_reference(spec, kappa: float, seed: int) -> list[np.ndarray]:
    """Layers of init_gaussian(spec, kappa, seed), drawn as numpy's own scalar math gives them."""
    rng = np.random.default_rng(seed)
    return [
        rng.normal(0.0, kappa / np.sqrt(int(np.prod(shape))), size=shape)
        for shape in spec.layer_shapes
    ]


def init_row_sums(q: int, kappa: float, draws: int, rng) -> np.ndarray:
    """||layer||^2 for `draws` layers of q iid N(0, kappa^2/q) entries, drawn in one shot."""
    z = rng.normal(0.0, kappa / np.sqrt(q), size=(draws, q))
    return np.einsum("ij,ij->i", z, z)


def norm_dynamics_worst(traj, lam: float) -> float:
    """Worst relative slack of the norm-dynamics invariant, step by step and layer by layer."""
    worst = -np.inf
    if traj.algorithm == "GF":
        h = float(traj.eta[0])
        for k in range(traj.gradsq.shape[0]):
            for l in range(traj.normsq.shape[1]):
                allowed = 2.0 * h * traj.psi[k] + h * h * traj.gradsq[k, l]
                inc = traj.normsq[k + 1, l] - traj.normsq[k, l]
                worst = max(worst, (inc - allowed) / (1.0 + abs(allowed)))
        return worst
    for k in range(traj.normsq.shape[0]):
        for l in range(traj.normsq.shape[1]):
            rhs = (1.0 + 2.0 * lam * lam) * traj.normsq[0, l] + traj.cl[k]
            worst = max(worst, (traj.normsq[k, l] - rhs) / (1.0 + abs(rhs)))
    return worst


def psi_reference(ln: float, c_y: float) -> float:
    root = np.sqrt(2.0 * ln)
    return float(root * (c_y - root))


def power_integrand_reference(ln: float, c_y: float, alpha: int) -> float:
    base = alpha * ln
    return float(base ** ((alpha - 1) / alpha) * (c_y - base ** (1.0 / alpha)))


def load_csv(path) -> Dataset:
    """Reads back a dataset written by `genbound.data.save_csv`."""
    with open(path) as fh:
        meta = fh.readline().strip()
        if not meta.startswith("# c_y="):
            raise ValueError(f"{path}: missing dataset metadata line")
        fields = dict(part.split("=", 1) for part in meta[2:].split(" "))
        fh.readline()  # header
        rows = [[float(v) for v in line.split(",")] for line in fh if line.strip()]
    arr = np.array(rows)
    return Dataset(arr[:, :-1], arr[:, -1], float(fields["c_y"]), fields["split"])


def mc_rademacher_estimate_per_hypothesis(spec, Q, X, hyp_samples: int, sigma_samples: int, seed: int) -> float:
    """The Monte-Carlo Rademacher estimate drawing and evaluating one hypothesis at a time.

    The exception to the different-style rule: the package's estimate before
    it stacked its hypotheses, kept draw for draw so a comparison can be bitwise.
    """
    n = X.shape[0]
    rng = np.random.default_rng(np.random.SeedSequence([int(seed)]))
    F = np.empty((hyp_samples, n))
    for hi in range(hyp_samples):
        params = init_gaussian(spec, 1.0, rng)
        layers = [W * (radius / np.linalg.norm(W)) for W, radius in zip(params.layers, Q)]
        F[hi] = batch_outputs(Parameters(spec, layers), X)
    sigma = rng.choice([-1.0, 1.0], size=(sigma_samples, n))
    return float(np.mean(np.max(sigma @ F.T, axis=1))) / n


def exhaustive_rademacher_tiny_concat(q1: float, q2: float, grid: int = 4096) -> float:
    """The exhaustive tiny-case estimate with both readout signs laid side by side in one array."""
    X = np.array([[0.6, -0.2], [-0.3, 0.7]])
    thetas = np.linspace(0.0, 2.0 * math.pi, grid, endpoint=False)
    dirs = np.stack([np.cos(thetas), np.sin(thetas)], axis=1)
    acts = np.maximum(X @ dirs.T * q1, 0.0)
    outs = np.concatenate([q2 * acts, -q2 * acts], axis=1)
    total = 0.0
    for s1 in (-1.0, 1.0):
        for s2 in (-1.0, 1.0):
            total += np.max(s1 * outs[0] + s2 * outs[1])
    return float(total / 4.0 / 2.0)


def trials_one_at_a_time(spec, trials: int, seed: int):
    """Yields (parameters, point) of each random trial of the trial checks, one trial at a time.

    The trial contract: one stream keyed (seed, 5000) gives every kappa,
    then every point, then trial k's layers as init_gaussian(spec,
    kappas[k], rng) continuing the stream.
    """
    rng = _rng(seed, 5000)
    kappas = rng.uniform(0.5, 2.0, size=trials)
    points = random_ball_points(rng, trials, spec.input_dim)
    for k in range(trials):
        yield init_gaussian(spec, kappas[k], rng), points[k]


def check_homogeneity_per_trial(spec, trials: int, seed: int, grad_perturb: float = 0.0):
    """The homogeneity check drawing and differentiating one trial at a time.

    The exception to the different-style rule: the package's check before
    it stacked its trials, kept operation for operation on the trials of
    `trials_one_at_a_time` so a comparison can be bitwise.
    """
    worst = 0.0
    L1 = spec.n_layers
    for params, x in trials_one_at_a_time(spec, trials, seed):
        f, grads = _value_grad(params, x)
        f = float(f)
        if grad_perturb:
            grads[0].ravel()[0] += grad_perturb
        total = 0.0
        for W, g in zip(params.layers, grads):
            dot = float(np.add.reduce(W * g, axis=None))
            total += dot
            worst = max(worst, _rel(abs(dot - f), f))
        worst = max(worst, _rel(abs(total - L1 * f), L1 * f))
    return CheckOutcome("homogeneity", trials, worst, 1e-9)


def check_value_grad_bounds_per_trial(spec, trials: int, seed: int):
    """The norm-product ceiling check drawing and differentiating one trial at a time.

    The exception to the different-style rule, as `check_homogeneity_per_trial`.
    """
    worst = -math.inf
    L = spec.n_hidden
    for params, x in trials_one_at_a_time(spec, trials, seed):
        xn = _norm(x)
        f, grads = _value_grad(params, x)
        f = float(f)
        norms = params.norms()
        total = math.sqrt(np.add.reduce(norms**2))
        scale = spec.out_scale
        prod_all = float(np.prod(norms))
        val_mid = scale * prod_all * xn
        val_top = scale * total ** (L + 1) * xn / (L + 1) ** ((L + 1) / 2.0)
        worst = max(worst, _rel(abs(f) - val_mid, val_mid), _rel(val_mid - val_top, val_top))
        for l, g in enumerate(grads):
            gn = _norm(g)
            others = prod_all / norms[l] if norms[l] > 0 else float(np.prod(np.delete(norms, l)))
            g_mid = scale * others * xn
            g_top = scale * total**L * xn / L ** (L / 2.0)
            worst = max(worst, _rel(gn - g_mid, g_mid), _rel(g_mid - g_top, g_top))
    return CheckOutcome("value-grad-bounds", trials, worst, 1e-12)
