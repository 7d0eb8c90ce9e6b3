"""Cumulative-loss generalization bounds and their ingredients.

The potential psi(L_n) = sqrt(2 L_n) (C_y - sqrt(2 L_n)) is capped by
C_y^2/4 and may go negative once the loss exceeds C_y^2/2.  Its
2*eta_t-weighted sum along a trajectory (the integral of 2 psi dt for
gradient flow) is the cumulative loss CL(T), which a Trajectory derives
from its logged losses into its cl column.  CL sets the radii Q_l of the
norm ball whose Rademacher complexity enters the bound:

    complexity = C_{L,d} / (m^p sqrt(n)) * prod_l Q_l,
    Q_l = sqrt((1 + 3 lam^2) ||layer_l(0)||^2 + max(CL, 0)),

with an extra (1 + rho) on both summands for minibatch trajectories, plus
a sqrt(log(1/delta)/n) confidence term.  `assemble_bound` evaluates it at
every CL prefix, and the checks bound their estimates by the same ball
function.  Hidden absolute constants are reported as 1.  A separate
information-theoretic bound covers SGLD.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

if TYPE_CHECKING:  # pragma: no cover
    from .network import NetworkSpec
    from .training import Trajectory

__all__ = [
    "LAMBDA_MAX",
    "psi",
    "rademacher_constant",
    "BoundReport",
    "assemble_bound",
    "bound_series",
    "sgld_bound",
]


# The norm-growth analysis needs 1 - 3 lam^2 > 0.
LAMBDA_MAX = 1.0 / math.sqrt(3.0)


def psi(ln, c_y: float, loss_power: int = 2):
    """Potential whose 2*eta_t-weighted sum along a run is the cumulative loss.

    For the square loss (loss_power 2) it is sqrt(2 ln) (c_y - sqrt(2 ln)),
    with max c_y^2/4 at ln = c_y^2/8; for the power-a loss |f-y|^a/a it is
    (a ln)^((a-1)/a) (c_y - (a ln)^(1/a)).  Accepts scalars or arrays;
    losses must be nonnegative.  The value is negative once ln > c_y^2/2
    (at a = 2), and callers accumulate it signed.  A Python float or 0-d
    array gives the bits of float arithmetic; for a > 2 a 1-D array's pow
    may differ in the last bit, so Trajectory computes psi per element.
    """
    if not (0.0 < c_y <= 1.0):
        raise ValueError("c_y must lie in (0, 1]")
    a = int(loss_power)
    if a < 2 or a != loss_power:
        raise ValueError("loss_power must be an integer >= 2")
    if type(ln) is float:
        if ln < 0.0:
            raise ValueError("loss must be nonnegative")
        if a == 2:
            root = math.sqrt(2.0 * ln)
            return root * (c_y - root)
        root = (a * ln) ** (1.0 / a)
        return root ** (a - 1) * (c_y - root)
    ln_arr = np.asarray(ln, dtype=float)
    if (ln_arr < 0).any():
        raise ValueError("loss must be nonnegative")
    if a == 2:
        root = np.sqrt(2.0 * ln_arr)
        out = root * (c_y - root)
    else:
        root = (a * ln_arr) ** (1.0 / a)
        out = root ** (a - 1) * (c_y - root)
    return float(out) if np.isscalar(ln) or ln_arr.ndim == 0 else out


def rademacher_constant(n_hidden: int, input_dim: int, kind: str) -> float:
    """Architecture constant C_{L,d} of the complexity bound.

    Fully-connected: sqrt(2 (L+1) log 2) + 1.  Convolutional:
    2 sqrt((L + 2 + log d) d), natural log.
    """
    if n_hidden < 1:
        raise ValueError("need at least one hidden layer")
    if input_dim < 1:
        raise ValueError("input_dim must be positive")
    if kind == "FNN":
        return math.sqrt(2.0 * (n_hidden + 1) * math.log(2.0)) + 1.0
    if kind == "CNN":
        return 2.0 * math.sqrt((n_hidden + 2 + math.log(input_dim)) * input_dim)
    raise ValueError("kind must be 'FNN' or 'CNN'")


@dataclass
class BoundReport:
    """Assembled generalization bound for one trajectory."""

    theorem: str
    algorithm: str
    kind: str
    n_hidden: int
    input_dim: int
    output_width: int
    norm_exponent: float
    constant: float
    n: int
    lam: float
    delta: float
    rho: float | None
    init_sq_norms: list[float]
    v: list[float]
    cl: float
    cl_clamped: bool
    cl_seed_mean: float | None
    complexity: float
    confidence: float
    bound: float
    bound_seed_mean: float | None
    hidden_constant: float = 1.0

    def to_dict(self) -> dict:
        from dataclasses import asdict

        return asdict(self)


def _theorem(algorithm: str, rho: float | None):
    """The theorem a run of `algorithm` is bounded under, its rho and (1 + rho) factor.

    The tag is the algorithm, with SGLD runs under the full-batch (GD)
    theorem.  Only the minibatch (SGD) theorem uses rho, which must then be
    positive; the others drop it and use factor 1.
    """
    theorem = "GD" if algorithm == "SGLD" else algorithm
    if theorem not in ("GF", "GD", "SGD"):
        raise ValueError(f"no bound for algorithm {algorithm!r}")
    if theorem != "SGD":
        return theorem, None, 1.0
    if rho is None or rho <= 0:
        raise ValueError("the minibatch bound needs rho > 0")
    return theorem, rho, 1.0 + rho


def _norm_ball_complexity(spec: "NetworkSpec", radii, n: int):
    """C_{L,d} / (m^p sqrt(n)) * prod_l radii_l over the last axis: the complexity of that ball."""
    const = rademacher_constant(spec.n_hidden, spec.input_dim, spec.kind)
    return const * spec.out_scale / math.sqrt(n) * np.prod(radii, axis=-1)


def assemble_bound(
    traj: "Trajectory",
    lam: float,
    delta: float = 0.05,
    rho: float | None = None,
    cl_seed_mean: float | None = None,
) -> tuple[BoundReport, np.ndarray]:
    """(report, series): a logged trajectory's bound at every CL prefix, reported at the last.

    The theorem follows the trajectory's algorithm (GF, GD, SGD); SGLD runs
    are assembled under the full-batch tag.  rho > 0 is required for SGD
    and scales both the init-norm and CL summands by (1 + rho); it is
    ignored (and reported as None) under the other theorems.  A negative
    CL is clamped to zero inside the product (flagged in the report) and
    kept raw alongside.
    """
    if not (0.0 < lam < LAMBDA_MAX):
        raise ValueError("lam must lie in (0, 1/sqrt(3))")
    if not (0.0 < delta < 1.0):
        raise ValueError("delta must lie in (0, 1)")
    theorem, rho, factor = _theorem(traj.algorithm, rho)
    spec, n = traj.spec, traj.n_train
    v = (1.0 + 3.0 * lam * lam) * np.asarray(traj.normsq[0], dtype=float)
    confidence = math.sqrt(math.log(1.0 / delta) / n)

    def complexity(cl):  # for a CL value, or for each entry of a CL series
        clp = np.maximum(np.asarray(cl, dtype=float), 0.0)[..., None]
        return _norm_ball_complexity(spec, np.sqrt(factor * (v + clp)), n)

    complexities = complexity(traj.cl)
    series = complexities + confidence
    bound_seed_mean = None
    if cl_seed_mean is not None:
        bound_seed_mean = float(complexity(cl_seed_mean)) + confidence
    cl_value = float(traj.cl[-1])
    return BoundReport(
        theorem=theorem,
        algorithm=traj.algorithm,
        kind=spec.kind,
        n_hidden=spec.n_hidden,
        input_dim=spec.input_dim,
        output_width=spec.output_width,
        norm_exponent=spec.norm_exponent,
        constant=rademacher_constant(spec.n_hidden, spec.input_dim, spec.kind),
        n=int(n),
        lam=lam,
        delta=delta,
        rho=rho,
        init_sq_norms=[float(x) for x in traj.normsq[0]],
        v=[float(x) for x in v],
        cl=cl_value,
        cl_clamped=cl_value < 0.0,
        cl_seed_mean=cl_seed_mean,
        complexity=float(complexities[-1]),
        confidence=confidence,
        bound=float(series[-1]),
        bound_seed_mean=bound_seed_mean,
    ), series


def bound_series(traj: "Trajectory", lam: float, delta: float = 0.05, rho: float | None = None):
    """Bound value at every logged step, using the CL prefix up to it: `assemble_bound`'s series."""
    return assemble_bound(traj, lam, delta, rho)[1]


def sgld_bound(loss_bound: float, lip: float, beta: float, n: int, eta_sum: float) -> float:
    """M Lip sqrt(beta/(8n) sum eta_t), the information-theoretic SGLD bound.

    loss_bound M caps the per-sample loss, lip is its Lipschitz constant in
    the parameters, eta_sum is the sum of the step sizes.  beta = inf (the
    noiseless limit) returns inf: the information bound carries no content
    for deterministic dynamics.
    """
    if loss_bound <= 0 or lip <= 0:
        raise ValueError("loss_bound and lip must be positive")
    if n < 1:
        raise ValueError("n must be positive")
    if beta != math.inf and beta <= 0:
        raise ValueError("beta must be positive or inf")
    if beta == math.inf:
        return math.inf
    if eta_sum < 0:
        raise ValueError("eta_sum must be nonnegative")
    return loss_bound * lip * math.sqrt(beta / (8.0 * n) * eta_sum)
