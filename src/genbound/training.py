"""Training loops (GF, GD, SGD, SGLD) with full trajectory logging.

Every step logs the full-data loss and per-layer squared parameter norms,
from which `Trajectory` derives psi and the cumulative loss CL: the columns
the bound assembly and the norm-dynamics checks consume.
The learning-rate schedule is eta_t = eta / ceil((t+1)/T0)**alpha, and the
feasibility threshold `max_feasible_eta` gives the largest base rate the
norm-growth guarantee supports.
"""

from __future__ import annotations

import itertools
import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .bounds import LAMBDA_MAX, psi
from .network import (
    NetworkSpec,
    Parameters,
    _loss_grad_outputs,
    _power_loss,
    _sq_norms,
    batch_outputs,
    init_gaussian,
)

__all__ = [
    "ALGORITHMS",
    "TrainConfig",
    "Trajectory",
    "DivergenceError",
    "lr_schedule",
    "estimate_c_f",
    "max_feasible_eta",
    "feasible_eta",
    "train",
]

ALGORITHMS = ("GF", "GD", "SGD", "SGLD")

# Abort threshold for the divergence guard.
_LOSS_CAP = 1e6

# Doubles of inputs and targets gathered per block of SGD minibatches (64 KiB).
_BATCH_BLOCK = 1 << 13

# Factor on the observed max |f| in `estimate_c_f`.
_C_F_MARGIN = 1.1


class FieldError(ValueError):
    """A TrainConfig field out of range; `field` names it."""

    def __init__(self, field: str, message: str):
        super().__init__(message)
        self.field = field


@dataclass
class TrainConfig:
    """Hyperparameters shared by all algorithms; unused fields are ignored.

    lam and epsilon only enter the feasibility threshold; kappa scales the
    Gaussian initialization; duration and gf_substep apply to GF only.
    """

    algorithm: str = "GD"
    eta: float = 0.1
    alpha: float = 1.0
    t0: int = 1
    batch: int = 1
    beta: float | None = None
    total_steps: int = 100
    duration: float | None = None
    gf_substep: float | None = None
    seed: int = 0
    loss_power: int = 2
    lam: float = 0.5
    epsilon: float | None = None
    kappa: float = 1.0

    def validate(self, n_hidden: int | None = None) -> None:
        """Range-check the fields: a FieldError names the one at fault, except
        the seed (it may come from the command line), which raises ValueError."""
        if self.algorithm not in ALGORITHMS:
            raise FieldError("algorithm", f"algorithm must be one of {ALGORITHMS}")
        if self.eta <= 0:
            raise FieldError("eta", "eta must be positive")
        if self.t0 < 1 or int(self.t0) != self.t0:
            raise FieldError("t0", "t0 must be an integer >= 1")
        if not (0.0 < self.alpha <= 1.0):
            raise FieldError("alpha", "alpha must lie in (0, 1]")
        if not (0.0 < self.lam < LAMBDA_MAX):
            raise FieldError("lam", "lam must lie in (0, 1/sqrt(3))")
        if self.epsilon is not None and not (0.0 < self.epsilon < 1.0):
            raise FieldError("epsilon", "epsilon must lie in (0, 1)")
        if self.kappa <= 0:
            raise FieldError("kappa", "kappa must be positive")
        if self.seed < 0 or int(self.seed) != self.seed:
            raise ValueError("seed must be a nonnegative integer")
        if self.loss_power < 2 or int(self.loss_power) != self.loss_power:
            raise FieldError("loss_power", "loss_power must be an integer >= 2")
        if self.total_steps < 0:
            raise FieldError("total_steps", "total_steps must be nonnegative")
        if self.algorithm == "SGD" and self.batch < 1:
            raise FieldError("batch", "batch must be >= 1 for SGD")
        if self.algorithm == "SGLD":
            if self.beta is None or (self.beta != math.inf and self.beta <= 0):
                raise FieldError("beta", "SGLD needs beta > 0 (or inf for the noiseless limit)")
        if self.algorithm == "GF":
            if self.duration is None or self.duration <= 0:
                raise FieldError("duration", "GF needs a positive duration")
            if self.gf_substep is not None and self.gf_substep <= 0:
                raise FieldError("gf_substep", "gf_substep must be positive")
        if n_hidden is not None and self.algorithm in ("GD", "SGD"):
            lo = (n_hidden + 1) / (n_hidden + 2)
            if self.alpha <= lo:
                warnings.warn(
                    f"alpha={self.alpha} is at or below {lo:.4g}, outside the "
                    f"range the norm-growth guarantee covers at depth {n_hidden + 1}"
                )


@dataclass
class Trajectory:
    """Logged run: one row per step t = 0..T plus per-transition data.

    psi and cl are derived, not passed in: psi[t] = psi(ln_train[t]), and
    cl[t] is the prefix sum of 2*eta_s*psi_s for s < t, so cl[0] = 0 and
    cl[-1] is the realized cumulative loss CL(T) that the bound reads.  For
    GF, steps counts Euler substeps, times = steps*h, eta[t] = h, and cl[t]
    is instead the trapezoid integral of 2*psi dt over times[:t+1].  gradsq
    has one row per transition (the per-layer squared gradient norms used
    by the update).  A trajectory read back from a CSV has no seed, gradsq,
    max_abs_f or final_params; those fields are None.
    """

    algorithm: str
    spec: NetworkSpec
    times: np.ndarray
    eta: np.ndarray
    ln_train: np.ndarray
    ln_test: np.ndarray
    normsq: np.ndarray
    c_y: float
    loss_power: int
    n_train: int
    seed: int | None = None
    gradsq: np.ndarray | None = None
    max_abs_f: float | None = None
    final_params: Parameters | None = None
    diverged_at: int | None = None
    psi: np.ndarray = field(init=False)
    cl: np.ndarray = field(init=False)

    def __post_init__(self):
        # per element on Python floats: see `psi` on the array path's bits
        self.psi = np.array([psi(ln, self.c_y, self.loss_power) for ln in self.ln_train.tolist()])
        if self.algorithm == "GF":
            terms = (self.psi[:-1] + self.psi[1:]) * np.diff(self.times)
        else:
            terms = 2.0 * self.eta[:-1] * self.psi[:-1]
        self.cl = np.cumsum(np.concatenate(([0.0], terms)))

    @property
    def steps(self) -> np.ndarray:
        return np.arange(self.ln_train.shape[0])

    @property
    def has_test(self) -> bool:
        return bool(np.any(np.isfinite(self.ln_test)))


class DivergenceError(RuntimeError):
    """Raised when the loss explodes or a step leaves non-finite parameters.

    Carries the partial run, whose last row is the step that failed.
    """

    def __init__(self, step: int, loss: float, trajectory: Trajectory):
        super().__init__(f"training diverged at step {step}: loss {loss:.6g}")
        self.step = step
        self.loss = loss
        self.trajectory = trajectory


def lr_schedule(t: int, eta: float, alpha: float, t0: int) -> float:
    """eta_t = eta / ceil((t+1)/t0)**alpha."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    return eta / float(t // t0 + 1) ** alpha


def _update(
    params: Parameters,
    grads,
    eta_t: float,
    config: TrainConfig,
    rng,
    minibatch=None,
    workspace=None,
):
    """One step of config.algorithm; returns (new params, gradient the step used).

    GD and GF move along the full-data gradient `grads`.  SGD ignores it and
    moves along the gradient of `minibatch`, the step's (inputs, targets),
    computed in `workspace`; `train` draws the minibatches with
    `_minibatches`.  SGLD adds N(0, 2*eta_t/beta) noise from rng to the GD
    step (none at beta = inf).  The result skips the entry scan of
    `Parameters`: `train` checks the logged layer norms instead, so an
    overflow ends as a divergence.
    """
    if config.algorithm == "SGD":
        _, grads, _ = _loss_grad_outputs(params, *minibatch, config.loss_power, workspace)
    layers = [w - eta_t * g for w, g in zip(params.layers, grads)]
    if config.algorithm == "SGLD" and config.beta != math.inf:
        scale = math.sqrt(2.0 * eta_t / config.beta)
        layers = [w + rng.normal(0.0, scale, size=w.shape) for w in layers]
    return Parameters._unchecked(params.spec, layers), grads


def _minibatches(dataset, batch: int, steps: int, rng):
    """Yields the (inputs, targets) of `steps` SGD minibatches of `batch` indices from rng.

    A block of steps is drawn and gathered at once, each step a row view of
    it.  The indices, and rng's state after each block, are those of one
    `rng.integers(0, n, size=batch)` per step: numpy fills the block from
    the same 32-bit outputs in the same order.
    """
    rows = max(1, _BATCH_BLOCK // (batch * (dataset.dim + 1)))
    for start in range(0, steps, rows):
        idx = rng.integers(0, dataset.n, size=(min(rows, steps - start), batch))
        X, y = dataset.inputs[idx], dataset.targets[idx]
        for r in range(idx.shape[0]):
            yield X[r], y[r]


def _batch_loss(params, ds, loss_power, workspace) -> tuple[float, np.ndarray]:
    """Loss and outputs on dataset ds from a forward pass alone."""
    f = batch_outputs(params, ds.inputs, workspace)
    return _power_loss(f - ds.targets, loss_power), f


def estimate_c_f(params: Parameters, X: np.ndarray) -> float:
    """Working output-scale estimate: the observed max |f| times a margin."""
    return _C_F_MARGIN * float(np.max(np.abs(batch_outputs(params, X))))


def max_feasible_eta(
    init_norms: np.ndarray,
    spec: NetworkSpec,
    config: TrainConfig,
    c_f: float,
    c_y: float,
) -> float:
    """Largest base learning rate the norm-growth guarantee supports.

    Three ceilings apply per layer: the first keeps single-step moves below
    lam*||layer(0)||, the remaining two keep the accumulated schedule mass
    below the same budget.  alpha must exceed (L+1)/(L+2); alpha = 1 uses
    the epsilon-shifted form (default epsilon = 1/(L+1)).
    """
    L = spec.n_hidden
    if c_f <= 0 or c_y <= 0:
        raise ValueError("c_f and c_y must be positive")
    if not (0.0 < config.lam < LAMBDA_MAX):
        raise ValueError("lam must lie in (0, 1/sqrt(3))")
    if config.t0 < 1:
        raise ValueError("t0 must be >= 1")
    lo = (L + 1) / (L + 2)
    if not (lo < config.alpha <= 1.0):
        raise ValueError(f"alpha must lie in ({lo:.6g}, 1] for depth {L + 1}")
    lam, t0, alpha = config.lam, float(config.t0), config.alpha
    init_norms = np.asarray(init_norms, dtype=float)
    if init_norms.shape != (spec.n_layers,) or np.any(init_norms <= 0):
        raise ValueError("init_norms must hold a positive norm per layer")
    mp = 1.0 / spec.out_scale
    depth_gain = float(L) ** ((L - 1) / 2.0)
    lam_growth = (1.0 + 3.0 * lam * lam) ** (L / 2.0)
    # the alpha-dependent terms of t2 and t3; alpha = 1 takes the epsilon-shifted form
    if alpha == 1.0:
        eps = config.epsilon if config.epsilon is not None else 1.0 / (L + 1)
        power, gap, decay = eps, eps, (1.0 + eps) / 2.0
    else:
        power, gap, decay = alpha, (L + 2) * alpha - (L + 1), ((L + 2) * alpha - L) / 2.0
    best = math.inf
    for norm0 in init_norms:
        t1 = lam * mp * depth_gain / ((c_f + c_y) * norm0 ** (L - 1))
        t2 = 2.0 * (1.0 - power) * lam * lam * norm0 * norm0 / (c_y * c_y * t0)
        t3 = (
            lam
            * mp
            * depth_gain
            * math.sqrt(gap)
            / ((c_f + c_y) * t0 ** decay * lam_growth * norm0 ** (L - 1))
        )
        best = min(best, t1, t2, t3)
    return best


def feasible_eta(spec: NetworkSpec, dataset, config: TrainConfig) -> float:
    """`max_feasible_eta` at the run's own initialization, the rate eta="auto" resolves to.

    The parameters are init_gaussian(spec, config.kappa, config.seed), and
    c_f is estimated on dataset's inputs.
    """
    params0 = init_gaussian(spec, config.kappa, config.seed)
    c_f = estimate_c_f(params0, dataset.inputs)
    return max_feasible_eta(params0.norms(), spec, config, c_f, dataset.c_y)


def train(
    spec: NetworkSpec,
    dataset,
    config: TrainConfig,
    test_dataset=None,
) -> Trajectory:
    """Initialize and run the configured algorithm, returning the full log.

    GF is explicit Euler at the constant rate h = gf_substep (default
    eta/100) for max(1, round(duration/h)) substeps; the other algorithms
    follow the schedule `lr_schedule` for total_steps steps.  Logged losses
    are always full-data quantities, also under SGD; the minibatch only
    drives the update.  Raises DivergenceError (carrying the partial
    trajectory) if the loss exceeds 1e6 or turns non-finite, or a step
    leaves non-finite parameters.
    """
    config.validate(spec.n_hidden)
    for ds in (dataset, test_dataset):
        # a Dataset already keeps its inputs in the unit ball
        if ds is not None and ds.inputs.shape[1] != spec.input_dim:
            raise ValueError(
                f"expected inputs of shape (n, {spec.input_dim}), got {ds.inputs.shape}"
            )
    params = init_gaussian(spec, config.kappa, config.seed)
    if config.algorithm == "GF":
        h = config.gf_substep if config.gf_substep is not None else config.eta / 100.0
        n_steps = max(1, int(round(config.duration / h)))
    else:
        h, n_steps = 1.0, config.total_steps
    # SGD minibatches and SGLD noise each have their own seed stream
    stream = 17 if config.algorithm == "SGD" else 29
    rng = np.random.default_rng(np.random.SeedSequence([int(config.seed), stream]))
    if config.algorithm == "SGD":
        batches = _minibatches(dataset, config.batch, n_steps, rng)
    else:
        batches = itertools.repeat(None)
    # row t of each column is written in place; gradsq has a row per transition
    times = np.arange(n_steps + 1) * h
    eta, ln_train = np.empty(n_steps + 1), np.empty(n_steps + 1)
    ln_test = np.full(n_steps + 1, math.nan)
    normsq = np.empty((n_steps + 1, spec.n_layers))
    gradsq = np.empty((n_steps, spec.n_layers))
    max_abs_f = 0.0

    def trajectory(rows: int, diverged_at=None) -> Trajectory:
        return Trajectory(
            algorithm=config.algorithm,
            spec=spec,
            times=times[:rows],
            eta=eta[:rows],
            ln_train=ln_train[:rows],
            ln_test=ln_test[:rows],
            normsq=normsq[:rows],
            c_y=dataset.c_y,
            loss_power=config.loss_power,
            n_train=dataset.n,
            seed=config.seed,
            gradsq=gradsq[: rows - 1],
            max_abs_f=max_abs_f,
            final_params=params,
            diverged_at=diverged_at,
        )

    # buffers reused by every step: full data, SGD minibatch, test set
    ws_full, ws_batch, ws_test = {}, {}, {}
    # an overflow or NaN shows in the logged loss and norms, which raise the
    # one divergence error; numpy's warnings would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        for t in range(n_steps + 1):
            if config.algorithm == "GF":
                eta_t = h
            else:
                eta_t = lr_schedule(t, config.eta, config.alpha, config.t0)
            if config.algorithm == "SGD" or t == n_steps:  # the last row needs no gradient
                ln, f = _batch_loss(params, dataset, config.loss_power, ws_full)
                grads = None
            else:
                ln, grads, f = _loss_grad_outputs(
                    params, dataset.inputs, dataset.targets, config.loss_power, ws_full
                )
            max_abs_f = max(max_abs_f, float(np.abs(f).max()))
            if test_dataset is not None:
                ln_test[t], f_te = _batch_loss(params, test_dataset, config.loss_power, ws_test)
                max_abs_f = max(max_abs_f, float(np.abs(f_te).max()))
            eta[t], ln_train[t] = eta_t, ln
            norms = _sq_norms(params.layers, normsq[t])
            if not math.isfinite(ln) or ln > _LOSS_CAP or not np.isfinite(norms).all():
                raise DivergenceError(t, ln, trajectory(t + 1, diverged_at=t))
            if t == n_steps:
                break
            params, grads = _update(params, grads, eta_t, config, rng, next(batches), ws_batch)
            _sq_norms(grads, gradsq[t])
    return trajectory(n_steps + 1)
