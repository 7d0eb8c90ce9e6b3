"""Training-trajectory generalization bounds for homogeneous ReLU networks.

The package trains small convolutional/fully-connected ReLU models with
gradient flow, (stochastic) gradient descent, or noisy gradient descent,
accumulates the loss-weighted norm growth seen along the way, and turns it
into post-hoc generalization bounds together with a battery of numerical
self-checks for every identity the bound assembly relies on.
"""

from .bounds import (
    LAMBDA_MAX,
    BoundReport,
    assemble_bound,
    bound_series,
    psi,
    rademacher_constant,
    sgld_bound,
)
from .checks import CheckOutcome, SUITE_NAMES, run_suites
from .data import (
    REGRESSION_C_Y,
    Dataset,
    inject_label_noise,
    load_idx,
    save_csv,
    split,
    synth_classification,
    synth_regression,
    target_fn,
    write_idx,
)
from .network import (
    NetworkSpec,
    Parameters,
    batch_outputs,
    grad_f,
    init_gaussian,
    loss_and_grad,
)
from .training import (
    ALGORITHMS,
    DivergenceError,
    TrainConfig,
    Trajectory,
    estimate_c_f,
    lr_schedule,
    max_feasible_eta,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "ALGORITHMS",
    "BoundReport",
    "CheckOutcome",
    "Dataset",
    "DivergenceError",
    "LAMBDA_MAX",
    "NetworkSpec",
    "Parameters",
    "REGRESSION_C_Y",
    "SUITE_NAMES",
    "TrainConfig",
    "Trajectory",
    "assemble_bound",
    "batch_outputs",
    "bound_series",
    "estimate_c_f",
    "grad_f",
    "init_gaussian",
    "inject_label_noise",
    "load_idx",
    "loss_and_grad",
    "lr_schedule",
    "max_feasible_eta",
    "psi",
    "rademacher_constant",
    "run_suites",
    "save_csv",
    "sgld_bound",
    "split",
    "synth_classification",
    "synth_regression",
    "target_fn",
    "train",
    "write_idx",
]
