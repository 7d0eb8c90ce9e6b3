"""Datasets: a synthetic regression task, IDX image loading, label noise.

All datasets keep inputs inside the closed unit ball and targets inside
[-C_y, C_y]; both constraints are enforced at construction time because
every bound downstream assumes them.
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, replace

import numpy as np

__all__ = [
    "Dataset",
    "REGRESSION_C_Y",
    "target_fn",
    "synth_regression",
    "synth_classification",
    "load_idx",
    "write_idx",
    "inject_label_noise",
    "split",
    "save_csv",
]

IDX_IMAGE_MAGIC = 0x00000803
IDX_LABEL_MAGIC = 0x00000801

# Scale that keeps the synthetic regression target inside the unit interval.
_TARGET_SCALE = 1.25 + math.pi**2 / 4
_CUBE_HALF = 1.0 / math.sqrt(3.0)

# sup |f*| over the cube: x1 and x2^2 peak at the corner, sin(pi*x3) peaks
# at x3 = 1/2 which lies inside [-1/sqrt(3), 1/sqrt(3)].
REGRESSION_C_Y = (_CUBE_HALF + 1.0 / 3.0 + 1.0) / _TARGET_SCALE


@dataclass(frozen=True)
class Dataset:
    """Immutable (inputs, targets) pair with its target scale C_y."""

    inputs: np.ndarray
    targets: np.ndarray
    c_y: float
    split: str = "train"

    def __post_init__(self):
        X = np.asarray(self.inputs, dtype=float)
        y = np.asarray(self.targets, dtype=float)
        if X.ndim != 2 or X.shape[0] < 1:
            raise ValueError("inputs must be a nonempty (n, d) array")
        if y.shape != (X.shape[0],):
            raise ValueError("targets must be a vector matching the input count")
        if not (0.0 < self.c_y <= 1.0):
            raise ValueError("c_y must lie in (0, 1]")
        if float(np.max(np.linalg.norm(X, axis=1))) > 1.0 + 1e-12:
            raise ValueError("input norms must not exceed 1")
        if float(np.max(np.abs(y))) > self.c_y + 1e-12:
            raise ValueError("targets must lie in [-c_y, c_y]")
        object.__setattr__(self, "inputs", X)
        object.__setattr__(self, "targets", y)

    @property
    def n(self) -> int:
        return self.inputs.shape[0]

    @property
    def dim(self) -> int:
        return self.inputs.shape[1]


def target_fn(X: np.ndarray) -> np.ndarray:
    """(x1 + x2^2 + sin(pi*x3)) / (1.25 + pi^2/4), bounded by REGRESSION_C_Y."""
    X = np.asarray(X, dtype=float)
    return (X[:, 0] + X[:, 1] ** 2 + np.sin(np.pi * X[:, 2])) / _TARGET_SCALE


def synth_regression(n: int, seed: int, split: str = "train") -> Dataset:
    """n points drawn uniformly from the cube of half-width 1/sqrt(3)."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-_CUBE_HALF, _CUBE_HALF, size=(n, 3))
    return Dataset(X, target_fn(X), REGRESSION_C_Y, split)


def synth_classification(n: int, seed: int, c_y: float = 0.25, split: str = "train") -> Dataset:
    """Binary labels {0, c_y} from thresholding the regression target at 0."""
    if n < 1:
        raise ValueError("n must be positive")
    rng = np.random.default_rng(seed)
    X = rng.uniform(-_CUBE_HALF, _CUBE_HALF, size=(n, 3))
    y = np.where(target_fn(X) > 0.0, c_y, 0.0)
    return Dataset(X, y, c_y, split)


def _read_idx(path, what: str, magic: int) -> np.ndarray:
    """The uint8 body of an IDX file of `what` (image or label) whose header has `magic`.

    The magic's low byte counts the dimension sizes that follow it.  Images
    come back as (count, rows*cols), labels as (count,).
    """
    n_head = 4 + 4 * (magic & 0xFF)
    with open(path, "rb") as fh:
        head = fh.read(n_head)
        if len(head) != n_head:
            raise ValueError(f"{path}: truncated IDX {what} header")
        found, count, *rest = struct.unpack(f">{n_head // 4}i", head)
        if found != magic:
            raise ValueError(f"{path}: bad {what} magic {found:#010x}")
        for field, value in zip(("count", "rows", "cols"), (count, *rest)):
            if value < 0:
                raise ValueError(f"{path}: negative {what} {field} {value} in the IDX header")
        shape = (count, math.prod(rest)) if rest else (count,)
        size = math.prod(shape)
        body = fh.read(size)
    if len(body) != size:
        raise ValueError(f"{path}: truncated IDX {what} body")
    return np.frombuffer(body, dtype=np.uint8).reshape(shape)


def load_idx(images_path, labels_path, keep, c_y: float, split: str = "train") -> Dataset:
    """Load an IDX image/label pair, keeping two classes mapped to {0, c_y}.

    Pixels are scaled to [0, 1]/sqrt(d) per coordinate, which already puts
    every image inside the unit ball; any residual excess is divided out.
    Images are vectorized row-major.
    """
    keep = sorted(set(int(k) for k in keep))
    if len(keep) != 2:
        raise ValueError("keep must contain exactly two distinct labels")
    X_raw = _read_idx(images_path, "image", IDX_IMAGE_MAGIC)
    labels = _read_idx(labels_path, "label", IDX_LABEL_MAGIC)
    if X_raw.shape[0] != labels.shape[0]:
        raise ValueError("image and label counts differ")
    mask = np.isin(labels, keep)
    if not np.any(mask):
        raise ValueError(f"no samples with labels in {keep}")
    X = X_raw[mask].astype(float) / 255.0 / math.sqrt(X_raw.shape[1])
    norms = np.linalg.norm(X, axis=1)
    over = norms > 1.0
    if np.any(over):
        X[over] /= norms[over, None]
    y = np.where(labels[mask] == keep[1], c_y, 0.0)
    return Dataset(X, y, c_y, split)


def write_idx(images: np.ndarray, labels: np.ndarray, images_path, labels_path) -> None:
    """Write a (n, rows, cols) uint8 stack and its labels in IDX format."""
    images = np.ascontiguousarray(images, dtype=np.uint8)
    labels = np.ascontiguousarray(labels, dtype=np.uint8)
    if images.ndim != 3 or labels.shape != (images.shape[0],):
        raise ValueError("expected images (n, rows, cols) and labels (n,)")
    n, rows, cols = images.shape
    with open(images_path, "wb") as fh:
        fh.write(struct.pack(">iiii", IDX_IMAGE_MAGIC, n, rows, cols))
        fh.write(images.tobytes())
    with open(labels_path, "wb") as fh:
        fh.write(struct.pack(">ii", IDX_LABEL_MAGIC, n))
        fh.write(labels.tobytes())


def inject_label_noise(ds: Dataset, fraction: float, seed: int) -> Dataset:
    """Resample floor(fraction*n) labels uniformly from the two label values."""
    if not (0.0 <= fraction <= 1.0):
        raise ValueError("fraction must lie in [0, 1]")
    values = np.unique(ds.targets)
    if values.shape[0] != 2:
        raise ValueError(f"label noise needs two label values, got {values.shape[0]}")
    k = int(fraction * ds.n)
    y = ds.targets.copy()
    if k > 0:
        rng = np.random.default_rng(seed)
        idx = rng.choice(ds.n, size=k, replace=False)
        y[idx] = rng.choice(values, size=k)
    return replace(ds, targets=y)


def split(ds: Dataset, train_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """Shuffle and split into tagged train/test parts; both must be nonempty."""
    n_train = int(train_fraction * ds.n)
    if n_train < 1 or n_train >= ds.n:
        raise ValueError(f"train_fraction {train_fraction} leaves an empty part for n={ds.n}")
    perm = np.random.default_rng(seed).permutation(ds.n)
    tr, te = perm[:n_train], perm[n_train:]
    return (
        Dataset(ds.inputs[tr], ds.targets[tr], ds.c_y, "train"),
        Dataset(ds.inputs[te], ds.targets[te], ds.c_y, "test"),
    )


def save_csv(ds: Dataset, path) -> None:
    """One row per sample (inputs then target), with C_y kept in a comment."""
    with open(path, "w", newline="") as fh:
        fh.write(f"# c_y={ds.c_y!r} split={ds.split}\n")
        fh.write(",".join([f"x{i}" for i in range(ds.dim)] + ["y"]) + "\n")
        for xi, yi in zip(ds.inputs, ds.targets):
            fh.write(",".join([repr(float(v)) for v in xi] + [repr(float(yi))]) + "\n")

