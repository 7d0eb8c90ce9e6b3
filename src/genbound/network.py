"""Homogeneous ReLU networks with manual forward and backward passes.

The model family is a chain of 1-D convolution blocks (valid convolution,
ReLU, average pooling with window equal to the kernel size) followed by
fully-connected ReLU layers and a linear readout scaled by 1/m**p, where
m is the width of the last hidden layer.  No layer carries a bias, so the
output is positively homogeneous of degree one in each layer's parameter
block.  That structural fact is what the norm-dynamics and bound modules
build on, and it is checked numerically in `checks`.

Conventions:
  - widths[l] is the post-pooling width m_l of layer l, widths[0] = d;
  - a conv layer with kernel size s maps width m_in = m_out*s + s - 1
    to m_out (conv produces m_out*s valid positions, pooling averages
    disjoint windows of s);
  - ReLU derivative at exactly zero is taken to be zero.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "NetworkSpec",
    "Parameters",
    "init_gaussian",
    "batch_outputs",
    "grad_f",
    "loss_and_grad",
]

# Inputs are expected inside the unit ball; slightly larger norms only warn
# because downstream bounds stay valid with the norm factored in.
_NORM_WARN_TOL = 1e-9


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture description.

    input_dim: d, length of the input vector.
    conv_kernels: kernel sizes (s_1, ..., s_LC) of the conv blocks.
    fc_widths: widths of the fully-connected hidden layers after the convs.
    output_width: m, width of the last hidden layer feeding the readout.
    norm_exponent: p in the output scaling 1/m**p.
    Derived: widths m_0..m_L and layer_shapes, (s,), (m_in, m_out) or (m,).
    """

    input_dim: int
    conv_kernels: tuple[int, ...] = ()
    fc_widths: tuple[int, ...] = ()
    output_width: int = 1
    norm_exponent: float = 0.0
    widths: tuple[int, ...] = field(init=False)
    layer_shapes: tuple[tuple[int, ...], ...] = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "conv_kernels", tuple(int(s) for s in self.conv_kernels))
        object.__setattr__(self, "fc_widths", tuple(int(w) for w in self.fc_widths))
        if self.input_dim < 1:
            raise ValueError("input_dim must be a positive integer")
        if self.norm_exponent < 0:
            raise ValueError("norm_exponent must be nonnegative")
        widths = [self.input_dim]
        for i, s in enumerate(self.conv_kernels):
            if s < 1:
                raise ValueError("conv kernel sizes must be positive")
            m_in = widths[-1]
            # valid positions m_in - s + 1 must fill m_out pooling windows
            # of size s exactly: m_in = m_out*s + s - 1.
            if (m_in - s + 1) % s != 0 or (m_in - s + 1) // s < 1:
                raise ValueError(
                    f"conv layer {i + 1}: width {m_in} does not chain with "
                    f"kernel {s} (need m_in = m_out*{s} + {s - 1})"
                )
            widths.append((m_in - s + 1) // s)
        for i, w in enumerate(self.fc_widths):
            if w < 1:
                raise ValueError(f"fc layer {i + 1}: width must be positive")
            widths.append(w)
        if len(widths) < 2:
            raise ValueError("at least one hidden layer is required")
        if widths[-1] != self.output_width:
            raise ValueError(
                f"output_width {self.output_width} must equal the last "
                f"hidden width {widths[-1]}"
            )
        # receptive-field budget: pooled width times all kernels fits in d.
        span = widths[len(self.conv_kernels)]
        for s in self.conv_kernels:
            span *= s
        if self.conv_kernels and span > self.input_dim:
            raise ValueError("conv stack exceeds the input length")
        object.__setattr__(self, "widths", tuple(widths))
        fc_in = widths[len(self.conv_kernels) :]
        shapes = [(s,) for s in self.conv_kernels] + list(zip(fc_in[:-1], fc_in[1:]))
        object.__setattr__(self, "layer_shapes", (*shapes, (self.output_width,)))

    @property
    def n_conv(self) -> int:
        return len(self.conv_kernels)

    @property
    def n_hidden(self) -> int:
        """L, the number of hidden layers (conv blocks plus fc layers)."""
        return len(self.widths) - 1

    @property
    def n_layers(self) -> int:
        """L + 1, hidden layers plus the readout layer."""
        return self.n_hidden + 1

    @property
    def kind(self) -> str:
        return "CNN" if self.conv_kernels else "FNN"

    @property
    def out_scale(self) -> float:
        """1/m**p applied to the readout."""
        return float(self.output_width) ** (-self.norm_exponent)

    def layer_sizes(self) -> list[int]:
        """q(l), the parameter count of each layer."""
        return [math.prod(s) for s in self.layer_shapes]


@dataclass
class Parameters:
    """Per-layer parameter arrays in their natural shapes.

    Conv layers hold the kernel (s,), fc layers the matrix (m_in, m_out)
    applied as z_out = relu(z_in @ A), the readout holds the vector (m,).
    """

    spec: NetworkSpec
    layers: list[np.ndarray]

    def __post_init__(self):
        shapes = self.spec.layer_shapes
        if len(self.layers) != len(shapes):
            raise ValueError(f"expected {len(shapes)} layers, got {len(self.layers)}")
        for i, (arr, shape) in enumerate(zip(self.layers, shapes)):
            if arr.shape != shape:
                raise ValueError(f"layer {i + 1}: expected shape {shape}, got {arr.shape}")
            if not np.isfinite(arr).all():
                raise ValueError(f"layer {i + 1}: non-finite entries")

    @classmethod
    def _unchecked(cls, spec: NetworkSpec, layers: list[np.ndarray]) -> "Parameters":
        """Wrap layers computed from valid parameters without scanning them.

        For the training loop, which checks finiteness on the layer norms
        it logs each step instead of scanning every entry a second time.
        """
        params = cls.__new__(cls)
        params.spec, params.layers = spec, layers
        return params

    def norms(self) -> np.ndarray:
        return np.array([_norm(arr) for arr in self.layers])


def _norm(arr: np.ndarray) -> float:
    """Euclidean norm of all entries, bit for bit np.linalg.norm(arr) without its wrapper."""
    v = arr.ravel(order="K")
    return math.sqrt(v.dot(v))


def _sq_norms(arrays, out: np.ndarray) -> np.ndarray:
    """Write the squared Euclidean norm of each array into out, in order."""
    for i, arr in enumerate(arrays):
        out[i] = np.add.reduce(arr * arr, axis=None)  # np.sum's reduction, unwrapped
    return out


def init_gaussian(spec: NetworkSpec, kappa: float, seed: int | np.random.Generator) -> Parameters:
    """Draw each layer from N(0, kappa^2/q(l) I) so E||layer||^2 = kappa^2.

    `seed` may also be a Generator, which the draws then advance.
    """
    if not 0 < kappa < math.inf:
        raise ValueError(f"kappa must be positive and finite, got {kappa!r}")
    rng = np.random.default_rng(seed)
    layers = []
    for shape in spec.layer_shapes:
        layers.append(rng.normal(0.0, kappa / math.sqrt(math.prod(shape)), size=shape))
    # the shapes come from the spec and a finite scale gives finite normals
    return Parameters._unchecked(spec, layers)


def _check_inputs(spec: NetworkSpec, X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim != 2 or X.shape[1] != spec.input_dim:
        raise ValueError(f"expected inputs of shape (n, {spec.input_dim}), got {X.shape}")
    if X.shape[0] == 0:
        raise ValueError("empty batch")
    max_norm = float(np.max(np.linalg.norm(X, axis=1)))
    if max_norm > 1.0 + _NORM_WARN_TOL:
        warnings.warn(f"input norm {max_norm:.6g} exceeds 1; bounds assume unit-ball inputs")
    return X


def _buffer(workspace: dict | None, key: tuple, shape: tuple, dtype=float) -> np.ndarray:
    """Scratch array for `key`: fresh without a workspace, else kept in it.

    A kept buffer is reallocated only when the shape it is asked for changes.
    """
    if workspace is None:
        return np.empty(shape, dtype)
    buf = workspace.get(key)
    if buf is None or buf.shape != shape:
        raw = np.empty(math.prod(shape) * np.dtype(dtype).itemsize + 64, np.uint8)
        start = -raw.ctypes.data % 64  # 64-byte aligned: SIMD loop speed then ignores heap layout
        buf = workspace[key] = raw[start : start + raw.size - 64].view(dtype).reshape(shape)
    return buf


def _forward_batch(params: Parameters, X: np.ndarray, workspace: dict | None = None):
    """Batched forward pass. Returns (outputs, activations, pre-activations).

    Each fc activation overwrites its pre-activation in one array, so an fc
    pres[l] is zs[l + 1]; a conv pres[l] keeps the raw values its mask reads.
    With a workspace that array is its buffer, valid until the next pass.

    The layers may also carry one leading axis of h networks of the spec,
    evaluated at once on the same X of shape (n, d) or on one batch per
    network, X of shape (h, n, d): every array then gains that axis, and
    each slice holds the bits a pass with that slice's layers gives.
    """
    spec = params.spec
    Z = X
    zs = [Z]
    pres = []
    for l, W in enumerate(params.layers[:-1]):
        if l < spec.n_conv:
            s = spec.conv_kernels[l]
            m_out = spec.widths[l + 1]
            K = m_out * s
            pre = W[..., 0, None, None] * Z[..., 0:K]
            for j in range(1, s):
                pre = pre + W[..., j, None, None] * Z[..., j : j + K]
            y = np.maximum(pre, 0.0)
            Z = np.add.reduce(y.reshape(*y.shape[:-1], m_out, s), axis=-1) / s  # np.mean's arithmetic
        else:
            shape = (*W.shape[:-2], Z.shape[-2], W.shape[-1])
            pre = np.matmul(Z, W, out=_buffer(workspace, (l, "z"), shape))
            Z = np.maximum(pre, 0.0, out=pre)
        pres.append(pre)
        zs.append(Z)
    f = np.matmul(Z, params.layers[-1][..., None])[..., 0] * spec.out_scale
    return f, zs, pres


def _backward_batch(params: Parameters, zs, pres, coef: np.ndarray, workspace: dict | None = None):
    """Gradient of sum_i coef_i * f(x_i) with respect to every layer.

    Consumes zs[1:]: every fc mask is read from its activation zs[l + 1]
    first, then each error signal is written over the activation it is done
    with (a fresh array below an fc layer on a conv one); zs[0] is never
    written.  With a workspace, the fc weight gradients are its buffers.

    The layers may also carry one leading axis of h networks of the spec,
    with the activations of a `_forward_batch` on them: X, and so zs[0], is
    then shared of shape (n, d) or one batch per network of shape (h, n, d),
    coef has shape (n,) or (h, n), every gradient gains the leading axis,
    and each slice holds the bits a pass with that slice's layers gives.
    """
    spec = params.spec
    a = params.layers[-1]
    grads: list[np.ndarray] = [np.empty(0)] * len(params.layers)
    if a.ndim == 1:
        grads[-1] = spec.out_scale * (zs[-1].T @ coef)
    else:
        grads[-1] = spec.out_scale * np.matmul(zs[-1].swapaxes(-1, -2), coef[..., None])[..., 0]
    on = {l: np.greater(zs[l + 1], 0.0, out=_buffer(workspace, (l, "on"), zs[l + 1].shape, bool))
          for l in range(spec.n_conv, spec.n_hidden)}
    # np.outer's values, but +0.0 where its product is -0.0: every reader of G sums from +0.0
    G = np.einsum("...i,...j->...ij", coef, a, out=zs[-1])
    G *= spec.out_scale
    for l in range(spec.n_hidden - 1, -1, -1):
        W = params.layers[l]
        Zin = zs[l]
        if l < spec.n_conv:
            s = spec.conv_kernels[l]
            K = spec.widths[l + 1] * s
            D = np.repeat(G, s, axis=-1) / s
            D[pres[l] <= 0.0] = 0.0
            lead = D.shape[:-2]
            gw = np.empty((*lead, s))
            for j in range(s):
                # np.sum's reduction over each network's products
                gw[..., j] = np.add.reduce((D * Zin[..., j : j + K]).reshape(*lead, -1), axis=-1)
            grads[l] = gw
            if l > 0:
                G = np.zeros_like(Zin)
                for j in range(s):
                    G[..., j : j + K] += W[..., j, None, None] * D
        else:
            # np.where(pre > 0, G, 0.0) in place, read from z = max(pre, 0),
            # which is > 0 exactly where pre is: multiplying G's bit patterns
            # by the 0/1 mask keeps each bit where the unit is on and gives
            # +0.0 where it is off (pre <= 0 or NaN), signed zeros and NaN
            # alike, with no branch per entry as a masked copy would take
            bits = G.view(np.uint64)
            np.multiply(bits, on[l], out=bits)
            grads[l] = np.matmul(Zin.swapaxes(-1, -2), G, out=_buffer(workspace, (l, "grad"), W.shape))
            if l > 0:
                G = np.matmul(G, W.swapaxes(-1, -2), out=Zin if l > spec.n_conv else None)
    return grads


def batch_outputs(params: Parameters, X: np.ndarray, workspace: dict | None = None) -> np.ndarray:
    """Network outputs for a batch of inputs, shape (n,).

    `workspace` is private to the training loop, which checks its inputs
    once up front: with one, X is used as given and the intermediates go
    into the workspace's buffers.
    """
    if workspace is None:
        X = _check_inputs(params.spec, X)
    f, _, _ = _forward_batch(params, X, workspace)
    return f


def _value_grad(params: Parameters, x: np.ndarray, workspace: dict | None = None):
    """Output at one input and its gradient per layer, from one forward and one backward pass.

    x is used as given: a float array of shape (input_dim,), such as a point
    drawn inside the unit ball.  With layers stacked over a leading axis of
    h networks, x has shape (h, input_dim), one point per network, and the
    output has shape (h,).  With a workspace, the fc gradients are its
    buffers, valid until its next pass.
    """
    f, zs, pres = _forward_batch(params, x[..., None, :], workspace)
    return f[..., 0], _backward_batch(params, zs, pres, np.ones(1), workspace)


def grad_f(params: Parameters, x: np.ndarray) -> list[np.ndarray]:
    """Gradient of the scalar output with respect to each layer."""
    spec = params.spec
    x = np.asarray(x, dtype=float)
    if x.shape != (spec.input_dim,):
        raise ValueError(f"expected input of shape ({spec.input_dim},), got {x.shape}")
    _check_inputs(spec, x[None, :])
    return _value_grad(params, x)[1]


def _power_loss(res: np.ndarray, loss_power: int) -> float:
    """Mean power loss (1/n) sum |res|^a / a of the residuals res = f - y."""
    n = res.shape[0]
    if loss_power == 2:
        return 0.5 * float(res @ res) / n
    a = int(loss_power)
    return float(np.sum(np.abs(res) ** a)) / (a * n)


def _loss_grad_outputs(
    params: Parameters, X: np.ndarray, y: np.ndarray, loss_power: int, workspace: dict | None = None
):
    """Empirical loss, its per-layer gradient, and the raw outputs.

    With a workspace (see `batch_outputs`) X is used as given, and the fc
    gradients are the workspace's buffers, valid until its next pass.
    """
    if workspace is None:
        X = _check_inputs(params.spec, X)
    y = np.asarray(y, dtype=float)
    if y.shape != (X.shape[0],):
        raise ValueError(f"expected targets of shape ({X.shape[0]},), got {y.shape}")
    if loss_power < 2 or int(loss_power) != loss_power:
        raise ValueError("loss_power must be an integer >= 2")
    n = X.shape[0]
    f, zs, pres = _forward_batch(params, X, workspace)
    res = f - y
    if loss_power == 2:
        coef = res / n
    else:
        coef = np.sign(res) * np.abs(res) ** (int(loss_power) - 1) / n
    grads = _backward_batch(params, zs, pres, coef, workspace)
    return _power_loss(res, loss_power), grads, f


def loss_and_grad(params: Parameters, X: np.ndarray, y: np.ndarray, loss_power: int = 2):
    """Mean power loss (1/n) sum |f - y|^a / a and its layer gradients."""
    loss, grads, _ = _loss_grad_outputs(params, X, y, loss_power)
    return loss, grads

