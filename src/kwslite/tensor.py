"""Dense forward kernels over (time, freq, channels) feature tensors.

Two convolution paths are provided on purpose. ``conv2d_valid`` is the
reference: explicit loops, one inner product per output element, and an
optional multiply counter so callers can meter exactly what it executes.
``conv2d_optimized`` lowers the same computation to an im2col matrix
product. Both accumulate in float64 and cast back to the input dtype at
the end, so their float32 results agree to within rounding.

Tensors are plain numpy arrays. Feature maps are (time, freq, channels);
flattened activations are 1-D vectors, or (windows, features) matrices when
a batch of windows is classified at once.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError

__all__ = [
    "Stride",
    "Pool",
    "FilterBank",
    "MacCounter",
    "conv_output_shape",
    "conv2d_valid",
    "conv2d_optimized",
    "maxpool",
    "flatten",
    "dense",
    "linear",
    "softmax",
]


@dataclass(frozen=True)
class Stride:
    """Convolution step in frames (time) and filterbank bins (freq)."""

    time: int = 1
    freq: int = 1

    def __post_init__(self):
        if self.time < 1 or self.freq < 1:
            raise ValueError(f"stride must be >= 1 in both axes, got {self}")


@dataclass(frozen=True)
class Pool:
    """Non-overlapping max-pool window; (1, 1) means no pooling."""

    time: int = 1
    freq: int = 1

    def __post_init__(self):
        if self.time < 1 or self.freq < 1:
            raise ValueError(f"pool size must be >= 1 in both axes, got {self}")

    @property
    def active(self) -> bool:
        return self.time > 1 or self.freq > 1


@dataclass(frozen=True)
class FilterBank:
    """Convolution weights (kernel_t, kernel_f, in_channels, maps) plus bias (maps,)."""

    weights: np.ndarray
    bias: np.ndarray = field(default=None)  # type: ignore[assignment]

    def __post_init__(self):
        w = np.asarray(self.weights)
        if w.ndim != 4:
            raise ShapeError(
                f"filter weights must be 4-D (kernel_t, kernel_f, in_channels, maps), got {w.shape}"
            )
        if min(w.shape) < 1:
            raise ShapeError(f"filter dimensions must be >= 1, got {w.shape}")
        b = self.bias
        if b is None:
            b = np.zeros(w.shape[3], dtype=w.dtype)
        b = np.asarray(b)
        if b.shape != (w.shape[3],):
            raise ShapeError(
                f"bias shape {b.shape} does not match map count {w.shape[3]}", axis="channels"
            )
        object.__setattr__(self, "weights", w)
        object.__setattr__(self, "bias", b)

    @property
    def kernel_t(self) -> int:
        return self.weights.shape[0]

    @property
    def kernel_f(self) -> int:
        return self.weights.shape[1]

    @property
    def in_channels(self) -> int:
        return self.weights.shape[2]

    @property
    def maps(self) -> int:
        return self.weights.shape[3]


class MacCounter:
    """Tallies scalar multiplies actually executed by the reference kernels."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _require_tensor3(x: np.ndarray, who: str) -> np.ndarray:
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"{who} expects a (time, freq, channels) tensor, got shape {x.shape}")
    return x


def conv_output_shape(in_t: int, in_f: int, kernel_t: int, kernel_f: int, stride: Stride) -> tuple[int, int]:
    """Valid-convolution output size: floor((in - kernel) / step) + 1 per axis."""
    return (in_t - kernel_t) // stride.time + 1, (in_f - kernel_f) // stride.freq + 1


def _check_conv_args(x: np.ndarray, filters: FilterBank, stride: Stride) -> None:
    if x.shape[2] != filters.in_channels:
        raise ShapeError(
            f"input has {x.shape[2]} channels but filters expect {filters.in_channels}",
            axis="channels",
        )
    if filters.kernel_t > x.shape[0]:
        raise ShapeError(
            f"kernel spans {filters.kernel_t} frames but input has only {x.shape[0]}",
            axis="time",
        )
    if filters.kernel_f > x.shape[1]:
        raise ShapeError(
            f"kernel spans {filters.kernel_f} bins but input has only {x.shape[1]}",
            axis="freq",
        )


def conv2d_valid(
    x: np.ndarray,
    filters: FilterBank,
    stride: Stride = Stride(),
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Reference valid cross-correlation.

    Args:
        x: input tensor (time, freq, channels).
        filters: FilterBank whose in_channels matches x.
        stride: step between filter placements.
        counter: optional MacCounter; incremented by the patch size for every
            inner product this call executes (bias adds are not multiplies).

    Returns:
        (out_t, out_f, maps) tensor in the promoted input/weight dtype.
    """
    x = _require_tensor3(x, "conv2d_valid")
    _check_conv_args(x, filters, stride)
    out_t, out_f = conv_output_shape(x.shape[0], x.shape[1], filters.kernel_t, filters.kernel_f, stride)
    out_dtype = np.result_type(x.dtype, filters.weights.dtype)

    x64 = x.astype(np.float64)
    w64 = filters.weights.astype(np.float64)
    b64 = filters.bias.astype(np.float64)
    kt, kf = filters.kernel_t, filters.kernel_f

    out = np.empty((out_t, out_f, filters.maps), dtype=np.float64)
    for ti in range(out_t):
        t0 = ti * stride.time
        for fi in range(out_f):
            f0 = fi * stride.freq
            patch = x64[t0 : t0 + kt, f0 : f0 + kf, :]
            for k in range(filters.maps):
                out[ti, fi, k] = np.sum(patch * w64[:, :, :, k]) + b64[k]
                if counter is not None:
                    counter.add(patch.size)
    return out.astype(out_dtype)


def im2col(x: np.ndarray, kernel_t: int, kernel_f: int, stride: Stride) -> tuple[np.ndarray, int, int]:
    """Unfold conv patches into rows of a (out_t*out_f, kernel_t*kernel_f*channels) matrix.

    Row p corresponds to output position (p // out_f, p % out_f); within a row
    the patch is laid out (kernel_t, kernel_f, channels), matching a
    FilterBank's weights reshaped to (kernel_t*kernel_f*channels, maps).
    """
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel_t, kernel_f), axis=(0, 1))
    windows = windows[:: stride.time, :: stride.freq]
    out_t, out_f = windows.shape[0], windows.shape[1]
    # sliding_window_view puts the window axes last: (out_t, out_f, c, kt, kf)
    cols = windows.transpose(0, 1, 3, 4, 2).reshape(out_t * out_f, kernel_t * kernel_f * x.shape[2])
    return cols, out_t, out_f


def conv2d_optimized(x: np.ndarray, filters: FilterBank, stride: Stride = Stride()) -> np.ndarray:
    """Same contract as conv2d_valid, lowered to one im2col matrix product."""
    x = _require_tensor3(x, "conv2d_optimized")
    _check_conv_args(x, filters, stride)
    out_dtype = np.result_type(x.dtype, filters.weights.dtype)

    cols, out_t, out_f = im2col(x.astype(np.float64), filters.kernel_t, filters.kernel_f, stride)
    wmat = filters.weights.astype(np.float64).reshape(-1, filters.maps)
    out = cols @ wmat + filters.bias.astype(np.float64)
    return out.reshape(out_t, out_f, filters.maps).astype(out_dtype)


def maxpool(x: np.ndarray, pool: Pool) -> np.ndarray:
    """Non-overlapping max-pool; trailing remainder positions are dropped."""
    x = _require_tensor3(x, "maxpool")
    if pool.time > x.shape[0]:
        raise ShapeError(
            f"pool window spans {pool.time} frames but input has only {x.shape[0]}", axis="time"
        )
    if pool.freq > x.shape[1]:
        raise ShapeError(
            f"pool window spans {pool.freq} bins but input has only {x.shape[1]}", axis="freq"
        )
    t2 = x.shape[0] // pool.time
    f2 = x.shape[1] // pool.freq
    cropped = x[: t2 * pool.time, : f2 * pool.freq, :]
    return cropped.reshape(t2, pool.time, f2, pool.freq, x.shape[2]).max(axis=(1, 3))


def flatten(x: np.ndarray) -> np.ndarray:
    """Row-major flatten of a (time, freq, channels) tensor to a vector.

    A (windows, time, freq, channels) batch flattens to one row per window.
    """
    x = np.asarray(x)
    if x.ndim not in (3, 4):
        raise ShapeError(
            f"flatten expects a (time, freq, channels) tensor or a batch of them, got shape {x.shape}"
        )
    return np.ascontiguousarray(x).reshape(x.shape[:-3] + (-1,))


def softmax(z: np.ndarray) -> np.ndarray:
    """Numerically stable softmax; float64 inside, input dtype out."""
    z64 = np.asarray(z, dtype=np.float64)
    e = np.exp(z64 - z64.max())
    return (e / e.sum()).astype(np.asarray(z).dtype)


def _check_flat_input(x: np.ndarray, weights: np.ndarray, who: str) -> int:
    """Validate a vector or (windows, features) input; returns the row count."""
    if x.ndim not in (1, 2):
        raise ShapeError(f"{who} expects a flat vector or a (windows, features) matrix, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[-1]:
        raise ShapeError(
            f"weight shape {weights.shape} does not accept input of length {x.shape[-1]}",
            axis="in",
        )
    return 1 if x.ndim == 1 else x.shape[0]


def _project(x: np.ndarray, weights: np.ndarray) -> np.ndarray:
    # W x for a vector and (W X^T)^T for a batch: one float64 product either way
    return (weights.astype(np.float64) @ x.astype(np.float64).T).T


def linear(x: np.ndarray, weights: np.ndarray, counter: MacCounter | None = None) -> np.ndarray:
    """Bias-free projection y = W x, the low-rank bottleneck primitive.

    x is one vector or a (windows, features) batch, projected row by row;
    the counter meters rows * weights.size multiplies.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    rows = _check_flat_input(x, weights, "linear")
    if counter is not None:
        counter.add(rows * weights.size)
    return _project(x, weights).astype(np.result_type(x.dtype, weights.dtype))


def dense(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    activation: str = "none",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Fully connected layer y = act(W x + b).

    activation is one of "none", "relu", "softmax". x is one vector or a
    (windows, features) batch, each row mapped on its own. Multiplies metered
    on the counter equal rows * weights.size (one per weight per row); bias
    adds are not counted.
    """
    x = np.asarray(x)
    weights = np.asarray(weights)
    bias = np.asarray(bias)
    rows = _check_flat_input(x, weights, "dense")
    if bias.shape != (weights.shape[0],):
        raise ShapeError(
            f"bias shape {bias.shape} does not match {weights.shape[0]} output units",
            axis="out",
        )
    if activation not in ("none", "relu", "softmax"):
        raise ValueError(f"unknown activation {activation!r}")
    if counter is not None:
        counter.add(rows * weights.size)

    out_dtype = np.result_type(x.dtype, weights.dtype)
    z = _project(x, weights) + bias.astype(np.float64)
    if activation == "relu":
        z = np.maximum(z, 0.0)
    elif activation == "softmax":
        e = np.exp(z - z.max(axis=-1, keepdims=True))
        z = e / e.sum(axis=-1, keepdims=True)
    return z.astype(out_dtype)
