"""Dense forward kernels over (time, freq, channels) feature tensors.

Two convolution paths are provided on purpose. ``conv2d_valid`` is the
reference, written as its definition: one float64 einsum, no BLAS, over
the sliding windows of the input, cast back to the promoted input/weight
dtype; it shares neither unfold nor product with the fast path.
``conv2d_optimized``, the production conv, lowers the same computation to
one im2col matrix product (Chellapilla, Puri and Simard, 2006) run in the
promoted dtype itself, as ``linear`` and ``dense`` run their product, bias
and ReLU: float32 inputs and weights accumulate in float32, and each output
is held to the a-priori float32 bound gamma(K + 1) times the sum of the
magnitudes of its K products and bias (``conv2d_error_bound``; Higham,
Accuracy and Stability of Numerical Algorithms, ch. 3), not to a relative
tolerance, which a float32 sum cannot meet near cancellation. ``softmax``
takes its exp and normalisation in float64. Every kernel takes an optional
MacCounter and adds the multiplies it executes, so a caller can meter either
path exactly.

Tensors are plain numpy arrays. Feature maps are (time, freq, channels);
flattened activations are 1-D vectors, or (windows, features) matrices when
a batch of windows is classified at once. ``conv2d_optimized``, ``im2col`` and
``maxpool`` also take any leading axes: training runs on a (batch, time,
freq, channels) chunk the kernels inference runs on one map, and equals the
per-window forward bit for bit before softmax's float32 cast.

Conv and pool geometry is stated once, here: ``conv_output_shape`` and
``pool_output_shape`` raise ShapeError naming the axis on which a kernel or
pool window does not fit, else return the output size. The kernels, the
layer traces in ``layers`` and training all take their shapes from them.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ShapeError, check_counts

__all__ = [
    "Stride",
    "Pool",
    "FilterBank",
    "MacCounter",
    "conv_output_shape",
    "pool_output_shape",
    "conv2d_valid",
    "conv2d_optimized",
    "conv2d_error_bound",
    "gamma",
    "maxpool",
    "flatten",
    "dense",
    "linear",
]


@dataclass(frozen=True)
class Stride:
    """Convolution step in frames (time) and filterbank bins (freq)."""

    time: int = 1
    freq: int = 1

    def __post_init__(self):
        check_counts(self, 1, time=self.time, freq=self.freq)


@dataclass(frozen=True)
class Pool:
    """Non-overlapping max-pool window; (1, 1) means no pooling."""

    time: int = 1
    freq: int = 1

    def __post_init__(self):
        check_counts(self, 1, time=self.time, freq=self.freq)

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
    """Tallies scalar multiplies actually executed by the kernels it is passed to."""

    __slots__ = ("count",)

    def __init__(self):
        self.count = 0

    def add(self, n: int) -> None:
        self.count += int(n)


def _check_fits(what: str, in_t: int, in_f: int, span_t: int, span_f: int) -> None:
    if span_t > in_t:
        raise ShapeError(f"{what} spans {span_t} frames but the input has {in_t}", axis="time")
    if span_f > in_f:
        raise ShapeError(f"{what} spans {span_f} bins but the input has {in_f}", axis="freq")


def conv_output_shape(in_t: int, in_f: int, kernel_t: int, kernel_f: int, stride: Stride) -> tuple[int, int]:
    """Valid-convolution output size: floor((in - kernel) / step) + 1 per axis.

    Raises ShapeError naming the axis on which the kernel does not fit.
    """
    _check_fits("kernel", in_t, in_f, kernel_t, kernel_f)
    return (in_t - kernel_t) // stride.time + 1, (in_f - kernel_f) // stride.freq + 1


def pool_output_shape(in_t: int, in_f: int, pool: Pool) -> tuple[int, int]:
    """Non-overlapping max-pool output size: floor(in / window) per axis.

    Raises ShapeError naming the axis on which the window does not fit.
    """
    _check_fits("pool window", in_t, in_f, pool.time, pool.freq)
    return in_t // pool.time, in_f // pool.freq


def _check_conv_args(x: np.ndarray, filters: FilterBank, stride: Stride) -> tuple[int, int]:
    """Check the channels of x (..., time, freq, channels), then the kernel's fit; returns the output size."""
    if x.shape[-1] != filters.in_channels:
        raise ShapeError(
            f"input has {x.shape[-1]} channels but filters expect {filters.in_channels}",
            axis="channels",
        )
    return conv_output_shape(x.shape[-3], x.shape[-2], filters.kernel_t, filters.kernel_f, stride)


def conv2d_valid(
    x: np.ndarray,
    filters: FilterBank,
    stride: Stride = Stride(),
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Reference valid cross-correlation, written as its definition: the
    kernel placements numpy's sliding-window view lists, taken every stride,
    contracted with the weights by one float64 einsum (numpy's own
    sum-of-products loop, no BLAS), plus bias, cast to the promoted dtype.

    Args:
        x: input tensor (time, freq, channels).
        filters: FilterBank whose in_channels matches x.
        stride: step between filter placements.
        counter: optional MacCounter; incremented once per call by the
            multiplies the einsum executes, read off the unfold: placements *
            kernel_t*kernel_f*channels * maps (bias adds are not multiplies).

    Returns:
        (out_t, out_f, maps) tensor in the promoted input/weight dtype.
    """
    x = np.asarray(x)
    if x.ndim != 3:
        raise ShapeError(f"conv2d_valid expects a (time, freq, channels) tensor, got shape {x.shape}")
    _check_conv_args(x, filters, stride)
    x64, w64, b64 = (t.astype(np.float64, copy=False) for t in (x, filters.weights, filters.bias))
    # (out_t, out_f, channels, kernel_t, kernel_f): the placements, strided
    windows = np.lib.stride_tricks.sliding_window_view(x64, w64.shape[:2], axis=(0, 1))
    windows = windows[:: stride.time, :: stride.freq]
    if counter is not None:
        counter.add(windows.size * filters.maps)
    out = np.einsum("tfcij,ijcm->tfm", windows, w64) + b64
    return out.astype(np.promote_types(x.dtype, filters.weights.dtype), copy=False)


def im2col(x: np.ndarray, kernel_t: int, kernel_f: int, stride: Stride) -> np.ndarray:
    """Unfold conv patches into rows of a (out_t*out_f, kernel_t*kernel_f*channels) matrix.

    x is (..., time, freq, channels); leading axes are kept, so a batch of
    maps gives (..., out_t*out_f, kernel_t*kernel_f*channels), (out_t, out_f)
    being conv_output_shape's. Row p corresponds to output position
    (p // out_f, p % out_f); within a row the patch is laid out (kernel_t,
    kernel_f, channels), matching a FilterBank's weights reshaped to
    (kernel_t*kernel_f*channels, maps).

    The patches are one read-only strided view of x, already in that layout,
    (..., out_t, out_f, kernel_t, kernel_f, channels), which the reshape
    copies once into the matrix; a non-contiguous x is made contiguous first.
    Raises ShapeError if the kernel does not fit.
    """
    x = np.ascontiguousarray(x)
    *lead, t, f, c = x.shape
    out_t, out_f = conv_output_shape(t, f, kernel_t, kernel_f, stride)
    *lead_strides, st, sf, sc = x.strides
    # np.ndarray over the buffer costs less per call than as_strided or
    # sliding_window_view, and refuses a view that would run past the buffer
    patches = np.ndarray(
        (*lead, out_t, out_f, kernel_t, kernel_f, c),
        x.dtype,
        x,
        strides=(*lead_strides, st * stride.time, sf * stride.freq, st, sf, sc),
    )
    patches.flags.writeable = False
    return patches.reshape(*lead, out_t * out_f, -1)


def conv2d_optimized(
    x: np.ndarray,
    filters: FilterBank,
    stride: Stride = Stride(),
    counter: MacCounter | None = None,
) -> np.ndarray:
    """The production conv: one im2col matrix product plus bias, counter
    included, run in the promoted input/weight dtype, so float32 inputs and
    weights accumulate in float32.

    Leading axes of x, a batch of maps, are kept: one stacked product of
    per-map shapes, so a map's output does not depend on its batch. Each
    output is within conv2d_error_bound(x, filters, stride) of the exact
    value: the float32 dot product of length K = kernel_t*kernel_f*
    in_channels, plus its bias, errs by at most gamma(K + 1)*(sum|w*x| + |b|).
    """
    return _im2col_product(x, filters, stride, counter)


def _im2col_product(
    x: np.ndarray, filters: FilterBank, stride: Stride, counter: MacCounter | None = None
) -> np.ndarray:
    """conv2d_optimized's body. conv2d_error_bound calls it directly, so a
    test that replaces the public conv to break it leaves the bound it is
    judged against intact."""
    x = np.asarray(x)
    if x.ndim < 3:
        raise ShapeError(f"conv2d_optimized expects (..., time, freq, channels) maps, got {x.shape}")
    out_t, out_f = _check_conv_args(x, filters, stride)
    dtype = np.promote_types(x.dtype, filters.weights.dtype)
    weights = filters.weights.astype(dtype, copy=False)
    kt, kf, _, maps = weights.shape
    cols = im2col(x.astype(dtype, copy=False), kt, kf, stride)
    if counter is not None:
        counter.add(cols.size * maps)
    out = cols @ weights.reshape(-1, maps)
    out += filters.bias.astype(dtype, copy=False)  # in place: no second (rows, maps) array
    return out.reshape(x.shape[:-3] + (out_t, out_f, maps))


UNIT_ROUNDOFF = 2.0**-24  # u of float32: half the gap between 1 and the next float32


def gamma(n: int, u: float = UNIT_ROUNDOFF) -> float:
    """Higham's gamma(n) = n*u / (1 - n*u) at unit roundoff u, float32's
    unless given (the frontend's float64 bound passes 2**-53): a sum of n
    products errs by at most gamma(n) times the sum of their magnitudes
    (Accuracy and Stability of Numerical Algorithms, ch. 3)."""
    nu = n * u
    if nu >= 1:
        raise ValueError(f"no error bound for sums of {n} terms at unit roundoff {u}")
    return nu / (1 - nu)


def conv2d_error_bound(x: np.ndarray, filters: FilterBank, stride: Stride = Stride()) -> np.ndarray:
    """Float64 (out_t, out_f, maps) bound on a float32 conv's error per
    output: gamma(K + 1) * (sum|w*x| + |b|), the sums being the im2col
    product run in float64 on |x|, |w| and |b|: sums of terms of one sign,
    whose own float64 rounding is far below the bound. The product is the
    private one behind conv2d_optimized, not that public name, so the bound
    does not depend on the kernel it judges."""
    magnitudes = FilterBank(*(np.abs(t).astype(np.float64) for t in (filters.weights, filters.bias)))
    k = filters.kernel_t * filters.kernel_f * filters.in_channels
    return gamma(k + 1) * _im2col_product(np.abs(x).astype(np.float64), magnitudes, stride)


def fold_max(views: list[np.ndarray]) -> np.ndarray:
    """The elementwise maximum of equal-shape views, folded earliest first:
    each later view is np.maximum's first operand, and numpy returns the
    second on equal zeros, so a tie keeps the earliest zero's sign, as
    argmax picks the first maximum."""
    out = views[0].copy()
    for view in views[1:]:
        np.maximum(view, out, out=out)
    return out


def maxpool(x: np.ndarray, pool: Pool) -> np.ndarray:
    """Non-overlapping max-pool of (..., time, freq, channels) maps, trailing
    remainder positions dropped: fold_max over the window positions' strided
    views in (time, freq) order, so each value is the one argmax picks."""
    x = np.asarray(x)
    if x.ndim < 3:
        raise ShapeError(f"maxpool expects (..., time, freq, channels) maps, got shape {x.shape}")
    pt, pf = pool.time, pool.freq
    t2, f2 = pool_output_shape(x.shape[-3], x.shape[-2], pool)
    return fold_max([x[..., dt : t2 * pt : pt, df : f2 * pf : pf, :] for dt in range(pt) for df in range(pf)])


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


def _product(x: np.ndarray, weights: np.ndarray, who: str, counter: MacCounter | None) -> np.ndarray:
    """W x for one vector, (W X^T)^T for a (windows, features) batch, in
    promote_types(x, W), after checking both shapes; meters rows * W.size."""
    x, weights = np.asarray(x), np.asarray(weights)
    if x.ndim not in (1, 2):
        raise ShapeError(f"{who} expects a flat vector or a (windows, features) matrix, got shape {x.shape}")
    if weights.ndim != 2 or weights.shape[1] != x.shape[-1]:
        raise ShapeError(
            f"weight shape {weights.shape} does not accept input of length {x.shape[-1]}",
            axis="in",
        )
    if counter is not None:
        counter.add((1 if x.ndim == 1 else len(x)) * weights.size)
    return (weights @ x.T).T


def linear(x: np.ndarray, weights: np.ndarray, counter: MacCounter | None = None) -> np.ndarray:
    """Bias-free projection y = W x, the low-rank bottleneck primitive.

    x is one vector or a (windows, features) batch, projected row by row
    in promote_types(x, weights); the counter meters rows * weights.size
    multiplies.
    """
    return _product(x, weights, "linear", counter)


def dense(
    x: np.ndarray,
    weights: np.ndarray,
    bias: np.ndarray,
    activation: str = "none",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Fully connected layer y = act(W x + b).

    activation is one of "none", "relu", "softmax". x is one vector or a
    (windows, features) batch, each row mapped on its own. The product, bias
    and ReLU run in promote_types(x, weights); softmax's exp and
    normalisation run in float64 and are cast back. Multiplies metered on
    the counter equal rows * weights.size (one per weight per row); bias
    adds are not counted.
    """
    weights, bias = np.asarray(weights), np.asarray(bias)
    if bias.shape != weights.shape[:1]:
        raise ShapeError(f"bias shape {bias.shape} does not match weights {weights.shape}", axis="out")
    if activation not in ("none", "relu", "softmax"):
        raise ValueError(f"unknown activation {activation!r}")
    z = _product(x, weights, "dense", counter)
    z += bias  # in place: the bias is rounded into the product's dtype
    if activation == "relu":
        return np.maximum(z, 0.0, out=z)  # NaN stays NaN
    if activation == "softmax":
        return softmax(z).astype(z.dtype, copy=False)
    return z


def softmax(z: np.ndarray) -> np.ndarray:
    """Softmax over the last axis, in float64: dense casts it back, training keeps it."""
    wide = z.astype(np.float64)
    e = np.exp(wide - wide.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)
