"""The five layer kinds an ArchSpec stacks, each defined once.

A layer is a frozen description (kernel sizes, widths) whose class holds
every decision that depends on its kind, so the walks over a stack in
`arch`, `budget` and `train` are plain loops. `kind` names it in a model
header and prefixes its layer name (conv1, dense2); `trace` gives its output
shapes or raises ShapeError, a conv taking both from `tensor`'s geometry
rules; `manifest` names its weight tensors, the one method that does: the
others take them as a tuple in manifest order; `cost` and
`frame_multiplies` count it per window and per streamed frame; `bind` makes
inference's form of that tuple and `forward` is its inference step, on the
conv path the caller names; `stream` places that step in the carried
stream of `forward_frames` and of a loaded model's continued `forward`,
once per spec, as stages that take the binding when they run, run the
kind's own `forward` path and add only row bookkeeping (the rows each
carries, the interleaving by time step, flatten's gather, the time pool);
`train_forward` and `train_backward` are its batched training passes, and
a layer that routes (a pool's first-maximum masks, built from comparisons;
a relu's mask) keeps that routing under its cache's "route" key; `to_dict`
and `Layer.from_dict` are its model-header form.
Adding a kind means one class here and its entry in `_KINDS` (a new output
kind also needs the stack rule in `ArchSpec.placed`).

Inference calls the kernels through the `tensor` module at call time, so
tracers that wrap them see every call, and a MacCounter passed in meters
every multiply they execute. A layer's binding is its stored tensors as
they are, a conv's as one FilterBank, which fixes the group of time taps
each of its products unfolds (`tensor.TAP_DEPTH`): the whole kernel for a
stock conv1, one tap for a stock conv2. The optimized path, whose conv is
`tensor.conv2d_optimized`, runs every product in the promoted dtype of its
input and weights, so float32 models accumulate in float32, each output
within the float32 bound that `bound_check` measures against the naive
path, the oracle: `tensor.conv2d_valid`, and the flat kernels on float64
operands.
Training's passes run inference's kernels over a leading example axis (a
flat layer one product per row, the bits of a one-window product), so its
posteriors equal `forward`'s bit for bit before softmax's float32 cast.
Every product in them (that conv, col2im, the pool scatter, the input gradients)
runs in the dtype of the weights they are given: float32 in `train`,
float64 in `grad_check`. Gradients are summed into float64 totals, a tuple
like the tensors: a conv's per example, in example order; a flat layer's
as one float64 product (and bias column sum) per chunk, whose products of
float32 factors are exact.
"""

from __future__ import annotations

from collections.abc import Callable, Mapping
from dataclasses import dataclass, fields
from typing import NamedTuple

import numpy as np

from . import tensor
from .errors import ShapeError, check_counts
from .tensor import FilterBank, MacCounter, Pool, Stride

Shape = tuple[int, ...]
Tensors = tuple[np.ndarray, ...]  # a layer's tensors (or their gradients) in manifest order
Counter = MacCounter | None  # a multiply meter the kernels add to, if any

# One step of the carried stream, (keep, run): run(binding, rows, counter)
# runs it on its layer's binding, metering on the counter, and turns r rows
# into r - keep; the last keep rows are carried into the next chunk.
Stage = tuple[int, Callable[[tuple, np.ndarray, Counter], np.ndarray]]


@dataclass(frozen=True)
class TraceEntry:
    name: str
    shape: Shape


@dataclass(frozen=True)
class LayerCost:
    params: int
    multiplies: int

    def __add__(self, other: "LayerCost") -> "LayerCost":
        return LayerCost(self.params + other.params, self.multiplies + other.multiplies)


ZERO_COST = LayerCost(0, 0)


class Placed(NamedTuple):
    """A layer at its place in a valid stack, as one walk of the stack derives it."""

    name: str
    layer: "Layer"
    in_shape: Shape  # one window's input to the layer
    trace: tuple[TraceEntry, ...]  # its outputs; the last one feeds the next layer
    manifest: tuple[tuple[str, Shape], ...]
    stages: tuple[Stage, ...]  # its steps in the carried stream (Layer.stream)

    def tensors(self, mapping: Mapping[str, np.ndarray]) -> Tensors:
        """The layer's tensors in `mapping`, in manifest order."""
        return tuple(mapping[key] for key, _ in self.manifest)


class Layer:
    """Base of the layer kinds; the defaults are those of a layer without weights."""

    kind = ""

    def layer_name(self, index: int) -> str:
        """Name of the index-th layer of this kind in a stack (1-based)."""
        return f"{self.kind}{index}"

    def manifest(self, name: str, shape: Shape) -> tuple[tuple[str, Shape], ...]:
        return ()

    def cost(self, shape: Shape) -> LayerCost:
        return ZERO_COST

    def frame_multiplies(self, shape: Shape) -> int:
        return self.cost(shape).multiplies  # one window per frame

    def stream(self, shape: Shape, step: int, window_rows: int) -> tuple[tuple[Stage, ...], int]:
        """The layer's stages for input `shape` at time step `step` (stream rows
        between a window's consecutive input rows), a window spanning
        `window_rows` stream rows, and the step after the layer. By default
        forward() on every row of a chunk at once."""
        return ((0, self.forward),), step

    def bind(self, tensors: Tensors) -> tuple:
        """Inference's form of the layer's tensors: as they are."""
        return tuple(map(np.asarray, tensors))

    def bound_check(self, bound: tuple, x: np.ndarray) -> tuple[float | None, np.ndarray]:
        """The optimized step's worst error on x as a fraction of its stated
        bound, None for a kind without one, and forward()'s naive-path output."""
        return None, self.forward(bound, x, None, "naive")

    def to_dict(self) -> dict:
        return {"kind": self.kind, **{f.name: getattr(self, f.name) for f in fields(self)}}

    @classmethod
    def _from_fields(cls, entry: dict) -> "Layer":
        return cls(**{f.name: entry[f.name] for f in fields(cls)})

    @staticmethod
    def from_dict(entry: dict) -> "Layer":
        """Inverse of to_dict; the entry must hold exactly its kind's keys."""
        if not isinstance(entry, dict):
            raise TypeError(f"a layer entry must be an object, got {entry!r}")
        kind = entry.get("kind")
        cls = _KINDS.get(kind) if isinstance(kind, str) else None
        if cls is None:
            raise ValueError(f"unknown layer kind {kind!r}")
        keys = {"kind", *(f.name for f in fields(cls))}
        if set(entry) != keys:
            raise ValueError(f"a {kind} layer needs exactly the keys {sorted(keys)}, got {sorted(entry)}")
        return cls._from_fields(entry)


def _col2im(
    grad_cols: np.ndarray, in_shape: Shape, kernel_t: int, kernel_f: int, stride: Stride
) -> np.ndarray:
    """Adjoint of a batched tensor.im2col: one strided scatter-add per kernel offset.

    Offsets run last to first, so every input position sums its contributions
    in order of output position.
    """
    out_t, out_f = tensor.conv_output_shape(in_shape[1], in_shape[2], kernel_t, kernel_f, stride)
    grad_x = np.zeros(in_shape, dtype=grad_cols.dtype)
    patches = grad_cols.reshape(in_shape[0], out_t, out_f, kernel_t, kernel_f, in_shape[3])
    t_span, f_span = (out_t - 1) * stride.time + 1, (out_f - 1) * stride.freq + 1
    for i in reversed(range(kernel_t)):
        for j in reversed(range(kernel_f)):
            grad_x[:, i : i + t_span : stride.time, j : j + f_span : stride.freq] += patches[:, :, :, i, j]
    return grad_x


def _fraction(got: np.ndarray, exact: np.ndarray, bound: np.ndarray) -> float:
    """The worst |got - exact| as a fraction of `bound`: at most 1 where got
    keeps it, inf or NaN where it does not."""
    err = np.abs(got - exact)
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.where(err == 0, 0.0, err / bound).max())


def _maxpool_route(x: np.ndarray, pooled: np.ndarray, pool: Pool) -> np.ndarray:
    """The route of pooled = tensor.maxpool(x, pool), any leading axes: a
    bool map laid out (..., t2, pool.time, f2, pool.freq, c) that marks each
    window's first maximum in (time, freq) order, argmax's, found by
    comparing the window positions' strided views with `pooled`. A window
    holding a NaN routes nowhere; `train.loss_and_grads` stops before the
    backward whenever a posterior is not finite.
    """
    pt, pf = pool.time, pool.freq
    t2, f2 = pooled.shape[-3:-1]
    route = np.empty((*pooled.shape[:-3], t2, pt, f2, pf, pooled.shape[-1]), dtype=bool)
    free = np.ones(pooled.shape, dtype=bool)  # windows whose maximum no earlier position took
    for dt in range(pt):
        for df in range(pf):
            view = x[..., dt : t2 * pt : pt, df : f2 * pf : pf, :]
            hit = np.equal(view, pooled, out=route[..., dt, :, df, :])
            hit &= free
            free ^= hit
    return route


def _maxpool_scatter(grad_pooled: np.ndarray, route: np.ndarray, pre_shape: Shape) -> np.ndarray:
    """Route each pooled gradient to its window's first maximum; any leading axes."""
    *lead, t2, pt, f2, pf, c = route.shape
    routed = np.where(route, grad_pooled[..., :, None, :, None, :], 0).reshape(*lead, t2 * pt, f2 * pf, c)
    if routed.shape == pre_shape:
        return routed
    grad_pre = np.zeros(pre_shape, dtype=routed.dtype)  # the rows and columns no window covers
    grad_pre[..., : t2 * pt, : f2 * pf, :] = routed
    return grad_pre


@dataclass(frozen=True)
class Conv(Layer):
    """2-D valid convolution, optionally strided, optionally max-pooled."""

    kernel_t: int
    kernel_f: int
    maps: int
    stride: Stride = Stride()
    pool: Pool = Pool()

    kind = "conv"

    def __post_init__(self):
        check_counts(self, 1, kernel_t=self.kernel_t, kernel_f=self.kernel_f, maps=self.maps)

    def to_dict(self) -> dict:
        pairs = {"stride": [self.stride.time, self.stride.freq], "pool": [self.pool.time, self.pool.freq]}
        return {**super().to_dict(), **pairs}

    @classmethod
    def _from_fields(cls, entry: dict) -> "Conv":
        for key in ("stride", "pool"):
            if not (isinstance(entry[key], list) and len(entry[key]) == 2):
                raise ValueError(f"conv {key} must be a [time, freq] pair, got {entry[key]!r}")
        stride, pool = Stride(*entry["stride"]), Pool(*entry["pool"])
        return cls(entry["kernel_t"], entry["kernel_f"], entry["maps"], stride, pool)

    def _out(self, shape: Shape) -> tuple[int, int]:
        return tensor.conv_output_shape(shape[0], shape[1], self.kernel_t, self.kernel_f, self.stride)

    def trace(self, name: str, shape: Shape) -> tuple[TraceEntry, ...]:
        """The pre-pool map, then the pooled map when the layer pools."""
        if len(shape) != 3:
            raise ShapeError(
                f"{name}: convolution needs a (time, freq, channels) input, "
                f"got flattened shape {shape}",
                layer=name,
            )
        try:
            out_t, out_f = self._out(shape)
            pooled = tensor.pool_output_shape(out_t, out_f, self.pool)
        except ShapeError as exc:
            raise ShapeError(f"{name}: {exc}", axis=exc.axis, layer=name) from None
        entries = (TraceEntry(name, (out_t, out_f, self.maps)),)
        if not self.pool.active:
            return entries
        return entries + (TraceEntry(f"{name}.pool", (*pooled, self.maps)),)

    def manifest(self, name: str, shape: Shape) -> tuple[tuple[str, Shape], ...]:
        return (
            (f"{name}.weights", (self.kernel_t, self.kernel_f, shape[2], self.maps)),
            (f"{name}.bias", (self.maps,)),
        )

    def cost(self, shape: Shape) -> LayerCost:
        """kt*kf*c_in*maps weights plus maps biases; one multiply per weight per
        output position, counted before pooling."""
        out_t, out_f = self._out(shape)
        weights = self.kernel_t * self.kernel_f * shape[2] * self.maps
        return LayerCost(weights + self.maps, out_t * out_f * weights)

    def frame_multiplies(self, shape: Shape) -> int:
        """One output row of the stream: the per-window cost over its pre-pool rows."""
        return self.cost(shape).multiplies // self._out(shape)[0]

    def bind(self, tensors: Tensors) -> tuple:
        """The stored tensors as they are, as one validated FilterBank."""
        return (FilterBank(*tensors),)

    def stream(self, shape: Shape, step: int, window_rows: int) -> tuple[tuple[Stage, ...], int]:
        """forward()'s step at time stride 1 over rows u, u+step, ...: `step`
        interleaved calls on rows[p::step], each pooled in frequency, which
        pools within a row; then a time pool, a max over rows u, u+d, ...,
        u+(pool.time-1)*d at the step d after the stride. A time stride or
        pool of s drops no rows but multiplies every later step by s."""
        keep = step * (self.kernel_t - 1)
        freq_only, freq_pool = Stride(1, self.stride.freq), Pool(1, self.pool.freq)

        def phase(bound: tuple, rows: np.ndarray, counter: Counter) -> np.ndarray:
            return self._step(tensor.conv2d_optimized, bound, rows, freq_only, freq_pool, counter)

        def conv(bound: tuple, x: np.ndarray, counter: Counter) -> np.ndarray:
            if step == 1:
                return phase(bound, x, counter)
            n = len(x) - keep
            y = None
            for p in range(min(step, n)):
                part = phase(bound, x[p::step], counter)
                if y is None:
                    y = np.empty((n,) + part.shape[1:], part.dtype)
                y[p::step] = part
            return y

        d = step * self.stride.time
        if self.pool.time == 1:
            return ((keep, conv),), d
        pool_keep = d * (self.pool.time - 1)

        def time_pool(bound: tuple, x: np.ndarray, counter: Counter) -> np.ndarray:
            n = len(x) - pool_keep
            return tensor.fold_max([x[k * d : k * d + n] for k in range(self.pool.time)])

        return ((keep, conv), (pool_keep, time_pool)), d * self.pool.time

    def _step(
        self, kernel: Callable, bound: tuple, x: np.ndarray, stride: Stride, pool: Pool, counter: Counter
    ) -> np.ndarray:
        """`kernel` at `stride`, then max-pooled by `pool`: forward() and the
        stream stage."""
        y = kernel(x, bound[0], stride, counter=counter)
        return tensor.maxpool(y, pool) if pool.active else y

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        kernel = tensor.conv2d_valid if conv_path == "naive" else tensor.conv2d_optimized
        return self._step(kernel, bound, x, self.stride, self.pool, counter)

    def bound_check(self, bound: tuple, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The optimized kernel's worst error on input x, before pooling, as a
        fraction of its float32 bound (tensor.conv2d_error_bound): at most 1
        if it keeps the bound, inf or NaN where it does not. Also forward()'s
        naive-path output on x, rounded and pooled from the same exact sums."""
        bank = bound[0]
        exact = tensor.conv2d_valid(x.astype(np.float64), bank, self.stride)
        got = tensor.conv2d_optimized(x, bank, self.stride)
        fraction = _fraction(got, exact, tensor.conv2d_error_bound(x, bank, self.stride))
        y = exact.astype(np.promote_types(x.dtype, bank.weights.dtype), copy=False)
        return fraction, tensor.maxpool(y, self.pool) if self.pool.active else y

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        """tensor.conv2d_optimized on the (B, T, F, C) chunk: the kernel inference runs."""
        pre = tensor.conv2d_optimized(x, FilterBank(*tensors), self.stride)
        cache["x"] = x
        if not self.pool.active:
            return pre
        pooled = tensor.maxpool(pre, self.pool)
        cache.update(route=_maxpool_route(pre, pooled, self.pool), pre_shape=pre.shape)
        return pooled

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        if self.pool.active:
            delta = _maxpool_scatter(delta, cache["route"], cache["pre_shape"])
        dmat = delta.reshape(len(delta), -1, self.maps)
        # the whole kernel's im2col is redone one example at a time from the
        # cached input, whatever tap group the forward summed: no chunk of
        # patch matrices is held from forward to backward; per-example
        # gradients are added in example order
        x = cache["x"]
        kt, kf, stride = self.kernel_t, self.kernel_f, self.stride
        grad_weights, grad_bias = grads[0].reshape(-1, self.maps), grads[1]
        for i, d in enumerate(dmat):
            grad_weights += tensor.im2col(x[i], kt, kf, stride).T @ d
            grad_bias += d.sum(axis=0)
        if not input_grad:
            return None
        wmat = tensors[0].reshape(-1, self.maps)
        return _col2im(np.matmul(dmat, wmat.T), x.shape, kt, kf, stride)


@dataclass(frozen=True)
class Flatten(Layer):
    kind = "flatten"

    def trace(self, name: str, shape: Shape) -> tuple[TraceEntry, ...]:
        if len(shape) != 3:
            raise ShapeError(f"{name}: input is already flat: {shape}", layer=name)
        return (TraceEntry(name, (shape[0] * shape[1] * shape[2],)),)

    def stream(self, shape: Shape, step: int, window_rows: int) -> tuple[tuple[Stage, ...], int]:
        """Window j reads rows j, j+step, ... of the stream, one per row of its
        map. The rows after a window's last read row, which no window of a
        valid stack reads, are kept too, so each stream row becomes one window."""
        keep = window_rows - 1
        offsets = step * np.arange(shape[0])

        def gather(bound: tuple, x: np.ndarray, counter: Counter) -> np.ndarray:
            return self.forward(bound, x[np.arange(len(x) - keep)[:, None] + offsets], counter)

        return ((keep, gather),), 1

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        return tensor.flatten(x)

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        cache["in_shape"] = x.shape
        return x.reshape(len(x), -1)

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray:
        return delta.reshape(cache["in_shape"])


class _Flat(Layer):
    """Bias-free (width, in) projection of one vector or a batch of rows; the
    base of every layer after flatten."""

    activation = "none"

    def trace(self, name: str, shape: Shape) -> tuple[TraceEntry, ...]:
        if len(shape) != 1:
            raise ShapeError(
                f"{name}: needs a flattened input, got shape {shape}; "
                f"insert a flatten layer first",
                layer=name,
            )
        return (TraceEntry(name, (self.width,)),)

    def manifest(self, name: str, shape: Shape) -> tuple[tuple[str, Shape], ...]:
        return ((f"{name}.weights", (self.width, shape[0])),)

    def cost(self, shape: Shape) -> LayerCost:
        return LayerCost(shape[0] * self.width, shape[0] * self.width)

    def _kernel(self, tensors: Tensors, x: np.ndarray, counter: Counter, activation: str) -> np.ndarray:
        return tensor.linear(x, *tensors, counter=counter)

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        """The kernel; on the naive path, the kernel on float64 operands, rounded."""
        if conv_path != "naive":
            return self._kernel(bound, x, counter, self.activation)
        wide = tuple(t.astype(np.float64, copy=False) for t in bound)
        exact = self._kernel(wide, x.astype(np.float64, copy=False), counter, self.activation)
        return exact.astype(np.promote_types(x.dtype, bound[0].dtype), copy=False)

    def bound_check(self, bound: tuple, x: np.ndarray) -> tuple[float, np.ndarray]:
        """The worst error on x as a fraction of gamma(K + 1)*(sum|w*x| + |b|),
        K the input width (the output layer on its logits, a relu, 1-Lipschitz,
        after it), and forward()'s naive-path output on x."""
        activation = "none" if self.activation == "softmax" else self.activation
        wide, x64 = tuple(t.astype(np.float64) for t in bound), x.astype(np.float64)
        exact = self._kernel(wide, x64, None, activation)
        magnitudes = self._kernel(tuple(map(np.abs, wide)), np.abs(x64), None, "none")
        got = self._kernel(bound, x, None, activation)
        fraction = _fraction(got, exact, tensor.gamma(x.shape[-1] + 1) * magnitudes)
        return fraction, self.forward(bound, x, None, "naive")

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        cache["x"] = x
        return np.matmul(tensors[0], x[..., None])[..., 0]

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        # one float64 product per chunk: a float32 product is exact in float64
        total = grads[0]
        total += delta.astype(np.float64).T @ cache["x"].astype(np.float64)
        if not input_grad:
            return None
        return np.matmul(tensors[0].T, delta[..., None])[..., 0]


@dataclass(frozen=True)
class LowRank(_Flat):
    """Bias-free linear bottleneck projecting onto `rank` dimensions."""

    rank: int

    kind = "lowrank"

    def __post_init__(self):
        check_counts(self, 1, rank=self.rank)

    width = property(lambda self: self.rank)


class _Affine(_Flat):
    """A projection plus bias, then the kind's `activation`."""

    def manifest(self, name: str, shape: Shape) -> tuple[tuple[str, Shape], ...]:
        return super().manifest(name, shape) + ((f"{name}.bias", (self.width,)),)

    def cost(self, shape: Shape) -> LayerCost:
        return super().cost(shape) + LayerCost(self.width, 0)

    def _kernel(self, tensors: Tensors, x: np.ndarray, counter: Counter, activation: str) -> np.ndarray:
        return tensor.dense(x, *tensors, activation, counter=counter)

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        z = super().train_forward(tensors, x, cache) + tensors[1]
        return self._activate(z, cache)

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        delta = self._activation_grad(delta, cache)
        total = grads[1]
        total += delta.astype(np.float64).sum(axis=0)
        return super().train_backward(tensors, cache, delta, grads, input_grad)


@dataclass(frozen=True)
class Dense(_Affine):
    """Fully connected layer with ReLU nonlinearity."""

    units: int

    kind = "dense"
    activation = "relu"

    def __post_init__(self):
        check_counts(self, 1, units=self.units)

    width = property(lambda self: self.units)

    def _activate(self, z: np.ndarray, cache: dict) -> np.ndarray:
        cache["route"] = z > 0
        return np.maximum(z, 0.0)  # as inference's relu: NaN stays NaN

    def _activation_grad(self, delta: np.ndarray, cache: dict) -> np.ndarray:
        return delta * cache["route"]


@dataclass(frozen=True)
class SoftmaxOut(_Affine):
    """Fully connected output layer with softmax over the label set."""

    labels: int

    kind = "softmax"
    activation = "softmax"

    def __post_init__(self):
        check_counts(self, 2, labels=self.labels)

    width = property(lambda self: self.labels)

    def layer_name(self, index: int) -> str:
        return "softmax"  # a valid stack has exactly one

    def _activate(self, z: np.ndarray, cache: dict) -> np.ndarray:
        return tensor.softmax(z)  # float64, as inference's before its cast

    def _activation_grad(self, delta: np.ndarray, cache: dict) -> np.ndarray:
        return delta  # the caller starts from d loss / d logits of softmax + cross-entropy


_KINDS: dict[str, type[Layer]] = {cls.kind: cls for cls in (Conv, Flatten, LowRank, Dense, SoftmaxOut)}
