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
conv path the caller names; `stream_keeps` and `stages` place that step in
the carried stream of `forward_frames` and of a loaded model's continued
`forward`, where a stage runs the kind's own `forward` path and adds only
row bookkeeping (the rows it carries, the interleaving by time step,
flatten's gather, the time pool); `train_forward` and `train_backward` are
its batched training passes, and a layer that routes (a pool's argmax, a
relu's mask) keeps that routing under its cache's "route" key; `to_dict`
and `Layer.from_dict` are its model-header form.
Adding a kind means one class here and its entry in `_KINDS` (a new output
kind also needs the stack rule in `ArchSpec.placed`).

Inference calls the float64-accumulating kernels through the `tensor`
module at call time, so tracers that wrap them see every call, and a
MacCounter passed in meters every multiply they execute. A layer reads its
binding: the float64 copies of its tensors, which the kernels use as they
are (a conv's as one FilterBank), and the stored weights' dtype, to which
it rounds its output, the dtype the kernels give on the stored tensors, so
outputs do not depend on when the copies were made.
Training's forward and backward passes run over a leading example axis,
and every product in them (im2col and col2im, the pool scatter, the outer
products and input gradients) runs in the dtype of the weights they are
given: float32 in `train`, float64 in `grad_check`. Per-example gradients
are summed in example order into float64 totals, given as a tuple like the
tensors.
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

# One step of the carried stream: what it does to its rows, metering its
# kernels on the counter it is called with. A stage given r rows returns
# r - keep rows, where keep is its entry in Placed.keeps.
Stage = Callable[[np.ndarray, Counter], np.ndarray]


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
    step: int  # stream rows between consecutive input rows of one window
    keeps: tuple[int, ...]  # rows each of its stream stages carries to the next chunk

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

    def stream_keeps(self, step: int, window_rows: int) -> tuple[tuple[int, ...], int]:
        """Rows each of the layer's stream stages keeps for the next chunk, at
        time step `step` with a window spanning `window_rows` rows of the
        stream, and the time step after the layer."""
        return (0,), step

    def bind(self, tensors: Tensors) -> tuple:
        """Inference's form of the layer's tensors: their float64 copies, then
        the stored weights' dtype, to which forward() rounds its output."""
        copies = tuple(np.asarray(t, dtype=np.float64) for t in tensors)
        return (*copies, np.asarray(tensors[0]).dtype) if tensors else ()

    def stages(self, placed: Placed, bound: tuple) -> list[Stage]:
        """forward() on every row of a chunk at once."""
        return [lambda x, counter: self.forward(bound, x, counter)]

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


def _accumulate(total: np.ndarray, per_example) -> None:
    """Add per-example gradients into `total` in example order."""
    for part in per_example:
        total += part
        del part  # free it before the next example's product is formed


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


def _rounded(y: np.ndarray, x: np.ndarray, stored: np.dtype) -> np.ndarray:
    """A float64 output y on input x, rounded to promote_types(x, stored weights)."""
    return y.astype(np.promote_types(x.dtype, stored), copy=False)


def _maxpool_argmax(x: np.ndarray, pool: Pool) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Max-pool over the last three axes (time, freq, channels) of x."""
    *lead, t, f, c = x.shape
    t2, f2 = tensor.pool_output_shape(t, f, pool)
    blocks = x[..., : t2 * pool.time, : f2 * pool.freq, :].reshape(*lead, t2, pool.time, f2, pool.freq, c)
    windows = np.moveaxis(blocks, (-4, -2), (-2, -1)).reshape(*lead, t2, f2, c, pool.time * pool.freq)
    # argmax takes the first maximum, i.e. ties break toward the earliest
    # (time, freq) position inside the window
    arg = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return pooled, arg, (t2, f2)


def _maxpool_scatter(grad_pooled: np.ndarray, arg: np.ndarray, pre_shape: Shape, pool: Pool) -> np.ndarray:
    """Route each pooled gradient to its argmax position; any leading axes."""
    t2, f2 = grad_pooled.shape[-3:-1]
    grad_pre = np.zeros(pre_shape, dtype=grad_pooled.dtype)
    # one strided write per position inside the pool window
    for k in range(pool.time * pool.freq):
        dt, df = divmod(k, pool.freq)
        grad_pre[..., dt : t2 * pool.time : pool.time, df : f2 * pool.freq : pool.freq, :] = np.where(
            arg == k, grad_pooled, 0.0
        )
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

    def stream_keeps(self, step: int, window_rows: int) -> tuple[tuple[int, ...], int]:
        """A conv of kernel_t rows at time step d keeps d*(kernel_t - 1) rows; a
        time stride or pool of s does not drop rows but multiplies the step of
        every later layer by s, and a time pool of p keeps (p - 1) steps."""
        keeps = (step * (self.kernel_t - 1),)
        step *= self.stride.time
        if self.pool.time > 1:
            keeps += (step * (self.pool.time - 1),)
            step *= self.pool.time
        return keeps, step

    def bind(self, tensors: Tensors) -> tuple:
        weights, bias, stored = super().bind(tensors)
        return FilterBank(weights, bias), stored

    def stages(self, placed: Placed, bound: tuple) -> list[Stage]:
        """forward()'s step at time stride 1 over rows u, u+step, ...: `step`
        interleaved calls on rows[p::step], each pooled in frequency, which
        pools within a row; then a time pool, a max over rows u, u+d, ...,
        u+(pool.time-1)*d at the step d after the stride."""
        step, keep = placed.step, placed.keeps[0]
        freq_only, freq_pool = Stride(1, self.stride.freq), Pool(1, self.pool.freq)

        def phase(rows: np.ndarray, counter: Counter) -> np.ndarray:
            return self._step(tensor.conv2d_optimized, bound, rows, freq_only, freq_pool, counter)

        def conv(x: np.ndarray, counter: Counter) -> np.ndarray:
            if step == 1:
                return phase(x, counter)
            n = len(x) - keep
            y = None
            for p in range(min(step, n)):
                part = phase(x[p::step], counter)
                if y is None:
                    y = np.empty((n,) + part.shape[1:], part.dtype)
                y[p::step] = part
            return y

        if self.pool.time == 1:
            return [conv]
        d, pool_keep = step * self.stride.time, placed.keeps[1]

        def time_pool(x: np.ndarray, counter: Counter) -> np.ndarray:
            n = len(x) - pool_keep
            y = x[:n]
            for k in range(1, self.pool.time):
                y = np.maximum(y, x[k * d : k * d + n])
            return y

        return [conv, time_pool]

    def _step(
        self, kernel: Callable, bound: tuple, x: np.ndarray, stride: Stride, pool: Pool, counter: Counter
    ) -> np.ndarray:
        """`kernel` at `stride`, its output rounded to the layer's output
        dtype, then max-pooled by `pool`: forward() and the stream stage."""
        bank, stored = bound
        y = _rounded(kernel(x, bank, stride, counter=counter), x, stored)
        return tensor.maxpool(y, pool) if pool.active else y

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        kernel = tensor.conv2d_valid if conv_path == "naive" else tensor.conv2d_optimized
        return self._step(kernel, bound, x, self.stride, self.pool, counter)

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        """im2col over the (B, T, F, C) chunk, then one stacked product with the filters."""
        weights, bias = tensors
        out_t, out_f = self._out(x.shape[1:])
        cols = tensor.im2col(x, self.kernel_t, self.kernel_f, self.stride)[0]
        pre = np.matmul(cols, weights.reshape(-1, self.maps))
        del cols  # the chunk's patch matrix is not held through pooling
        pre += bias
        pre = pre.reshape(len(x), out_t, out_f, self.maps)
        cache["x"] = x
        if not self.pool.active:
            return pre
        pooled, arg, _ = _maxpool_argmax(pre, self.pool)
        cache.update(route=arg, pre_shape=pre.shape)
        return pooled

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        if self.pool.active:
            delta = _maxpool_scatter(delta, cache["route"], cache["pre_shape"], self.pool)
        dmat = delta.reshape(len(delta), -1, self.maps)
        # im2col is redone one example at a time from the cached input: no
        # chunk of patch matrices is held from forward to backward
        x = cache["x"]
        kt, kf, stride = self.kernel_t, self.kernel_f, self.stride
        grad_weights, grad_bias = grads
        _accumulate(
            grad_weights.reshape(-1, self.maps),
            (tensor.im2col(x[i], kt, kf, stride)[0].T @ dmat[i] for i in range(len(dmat))),
        )
        _accumulate(grad_bias, dmat.sum(axis=1))
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

    def stream_keeps(self, step: int, window_rows: int) -> tuple[tuple[int, ...], int]:
        # the rows after a window's last read row, which no window of a valid
        # stack reads, are kept too, so each stream row becomes one window
        return (window_rows - 1,), 1

    def stages(self, placed: Placed, bound: tuple) -> list[Stage]:
        """Window j reads rows j, j+step, ... of the stream, one per row of its map."""
        keep = placed.keeps[0]
        offsets = placed.step * np.arange(placed.in_shape[0])

        def gather(x: np.ndarray, counter: Counter) -> np.ndarray:
            return self.forward(bound, x[np.arange(len(x) - keep)[:, None] + offsets], counter)

        return [gather]

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

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        weights, stored = bound
        return _rounded(tensor.linear(x, weights, counter=counter), x, stored)

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        cache["x"] = x
        return np.matmul(tensors[0], x[..., None])[..., 0]

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        total, x = grads[0], cache["x"]
        # every example's outer product is written here, not allocated
        buf = np.empty(total.shape, np.result_type(delta, x))
        _accumulate(total, (np.outer(d, row, out=buf) for d, row in zip(delta, x)))
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

    def forward(
        self, bound: tuple, x: np.ndarray, counter: Counter, conv_path: str = "optimized"
    ) -> np.ndarray:
        weights, bias, stored = bound
        return _rounded(tensor.dense(x, weights, bias, self.activation, counter=counter), x, stored)

    def train_forward(self, tensors: Tensors, x: np.ndarray, cache: dict) -> np.ndarray:
        z = super().train_forward(tensors, x, cache) + tensors[1]
        return self._activate(z, cache)

    def train_backward(
        self, tensors: Tensors, cache: dict, delta: np.ndarray, grads: Tensors, input_grad: bool
    ) -> np.ndarray | None:
        delta = self._activation_grad(delta, cache)
        _accumulate(grads[1], delta)
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
        return np.where(cache["route"], z, 0.0)

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
        z = z.astype(np.float64)
        e = np.exp(z - z.max(axis=1, keepdims=True))
        return e / e.sum(axis=1, keepdims=True)

    def _activation_grad(self, delta: np.ndarray, cache: dict) -> np.ndarray:
        return delta  # the caller starts from d loss / d logits of softmax + cross-entropy


_KINDS: dict[str, type[Layer]] = {cls.kind: cls for cls in (Conv, Flatten, LowRank, Dense, SoftmaxOut)}
