"""Architecture descriptions, shape checking, weight init, and inference.

An ArchSpec is a declarative stack of layers over a (time, freq, 1) input
window. validate() walks the stack symbolically and returns the trace of
intermediate shapes; forward() walks it with actual weights over one window,
and forward_frames() over the overlapping windows of a whole frame stream.
Weight tensors are addressed by stable names (conv1.weights, dense2.bias,
...) in a fixed manifest order, which is what makes initialization and
serialization deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Union

import numpy as np

from . import tensor
from .errors import InsufficientAudioError, ManifestMismatchError, ShapeError
from .frontend import Context
from .tensor import FilterBank, MacCounter, Pool, Stride

__all__ = [
    "Conv",
    "Flatten",
    "LowRank",
    "Dense",
    "SoftmaxOut",
    "LayerSpec",
    "ArchSpec",
    "TraceEntry",
    "validate",
    "layer_names",
    "weight_manifest",
    "init_weights",
    "forward",
    "forward_frames",
    "BLOCK_WINDOWS",
    "ARCHITECTURES",
    "build_dnn_baseline",
    "build_cnn_trad",
    "build_cnn_one",
    "build_cnn_tstride",
    "build_cnn_tpool",
    "get_arch",
    "arch_to_dict",
    "arch_from_dict",
]


@dataclass(frozen=True)
class Conv:
    """2-D valid convolution, optionally strided, optionally max-pooled."""

    kernel_t: int
    kernel_f: int
    maps: int
    stride: Stride = Stride()
    pool: Pool = Pool()

    def __post_init__(self):
        if self.kernel_t < 1 or self.kernel_f < 1:
            raise ValueError(f"kernel must be >= 1 in both axes, got {self}")
        if self.maps < 1:
            raise ValueError(f"need at least one feature map, got {self.maps}")


@dataclass(frozen=True)
class Flatten:
    pass


@dataclass(frozen=True)
class LowRank:
    """Bias-free linear bottleneck projecting onto `rank` dimensions."""

    rank: int

    def __post_init__(self):
        if self.rank < 1:
            raise ValueError(f"rank must be >= 1, got {self.rank}")


@dataclass(frozen=True)
class Dense:
    """Fully connected layer with ReLU nonlinearity."""

    units: int

    def __post_init__(self):
        if self.units < 1:
            raise ValueError(f"units must be >= 1, got {self.units}")


@dataclass(frozen=True)
class SoftmaxOut:
    """Fully connected output layer with softmax over the label set."""

    labels: int

    def __post_init__(self):
        if self.labels < 2:
            raise ValueError(f"need at least two labels, got {self.labels}")


LayerSpec = Union[Conv, Flatten, LowRank, Dense, SoftmaxOut]

# (name, layer) pairs of a stack, in order
_Named = tuple[tuple[str, LayerSpec], ...]


@dataclass(frozen=True)
class ArchSpec:
    """A named layer stack over (context.size, input_f, 1) feature windows."""

    name: str
    context: Context
    layers: tuple[LayerSpec, ...]
    input_f: int = 40

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if self.input_f != 40:
            raise ValueError(f"feature dimension is fixed at 40, got {self.input_f}")

    @property
    def input_t(self) -> int:
        return self.context.size

    @property
    def labels(self) -> int:
        return self.layers[-1].labels  # validate() guarantees SoftmaxOut last

    # Derived once per spec, on first use: every field is immutable, so the
    # names and the manifest cannot go stale. A spec that fails validate()
    # caches nothing and raises again on the next call. Callers get copies.
    @cached_property
    def _names(self) -> tuple[str, ...]:
        return tuple(_derive_layer_names(self))

    @cached_property
    def _manifest(self) -> dict[str, tuple[int, ...]]:
        return dict(_derive_manifest(self))

    @cached_property
    def _convs_and_tail(self) -> tuple[_Named, _Named]:
        # (name, layer) pairs before and after the one Flatten of a valid stack
        layers = tuple(zip(self._names, self.layers))
        cut = next(i for i, (_, layer) in enumerate(layers) if isinstance(layer, Flatten))
        return layers[:cut], layers[cut + 1 :]


@dataclass(frozen=True)
class TraceEntry:
    name: str
    shape: tuple[int, ...]


def layer_names(arch: ArchSpec) -> list[str]:
    """Stable per-layer names: kind-scoped counters, e.g. conv1, dense2."""
    return list(arch._names)


def _derive_layer_names(arch: ArchSpec) -> list[str]:
    counts: dict[str, int] = {}
    names = []
    for layer in arch.layers:
        if isinstance(layer, Conv):
            kind = "conv"
        elif isinstance(layer, Flatten):
            kind = "flatten"
        elif isinstance(layer, LowRank):
            kind = "lowrank"
        elif isinstance(layer, Dense):
            kind = "dense"
        elif isinstance(layer, SoftmaxOut):
            names.append("softmax")
            continue
        else:
            raise TypeError(f"unknown layer spec {layer!r}")
        counts[kind] = counts.get(kind, 0) + 1
        names.append(f"{kind}{counts[kind]}")
    return names


def validate(arch: ArchSpec) -> list[TraceEntry]:
    """Walk the layer stack symbolically and return the shape trace.

    The trace starts with the input window and records one entry per layer;
    a pooled Conv contributes two entries (pre-pool and post-pool). Raises
    ShapeError naming the first failing layer and axis.
    """
    softmax_positions = [i for i, l in enumerate(arch.layers) if isinstance(l, SoftmaxOut)]
    if len(softmax_positions) != 1 or softmax_positions[0] != len(arch.layers) - 1:
        raise ShapeError(
            f"{arch.name}: layer stack must end with exactly one softmax output layer"
        )

    shape: tuple[int, ...] = (arch.input_t, arch.input_f, 1)
    trace = [TraceEntry("input", shape)]
    for name, layer in zip(layer_names(arch), arch.layers):
        if isinstance(layer, Conv):
            if len(shape) != 3:
                raise ShapeError(
                    f"{name}: convolution needs a (time, freq, channels) input, "
                    f"got flattened shape {shape}",
                    layer=name,
                )
            t, f, c = shape
            if layer.kernel_t > t:
                raise ShapeError(
                    f"{name}: kernel spans {layer.kernel_t} frames but input has {t}",
                    axis="time",
                    layer=name,
                )
            if layer.kernel_f > f:
                raise ShapeError(
                    f"{name}: kernel spans {layer.kernel_f} bins but input has {f}",
                    axis="freq",
                    layer=name,
                )
            out_t, out_f = tensor.conv_output_shape(t, f, layer.kernel_t, layer.kernel_f, layer.stride)
            shape = (out_t, out_f, layer.maps)
            trace.append(TraceEntry(name, shape))
            if layer.pool.active:
                if layer.pool.time > out_t:
                    raise ShapeError(
                        f"{name}: pool window spans {layer.pool.time} frames "
                        f"but the map has {out_t}",
                        axis="time",
                        layer=name,
                    )
                if layer.pool.freq > out_f:
                    raise ShapeError(
                        f"{name}: pool window spans {layer.pool.freq} bins "
                        f"but the map has {out_f}",
                        axis="freq",
                        layer=name,
                    )
                shape = (out_t // layer.pool.time, out_f // layer.pool.freq, layer.maps)
                trace.append(TraceEntry(f"{name}.pool", shape))
        elif isinstance(layer, Flatten):
            if len(shape) != 3:
                raise ShapeError(f"{name}: input is already flat: {shape}", layer=name)
            shape = (shape[0] * shape[1] * shape[2],)
            trace.append(TraceEntry(name, shape))
        elif isinstance(layer, (LowRank, Dense, SoftmaxOut)):
            if len(shape) != 1:
                raise ShapeError(
                    f"{name}: needs a flattened input, got shape {shape}; "
                    f"insert a flatten layer first",
                    layer=name,
                )
            if isinstance(layer, LowRank):
                out = layer.rank
            elif isinstance(layer, Dense):
                out = layer.units
            else:
                out = layer.labels
            shape = (out,)
            trace.append(TraceEntry(name, shape))
        else:
            raise TypeError(f"unknown layer spec {layer!r}")
    return trace


def weight_manifest(arch: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) list of every weight tensor the stack owns."""
    return list(arch._manifest.items())


def _derive_manifest(arch: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    validate(arch)
    manifest: list[tuple[str, tuple[int, ...]]] = []
    shape: tuple[int, ...] = (arch.input_t, arch.input_f, 1)
    for name, layer in zip(layer_names(arch), arch.layers):
        if isinstance(layer, Conv):
            t, f, c = shape
            manifest.append((f"{name}.weights", (layer.kernel_t, layer.kernel_f, c, layer.maps)))
            manifest.append((f"{name}.bias", (layer.maps,)))
            out_t, out_f = tensor.conv_output_shape(t, f, layer.kernel_t, layer.kernel_f, layer.stride)
            shape = (out_t // layer.pool.time, out_f // layer.pool.freq, layer.maps)
        elif isinstance(layer, Flatten):
            shape = (shape[0] * shape[1] * shape[2],)
        elif isinstance(layer, LowRank):
            manifest.append((f"{name}.weights", (layer.rank, shape[0])))
            shape = (layer.rank,)
        elif isinstance(layer, Dense):
            manifest.append((f"{name}.weights", (layer.units, shape[0])))
            manifest.append((f"{name}.bias", (layer.units,)))
            shape = (layer.units,)
        elif isinstance(layer, SoftmaxOut):
            manifest.append(("softmax.weights", (layer.labels, shape[0])))
            manifest.append(("softmax.bias", (layer.labels,)))
            shape = (layer.labels,)
    return manifest


def init_weights(arch: ArchSpec, seed: int, init_scale: float = 0.05) -> dict[str, np.ndarray]:
    """Uniform [-init_scale, init_scale] float32 init, seeded and ordered.

    The draw order follows the weight manifest, so a given (arch, seed,
    init_scale) always produces bit-identical tensors.
    """
    if init_scale < 0:
        raise ValueError(f"init_scale must be >= 0, got {init_scale}")
    rng = np.random.default_rng(seed)
    return {
        name: rng.uniform(-init_scale, init_scale, size=shape).astype(np.float32)
        for name, shape in weight_manifest(arch)
    }


def check_weights(arch: ArchSpec, weights: dict[str, np.ndarray]) -> None:
    """Raise ManifestMismatchError listing missing/extra/mis-shaped tensors."""
    problems = []
    for name, shape in arch._manifest.items():
        if name not in weights:
            problems.append(f"missing {name} {shape}")
        elif tuple(np.asarray(weights[name]).shape) != shape:
            problems.append(f"{name} has shape {tuple(np.asarray(weights[name]).shape)}, expected {shape}")
    for name in weights:
        if name not in arch._manifest:
            problems.append(f"unexpected tensor {name}")
    if problems:
        raise ManifestMismatchError(
            f"{arch.name}: weights do not match the manifest: " + "; ".join(sorted(problems))
        )


# Windows classified per chunk by forward_frames. Every conv position is
# computed once whatever the chunk size; larger chunks only save per-call
# overhead, and hold larger im2col matrices. On a 10 s clip, 48-window chunks
# ran cnn-tpool2 1.3x faster than 32 but raised the tracemalloc peak by 1.3 MB
# (cnn-trad: 2.4 MB, no faster); in a process that scans 10 s clips with all
# five stock architectures (the repository benchmark's scan workload), rises
# of that size have cost several MB of peak RSS (2-vCPU x86 VM, one BLAS
# thread).
BLOCK_WINDOWS = 32

# One step of the carried stream: (rows it keeps for the next chunk, what it
# does to its rows). A stage given r rows returns r - keep rows.
_Stage = tuple[int, Callable[[np.ndarray], np.ndarray]]


def _prepare(arch: ArchSpec, weights: dict[str, np.ndarray], conv_path: str) -> tuple[_Named, _Named]:
    """Per-call set-up: argument checks, then the (name, layer) pairs before
    and after flatten. validate(), which check_weights() runs through the
    manifest, guarantees exactly one Flatten, with every conv before it and
    every dense layer after it."""
    if conv_path not in ("optimized", "naive"):
        raise ValueError(f"conv_path must be 'optimized' or 'naive', got {conv_path!r}")
    check_weights(arch, weights)
    return arch._convs_and_tail


def _dense_tail(
    tail: _Named,
    weights: dict[str, np.ndarray],
    x: np.ndarray,
    counter: MacCounter | None = None,
    cast: dict[str, np.ndarray] | None = None,
) -> np.ndarray:
    """The layers after flatten, on one vector or a (windows, features) batch.

    With `cast` (float64 copies of the tail's weights), the kernels run on the
    copies and each output is rounded to the dtype `weights` would give it.
    """
    use = weights if cast is None else cast
    for name, layer in tail:
        if isinstance(layer, LowRank):
            y = tensor.linear(x, use[f"{name}.weights"], counter=counter)
        else:
            act = "relu" if isinstance(layer, Dense) else "softmax"
            y = tensor.dense(x, use[f"{name}.weights"], use[f"{name}.bias"], act, counter=counter)
        if cast is not None:
            y = y.astype(np.promote_types(x.dtype, weights[f"{name}.weights"].dtype), copy=False)
        x = y
    return x


def forward(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    window: np.ndarray,
    conv_path: str = "optimized",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Posterior over labels for one (input_t, input_f) feature window.

    conv_path selects "optimized" (im2col matmul) or "naive" (reference
    loops); the naive path honours `counter`, metering one increment per
    scalar multiply it executes.
    """
    convs, tail = _prepare(arch, weights, conv_path)
    window = np.asarray(window)
    if window.shape != (arch.input_t, arch.input_f):
        raise ShapeError(
            f"window shape {window.shape} does not match the "
            f"{(arch.input_t, arch.input_f)} input of {arch.name}",
            axis="time" if window.shape[:1] != (arch.input_t,) else "freq",
        )
    x = window.reshape(arch.input_t, arch.input_f, 1)
    for name, layer in convs:
        bank = FilterBank(weights[f"{name}.weights"], weights[f"{name}.bias"])
        x = _conv(x, bank, layer.stride, conv_path, counter)
        if layer.pool.active:
            x = tensor.maxpool(x, layer.pool)
    return _dense_tail(tail, weights, tensor.flatten(x), counter)


def _conv(
    x: np.ndarray, bank: FilterBank, stride: Stride, conv_path: str, counter: MacCounter | None
) -> np.ndarray:
    if conv_path == "naive":
        return tensor.conv2d_valid(x, bank, stride, counter=counter)
    return tensor.conv2d_optimized(x, bank, stride)


def _conv_stage(
    layer: Conv, bank: FilterBank, step: int, conv_path: str, counter: MacCounter | None
) -> _Stage:
    """A conv over rows u, u+step, ..., run as `step` interleaved calls of the
    unchanged kernel on rows[p::step]."""
    keep = step * (layer.kernel_t - 1)
    freq_only = Stride(1, layer.stride.freq)
    freq_pool = Pool(1, layer.pool.freq)

    def run(x: np.ndarray) -> np.ndarray:
        if step == 1:
            y = _conv(x, bank, freq_only, conv_path, counter)
        else:
            n = len(x) - keep
            y = None
            for p in range(min(step, n)):
                part = _conv(x[p::step], bank, freq_only, conv_path, counter)
                if y is None:
                    y = np.empty((n,) + part.shape[1:], part.dtype)
                y[p::step] = part
        return tensor.maxpool(y, freq_pool) if freq_pool.active else y

    return keep, run


def _time_pool_stage(size: int, step: int) -> _Stage:
    """Max over rows u, u+step, ..., u+(size-1)*step."""
    keep = step * (size - 1)

    def run(x: np.ndarray) -> np.ndarray:
        n = len(x) - keep
        y = x[:n]
        for k in range(1, size):
            y = np.maximum(y, x[k * step : k * step + n])
        return y

    return keep, run


def _stream_stages(
    arch: ArchSpec,
    convs: _Named,
    weights: dict[str, np.ndarray],
    conv_path: str,
    counter: MacCounter | None,
) -> list[_Stage]:
    """The layers up to flatten as stages over the edge-padded frame stream.

    Every stage's output row u starts at row u of the padded stream, and
    window j reads rows j, j+step, ..., of it, where `step` is the product
    of the time strides and time pools before it: a stride or pool of s
    multiplies the step of every later layer by s instead of dropping rows.
    So each conv position is computed once for every window that uses it.
    The last stage gathers each window's rows and flattens them.
    """
    stages = []
    step, span = 1, arch.input_t
    for name, layer in convs:
        bank = FilterBank(weights[f"{name}.weights"], weights[f"{name}.bias"])
        stages.append(_conv_stage(layer, bank, step, conv_path, counter))
        step *= layer.stride.time
        span = (span - layer.kernel_t) // layer.stride.time + 1
        if layer.pool.time > 1:
            stages.append(_time_pool_stage(layer.pool.time, step))
            step *= layer.pool.time
            span //= layer.pool.time
    # the last window needs rows up to step*(span-1) past its start; the
    # rows after that, which no window of a valid stack reads, are kept too
    keep = arch.input_t - 1 - sum(k for k, _ in stages)
    offsets = step * np.arange(span)

    def gather(x: np.ndarray) -> np.ndarray:
        return tensor.flatten(x[np.arange(len(x) - keep)[:, None] + offsets])

    stages.append((keep, gather))
    return stages


def forward_frames(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    frames: np.ndarray,
    conv_path: str = "optimized",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Posteriors (n_frames, labels) for the context window of every frame.

    Window j is the one stack_context builds for frame j (edge frames
    replicated), but no window is materialised: the frames stream through
    the conv stack once, BLOCK_WINDOWS windows' worth of new rows at a time,
    and each stage carries its last rows into the next chunk, so every conv
    position of the clip is computed exactly once. The dense tail's weights
    are cast to float64 once per call, and every layer's output is rounded
    as in forward(). Agrees with forward() on each stacked window to float32
    rounding. The naive conv path honours `counter`; the dense tail meters
    one window per frame.
    """
    convs, tail = _prepare(arch, weights, conv_path)
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != arch.input_f:
        raise ShapeError(
            f"frames must be (n_frames, {arch.input_f}) for {arch.name}, got {frames.shape}", axis="freq"
        )
    n = frames.shape[0]
    if n == 0:
        raise InsufficientAudioError("cannot classify zero frames")
    # the conv weights are still cast inside the kernels: float64 copies held
    # for the whole call (1.4 MB for a 64-map conv2) would raise its peak memory
    tail_names = {name for name, _ in tail}
    cast = {key: np.asarray(w, dtype=np.float64) for key, w in weights.items() if key.split(".")[0] in tail_names}
    stages = _stream_stages(arch, convs, weights, conv_path, counter)
    carries: list[np.ndarray | None] = [None] * len(stages)
    out = None
    fed = 0  # padded-stream rows streamed so far
    for j0 in range(0, n, BLOCK_WINDOWS):
        j1 = min(j0 + BLOCK_WINDOWS, n)
        rows = np.clip(np.arange(fed, j1 + arch.input_t - 1) - arch.context.left, 0, n - 1)
        fed = j1 + arch.input_t - 1
        x = frames[rows].astype(np.float32, copy=False)[:, :, None]
        for i, (keep, run) in enumerate(stages):
            if carries[i] is not None:
                x = np.concatenate((carries[i], x))
            carries[i] = x[len(x) - keep :].copy()  # a view would hold the whole buffer
            x = run(x)
        block = _dense_tail(tail, weights, x, counter, cast)
        if out is None:
            out = np.empty((n, block.shape[-1]), dtype=block.dtype)
        out[j0:j1] = block
    return out


# ---------------------------------------------------------------------------
# The five stock architectures.

ARCHITECTURES = ("dnn", "cnn-trad", "cnn-one", "cnn-tstride2", "cnn-tpool2")

DEFAULT_MAPS = 64
LOWRANK_DIM = 32
DENSE_UNITS = 128


def build_dnn_baseline(labels: int) -> ArchSpec:
    """Fully connected baseline: 36x40 window, three ReLU layers of 128."""
    arch = ArchSpec(
        "dnn",
        Context(25, 10),
        (
            Flatten(),
            Dense(DENSE_UNITS),
            Dense(DENSE_UNITS),
            Dense(DENSE_UNITS),
            SoftmaxOut(labels),
        ),
    )
    validate(arch)
    return arch


def build_cnn_trad(labels: int) -> ArchSpec:
    """Two conv layers (the first frequency-pooled), then low-rank and dense."""
    arch = ArchSpec(
        "cnn-trad",
        Context(23, 8),
        (
            Conv(21, 9, DEFAULT_MAPS, Stride(1, 1), Pool(1, 3)),
            Conv(10, 4, DEFAULT_MAPS),
            Flatten(),
            LowRank(LOWRANK_DIM),
            Dense(DENSE_UNITS),
            SoftmaxOut(labels),
        ),
    )
    validate(arch)
    return arch


def build_cnn_one(labels: int) -> ArchSpec:
    """One conv whose kernel spans the whole 32-frame window in time."""
    arch = ArchSpec(
        "cnn-one",
        Context(23, 8),
        (
            Conv(32, 9, DEFAULT_MAPS),
            Flatten(),
            LowRank(LOWRANK_DIM),
            Dense(DENSE_UNITS),
            Dense(DENSE_UNITS),
            SoftmaxOut(labels),
        ),
    )
    validate(arch)
    return arch


def build_cnn_tstride(labels: int, stride: int = 2, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv strided in time."""
    if stride < 2:
        raise ValueError(f"time stride must be >= 2, got {stride}")
    arch = ArchSpec(
        f"cnn-tstride{stride}",
        Context(39, 8),
        (
            Conv(21, 9, maps, Stride(stride, 1), Pool(1, 3)),
            Conv(10, 4, maps),
            Flatten(),
            LowRank(LOWRANK_DIM),
            Dense(DENSE_UNITS),
            SoftmaxOut(labels),
        ),
    )
    validate(arch)
    return arch


def build_cnn_tpool(labels: int, pool: int = 2, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv pooled in time."""
    if pool < 2:
        raise ValueError(f"time pool must be >= 2, got {pool}")
    arch = ArchSpec(
        f"cnn-tpool{pool}",
        Context(39, 8),
        (
            Conv(21, 9, maps, Stride(1, 1), Pool(pool, 3)),
            Conv(10, 4, maps),
            Flatten(),
            LowRank(LOWRANK_DIM),
            Dense(DENSE_UNITS),
            SoftmaxOut(labels),
        ),
    )
    validate(arch)
    return arch


def get_arch(name: str, labels: int, maps: int | None = None) -> ArchSpec:
    """Look up a stock architecture by CLI name.

    `maps` overrides the feature-map count for the strided/pooled variants
    only; the three fixed architectures reject it.
    """
    fixed: dict[str, Callable[[int], ArchSpec]] = {
        "dnn": build_dnn_baseline,
        "cnn-trad": build_cnn_trad,
        "cnn-one": build_cnn_one,
    }
    if name in fixed:
        if maps is not None:
            raise ValueError(f"{name} has a fixed layer stack; --maps does not apply")
        return fixed[name](labels)
    if name == "cnn-tstride2":
        return build_cnn_tstride(labels, 2, DEFAULT_MAPS if maps is None else maps)
    if name == "cnn-tpool2":
        return build_cnn_tpool(labels, 2, DEFAULT_MAPS if maps is None else maps)
    raise ValueError(f"unknown architecture {name!r}; choose from {', '.join(ARCHITECTURES)}")


# ---------------------------------------------------------------------------
# Declarative round-trip for serialization.


def arch_to_dict(arch: ArchSpec) -> dict:
    layers = []
    for layer in arch.layers:
        if isinstance(layer, Conv):
            layers.append(
                {
                    "kind": "conv",
                    "kernel_t": layer.kernel_t,
                    "kernel_f": layer.kernel_f,
                    "maps": layer.maps,
                    "stride": [layer.stride.time, layer.stride.freq],
                    "pool": [layer.pool.time, layer.pool.freq],
                }
            )
        elif isinstance(layer, Flatten):
            layers.append({"kind": "flatten"})
        elif isinstance(layer, LowRank):
            layers.append({"kind": "lowrank", "rank": layer.rank})
        elif isinstance(layer, Dense):
            layers.append({"kind": "dense", "units": layer.units})
        elif isinstance(layer, SoftmaxOut):
            layers.append({"kind": "softmax", "labels": layer.labels})
    return {
        "name": arch.name,
        "context": [arch.context.left, arch.context.right],
        "input_f": arch.input_f,
        "layers": layers,
    }


def arch_from_dict(doc: dict) -> ArchSpec:
    layers: list[LayerSpec] = []
    for entry in doc["layers"]:
        kind = entry["kind"]
        if kind == "conv":
            layers.append(
                Conv(
                    entry["kernel_t"],
                    entry["kernel_f"],
                    entry["maps"],
                    Stride(*entry["stride"]),
                    Pool(*entry["pool"]),
                )
            )
        elif kind == "flatten":
            layers.append(Flatten())
        elif kind == "lowrank":
            layers.append(LowRank(entry["rank"]))
        elif kind == "dense":
            layers.append(Dense(entry["units"]))
        elif kind == "softmax":
            layers.append(SoftmaxOut(entry["labels"]))
        else:
            raise ValueError(f"unknown layer kind {kind!r}")
    left, right = doc["context"]
    return ArchSpec(doc["name"], Context(left, right), tuple(layers), doc["input_f"])
