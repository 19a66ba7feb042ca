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


# Windows classified together by forward_frames. Larger blocks recompute
# fewer shared edge rows but hold larger im2col matrices. In a process that
# scans 10 s clips with all five stock architectures and also keeps its own
# arrays (the repository benchmark's scan workload), peak RSS was 64.6 MB
# with 32-window blocks and about 70 MB with 48 or 64, against 64.1 MB for
# the per-window loop; 64-window blocks ran 5-15% faster than 32 (2-vCPU x86
# VM, glibc malloc, one BLAS thread).
BLOCK_WINDOWS = 32

# One group of windows sharing a time stream: (stream, positions of the
# windows in the block). Window k of a group starts at row k of its stream.
_Group = tuple[np.ndarray, range]


def _prepare(arch: ArchSpec, weights: dict[str, np.ndarray], conv_path: str) -> list[tuple[str, LayerSpec]]:
    """Per-call set-up shared by every block: argument checks and layer names."""
    if conv_path not in ("optimized", "naive"):
        raise ValueError(f"conv_path must be 'optimized' or 'naive', got {conv_path!r}")
    check_weights(arch, weights)
    return list(zip(arch._names, arch.layers))


def _by_phase(groups: list[_Group], step: int, span: int) -> list[_Group]:
    """Regroup windows for a time stride or pool of `step` over `span` rows each.

    A strided or pooled kernel applied to stream[r:] serves exactly the windows
    starting at rows congruent to r mod step, and the m-th of them starts at
    row m of the kernel's output, so each group splits by phase into groups of
    the same form. Each new stream is cut to its windows' rows.
    """
    if step == 1:
        return groups
    out = []
    for stream, idx in groups:
        for phase in range(min(step, len(idx))):
            sub = idx[phase::step]
            out.append((stream[phase : phase + (len(sub) - 1) * step + span], sub))
    return out


def _forward_block(
    layers: list[tuple[str, LayerSpec]],
    weights: dict[str, np.ndarray],
    stream: np.ndarray,
    count: int,
    span: int,
    conv_path: str,
    counter: MacCounter | None,
) -> np.ndarray:
    """Posteriors of the windows stream[k : k + span], k < count.

    Each conv and pool runs once over the rows its windows share instead of
    once per window; flatten gathers every window's rows, and the dense tail
    is one batched product, giving (count, labels). One window over a stream
    `span` rows long runs exactly the per-window kernels on the per-window
    tensors, down to a flat vector and (labels,) posteriors.
    """
    groups: list[_Group] = [(stream, range(count))]
    for name, layer in layers:
        if isinstance(layer, Conv):
            bank = FilterBank(weights[f"{name}.weights"], weights[f"{name}.bias"])
            groups = _by_phase(groups, layer.stride.time, span)
            if conv_path == "naive":
                groups = [(tensor.conv2d_valid(s, bank, layer.stride, counter=counter), i) for s, i in groups]
            else:
                groups = [(tensor.conv2d_optimized(s, bank, layer.stride), i) for s, i in groups]
            span = (span - layer.kernel_t) // layer.stride.time + 1
            if layer.pool.active:
                groups = _by_phase(groups, layer.pool.time, span)
                groups = [(tensor.maxpool(s, layer.pool), i) for s, i in groups]
                span //= layer.pool.time
        elif isinstance(layer, Flatten):
            if count == 1:
                x = tensor.flatten(groups[0][0])
            else:
                # rows come out phase group by phase group; sort them back to block order
                rows = [tensor.flatten(s[np.arange(len(i))[:, None] + np.arange(span)]) for s, i in groups]
                x = np.concatenate(rows)[np.argsort(np.concatenate([i for _, i in groups]))]
        elif isinstance(layer, LowRank):
            x = tensor.linear(x, weights[f"{name}.weights"], counter=counter)
        elif isinstance(layer, Dense):
            x = tensor.dense(x, weights[f"{name}.weights"], weights[f"{name}.bias"], "relu", counter=counter)
        elif isinstance(layer, SoftmaxOut):
            x = tensor.dense(x, weights["softmax.weights"], weights["softmax.bias"], "softmax", counter=counter)
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
    layers = _prepare(arch, weights, conv_path)
    window = np.asarray(window)
    if window.shape != (arch.input_t, arch.input_f):
        raise ShapeError(
            f"window shape {window.shape} does not match the "
            f"{(arch.input_t, arch.input_f)} input of {arch.name}",
            axis="time" if window.shape[:1] != (arch.input_t,) else "freq",
        )
    stream = window.reshape(arch.input_t, arch.input_f, 1)
    return _forward_block(layers, weights, stream, 1, arch.input_t, conv_path, counter)


def forward_frames(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    frames: np.ndarray,
    conv_path: str = "optimized",
) -> np.ndarray:
    """Posteriors (n_frames, labels) for the context window of every frame.

    Window j is the one stack_context builds for frame j (edge frames
    replicated), but no window is materialised: each block of BLOCK_WINDOWS
    consecutive windows shares one float32 stream of frames, so a conv
    position common to overlapping windows is computed once. Agrees with
    forward() on each stacked window to float32 rounding.
    """
    layers = _prepare(arch, weights, conv_path)
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != arch.input_f:
        raise ShapeError(
            f"frames must be (n_frames, {arch.input_f}) for {arch.name}, got {frames.shape}", axis="freq"
        )
    n = frames.shape[0]
    if n == 0:
        raise InsufficientAudioError("cannot classify zero frames")
    out = None
    for j0 in range(0, n, BLOCK_WINDOWS):
        j1 = min(j0 + BLOCK_WINDOWS, n)
        rows = np.clip(np.arange(j0 - arch.context.left, j1 + arch.context.right), 0, n - 1)
        stream = frames[rows].astype(np.float32, copy=False)[:, :, None]
        block = _forward_block(layers, weights, stream, j1 - j0, arch.input_t, conv_path, None)
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
