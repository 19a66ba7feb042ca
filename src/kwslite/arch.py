"""Architecture descriptions, shape checking, weight init, and inference.

An ArchSpec is a declarative stack of layers over a (time, freq, 1) input
window; the layer kinds and everything that depends on a kind live in
layers.py. validate() walks the stack symbolically and returns the trace of
intermediate shapes; forward() walks it with actual weights over one window,
and forward_frames() over the overlapping windows of a whole frame stream.
Weight tensors are addressed by stable names (conv1.weights, dense2.bias,
...) in a fixed manifest order, which is what makes initialization and
serialization deterministic. Weights are any mapping from those names to
arrays, checked against the spec's manifest and bound into a plan (_plan):
every layer's tensors as they are, which the spec's stream stages take. A
plain dict gets a new plan on every call. A FrozenWeights, which load_model
returns, cannot change, so its plan is built once per spec and kept on the
model itself, freed with it, with its stream: forward() on it continues the
stream of the window it classified last, and a window that is that one
advanced by one frame costs one frame's stream rows, not a whole window.
"""

from __future__ import annotations

import math
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import ClassVar, NamedTuple

import numpy as np

from .errors import InsufficientAudioError, ManifestMismatchError, ShapeError
from .frontend import Context, FrameConfig
from .layers import Conv, Dense, Flatten, Layer, LowRank, Placed, SoftmaxOut, TraceEntry
from .tensor import MacCounter, Pool, Stride

__all__ = [
    "Conv",
    "Flatten",
    "LowRank",
    "Dense",
    "SoftmaxOut",
    "ArchSpec",
    "FrozenWeights",
    "TraceEntry",
    "validate",
    "weight_manifest",
    "init_weights",
    "forward",
    "forward_frames",
    "bound_fractions",
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
class ArchSpec:
    """A named layer stack over (context.size, input_f, 1) feature windows.

    input_f is not a field: every model reads the frontend's one feature
    width, `FrameConfig.mel_filters`."""

    name: str
    context: Context
    layers: tuple[Layer, ...]
    input_f: ClassVar[int] = FrameConfig.mel_filters

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not isinstance(self.name, str):
            raise TypeError(f"architecture name must be a string, got {self.name!r}")

    @property
    def input_t(self) -> int:
        return self.context.size

    @property
    def labels(self) -> int:
        return self.layers[-1].labels  # validate() guarantees SoftmaxOut last

    # Derived once per spec, on first use: every field is immutable, so the
    # placed layers and the manifest cannot go stale. A spec that fails
    # validate() caches nothing and raises again on the next call. Callers
    # get copies of the lists.
    @cached_property
    def placed(self) -> tuple[Placed, ...]:
        """validate()'s one walk of the stack: every layer with its name,
        shapes, weight tensors and stages in the stream of forward_frames
        (Layer.stream), which every model run under the spec shares.
        A layer's stream time step is the product of the time strides and
        time pools before it. Raises ShapeError if the stack is invalid."""
        softmax_positions = [i for i, l in enumerate(self.layers) if isinstance(l, SoftmaxOut)]
        if len(softmax_positions) != 1 or softmax_positions[0] != len(self.layers) - 1:
            raise ShapeError(f"{self.name}: layer stack must end with exactly one softmax output layer")
        shape: tuple[int, ...] = (self.input_t, self.input_f, 1)
        step, window_rows = 1, self.input_t  # a window spans input_t rows of the padded stream
        counts: dict[str, int] = {}
        placed = []
        for layer in self.layers:
            counts[layer.kind] = counts.get(layer.kind, 0) + 1
            name = layer.layer_name(counts[layer.kind])
            trace = layer.trace(name, shape)
            stages, step = layer.stream(shape, step, window_rows)
            placed.append(Placed(name, layer, shape, trace, layer.manifest(name, shape), stages))
            shape, window_rows = trace[-1].shape, window_rows - sum(keep for keep, _ in stages)
        return tuple(placed)

    @cached_property
    def _manifest(self) -> dict[str, tuple[int, ...]]:
        return {key: shape for p in self.placed for key, shape in p.manifest}

    @cached_property
    def streams_cheaper(self) -> bool:
        """Whether one new frame of the carried stream costs fewer multiplies
        than a whole window, report(arch).per_frame < total.multiplies: true
        for cnn-trad, cnn-tstride2 and cnn-tpool2; never for dnn or cnn-one,
        whose every layer reads the whole window."""
        per_frame = sum(p.layer.frame_multiplies(p.in_shape) for p in self.placed)
        return per_frame < sum(p.layer.cost(p.in_shape).multiplies for p in self.placed)


def validate(arch: ArchSpec) -> list[TraceEntry]:
    """Walk the layer stack symbolically and return the shape trace.

    The trace starts with the input window and records one entry per layer;
    a pooled Conv contributes two entries (pre-pool and post-pool). Raises
    ShapeError naming the first failing layer and axis.
    """
    trace = [TraceEntry("input", (arch.input_t, arch.input_f, 1))]
    for p in arch.placed:
        trace.extend(p.trace)
    return trace


def weight_manifest(arch: ArchSpec) -> list[tuple[str, tuple[int, ...]]]:
    """Ordered (name, shape) list of every weight tensor the stack owns."""
    return list(arch._manifest.items())


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


class _Plan(NamedTuple):
    """What inference runs one mapping of weights under one spec with: the
    spec, whose placed layers hold the stream stages; every layer's binding
    (Layer.bind), which the stages take at call time; and, for a plan a
    FrozenWeights keeps, that model's stream, the window forward() classified
    last if it was finite (None otherwise) and the stage carries after it
    (None until a continued call primes them). A plan is never changed: a
    hop publishes a new one whole (_replace), so concurrent callers can at
    worst miss a continuation or rebuild a plan."""

    arch: ArchSpec
    bound: tuple[tuple, ...]
    last: np.ndarray | None = None
    carries: tuple[np.ndarray | None, ...] | None = None

    def advanced_by(self, window: np.ndarray) -> bool:
        """Whether `window` is `last` advanced by one finite frame, bit for
        bit (so -0.0 differs from 0.0, and NaN payloads differ). forward()
        keeps only a finite `last`, so only the new row needs the check."""
        return (
            self.last is not None
            and window[:-1].tobytes() == self.last[1:].tobytes()
            and bool(np.isfinite(window[-1]).all())
        )


class FrozenWeights(Mapping[str, np.ndarray]):
    """Weight tensors that cannot change: read-only float32 views of one
    immutable bytes buffer, laid out as in a model file's payload.

    numpy refuses to make a view of `bytes` writeable again, and item
    assignment raises TypeError, so whatever forward() and forward_frames()
    derive from the tensors holds for as long as they do: their plan (see
    _plan()) is built once per spec and kept in `_plan`, stream included,
    until another spec object takes its place. Nothing refers back to the
    weights, so the plan is freed with them.
    """

    __slots__ = ("_tensors", "_plan")

    def __init__(self, buffer: bytes, manifest: Iterable[tuple[str, tuple[int, ...]]], offset: int = 0):
        """Views of the little-endian float32 tensors that follow one another
        in `buffer` from `offset`, in manifest order."""
        if not isinstance(buffer, bytes):
            raise TypeError(f"FrozenWeights needs an immutable bytes buffer, got {type(buffer).__name__}")
        if offset % 4:
            # a float32 view off a 4-byte boundary is copied by every matrix
            # product that reads it; one aligned copy of the tensors' bytes is not
            buffer, offset = buffer[offset:], 0
        tensors = {}
        for name, shape in manifest:
            count = math.prod(shape)  # a Python integer, which cannot wrap
            tensors[name] = np.frombuffer(buffer, dtype="<f4", count=count, offset=offset).reshape(shape)
            offset += 4 * count
        self._tensors = tensors
        self._plan: _Plan | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)


def check_weights(arch: ArchSpec, weights: Mapping[str, np.ndarray]) -> None:
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


def _plan(arch: ArchSpec, weights: Mapping[str, np.ndarray]) -> _Plan:
    """The plan forward() and forward_frames() run `weights` under `arch`.

    A plain dict, which could change between calls, is checked against the
    manifest and bound on every call, and its plan is never kept. A
    FrozenWeights' plan is built on the first call under that spec object
    and kept in its `_plan`, replacing the plan of another spec; a failed
    manifest check keeps nothing and leaves the kept plan in place, so it
    fails again on every call."""
    frozen = isinstance(weights, FrozenWeights)
    plan = weights._plan if frozen else None
    if plan is not None and plan.arch is arch:
        return plan
    check_weights(arch, weights)
    plan = _Plan(arch, tuple(p.layer.bind(p.tensors(weights)) for p in arch.placed))
    if frozen:
        weights._plan = plan
    return plan


def _run_stages(
    plan: _Plan,
    carries: tuple[np.ndarray | None, ...] | None,
    x: np.ndarray,
    counter: MacCounter | None,
) -> tuple[np.ndarray, tuple[np.ndarray | None, ...]]:
    """Push the (rows, input_f, 1) stream rows x through every stage, on its
    layer's binding, each after the rows its carry holds (None: a new
    stream), metering on `counter`. Returns the output rows, one per window
    the rows complete, and the carries after them, which are new."""
    kept = []
    for p, b in zip(plan.arch.placed, plan.bound):
        for keep, run in p.stages:
            carry = carries[len(kept)] if carries else None
            if carry is not None:
                x = np.concatenate((carry, x))
            kept.append(x[len(x) - keep :].copy() if keep else None)  # a view would hold the whole buffer
            x = run(b, x, counter)
    return x, tuple(kept)


# Windows classified per chunk by forward_frames. Every conv position is
# computed once whatever the chunk size; larger chunks save per-chunk
# bookkeeping and hold larger im2col matrices. The peak of a warm call on a
# 998-frame clip (plain-dict float32 weights, 2-vCPU x86 VM, one BLAS
# thread) is one chunk's patch matrix and products: 0.48 MB (dnn), 2.45
# (cnn-trad), 2.94 (cnn-one), 2.97 (cnn-tstride2) and 2.97 (cnn-tpool2) at
# 64 windows, against 0.25, 1.41, 1.49, 1.93 and 1.93 at 32; conv2 unfolds
# only a group of its time taps (tensor.TAP_DEPTH). Framing a 10 s clip
# whole would take 11.4 MB; log_mel_frames frames 64 frames at a time, so
# the repository benchmark's scan workload (10 s clips, all five stock
# models) reads a lower peak RSS with blocks and 64 windows than with
# whole-clip framing and 32 windows (60.2 against 62.8 MB).
BLOCK_WINDOWS = 64


def forward(
    arch: ArchSpec,
    weights: Mapping[str, np.ndarray],
    window: np.ndarray,
    conv_path: str = "optimized",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Posterior over labels for one (input_t, input_f) feature window.

    conv_path selects "optimized" or "naive", the oracle. Either path
    meters on `counter` every scalar multiply it executes, which is
    report(arch).total.multiplies. Every layer's output takes
    promote_types(its input, its stored weights). The optimized path runs
    every product in that dtype, a conv as im2col products over groups of
    its time taps (tensor.conv2d_optimized), so float32 weights accumulate
    in float32, each layer within the bound bound_fractions checks;
    softmax's exp and normalisation run in float64.
    The naive path sums every layer in float64 and rounds to that dtype.

    Loaded weights (a FrozenWeights) continue the stream where streaming is
    cheaper (ArchSpec.streams_cheaper): a float32 window on the optimized
    path that is the finite window the model's plan classified last
    advanced by one finite frame, bit for bit, pushes only its new row
    through the stages forward_frames runs, from the carries after the last
    window, and meters report(arch).per_frame. The first such call primes
    the carries by streaming the last window's rows, metering
    streamed_multiplies(arch, 2).
    The row equals forward_frames' for that window at BLOCK_WINDOWS = 1, bit
    for bit. Every other call runs per window and restarts the stream. The
    stream lives and dies with its plan (see _plan()): each loaded model
    keeps its own, so models that alternate hops each continue theirs, and
    it ends when another spec object replaces the plan. A plain dict of
    weights, which could change between calls, never continues.
    """
    if conv_path not in ("optimized", "naive"):
        raise ValueError(f"conv_path must be 'optimized' or 'naive', got {conv_path!r}")
    window = _checked_window(arch, window)
    plan = _plan(arch, weights)
    kept = isinstance(weights, FrozenWeights) and arch.streams_cheaper
    streams = kept and conv_path == "optimized" and window.dtype == np.float32
    if streams and plan.advanced_by(window):
        return _continue(weights, plan, window, counter)
    x = window.reshape(arch.input_t, arch.input_f, 1)
    for p, b in zip(arch.placed, plan.bound):
        x = p.layer.forward(b, x, counter, conv_path)
    if kept:
        last = window.copy() if streams and np.isfinite(window).all() else None
        weights._plan = plan._replace(last=last, carries=None)
    return x


def _checked_window(arch: ArchSpec, window: np.ndarray) -> np.ndarray:
    """`window` as an array, checked against the (input_t, input_f) input of arch."""
    window = np.asarray(window)
    if window.shape != (arch.input_t, arch.input_f):
        raise ShapeError(
            f"window shape {window.shape} does not match the "
            f"{(arch.input_t, arch.input_f)} input of {arch.name}",
            axis="time" if window.shape[:1] != (arch.input_t,) else "freq",
        )
    return window


def _continue(
    weights: FrozenWeights, plan: _Plan, window: np.ndarray, counter: MacCounter | None
) -> np.ndarray:
    """forward() of `window`, plan.last advanced by one frame, from the
    carries after plan.last (primed here first if it has none), published
    to the model's `_plan`."""
    carries = plan.carries
    if carries is None:
        _, carries = _run_stages(plan, None, plan.last[:, :, None], counter)
    row, carries = _run_stages(plan, carries, window[-1:, :, None], counter)
    weights._plan = plan._replace(last=window.copy(), carries=carries)
    return row[0]


def forward_frames(
    arch: ArchSpec,
    weights: Mapping[str, np.ndarray],
    frames: np.ndarray,
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Posteriors (n_frames, labels) for the context window of every frame.

    Window j is the one stack_context builds for frame j (edge frames
    replicated), but no window is materialised: the frames stream through
    the conv stack once, BLOCK_WINDOWS windows' worth of new rows at a time,
    and each stage carries its last rows into the next chunk, so every conv
    position of the clip is computed exactly once: window j reads rows j,
    j+step, ... of a stage's output, where `step` is the stage's time step
    (see ArchSpec.placed). Each stage runs its layer's forward() step on
    the same binding, one product per call (float32 for float32 weights),
    and adds only row bookkeeping: the rows it carries, the interleaving by
    time step, flatten's gather and the time pool. Agrees with forward() on
    each stacked window to float32 rounding, which depends on a product's
    row count, so on the chunk size too.
    `counter` meters the multiplies the stream executes, which is
    budget.streamed_multiplies(arch, n_frames).
    """
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != arch.input_f:
        raise ShapeError(
            f"frames must be (n_frames, {arch.input_f}) for {arch.name}, got {frames.shape}", axis="freq"
        )
    n = frames.shape[0]
    if n == 0:
        raise InsufficientAudioError("cannot classify zero frames")
    plan = _plan(arch, weights)
    carries = None
    out = None
    fed = 0  # padded-stream rows streamed so far
    for j0 in range(0, n, BLOCK_WINDOWS):
        j1 = min(j0 + BLOCK_WINDOWS, n)
        rows = np.clip(np.arange(fed, j1 + arch.input_t - 1) - arch.context.left, 0, n - 1)
        fed = j1 + arch.input_t - 1
        chunk = frames[rows].astype(np.float32, copy=False)[:, :, None]
        x, carries = _run_stages(plan, carries, chunk, counter)
        if out is None:
            out = np.empty((n, x.shape[-1]), dtype=x.dtype)
        out[j0:j1] = x
    return out


def bound_fractions(
    arch: ArchSpec, weights: Mapping[str, np.ndarray], window: np.ndarray
) -> dict[str, float]:
    """Each weighted layer's worst error on `window` as a fraction of its
    float32 bound, by layer name (Layer.bound_check): the optimized step
    against its float64 oracle, a conv before pooling and the output layer
    on its logits, with every layer fed the naive path's output of the
    layers before it, so errors do not compound. A fraction above 1, or NaN,
    means the optimized step broke the bound."""
    x = _checked_window(arch, window).reshape(arch.input_t, arch.input_f, 1)
    plan = _plan(arch, weights)
    fractions = {}
    for p, b in zip(arch.placed, plan.bound):
        fraction, x = p.layer.bound_check(b, x)
        if fraction is not None:
            fractions[p.name] = fraction
    return fractions


# ---------------------------------------------------------------------------
# The five stock architectures.

ARCHITECTURES = ("dnn", "cnn-trad", "cnn-one", "cnn-tstride2", "cnn-tpool2")

DEFAULT_MAPS = 64
LOWRANK_DIM = 32
DENSE_UNITS = 128


def _stock(name: str, context: Context, *layers: Layer) -> ArchSpec:
    arch = ArchSpec(name, context, layers)
    validate(arch)
    return arch


def build_dnn_baseline(labels: int) -> ArchSpec:
    """Fully connected baseline: 36x40 window, three ReLU layers of 128."""
    dense = Dense(DENSE_UNITS)
    return _stock("dnn", Context(25, 10), Flatten(), dense, dense, dense, SoftmaxOut(labels))


def _cnn_trad_stack(
    name: str, context: Context, labels: int, maps: int, stride: Stride, pool: Pool
) -> ArchSpec:
    """Two conv layers, the first with the given stride and pool, then low-rank and dense."""
    return _stock(
        name,
        context,
        Conv(21, 9, maps, stride, pool),
        Conv(10, 4, maps),
        Flatten(),
        LowRank(LOWRANK_DIM),
        Dense(DENSE_UNITS),
        SoftmaxOut(labels),
    )


def build_cnn_trad(labels: int) -> ArchSpec:
    """Two conv layers (the first frequency-pooled), then low-rank and dense."""
    return _cnn_trad_stack("cnn-trad", Context(23, 8), labels, DEFAULT_MAPS, Stride(1, 1), Pool(1, 3))


def build_cnn_one(labels: int) -> ArchSpec:
    """One conv whose kernel spans the whole 32-frame window in time."""
    return _stock(
        "cnn-one",
        Context(23, 8),
        Conv(32, 9, DEFAULT_MAPS),
        Flatten(),
        LowRank(LOWRANK_DIM),
        Dense(DENSE_UNITS),
        Dense(DENSE_UNITS),
        SoftmaxOut(labels),
    )


def build_cnn_tstride(labels: int, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv strided by 2 in time."""
    return _cnn_trad_stack("cnn-tstride2", Context(39, 8), labels, maps, Stride(2, 1), Pool(1, 3))


def build_cnn_tpool(labels: int, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv pooled by 2 in time."""
    return _cnn_trad_stack("cnn-tpool2", Context(39, 8), labels, maps, Stride(1, 1), Pool(2, 3))


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
        return build_cnn_tstride(labels, DEFAULT_MAPS if maps is None else maps)
    if name == "cnn-tpool2":
        return build_cnn_tpool(labels, DEFAULT_MAPS if maps is None else maps)
    raise ValueError(f"unknown architecture {name!r}; choose from {', '.join(ARCHITECTURES)}")


# ---------------------------------------------------------------------------
# Declarative round-trip for serialization.


def arch_to_dict(arch: ArchSpec) -> dict:
    return {
        "name": arch.name,
        "context": [arch.context.left, arch.context.right],
        "input_f": arch.input_f,
        "layers": [layer.to_dict() for layer in arch.layers],
    }


def arch_from_dict(doc: dict) -> ArchSpec:
    # a JSON integer only: neither 40.0 nor true may pass as the feature width
    if type(doc["input_f"]) is not int or doc["input_f"] != ArchSpec.input_f:
        raise ValueError(f"feature dimension is fixed at {ArchSpec.input_f}, got {doc['input_f']!r}")
    layers = tuple(Layer.from_dict(entry) for entry in doc["layers"])
    left, right = doc["context"]
    return ArchSpec(doc["name"], Context(left, right), layers)
