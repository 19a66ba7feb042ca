"""Architecture descriptions, shape checking, weight init, and inference.

An ArchSpec is a declarative stack of layers over a (time, freq, 1) input
window; the layer kinds and everything that depends on a kind live in
layers.py. validate() walks the stack symbolically and returns the trace of
intermediate shapes; forward() walks it with actual weights over one window,
and forward_frames() over the overlapping windows of a whole frame stream.
Weight tensors are addressed by stable names (conv1.weights, dense2.bias,
...) in a fixed manifest order, which is what makes initialization and
serialization deterministic. Weights are any mapping from those names to
arrays, checked against the spec's manifest and bound once per call: every
layer gets the float64 copies of its own tensors (_bind). A FrozenWeights,
which load_model returns, cannot change, so it is bound once per spec, and
its bindings and stream stages are kept (its plan); forward() on it
continues the stream of the window it classified last: a window that is
that one advanced by one frame costs one frame's stream rows, not a whole
window.
"""

from __future__ import annotations

import threading
import weakref
from collections.abc import Callable, Iterable, Iterator, Mapping
from dataclasses import dataclass
from functools import cached_property
from typing import NamedTuple

import numpy as np

from .errors import InsufficientAudioError, ManifestMismatchError, ShapeError, check_counts
from .frontend import Context
from .layers import Conv, Dense, Flatten, Layer, LowRank, Placed, SoftmaxOut, Stage, TraceEntry
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
class ArchSpec:
    """A named layer stack over (context.size, input_f, 1) feature windows."""

    name: str
    context: Context
    layers: tuple[Layer, ...]
    input_f: int = 40

    def __post_init__(self):
        object.__setattr__(self, "layers", tuple(self.layers))
        if not isinstance(self.name, str):
            raise TypeError(f"architecture name must be a string, got {self.name!r}")
        check_counts(self, 1, input_f=self.input_f)
        if self.input_f != 40:
            raise ValueError(f"feature dimension is fixed at 40, got {self.input_f}")

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
        shapes, weight tensors and place in the stream of forward_frames.
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
            keeps, next_step = layer.stream_keeps(step, window_rows)
            placed.append(Placed(name, layer, shape, trace, layer.manifest(name, shape), step, keeps))
            shape, step, window_rows = trace[-1].shape, next_step, window_rows - sum(keeps)
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


def layer_names(arch: ArchSpec) -> list[str]:
    """Stable per-layer names: kind-scoped counters, e.g. conv1, dense2."""
    return [p.name for p in arch.placed]


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


class _Snapshot(NamedTuple):
    """Where a FrozenWeights' stream stands: the window forward() classified
    last, for which spec, and the stage carries after it (None until a
    continued call primes them)."""

    arch: ArchSpec
    last: np.ndarray
    carries: tuple[np.ndarray | None, ...] | None

    def advanced_by(self, arch: ArchSpec, window: np.ndarray) -> bool:
        """Whether `window` is `last` advanced by one finite frame, bit for bit."""
        return (
            arch is self.arch
            and np.array_equal(window[:-1].view(np.uint32), self.last[1:].view(np.uint32))
            and bool(np.isfinite(window).all())
        )


class _Plan(NamedTuple):
    """What inference on a FrozenWeights needs for one spec, built once: the
    spec, every layer's binding (_bind, which checked the manifest) and the
    stream stages on them, each with the rows it keeps. The stages take the
    MacCounter at call time, so one plan serves every call."""

    arch: ArchSpec
    bound: tuple[tuple, ...]
    stages: tuple[tuple[int, Stage], ...]


class FrozenWeights(Mapping[str, np.ndarray]):
    """Weight tensors that cannot change: read-only float32 views of one
    immutable bytes buffer, laid out as in a model file's payload.

    numpy refuses to make a view of `bytes` writeable again, and item
    assignment raises TypeError, so whatever forward() and forward_frames()
    derive from the tensors holds for as long as they do. Each FrozenWeights
    keeps a plan for the spec it last ran under (see plan()), so a hop pays
    for its kernels, not for binding the tensors or building the stages.
    The plan of one FrozenWeights at a time is kept in the process: making
    another's drops it, and it is freed with its weights, so the extra
    memory stays that of one model's float64 weights.

    Next to the plan it keeps one immutable snapshot of its stream: the
    spec and window forward() classified last and the stage carries after
    it, from which the next hop's window continues (see forward()). A call
    reads one plan and one snapshot and publishes new ones whole, never
    changing either in place, so concurrent callers can at worst miss a
    continuation or rebuild a plan.
    """

    __slots__ = ("_tensors", "_plan", "_stream", "__weakref__")
    _lock = threading.Lock()
    _holder: "weakref.ref[FrozenWeights] | None" = None  # the one whose plan is kept

    def __init__(self, buffer: bytes, manifest: Iterable[tuple[str, tuple[int, ...]]], offset: int = 0):
        """Views of the little-endian float32 tensors that follow one another
        in `buffer` from `offset`, in manifest order."""
        if not isinstance(buffer, bytes):
            raise TypeError(f"FrozenWeights needs an immutable bytes buffer, got {type(buffer).__name__}")
        tensors = {}
        for name, shape in manifest:
            count = int(np.prod(shape))
            tensors[name] = np.frombuffer(buffer, dtype="<f4", count=count, offset=offset).reshape(shape)
            offset += 4 * count
        self._tensors = tensors
        self._plan: _Plan | None = None
        self._stream: _Snapshot | None = None

    def __getitem__(self, name: str) -> np.ndarray:
        return self._tensors[name]

    def __iter__(self) -> Iterator[str]:
        return iter(self._tensors)

    def __len__(self) -> int:
        return len(self._tensors)

    def plan(self, arch: ArchSpec) -> _Plan:
        """The plan for `arch`, built on the first call under that spec object
        by binding the tensors again (_bind), so a failed manifest check keeps
        nothing and fails again on every call. It drops the plan another
        FrozenWeights holds, then replaces this one's plan for another spec."""
        plan = self._plan
        if plan is not None and plan.arch is arch:
            return plan
        with FrozenWeights._lock:
            plan = self._plan
            if plan is None or plan.arch is not arch:
                last = FrozenWeights._holder() if FrozenWeights._holder else None
                if last is not None and last is not self:
                    last._plan = None  # its copies are freed before these are made
                bound = _bind(arch, self)
                FrozenWeights._holder = weakref.ref(self)
                plan = self._plan = _Plan(arch, bound, _stages(arch, bound))
        return plan


def _bind(arch: ArchSpec, weights: Mapping[str, np.ndarray]) -> tuple[tuple, ...]:
    """Check `weights` against the manifest, then bind every layer to its
    own tensors (Layer.bind), in the order of arch.placed."""
    check_weights(arch, weights)
    return tuple(p.layer.bind(p.tensors(weights)) for p in arch.placed)


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


def _stages(arch: ArchSpec, bound: tuple[tuple, ...]) -> tuple[tuple[int, Stage], ...]:
    """Every stage of the stream, with the rows it keeps for the next chunk."""
    return tuple(
        pair for p, b in zip(arch.placed, bound) for pair in zip(p.keeps, p.layer.stages(p, b), strict=True)
    )


def _run_stages(
    stages: tuple[tuple[int, Stage], ...],
    carries: tuple[np.ndarray | None, ...],
    x: np.ndarray,
    counter: MacCounter | None,
) -> tuple[np.ndarray, tuple[np.ndarray | None, ...]]:
    """Push the (rows, input_f, 1) stream rows x through every stage, each
    after the rows its carry holds, metering on `counter`. Returns the output
    rows, one per window the rows complete, and the carries after them;
    `carries` is not changed."""
    kept = []
    for (keep, run), carry in zip(stages, carries):
        if carry is not None:
            x = np.concatenate((carry, x))
        kept.append(x[len(x) - keep :].copy() if keep else None)  # a view would hold the whole buffer
        x = run(x, counter)
    return x, tuple(kept)


# Windows classified per chunk by forward_frames. Every conv position is
# computed once whatever the chunk size; larger chunks only save per-call
# overhead, and hold larger im2col matrices. On a 10 s clip, 48-window chunks
# ran cnn-tpool2 1.3x faster than 32 but raised the tracemalloc peak by 1.3 MB
# (cnn-trad: 2.4 MB, no faster); in a process that scans 10 s clips with all
# five stock architectures (the repository benchmark's scan workload), rises
# of that size have cost several MB of peak RSS (2-vCPU x86 VM, one BLAS
# thread).
BLOCK_WINDOWS = 32


def forward(
    arch: ArchSpec,
    weights: Mapping[str, np.ndarray],
    window: np.ndarray,
    conv_path: str = "optimized",
    counter: MacCounter | None = None,
) -> np.ndarray:
    """Posterior over labels for one (input_t, input_f) feature window.

    conv_path selects "optimized" (im2col matmul) or "naive" (reference
    loops). Either path meters on `counter` every scalar multiply it
    executes, which is report(arch).total.multiplies. Every layer computes on
    float64 weights and rounds its output to promote_types(its input, its
    stored weights), the dtype its kernel gives on the stored tensors.

    Loaded weights (a FrozenWeights) continue the stream where streaming is
    cheaper (ArchSpec.streams_cheaper): a float32 window on the optimized
    path that is the window this spec last classified on them advanced by
    one finite frame, bit for bit, pushes only its new row through the
    stages forward_frames runs, from the carries after the last window, and
    meters report(arch).per_frame. The first such call primes the carries by
    streaming the last window's rows, metering streamed_multiplies(arch, 2).
    The row equals forward_frames' for that window at BLOCK_WINDOWS = 1, bit
    for bit. Every other call runs per window and restarts the stream; a
    plain dict of weights, which could change between calls, never
    continues, and is checked and copied to float64 on every call (_bind),
    where a FrozenWeights is bound once per spec (see FrozenWeights.plan).
    """
    if conv_path not in ("optimized", "naive"):
        raise ValueError(f"conv_path must be 'optimized' or 'naive', got {conv_path!r}")
    plan = weights.plan(arch) if isinstance(weights, FrozenWeights) else None
    bound = _bind(arch, weights) if plan is None else plan.bound
    window = np.asarray(window)
    if window.shape != (arch.input_t, arch.input_f):
        raise ShapeError(
            f"window shape {window.shape} does not match the "
            f"{(arch.input_t, arch.input_f)} input of {arch.name}",
            axis="time" if window.shape[:1] != (arch.input_t,) else "freq",
        )
    frozen = plan is not None and arch.streams_cheaper
    streams = frozen and conv_path == "optimized" and window.dtype == np.float32
    if streams:
        snapshot = weights._stream
        if snapshot is not None and snapshot.advanced_by(arch, window):
            return _continue(weights, plan, snapshot, window, counter)
    x = window.reshape(arch.input_t, arch.input_f, 1)
    for p, b in zip(arch.placed, bound):
        x = p.layer.forward(b, x, counter, conv_path)
    if frozen:
        weights._stream = _Snapshot(arch, window.copy(), None) if streams else None
    return x


def _continue(
    weights: FrozenWeights, plan: _Plan, snapshot: _Snapshot, window: np.ndarray, counter: MacCounter | None
) -> np.ndarray:
    """forward() of `window`, snapshot.last advanced by one frame, from the
    carries after snapshot.last (primed here first if it has none)."""
    stages = plan.stages
    carries = snapshot.carries
    if carries is None:
        _, carries = _run_stages(stages, (None,) * len(stages), snapshot.last[:, :, None], counter)
    row, carries = _run_stages(stages, carries, window[-1:, :, None], counter)
    weights._stream = _Snapshot(plan.arch, window.copy(), carries)
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
    the same float64 weights and adds only row bookkeeping: the rows it
    carries, the interleaving by time step, flatten's gather and the time
    pool. Agrees with forward() on each stacked window to float32 rounding.
    `counter` meters the multiplies the stream executes, which is
    budget.streamed_multiplies(arch, n_frames).
    """
    if isinstance(weights, FrozenWeights):
        stages = weights.plan(arch).stages
    else:
        stages = _stages(arch, _bind(arch, weights))
    frames = np.asarray(frames)
    if frames.ndim != 2 or frames.shape[1] != arch.input_f:
        raise ShapeError(
            f"frames must be (n_frames, {arch.input_f}) for {arch.name}, got {frames.shape}", axis="freq"
        )
    n = frames.shape[0]
    if n == 0:
        raise InsufficientAudioError("cannot classify zero frames")
    carries: tuple[np.ndarray | None, ...] = (None,) * len(stages)
    out = None
    fed = 0  # padded-stream rows streamed so far
    for j0 in range(0, n, BLOCK_WINDOWS):
        j1 = min(j0 + BLOCK_WINDOWS, n)
        rows = np.clip(np.arange(fed, j1 + arch.input_t - 1) - arch.context.left, 0, n - 1)
        fed = j1 + arch.input_t - 1
        chunk = frames[rows].astype(np.float32, copy=False)[:, :, None]
        x, carries = _run_stages(stages, carries, chunk, counter)
        if out is None:
            out = np.empty((n, x.shape[-1]), dtype=x.dtype)
        out[j0:j1] = x
    return out


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


def build_cnn_tstride(labels: int, stride: int = 2, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv strided in time."""
    if stride < 2:
        raise ValueError(f"time stride must be >= 2, got {stride}")
    return _cnn_trad_stack(
        f"cnn-tstride{stride}", Context(39, 8), labels, maps, Stride(stride, 1), Pool(1, 3)
    )


def build_cnn_tpool(labels: int, pool: int = 2, maps: int = DEFAULT_MAPS) -> ArchSpec:
    """cnn-trad over a longer 48-frame window, first conv pooled in time."""
    if pool < 2:
        raise ValueError(f"time pool must be >= 2, got {pool}")
    return _cnn_trad_stack(f"cnn-tpool{pool}", Context(39, 8), labels, maps, Stride(1, 1), Pool(pool, 3))


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
    return {
        "name": arch.name,
        "context": [arch.context.left, arch.context.right],
        "input_f": arch.input_f,
        "layers": [layer.to_dict() for layer in arch.layers],
    }


def arch_from_dict(doc: dict) -> ArchSpec:
    layers = tuple(Layer.from_dict(entry) for entry in doc["layers"])
    left, right = doc["context"]
    return ArchSpec(doc["name"], Context(left, right), layers, doc["input_f"])
