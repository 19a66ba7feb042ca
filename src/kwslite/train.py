"""Deterministic training: cross-entropy, exact backprop, and a
finite-difference gradient oracle.

Everything here is desk-scale by design: full analytic gradients through the
im2col convolution path, plain (mini-batch) gradient descent, no momentum, no
regularization. `loss_and_grads` and `evaluate` run one forward, inference's
kernels on CHUNK windows at a time. Forward and backward products run in the
weights' dtype (float32 weights in `train`) and gradients are summed in
float64, as in mixed-precision training; a flat layer's weight gradient
widens its products too, to one float64 product per chunk, where a product
of two float32 values is exact. Given the same architecture, examples, and
config, two runs produce bit-identical weights.
"""

from __future__ import annotations

import math
import time
from collections.abc import Mapping
from dataclasses import dataclass, field

import numpy as np

from . import arch as _arch
from .arch import ArchSpec
from .errors import DivergenceError, NumericError, ShapeError, check_counts

__all__ = [
    "LabeledExample",
    "TrainConfig",
    "EpochStats",
    "TrainResult",
    "cross_entropy",
    "loss_and_grads",
    "grad_check",
    "train",
    "evaluate",
]

LOG_CLAMP = 1e-12
EPSILON = 1e-3  # grad_check's central-difference step


@dataclass(frozen=True)
class LabeledExample:
    """One feature window plus its class index."""

    window: np.ndarray
    label: int


@dataclass(frozen=True)
class TrainConfig:
    learning_rate: float = 0.05
    epochs: int = 200
    batch_size: int = 16
    seed: int = 0

    def __post_init__(self):
        if not (np.isfinite(self.learning_rate) and self.learning_rate >= 0):
            raise ValueError(f"learning rate must be finite and >= 0, got {self.learning_rate}")
        check_counts(self, 1, epochs=self.epochs, batch_size=self.batch_size)


@dataclass(frozen=True)
class EpochStats:
    loss: float
    accuracy: float
    seconds: float  # the epoch's wall time
    grad_norm: float  # mean over batches of the global L2 norm of the batch gradient


@dataclass
class TrainResult:
    weights: dict[str, np.ndarray]
    history: list[EpochStats] = field(default_factory=list)


def cross_entropy(posterior: np.ndarray, label: int) -> float:
    """-log of the probability assigned to the true label.

    The probability is clamped to at least 1e-12 before the log, so the loss
    is finite for any posterior the forward pass can emit.
    """
    posterior = np.asarray(posterior)
    if not 0 <= label < posterior.shape[0]:
        raise ValueError(f"label {label} out of range for {posterior.shape[0]} classes")
    total = float(posterior.sum())
    if not math.isfinite(total) or abs(total - 1.0) > 1e-4:
        raise ValueError(f"posterior does not sum to 1 (sum={total!r})")
    return -math.log(max(float(posterior[label]), LOG_CLAMP))


# ---------------------------------------------------------------------------
# Forward / backward over a leading example axis, in chunks of CHUNK examples
# to bound memory. The caches keep each layer's input and, under "route", its
# routing decision (a pool's first-maximum masks built from comparisons, a
# relu mask), the kink signature used by grad_check. Every conv product has
# per-example shapes that do not depend on the chunk size, and a conv's
# per-example gradients are added in example order. A flat layer's weight and
# bias gradients are one float64 product and one column sum per chunk: exact
# products, but sums grouped by chunk, so their float64 totals can differ in
# the last bits between chunk sizes, each within gamma(N)*sum|delta*x| of the
# exact sum at float64's unit roundoff.
# That the float32 gradients do not depend on how a batch is split is checked
# on the tests' data, not guaranteed.

CHUNK = 8


def _forward(arch: ArchSpec, weights: Mapping[str, np.ndarray], x: np.ndarray):
    """Forward pass over windows x of shape (B, input_t, input_f).

    Returns (posteriors (B, labels) float64, caches): one cache per layer.
    Row i cast to float32 is arch.forward(arch, weights, x[i]), bit for bit.
    """
    x = x[..., None]
    caches: list[dict] = []
    for p in arch.placed:
        caches.append({})
        x = p.layer.train_forward(p.tensors(weights), x, caches[-1])
    return x, caches


def _chunks(arch: ArchSpec, weights: Mapping[str, np.ndarray], examples: list[LabeledExample]):
    """_forward over the examples CHUNK at a time, their windows in the
    weights' dtype: (labels, posteriors, caches) per chunk."""
    dtype = np.result_type(*weights.values())
    for start in range(0, len(examples), CHUNK):
        chunk = examples[start : start + CHUNK]
        windows = np.stack([np.asarray(ex.window, dtype=dtype) for ex in chunk])
        posteriors, caches = _forward(arch, weights, windows)
        yield [ex.label for ex in chunk], posteriors, caches


def _backward(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    caches: list[dict],
    posteriors: np.ndarray,
    labels: list[int],
    grads: dict[str, np.ndarray],
) -> None:
    """Add the cross-entropy gradients of a forward pass into the float64 `grads`.

    The input gradient of the first weighted layer is not needed and not computed.
    """
    delta = posteriors.copy()
    delta[np.arange(len(delta)), labels] -= 1.0  # d loss / d logits for softmax + cross-entropy
    delta = delta.astype(np.result_type(*weights.values()), copy=False)  # the backward runs in this dtype
    placed = arch.placed
    first = next(i for i, p in enumerate(placed) if p.manifest)
    for index in reversed(range(first, len(placed))):
        p = placed[index]
        tensors, totals = p.tensors(weights), p.tensors(grads)
        delta = p.layer.train_backward(tensors, caches[index], delta, totals, index > first)


def _check_examples(arch: ArchSpec, examples: list[LabeledExample]) -> None:
    shape = (arch.input_t, arch.input_f)
    for i, ex in enumerate(examples):
        if np.shape(ex.window) != shape:
            raise ShapeError(f"example {i}: window shape {np.shape(ex.window)} is not {shape}", axis="window")
        if not np.isfinite(ex.window).all():
            raise NumericError(f"example {i}: window is not finite")
        if not 0 <= ex.label < arch.labels:
            raise ValueError(f"example {i}: label {ex.label} out of range for {arch.labels} classes")


class _Checked(list):
    """A batch `train` drew from examples it has checked, for weights it made
    from the manifest: `loss_and_grads` does not check it again."""


def loss_and_grads(
    arch: ArchSpec, weights: dict[str, np.ndarray], batch: list[LabeledExample]
) -> tuple[dict[str, np.ndarray], float, int]:
    """Mean loss, mean gradients, and correct-prediction count over a batch.

    The forward and backward passes run in the weights' dtype, whatever the
    windows': d loss / d logits is rounded to it once, and every backward
    product but a flat layer's weight gradient stays in it. That one is a
    float64 product per chunk, exact for float32 factors. Gradients are
    summed in float64 (a conv's in example order, a flat layer's grouped by
    chunk, each total within gamma(N)*sum|delta*x| of the exact sum) and
    returned in the dtype of the corresponding weight tensor. With float32
    weights, averaging over b <= 32 identical examples yields exactly the
    single-example gradient. Weights that do not match the manifest raise
    ManifestMismatchError, and a window that is not finite NumericError.
    """
    if not batch:
        raise ValueError("empty batch")
    if not isinstance(batch, _Checked):
        _check_examples(arch, batch)
        _arch.check_weights(arch, weights)
    grads64 = {name: np.zeros(w.shape, dtype=np.float64) for name, w in weights.items()}
    total_loss = 0.0
    correct = 0
    for labels, posteriors, caches in _chunks(arch, weights, batch):
        if not np.all(np.isfinite(posteriors)):
            # overflowed weights; report a NaN loss so train() can flag divergence
            total_loss = float("nan")
            break
        for posterior, label in zip(posteriors, labels):
            total_loss += cross_entropy(posterior, label)
        correct += int(np.count_nonzero(posteriors.argmax(axis=1) == labels))
        _backward(arch, weights, caches, posteriors, labels, grads64)
    b = len(batch)
    grads = {name: (g / b).astype(weights[name].dtype) for name, g in grads64.items()}
    return grads, total_loss / b, correct


def _routing(caches: list[dict]) -> list[bytes]:
    """The pools' first-maximum masks and the relu masks of a forward pass, in layer order."""
    return [cache["route"].tobytes() for cache in caches if "route" in cache]


def grad_check(
    arch: ArchSpec, example: LabeledExample, samples_per_tensor: int = 200, seed: int = 0
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Weights are init_weights(arch, seed) and the whole comparison runs in
    float64; the analytic gradients come from the training forward and
    backward on a batch of one. For every tensor up to `samples_per_tensor`
    coordinates are drawn without replacement; each is perturbed by
    +/- EPSILON and the loss difference quotient is compared against the
    analytic gradient.

    A coordinate whose two perturbed evaluations change the activation
    routing (a max-pool's first-maximum mask, built from comparisons, or a
    ReLU sign) sits on a kink of the loss surface, where the difference
    quotient does not estimate the derivative of anything; such draws are
    discarded and resampled. The relative-error denominator is floored at
    1e-2, so near-zero gradient coordinates are held to absolute rather than
    relative accuracy.
    """
    _check_examples(arch, [example])
    w64 = {name: w.astype(np.float64) for name, w in _arch.init_weights(arch, seed).items()}
    windows = np.asarray(example.window, dtype=np.float64)[None]

    posteriors, caches = _forward(arch, w64, windows)
    base_routing = _routing(caches)
    grads = {name: np.zeros(w.shape, dtype=np.float64) for name, w in w64.items()}
    _backward(arch, w64, caches, posteriors, [example.label], grads)

    def loss_at(perturbed):
        p, caches = _forward(arch, perturbed, windows)
        return cross_entropy(p[0], example.label), _routing(caches)

    rng = np.random.default_rng([seed, 0x5EED])
    worst = 0.0
    for name, w in w64.items():
        flat = w.reshape(-1)
        n_coords = min(samples_per_tensor, flat.size)
        # draw extra candidates so kink-adjacent coordinates can be replaced
        order = rng.permutation(flat.size)
        checked = 0
        for coord in order:
            if checked >= n_coords:
                break
            original = flat[coord]
            flat[coord] = original + EPSILON
            loss_hi, routing_hi = loss_at(w64)
            flat[coord] = original - EPSILON
            loss_lo, routing_lo = loss_at(w64)
            flat[coord] = original
            if not routing_hi == base_routing == routing_lo:
                continue  # kink inside the probe interval; quotient is meaningless
            checked += 1
            numeric = (loss_hi - loss_lo) / (2 * EPSILON)
            analytic = grads[name].reshape(-1)[coord]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-2)
            worst = max(worst, err)
    return worst


def train(arch: ArchSpec, examples: list[LabeledExample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch gradient descent; deterministic for a given (arch, data, cfg).

    Weights start from init_weights(arch, cfg.seed); the per-epoch shuffle
    has its own stream derived from the same seed. History records the
    running mean loss, accuracy and gradient norm over each epoch's batches,
    and the epoch's wall time. Every example's window shape, values and
    label are checked once, before the first update (ShapeError,
    NumericError, ValueError), and not again per batch. A batch whose loss
    or gradient norm is not finite raises DivergenceError naming the epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    _check_examples(arch, examples)
    weights = _arch.init_weights(arch, cfg.seed)
    shuffle_rng = np.random.default_rng([cfg.seed, 1])
    history: list[EpochStats] = []
    n = len(examples)
    for epoch in range(1, cfg.epochs + 1):
        started = time.perf_counter()
        order = shuffle_rng.permutation(n)
        epoch_loss = 0.0
        epoch_correct = 0
        norms = []
        for start in range(0, n, cfg.batch_size):
            batch = _Checked(examples[i] for i in order[start : start + cfg.batch_size])
            grads, batch_loss, batch_correct = loss_and_grads(arch, weights, batch)
            norm = math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values()))
            if not (math.isfinite(batch_loss) and math.isfinite(norm)):
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: loss {batch_loss!r}, gradient norm {norm!r}",
                    epoch=epoch,
                )
            epoch_loss += batch_loss * len(batch)
            epoch_correct += batch_correct
            norms.append(norm)
            lr = np.asarray(cfg.learning_rate, dtype=np.float32)
            for name in weights:
                weights[name] = weights[name] - lr * grads[name]
        seconds = time.perf_counter() - started
        history.append(EpochStats(epoch_loss / n, epoch_correct / n, seconds, sum(norms) / len(norms)))
    return TrainResult(weights, history)


def evaluate(
    arch: ArchSpec, weights: Mapping[str, np.ndarray], examples: list[LabeledExample]
) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of a fixed model over examples, whose
    windows and labels are checked first, as in train(), as are the weights
    against the manifest (ManifestMismatchError). Runs training's forward,
    CHUNK examples at a time, and scores its float64 posteriors."""
    if not examples:
        raise ValueError("no examples to evaluate")
    _check_examples(arch, examples)
    _arch.check_weights(arch, weights)
    total_loss = 0.0
    correct = 0
    for labels, posteriors, _ in _chunks(arch, weights, examples):
        for posterior, label in zip(posteriors, labels):
            total_loss += cross_entropy(posterior, label)
        correct += int(np.count_nonzero(posteriors.argmax(axis=1) == labels))
    return total_loss / len(examples), correct / len(examples)
