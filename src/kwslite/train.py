"""Deterministic training: cross-entropy, exact backprop, and a
finite-difference gradient oracle.

Everything here is desk-scale by design: full analytic gradients through the
im2col convolution path, plain (mini-batch) gradient descent, no momentum, no
regularization. Given the same architecture, examples, and config, two runs
produce bit-identical weights.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field

import numpy as np

from . import arch as _arch
from .arch import ArchSpec, Conv, Dense, Flatten, LowRank
from .errors import DivergenceError, ShapeError
from .tensor import Pool, Stride, conv_output_shape

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
    init_scale: float = 0.05

    def __post_init__(self):
        if self.learning_rate < 0:
            raise ValueError(f"learning rate must be >= 0, got {self.learning_rate}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch size must be >= 1, got {self.batch_size}")
        if self.init_scale < 0:
            raise ValueError(f"init scale must be >= 0, got {self.init_scale}")


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
# to bound memory. The caches keep each layer's input and the routing decisions
# (pool argmaxes, relu masks); the routing list doubles as the kink signature
# used by grad_check. Every per-example product has per-example shapes that do
# not depend on the chunk size, and per-example gradients are added in example
# order, so a gradient does not depend on how the batch is split.

CHUNK = 8


def _im2col(x: np.ndarray, kernel_t: int, kernel_f: int, stride: Stride) -> np.ndarray:
    """tensor.im2col over (B, T, F, C): (B, out_t*out_f, kernel_t*kernel_f*C)."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel_t, kernel_f), axis=(1, 2))
    windows = windows[:, :: stride.time, :: stride.freq]
    b, out_t, out_f = windows.shape[:3]
    # sliding_window_view puts the window axes last: (B, out_t, out_f, c, kt, kf)
    return windows.transpose(0, 1, 2, 4, 5, 3).reshape(b, out_t * out_f, -1)


def _col2im(grad_cols: np.ndarray, in_shape: tuple[int, ...], kernel_t: int, kernel_f: int, stride: Stride) -> np.ndarray:
    """Adjoint of _im2col: one strided scatter-add per kernel offset.

    Offsets run last to first, so every input position sums its contributions
    in order of output position.
    """
    out_t, out_f = conv_output_shape(in_shape[1], in_shape[2], kernel_t, kernel_f, stride)
    grad_x = np.zeros(in_shape, dtype=grad_cols.dtype)
    patches = grad_cols.reshape(in_shape[0], out_t, out_f, kernel_t, kernel_f, in_shape[3])
    t_span, f_span = (out_t - 1) * stride.time + 1, (out_f - 1) * stride.freq + 1
    for i in reversed(range(kernel_t)):
        for j in reversed(range(kernel_f)):
            grad_x[:, i : i + t_span : stride.time, j : j + f_span : stride.freq] += patches[:, :, :, i, j]
    return grad_x


def _maxpool_argmax(x: np.ndarray, pool: Pool) -> tuple[np.ndarray, np.ndarray, tuple[int, int]]:
    """Max-pool over the last three axes (time, freq, channels) of x."""
    *lead, t, f, c = x.shape
    t2, f2 = t // pool.time, f // pool.freq
    blocks = x[..., : t2 * pool.time, : f2 * pool.freq, :].reshape(*lead, t2, pool.time, f2, pool.freq, c)
    windows = np.moveaxis(blocks, (-4, -2), (-2, -1)).reshape(*lead, t2, f2, c, pool.time * pool.freq)
    # argmax takes the first maximum, i.e. ties break toward the earliest
    # (time, freq) position inside the window
    arg = windows.argmax(axis=-1)
    pooled = np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0]
    return pooled, arg, (t2, f2)


def _maxpool_scatter(grad_pooled: np.ndarray, arg: np.ndarray, pre_shape: tuple[int, ...], pool: Pool) -> np.ndarray:
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


def _forward(arch: ArchSpec, weights: dict[str, np.ndarray], x: np.ndarray):
    """Forward pass over windows x of shape (B, input_t, input_f).

    Returns (posteriors (B, labels) float64, caches, routing): one cache per
    layer, and the pool argmax and relu mask arrays in layer order.
    """
    x = x[..., None]
    caches: list[dict] = []
    routing: list[np.ndarray] = []
    for name, layer in zip(_arch.layer_names(arch), arch.layers):
        cache = {"name": name, "in_shape": x.shape}
        caches.append(cache)
        if isinstance(layer, Conv):
            out_t, out_f = conv_output_shape(x.shape[1], x.shape[2], layer.kernel_t, layer.kernel_f, layer.stride)
            wmat = weights[f"{name}.weights"].reshape(-1, layer.maps)
            pre = np.matmul(_im2col(x, layer.kernel_t, layer.kernel_f, layer.stride), wmat)
            pre += weights[f"{name}.bias"]
            pre = pre.reshape(len(x), out_t, out_f, layer.maps)
            cache["x"] = x
            x = pre
            if layer.pool.active:
                x, arg, _ = _maxpool_argmax(pre, layer.pool)
                cache.update(pool_arg=arg, pre_shape=pre.shape)
                routing.append(arg)
        elif isinstance(layer, Flatten):
            x = x.reshape(len(x), -1)
        else:
            cache["x"] = x
            z = np.matmul(weights[f"{name}.weights"], x[..., None])[..., 0]
            if isinstance(layer, LowRank):
                x = z
            elif isinstance(layer, Dense):
                z = z + weights[f"{name}.bias"]
                mask = z > 0
                routing.append(mask)
                cache["mask"] = mask
                x = np.where(mask, z, 0.0)
            else:  # SoftmaxOut
                z = (z + weights[f"{name}.bias"]).astype(np.float64)
                e = np.exp(z - z.max(axis=1, keepdims=True))
                x = e / e.sum(axis=1, keepdims=True)
    return x, caches, routing


def _accumulate(total: np.ndarray, per_example) -> None:
    """Add per-example gradients into `total` in example order."""
    for part in per_example:
        total += part
        del part  # free it before the next example's product is formed


def _backward(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    caches: list[dict],
    posteriors: np.ndarray,
    labels: list[int],
    grads: dict[str, np.ndarray],
) -> None:
    """Add the float64 cross-entropy gradients of a forward pass into `grads`.

    The input gradient of the first weighted layer is not needed and not computed.
    """
    delta = posteriors.copy()
    delta[np.arange(len(delta)), labels] -= 1.0  # d loss / d logits for softmax + cross-entropy
    first = next(i for i, layer in enumerate(arch.layers) if not isinstance(layer, Flatten))
    for index in reversed(range(first, len(arch.layers))):
        layer, cache = arch.layers[index], caches[index]
        name = cache["name"]
        if isinstance(layer, Flatten):
            delta = delta.reshape(cache["in_shape"])
            continue
        if isinstance(layer, Conv):
            if layer.pool.active:
                delta = _maxpool_scatter(delta, cache["pool_arg"], cache["pre_shape"], layer.pool)
            dmat = delta.reshape(len(delta), -1, layer.maps)
            # im2col is redone in float64 one example at a time: no chunk of
            # patch matrices is held from forward to backward
            x64 = cache["x"].astype(np.float64)
            kt, kf, stride = layer.kernel_t, layer.kernel_f, layer.stride
            _accumulate(
                grads[f"{name}.weights"].reshape(-1, layer.maps),
                (_im2col(x64[i : i + 1], kt, kf, stride)[0].T @ dmat[i] for i in range(len(dmat))),
            )
            _accumulate(grads[f"{name}.bias"], dmat.sum(axis=1))
            if index == first:
                break
            wmat = weights[f"{name}.weights"].astype(np.float64).reshape(-1, layer.maps)
            delta = _col2im(np.matmul(dmat, wmat.T), x64.shape, kt, kf, stride)
        else:
            if isinstance(layer, Dense):
                delta = delta * cache["mask"]
            _accumulate(grads[f"{name}.weights"], map(np.outer, delta, cache["x"].astype(np.float64)))
            if not isinstance(layer, LowRank):
                _accumulate(grads[f"{name}.bias"], delta)
            if index == first:
                break
            w = weights[f"{name}.weights"].astype(np.float64)
            delta = np.matmul(w.T, delta[..., None])[..., 0]


def _check_examples(arch: ArchSpec, examples: list[LabeledExample]) -> None:
    shape = (arch.input_t, arch.input_f)
    for i, ex in enumerate(examples):
        if np.shape(ex.window) != shape:
            raise ShapeError(f"example {i}: window shape {np.shape(ex.window)} is not {shape}", axis="window")
        if not 0 <= ex.label < arch.labels:
            raise ValueError(f"example {i}: label {ex.label} out of range for {arch.labels} classes")


def loss_and_grads(
    arch: ArchSpec, weights: dict[str, np.ndarray], batch: list[LabeledExample]
) -> tuple[dict[str, np.ndarray], float, int]:
    """Mean loss, mean gradients, and correct-prediction count over a batch.

    The forward pass runs in the weights' dtype, whatever the windows'.
    Gradients are accumulated in float64 and returned in the dtype of the
    corresponding weight tensor. Averaging over b identical examples yields
    exactly the single-example gradient.
    """
    if not batch:
        raise ValueError("empty batch")
    _check_examples(arch, batch)
    grads64 = {name: np.zeros(w.shape, dtype=np.float64) for name, w in weights.items()}
    dtype = np.result_type(*weights.values())
    total_loss = 0.0
    correct = 0
    for start in range(0, len(batch), CHUNK):
        chunk = batch[start : start + CHUNK]
        labels = [ex.label for ex in chunk]
        posteriors, caches, _ = _forward(arch, weights, np.stack([np.asarray(ex.window, dtype=dtype) for ex in chunk]))
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


def _routing_equal(a: list[np.ndarray], b: list[np.ndarray]) -> bool:
    return len(a) == len(b) and all(np.array_equal(x, y) for x, y in zip(a, b))


def grad_check(
    arch: ArchSpec,
    example: LabeledExample,
    epsilon: float = 1e-3,
    samples_per_tensor: int = 200,
    seed: int = 0,
    init_scale: float = 0.05,
    weights: dict[str, np.ndarray] | None = None,
) -> float:
    """Max relative error between analytic and central-difference gradients.

    Weights are initialized from `seed` (or taken from `weights`) and the
    whole comparison runs in float64; the analytic gradients come from the
    training forward and backward on a batch of one. For every tensor up to
    `samples_per_tensor` coordinates are drawn without replacement; each is
    perturbed by +/- epsilon and the loss difference quotient is compared
    against the analytic gradient.

    A coordinate whose two perturbed evaluations change the activation
    routing (a max-pool argmax or a ReLU sign) sits on a kink of the loss
    surface, where the difference quotient does not estimate the derivative
    of anything; such draws are discarded and resampled. The relative-error
    denominator is floored at 1e-2, so near-zero gradient coordinates are
    held to absolute rather than relative accuracy.
    """
    if epsilon <= 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    if weights is None:
        weights = _arch.init_weights(arch, seed, init_scale)
    _check_examples(arch, [example])
    w64 = {name: np.asarray(w, dtype=np.float64) for name, w in weights.items()}
    windows = np.asarray(example.window, dtype=np.float64)[None]

    posteriors, caches, base_routing = _forward(arch, w64, windows)
    grads = {name: np.zeros(w.shape, dtype=np.float64) for name, w in w64.items()}
    _backward(arch, w64, caches, posteriors, [example.label], grads)

    def loss_at(perturbed):
        p, _, routing = _forward(arch, perturbed, windows)
        return cross_entropy(p[0], example.label), routing

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
            flat[coord] = original + epsilon
            loss_hi, routing_hi = loss_at(w64)
            flat[coord] = original - epsilon
            loss_lo, routing_lo = loss_at(w64)
            flat[coord] = original
            if not (_routing_equal(routing_hi, base_routing) and _routing_equal(routing_lo, base_routing)):
                continue  # kink inside the probe interval; quotient is meaningless
            checked += 1
            numeric = (loss_hi - loss_lo) / (2 * epsilon)
            analytic = grads[name].reshape(-1)[coord]
            err = abs(analytic - numeric) / max(abs(analytic), abs(numeric), 1e-2)
            worst = max(worst, err)
    return worst


def train(arch: ArchSpec, examples: list[LabeledExample], cfg: TrainConfig = TrainConfig()) -> TrainResult:
    """Mini-batch gradient descent; deterministic for a given (arch, data, cfg).

    Weights start from init_weights(arch, cfg.seed, cfg.init_scale); the
    per-epoch shuffle has its own stream derived from the same seed. History
    records the running mean loss, accuracy and gradient norm over each
    epoch's batches, and the epoch's wall time. Every example's window shape
    and label are checked before the first update (ShapeError, ValueError). A
    non-finite batch loss raises DivergenceError naming the epoch.
    """
    if not examples:
        raise ValueError("no training examples")
    _check_examples(arch, examples)
    weights = _arch.init_weights(arch, cfg.seed, cfg.init_scale)
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
            batch = [examples[i] for i in order[start : start + cfg.batch_size]]
            grads, batch_loss, batch_correct = loss_and_grads(arch, weights, batch)
            if not math.isfinite(batch_loss):
                raise DivergenceError(
                    f"training diverged at epoch {epoch}: loss {batch_loss!r}", epoch=epoch
                )
            epoch_loss += batch_loss * len(batch)
            epoch_correct += batch_correct
            norms.append(math.sqrt(sum(float(np.square(g, dtype=np.float64).sum()) for g in grads.values())))
            lr = np.asarray(cfg.learning_rate, dtype=np.float32)
            for name in weights:
                weights[name] = weights[name] - lr * grads[name]
        seconds = time.perf_counter() - started
        history.append(EpochStats(epoch_loss / n, epoch_correct / n, seconds, sum(norms) / len(norms)))
    return TrainResult(weights, history)


def evaluate(arch: ArchSpec, weights: dict[str, np.ndarray], examples: list[LabeledExample]) -> tuple[float, float]:
    """Mean cross-entropy and accuracy of a fixed model over examples."""
    if not examples:
        raise ValueError("no examples to evaluate")
    total_loss = 0.0
    correct = 0
    for ex in examples:
        posterior = _arch.forward(arch, weights, ex.window)
        total_loss += cross_entropy(posterior, ex.label)
        if int(np.argmax(posterior)) == ex.label:
            correct += 1
    return total_loss / len(examples), correct / len(examples)
