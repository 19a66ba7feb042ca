"""Posterior smoothing and event detection.

Frame posteriors from the classifier are noisy; detection therefore works on
two trailing windows, the posterior handling of Chen, Parada and Heigold
(ICASSP 2014). smooth() averages each label over the last w_smooth frames;
a keyword's confidence is the max of its smoothed posterior over the last
w_max frames (the filler class never counts as a keyword). detect() fires an
event whenever some keyword's confidence crosses the threshold and no event
fired within the last `refractory` frames.

smooth() and detect() compute both windows for the whole stream at once, and
their results are bit-identical to averaging and maxing each frame's block
on its own (the per-frame loops the tests keep as the reference):
- np.mean over a C-ordered float64 (k, labels) block adds the k rows one at
  a time, oldest first, then divides by k. smooth() makes the same float64
  additions in the same order: a running sum (np.add.accumulate) for the
  first frames, whose blocks are cut short by the start of the stream, and
  w_smooth shifted slice adds for the rest.
- max is exact in any order, so detect() builds the trailing max by
  doubling: the max over the 2k rows ending at j is the max of the k-row
  maxima ending at j and at j - k.
StreamingDetector reproduces the batch results exactly from ring buffers
that hand out the same trailing windows.
"""

from __future__ import annotations

import numbers
from collections.abc import Mapping
from dataclasses import dataclass

import numpy as np

from . import arch as _arch
from .arch import ArchSpec
from .audio import Waveform
from .errors import NumericError, ShapeError, check_counts
from .frontend import log_mel_frames

__all__ = [
    "DetectorConfig",
    "DetectionEvent",
    "smooth",
    "detect",
    "StreamingDetector",
    "posteriors_from_waveform",
]


@dataclass(frozen=True)
class DetectorConfig:
    """Detection hyperparameters, all in frames except the threshold."""

    threshold: float = 0.7
    w_smooth: int = 30
    w_max: int = 100
    refractory: int = 30

    def __post_init__(self):
        if not (0.0 < self.threshold <= 1.0):
            raise ValueError(f"threshold must be in (0, 1], got {self.threshold}")
        check_counts(self, 1, w_smooth=self.w_smooth, w_max=self.w_max)
        check_counts(self, 0, refractory=self.refractory)


@dataclass(frozen=True)
class DetectionEvent:
    frame_index: int
    keyword: int  # label index, never the filler
    confidence: float


def _check_posteriors(probs: np.ndarray) -> np.ndarray:
    probs = np.asarray(probs)
    if probs.ndim != 2:
        raise ShapeError(f"posterior stream must be (frames, labels), got {probs.shape}")
    if probs.shape[1] < 2:
        raise ShapeError("posterior stream needs at least two label columns", axis="labels")
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise NumericError(
            f"posterior of frame {bad[0]} is not finite ({bad.size} of {probs.shape[0]} frames affected)"
        )
    return probs


def _check_filler(filler_index: int, labels: int) -> None:
    integer = isinstance(filler_index, numbers.Integral) and not isinstance(filler_index, bool)
    if not (integer and 0 <= filler_index < labels):
        raise ShapeError(
            f"filler_index must be a label column in [0, {labels}), got {filler_index!r}", axis="labels"
        )


def smooth(probs: np.ndarray, w_smooth: int) -> np.ndarray:
    """Trailing moving average per label; early frames use what exists."""
    probs = _check_posteriors(probs)
    check_counts("smooth", 1, w_smooth=w_smooth)
    x = np.asarray(probs, dtype=np.float64)
    n, w = x.shape[0], min(w_smooth, x.shape[0])
    sums = np.empty_like(x)
    np.add.accumulate(x[: w - 1], axis=0, out=sums[: w - 1])
    full = sums[w - 1 :]  # row j sums rows j - w + 1 .. j, oldest first
    full[...] = x[: n - w + 1]
    for k in range(1, w):
        full += x[k : n - w + 1 + k]
    sums /= np.minimum(np.arange(1, n + 1), w)[:, None]
    return sums.astype(probs.dtype, copy=False)


def detect(
    probs: np.ndarray, cfg: DetectorConfig = DetectorConfig(), filler_index: int = 0
) -> list[DetectionEvent]:
    """Scan a posterior stream and return events sorted by frame.

    An event fires at frame j when the best keyword confidence reaches the
    threshold and the previous event is more than `refractory` frames old;
    consecutive events are therefore separated by more than the refractory.
    """
    conf = smooth(probs, cfg.w_smooth)  # checks the stream; a finite one smooths to finite rows
    _check_filler(filler_index, conf.shape[1])
    # after each pass, row j holds the max over the `span` rows ending at j
    # (rows 0..j while j < span), until span covers w_max
    span, w_max = 1, min(cfg.w_max, conf.shape[0])
    while span < w_max:
        step = min(span, w_max - span)
        conf[step:] = np.maximum(conf[step:], conf[:-step])
        span += step
    conf[:, filler_index] = 0.0
    best = np.argmax(conf, axis=1)
    top = conf.max(axis=1)
    events: list[DetectionEvent] = []
    last_fired: int | None = None
    for j in np.flatnonzero(top >= cfg.threshold).tolist():
        if last_fired is None or j - last_fired > cfg.refractory:
            events.append(DetectionEvent(j, int(best[j]), float(top[j])))
            last_fired = j
    return events


class StreamingDetector:
    """Frame-at-a-time detector that reproduces detect() exactly.

    Keeps the last w_smooth raw rows and the last w_max smoothed rows in two
    preallocated float64 rings of 2*w rows. Every row is written at slot i
    and at slot i + w, so the trailing window is always the contiguous slice
    ring[i + 1 : i + 1 + w], oldest row first: np.mean over it makes the
    float64 additions smooth() makes, in the same order, with no per-frame
    stacking, and the threshold test runs in the pushed row's dtype, the
    dtype of smooth()'s output that detect() tests. push() returns the event
    fired at this frame, if any; a row that is not finite raises NumericError
    and changes nothing. A first row of fewer than two labels, or a
    filler_index that is not one of its label columns, raises ShapeError.
    """

    def __init__(self, cfg: DetectorConfig = DetectorConfig(), filler_index: int = 0):
        self.cfg = cfg
        self.filler_index = filler_index
        self._raw: np.ndarray | None = None  # (2 * w_smooth, labels), allocated by the first push
        self._smoothed: np.ndarray | None = None  # (2 * w_max, labels)
        self._frame = -1
        self._last_fired: int | None = None

    def push(self, frame_probs: np.ndarray) -> DetectionEvent | None:
        frame_probs = np.asarray(frame_probs)
        if frame_probs.ndim != 1:
            raise ShapeError(f"push expects one posterior row, got shape {frame_probs.shape}")
        if not np.isfinite(frame_probs).all():
            raise NumericError(f"posterior of frame {self._frame + 1} is not finite")
        if self._raw is None:
            if frame_probs.shape[0] < 2:
                raise ShapeError("push needs at least two labels per row", axis="labels")
            _check_filler(self.filler_index, frame_probs.shape[0])
            self._raw = np.empty((2 * self.cfg.w_smooth, frame_probs.shape[0]))
            self._smoothed = np.empty((2 * self.cfg.w_max, frame_probs.shape[0]))
        elif frame_probs.shape[0] != self._raw.shape[1]:
            raise ShapeError(
                f"push got {frame_probs.shape[0]} labels after rows of {self._raw.shape[1]}", axis="labels"
            )
        self._frame += 1
        # np.mean over a C-ordered float64 (w, labels) block adds its rows oldest first, as smooth() does
        block = _append(self._raw, self._frame, frame_probs)
        smoothed = np.mean(block, axis=0).astype(frame_probs.dtype)
        window = _append(self._smoothed, self._frame, smoothed)
        if self._last_fired is not None and self._frame - self._last_fired <= self.cfg.refractory:
            return None
        # the ring holds smoothed rows exactly; the threshold test runs in their dtype
        conf = np.max(window, axis=0).astype(frame_probs.dtype)
        conf[self.filler_index] = 0.0
        best = int(np.argmax(conf))
        if conf[best] >= self.cfg.threshold:
            self._last_fired = self._frame
            return DetectionEvent(self._frame, best, float(conf[best]))
        return None


def _append(ring: np.ndarray, frame: int, row: np.ndarray) -> np.ndarray:
    """Store frame's row in a double-written ring; return the trailing window.

    ring has 2 * w rows; frame f lands in slots f % w and f % w + w. Before
    the ring fills, frames 0..f sit in slots 0..f.
    """
    w = ring.shape[0] // 2
    i = frame % w
    ring[i] = row
    ring[i + w] = row
    return ring[: frame + 1] if frame < w else ring[i + 1 : i + 1 + w]


def posteriors_from_waveform(
    arch: ArchSpec, weights: Mapping[str, np.ndarray], waveform: Waveform
) -> np.ndarray:
    """Classifier posteriors for every frame of a waveform, (frames, labels).

    Raises NumericError naming the first frame whose posterior is not finite
    (for instance a model with a NaN weight), rather than letting detection
    report no events.
    """
    probs = _arch.forward_frames(arch, weights, log_mel_frames(waveform))
    try:
        return _check_posteriors(probs)
    except NumericError as exc:
        raise NumericError(f"{arch.name}: {exc}") from None
