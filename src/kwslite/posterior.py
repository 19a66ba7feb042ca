"""Posterior smoothing, windowed confidence, and event detection.

Frame posteriors from the classifier are noisy; detection therefore works on
two trailing windows. smooth() averages each label over the last w_smooth
frames; confidence() takes the max of the smoothed keyword posteriors over
the last w_max frames (the filler class never counts as a keyword). detect()
fires an event whenever some keyword's confidence crosses the threshold and
no event fired within the last `refractory` frames.

Windows are deliberately computed by direct slicing (the streams are short),
so a brute-force recomputation is bit-identical, and StreamingDetector can
reproduce batch results exactly from ring buffers.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from . import arch as _arch
from .arch import ArchSpec
from .audio import Waveform
from .errors import NumericError, ShapeError
from .frontend import FrameConfig, log_mel_frames

__all__ = [
    "DetectorConfig",
    "DetectionEvent",
    "smooth",
    "confidence",
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
        if self.w_smooth < 1 or self.w_max < 1:
            raise ValueError(f"window sizes must be >= 1, got {self}")
        if self.refractory < 0:
            raise ValueError(f"refractory must be >= 0, got {self.refractory}")


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
    return probs


def smooth(probs: np.ndarray, w_smooth: int) -> np.ndarray:
    """Trailing moving average per label; early frames use what exists."""
    probs = _check_posteriors(probs)
    if w_smooth < 1:
        raise ValueError(f"w_smooth must be >= 1, got {w_smooth}")
    out = np.empty_like(probs)
    for j in range(probs.shape[0]):
        block = probs[max(0, j - w_smooth + 1) : j + 1].astype(np.float64)
        out[j] = np.mean(block, axis=0).astype(probs.dtype)
    return out


def confidence(smoothed: np.ndarray, j: int, w_max: int, filler_index: int = 0) -> np.ndarray:
    """Per-label trailing max of smoothed posteriors; filler forced to zero."""
    smoothed = _check_posteriors(smoothed)
    if not 0 <= j < smoothed.shape[0]:
        raise ValueError(f"frame {j} out of range for {smoothed.shape[0]} frames")
    conf = np.max(smoothed[max(0, j - w_max + 1) : j + 1], axis=0).copy()
    conf[filler_index] = 0.0
    return conf


def detect(probs: np.ndarray, cfg: DetectorConfig = DetectorConfig(), filler_index: int = 0) -> list[DetectionEvent]:
    """Scan a posterior stream and return events sorted by frame.

    An event fires at frame j when the best keyword confidence reaches the
    threshold and the previous event is more than `refractory` frames old;
    consecutive events are therefore separated by more than the refractory.
    """
    probs = _check_posteriors(probs)
    smoothed = smooth(probs, cfg.w_smooth)
    events: list[DetectionEvent] = []
    last_fired: int | None = None
    for j in range(smoothed.shape[0]):
        if last_fired is not None and j - last_fired <= cfg.refractory:
            continue
        conf = confidence(smoothed, j, cfg.w_max, filler_index)
        best = int(np.argmax(conf))
        if conf[best] >= cfg.threshold:
            events.append(DetectionEvent(j, best, float(conf[best])))
            last_fired = j
    return events


class StreamingDetector:
    """Frame-at-a-time detector that reproduces detect() exactly.

    Keeps a ring of the last w_smooth raw frames and the last w_max smoothed
    frames; push() returns the event fired at this frame, if any.
    """

    def __init__(self, cfg: DetectorConfig = DetectorConfig(), filler_index: int = 0):
        self.cfg = cfg
        self.filler_index = filler_index
        self._raw: deque[np.ndarray] = deque(maxlen=cfg.w_smooth)
        self._smoothed: deque[np.ndarray] = deque(maxlen=cfg.w_max)
        self._frame = -1
        self._last_fired: int | None = None

    def push(self, frame_probs: np.ndarray) -> DetectionEvent | None:
        frame_probs = np.asarray(frame_probs)
        if frame_probs.ndim != 1:
            raise ShapeError(f"push expects one posterior row, got shape {frame_probs.shape}")
        self._frame += 1
        self._raw.append(frame_probs)
        # identical op and operand layout to smooth(): mean over a (w, labels) block
        block = np.stack(self._raw).astype(np.float64)
        smoothed = np.mean(block, axis=0).astype(frame_probs.dtype)
        self._smoothed.append(smoothed)
        if self._last_fired is not None and self._frame - self._last_fired <= self.cfg.refractory:
            return None
        conf = np.max(np.stack(self._smoothed), axis=0).copy()
        conf[self.filler_index] = 0.0
        best = int(np.argmax(conf))
        if conf[best] >= self.cfg.threshold:
            self._last_fired = self._frame
            return DetectionEvent(self._frame, best, float(conf[best]))
        return None


def posteriors_from_waveform(
    arch: ArchSpec,
    weights: dict[str, np.ndarray],
    waveform: Waveform,
    cfg: FrameConfig = FrameConfig(),
) -> np.ndarray:
    """Classifier posteriors for every frame of a waveform, (frames, labels).

    Raises NumericError naming the first frame whose posterior is not finite
    (for instance a model with a NaN weight), rather than letting detection
    report no events.
    """
    probs = _arch.forward_frames(arch, weights, log_mel_frames(waveform, cfg))
    bad = np.flatnonzero(~np.isfinite(probs).all(axis=1))
    if bad.size:
        raise NumericError(
            f"{arch.name}: posterior of frame {bad[0]} is not finite "
            f"({bad.size} of {probs.shape[0]} frames affected)"
        )
    return probs
