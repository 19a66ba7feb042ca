"""Log-mel feature frontend.

Pipeline: frame the signal (25 ms window, 10 ms hop at 16 kHz), pre-emphasize
and Hamming-window each frame, take the power spectrum of a zero-padded FFT,
project through a triangular mel filterbank, and log with a floor. Classifier
inputs are context windows: each analysis frame stacked with its neighbours,
replicating edge frames where the context runs off either end.

All intermediate math is float64; emitted features are float32.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from pathlib import Path

import numpy as np

from .audio import SAMPLE_RATE, Waveform
from .errors import InsufficientAudioError, KwsError, NumericError, ShapeError, check_counts

__all__ = [
    "FrameConfig",
    "Context",
    "hz_to_mel",
    "mel_to_hz",
    "frame_count",
    "frame_signal",
    "build_mel_filterbank",
    "mel_filter_centers",
    "log_mel",
    "log_mel_frames",
    "stack_context",
    "write_feature_dump",
    "read_feature_dump",
]


def hz_to_mel(hz):
    return 2595.0 * np.log10(1.0 + np.asarray(hz, dtype=np.float64) / 700.0)


def mel_to_hz(mel):
    return 700.0 * (10.0 ** (np.asarray(mel, dtype=np.float64) / 2595.0) - 1.0)


@dataclass(frozen=True)
class FrameConfig:
    """The one feature format: 40 log-mel bins every 10 ms over 25 ms windows
    of 16 kHz audio, the input of Sainath & Parada (Interspeech 2015).

    Its values are constants: FrameConfig() takes no arguments, and every
    instance equals every other.
    """

    window_length = 400
    hop = 160
    fft_size = 512
    preemphasis = 0.97
    mel_filters = 40
    fmin = 20.0
    fmax = 8000.0
    log_floor = 1e-10


@dataclass(frozen=True)
class Context:
    """Frames stacked to the left and right of the centre frame."""

    left: int
    right: int

    def __post_init__(self):
        check_counts(self, 0, left=self.left, right=self.right)

    @property
    def size(self) -> int:
        return self.left + 1 + self.right


def frame_count(n_samples: int, cfg: FrameConfig) -> int:
    """Number of full analysis windows that fit: floor((n - win) / hop) + 1."""
    if n_samples < cfg.window_length:
        return 0
    return (n_samples - cfg.window_length) // cfg.hop + 1


def frame_signal(w: Waveform, cfg: FrameConfig = FrameConfig()) -> np.ndarray:
    """Slice a waveform into pre-emphasized, Hamming-windowed frames.

    Returns a float64 array (n_frames, window_length). Trailing samples that
    do not fill a window are dropped; a signal shorter than one window raises
    InsufficientAudioError.

    Pre-emphasis x[k] - a·x[k-1] runs once over the whole signal, and the
    frames are a zero-copy view of it with a stride of `hop`, windowed
    straight into the output. A frame's first sample has no predecessor
    inside the frame, so column 0 is the raw sample times window[0]. These
    are the float64 operations of emphasizing each frame on its own, so every
    frame is bit-identical to gathering and emphasizing it separately.
    """
    x = np.asarray(w.samples, dtype=np.float64)
    n = frame_count(len(x), cfg)
    if n == 0:
        raise InsufficientAudioError(
            f"insufficient audio: {len(x)} samples < one {cfg.window_length}-sample window"
        )
    # x[k] - a·x[k-1] computed in place, with no signal-length temporary
    emphasized = np.empty(len(x))
    emphasized[0] = x[0]
    np.multiply(x[:-1], cfg.preemphasis, out=emphasized[1:])
    np.subtract(x[1:], emphasized[1:], out=emphasized[1:])
    # np.ndarray over the buffer costs less per call than as_strided or sliding_window_view
    step = emphasized.itemsize
    frames = np.ndarray((n, cfg.window_length), np.float64, emphasized, strides=(cfg.hop * step, step))
    window = _hamming()
    out = frames * window
    out[:, 0] = x[: n * cfg.hop : cfg.hop] * window[0]
    return out


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


@cache
def _hamming() -> np.ndarray:
    return _read_only(np.hamming(FrameConfig.window_length))


def build_mel_filterbank(cfg: FrameConfig = FrameConfig()) -> np.ndarray:
    """Triangular filters, rows (mel_filters, fft_size // 2 + 1).

    Filter centres are equally spaced on the mel scale between fmin and fmax;
    each triangle rises from the previous centre and falls to the next one,
    evaluated at the FFT bin frequencies.

    Every FrameConfig is equal, so every call returns the one bank a process
    builds, whatever form the call takes; the array is shared and read-only,
    so a one-frame call costs no rebuild.
    """
    return _mel_filterbank()


@cache
def _mel_filterbank() -> np.ndarray:
    cfg = FrameConfig()
    n_bins = cfg.fft_size // 2 + 1
    mel_points = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.mel_filters + 2)
    hz_points = mel_to_hz(mel_points)
    bin_freqs = np.arange(n_bins) * SAMPLE_RATE / cfg.fft_size

    weights = np.zeros((cfg.mel_filters, n_bins), dtype=np.float64)
    for m in range(cfg.mel_filters):
        lo, centre, hi = hz_points[m], hz_points[m + 1], hz_points[m + 2]
        rising = (bin_freqs - lo) / (centre - lo)
        falling = (hi - bin_freqs) / (hi - centre)
        weights[m] = np.maximum(0.0, np.minimum(rising, falling))
    return _read_only(weights)


def mel_filter_centers(cfg: FrameConfig = FrameConfig()) -> np.ndarray:
    """Centre frequency in Hz of each triangular filter."""
    mel_points = np.linspace(hz_to_mel(cfg.fmin), hz_to_mel(cfg.fmax), cfg.mel_filters + 2)
    return mel_to_hz(mel_points)[1:-1]


def log_mel(frames: np.ndarray, melbank: np.ndarray, log_floor: float = 1e-10) -> np.ndarray:
    """Log filterbank energies for pre-windowed frames.

    The FFT length is implied by the filterbank width: melbank has
    fft_size // 2 + 1 columns. Energies are floored before the log so silence
    maps to log(log_floor) instead of -inf.

    Each row is projected by its own (1, bins) @ (bins, filters) product, so a
    frame's features do not depend on how many frames share the call: one
    streamed frame equals its row of the whole-clip batch bit for bit. (One
    (n, bins) @ (bins, filters) product picks a BLAS kernel by n, and the
    one-row and many-row kernels round the float64 energies differently.)
    """
    frames = np.asarray(frames, dtype=np.float64)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, window), got {frames.shape}")
    fft_size = 2 * (melbank.shape[1] - 1)
    if frames.shape[1] > fft_size:
        raise ShapeError(
            f"frame length {frames.shape[1]} exceeds FFT size {fft_size}", axis="time"
        )
    spectrum = np.fft.rfft(frames, n=fft_size, axis=1)
    power = spectrum.real**2 + spectrum.imag**2
    energies = np.matmul(power[:, None, :], melbank.T)[:, 0]
    return np.log(np.maximum(energies, log_floor)).astype(np.float32)


def _check_finite(samples: np.ndarray) -> None:
    """Raise NumericError naming the first sample that is not finite."""
    if not np.isfinite(samples).all():
        bad = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise NumericError(f"waveform sample {bad} is not finite ({samples[bad]})")


def log_mel_frames(w: Waveform, cfg: FrameConfig = FrameConfig()) -> np.ndarray:
    """Waveform straight to (n_frames, mel_filters) float32 features.

    Raises NumericError naming the first sample that is not finite: one NaN
    sample would otherwise turn every frame that covers it into NaN features.
    """
    _check_finite(w.samples)
    melbank = build_mel_filterbank(cfg)
    return log_mel(frame_signal(w, cfg), melbank, cfg.log_floor)


def stack_context(frames: np.ndarray, context: Context) -> np.ndarray:
    """Stack left/right context around every frame, replicating the edges.

    Returns (n_frames, context.size, n_features) float32; row j holds frames
    j-left .. j+right with out-of-range indices clamped to the first or last
    frame. Every input frame yields exactly one window.
    """
    frames = np.asarray(frames)
    if frames.ndim != 2:
        raise ShapeError(f"frames must be 2-D (n_frames, n_features), got {frames.shape}")
    n = frames.shape[0]
    if n == 0:
        raise InsufficientAudioError("cannot stack context around zero frames")
    offsets = np.arange(-context.left, context.right + 1)
    idx = np.clip(np.arange(n)[:, None] + offsets[None, :], 0, n - 1)
    return frames.astype(np.float32, copy=False)[idx]  # cast before the gather: one copy of the windows


def write_feature_dump(path: str | Path, windows: np.ndarray) -> None:
    """Write stacked windows as an ASCII header line `t f count` then raw
    little-endian float32 values in C order."""
    windows = np.asarray(windows, dtype=np.float32)
    if windows.ndim != 3:
        raise ShapeError(f"feature dump expects (count, t, f) windows, got {windows.shape}")
    count, t, f = windows.shape
    with open(path, "wb") as fh:
        fh.write(f"{t} {f} {count}\n".encode("ascii"))
        fh.write(np.ascontiguousarray(windows, dtype="<f4").tobytes())


def read_feature_dump(path: str | Path) -> np.ndarray:
    """Inverse of write_feature_dump; validates the header, payload length and finiteness."""
    with open(path, "rb") as fh:
        header = fh.readline()
        payload = fh.read()
    try:
        t, f, count = (int(part) for part in header.split())
    except ValueError as exc:
        raise KwsError(f"{path}: malformed feature dump header {header!r}") from exc
    if min(t, f, count) < 1:
        raise KwsError(f"{path}: feature dump header {header!r} needs positive t, f and count")
    expected = 4 * t * f * count
    if len(payload) != expected:
        raise KwsError(
            f"{path}: feature payload has {len(payload)} bytes, expected {expected}"
        )
    windows = np.frombuffer(payload, dtype="<f4").reshape(count, t, f).copy()
    bad = np.argwhere(~np.isfinite(windows))
    if len(bad):
        w, frame, feature = bad[0]
        raise NumericError(
            f"{path}: feature {feature} of frame {frame} in window {w} is not finite "
            f"({windows[w, frame, feature]})"
        )
    return windows
