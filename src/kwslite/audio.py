"""WAV input/output for 16 kHz mono 16-bit PCM signals.

Anything else (stereo, other widths or rates, compressed or float WAV) is
rejected with AudioFormatError rather than silently resampled.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import AudioFormatError, NumericError

SAMPLE_RATE = 16000

__all__ = ["SAMPLE_RATE", "Waveform", "check_finite", "read_wav", "write_wav"]


@dataclass(frozen=True)
class Waveform:
    """Mono signal at SAMPLE_RATE, float32 samples in [-1, 1]."""

    samples: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.samples, dtype=np.float32)
        if s.ndim != 1:
            raise AudioFormatError(f"waveform must be 1-D, got shape {s.shape}")
        object.__setattr__(self, "samples", s)

    @property
    def duration(self) -> float:
        return len(self.samples) / SAMPLE_RATE


def check_finite(samples: np.ndarray) -> None:
    """Raise NumericError naming the first sample that is not finite."""
    if not np.isfinite(samples).all():
        bad = int(np.flatnonzero(~np.isfinite(samples))[0])
        raise NumericError(f"waveform sample {bad} is not finite ({samples[bad]})")


def read_wav(path: str | Path) -> Waveform:
    """Read a RIFF/WAVE file, enforcing mono 16-bit PCM at 16 kHz."""
    try:
        with wave.open(str(path), "rb") as wf:
            channels = wf.getnchannels()
            width = wf.getsampwidth()
            rate = wf.getframerate()
            comptype = wf.getcomptype()
            raw = wf.readframes(wf.getnframes())
    except (wave.Error, EOFError) as exc:
        raise AudioFormatError(f"{path}: not a readable RIFF/WAVE file ({exc})") from exc
    except RuntimeError as exc:
        # wave raises a bare RuntimeError when a chunk size points past the
        # chunk that holds it, e.g. a fmt chunk claiming 4 GB
        raise AudioFormatError(f"{path}: a chunk size runs past its enclosing chunk") from exc
    if comptype != "NONE":
        raise AudioFormatError(f"{path}: compressed WAV ({comptype}) is unsupported")
    if channels != 1:
        raise AudioFormatError(f"{path}: expected mono audio, got {channels} channels")
    if width != 2:
        raise AudioFormatError(f"{path}: expected 16-bit PCM, got {8 * width}-bit")
    if rate != SAMPLE_RATE:
        raise AudioFormatError(f"{path}: expected {SAMPLE_RATE} Hz, got {rate} Hz")
    if len(raw) % width:
        raise AudioFormatError(f"{path}: the data chunk ends mid-sample ({len(raw)} bytes)")
    samples = np.frombuffer(raw, dtype="<i2").astype(np.float32)
    samples /= 32768.0  # in place: no second clip-sized float32 array
    return Waveform(samples)


def write_wav(path: str | Path, samples: np.ndarray) -> None:
    """Write float samples in [-1, 1] as mono 16-bit PCM at SAMPLE_RATE.
    Samples that are not one 1-D signal raise AudioFormatError, as Waveform
    does, and a sample that is not finite NumericError; either way nothing
    is written."""
    x = np.asarray(samples, dtype=np.float64)
    if x.ndim != 1:
        raise AudioFormatError(f"samples must be 1-D mono, got shape {x.shape}")
    check_finite(x)
    x = np.clip(x, -1.0, 1.0)
    ints = np.clip(np.round(x * 32768.0), -32768, 32767).astype("<i2")
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(ints.tobytes())
