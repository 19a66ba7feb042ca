"""Seeded synthetic audio for the benchmark, independent of kwslite's own generators.

Keywords are the two-tone chords of the kwslite synthetic corpus (keyword k
plays 500 + 400 (k - 1) Hz and 1500 + 500 (k - 1) Hz, gated 100 ms on / 100 ms
off); filler is Gaussian noise. The synthesis lives here, not in kwslite, so a
change to kwslite's data module cannot change the benchmark's inputs.
"""

from __future__ import annotations

import wave
from dataclasses import dataclass

import numpy as np

SAMPLE_RATE = 16000
HOP = 160
WINDOW = 400
KEYWORDS = 3
NOISE_LEVEL = 0.05
BURST_SECONDS = 1.0


@dataclass(frozen=True)
class Plant:
    """A keyword burst planted in a clip; frames are analysis-frame indices."""

    keyword: int  # 1-based, equals the model's label index
    first_frame: int
    last_frame: int


@dataclass(frozen=True)
class Clip:
    pcm: np.ndarray  # int16 samples
    plants: tuple[Plant, ...]

    @property
    def seconds(self) -> float:
        return len(self.pcm) / SAMPLE_RATE

    @property
    def samples(self) -> np.ndarray:
        """Float samples exactly as a 16-bit WAV reader decodes them."""
        return self.pcm.astype(np.float32) / 32768.0


def tone_pair(keyword: int) -> tuple[float, float]:
    return 500.0 + 400.0 * (keyword - 1), 1500.0 + 500.0 * (keyword - 1)


def _burst(rng: np.random.Generator, keyword: int, n: int) -> np.ndarray:
    t = np.arange(n) / SAMPLE_RATE
    gate = ((t // 0.1).astype(np.int64) % 2) == 0
    amp = 0.3 + 0.1 * rng.uniform()
    x = np.zeros(n)
    for freq in tone_pair(keyword):
        x += amp * np.sin(2.0 * np.pi * freq * t + rng.uniform(0.0, 2.0 * np.pi))
    return x * gate


def _frames_covering(start: int, end: int) -> tuple[int, int]:
    """Analysis frames (WINDOW samples every HOP) that overlap samples [start, end)."""
    first = max(0, (start - WINDOW) // HOP + 1)
    return first, (end - 1) // HOP


def make_clip(seed: int, index: int, seconds: float = 10.0) -> Clip:
    """`seconds` of noise with 1 s keyword bursts, each after 1-2 s of filler.

    The same (seed, index) always gives the same clip; every clip of a given
    length costs the program the same work.
    """
    rng = np.random.default_rng([seed, index])
    total = int(seconds * SAMPLE_RATE)
    n = int(BURST_SECONDS * SAMPLE_RATE)
    x = np.zeros(total)
    plants = []
    pos = int(rng.uniform(1.0, 2.0) * SAMPLE_RATE)
    while pos + n + SAMPLE_RATE <= total:
        keyword = int(rng.integers(1, KEYWORDS + 1))
        x[pos : pos + n] = _burst(rng, keyword, n)
        plants.append(Plant(keyword, *_frames_covering(pos, pos + n)))
        pos += n + int(rng.uniform(1.0, 2.0) * SAMPLE_RATE)
    x += NOISE_LEVEL * rng.standard_normal(total)
    pcm = np.clip(np.round(np.clip(x, -1.0, 1.0) * 32768.0), -32768, 32767).astype("<i2")
    return Clip(pcm, tuple(plants))


def write_wav(path, clip: Clip) -> None:
    with wave.open(str(path), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(SAMPLE_RATE)
        wf.writeframes(clip.pcm.tobytes())
