"""Synthetic keyword datasets and directory loading.

The synthetic corpus is deliberately easy: each keyword class is a distinct
two-tone chord gated by a 100 ms on/off envelope over one second, the filler
class is noise alone, and every waveform gets seeded Gaussian noise on top.
Distinct tone pairs give each class a distinct dominant mel-filter signature,
which is what makes desk-scale training converge in seconds.

Directory datasets follow <root>/<class_name>/<example>.wav with the filler
class named "_filler"; class indices follow sorted class names, which puts
the filler first.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import ClassVar

import numpy as np

from .audio import SAMPLE_RATE, Waveform, check_finite, read_wav
from .errors import KwsError, check_counts
from .frontend import Context, FrameConfig, frame_count, log_mel_frames
from .train import LabeledExample

FILLER_NAME = "_filler"

__all__ = [
    "FILLER_NAME",
    "SyntheticSpec",
    "WaveformDataset",
    "keyword_tone_pair",
    "make_synthetic_dataset",
    "load_dataset_dir",
    "center_window_examples",
]


@dataclass(frozen=True)
class SyntheticSpec:
    """A seeded synthetic corpus whose clips all last `duration`, a one-second class constant."""

    keywords: int = 3
    examples_per_class: int = 20
    noise_level: float = 0.05
    seed: int = 0
    duration: ClassVar[float] = 1.0

    def __post_init__(self):
        check_counts(self, 1, keywords=self.keywords, examples_per_class=self.examples_per_class)
        if not (0.0 <= self.noise_level < 1.0):
            raise ValueError(f"noise level must be in [0, 1), got {self.noise_level}")


@dataclass
class WaveformDataset:
    """Waveforms plus integer labels; label i names labels[i]."""

    labels: list[str]
    train: list[tuple[np.ndarray, int]] = field(default_factory=list)
    test: list[tuple[np.ndarray, int]] = field(default_factory=list)

    @property
    def filler_index(self) -> int:
        return self.labels.index(FILLER_NAME)


def keyword_tone_pair(keyword_index: int) -> tuple[float, float]:
    """Distinct (low, high) tone frequencies for 1-based keyword index."""
    if keyword_index < 1:
        raise ValueError(f"keyword index is 1-based, got {keyword_index}")
    low = 500.0 + 400.0 * (keyword_index - 1)
    high = 1500.0 + 500.0 * (keyword_index - 1)
    if high >= SAMPLE_RATE / 2:
        raise ValueError(f"keyword {keyword_index} tones exceed Nyquist")
    return low, high


def _tone_burst(
    rng: np.random.Generator, tones: tuple[float, float], n: int, noise_level: float
) -> np.ndarray:
    t = np.arange(n, dtype=np.float64) / SAMPLE_RATE
    # 100 ms on / 100 ms off gating, like a keyword being repeated
    gate = ((t // 0.1).astype(np.int64) % 2) == 0
    amp = 0.3 + 0.1 * rng.uniform()
    x = np.zeros(n, dtype=np.float64)
    for freq in tones:
        phase = rng.uniform(0.0, 2.0 * np.pi)
        x += amp * np.sin(2.0 * np.pi * freq * t + phase)
    x *= gate
    x += noise_level * rng.standard_normal(n)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def _noise_only(rng: np.random.Generator, n: int, noise_level: float) -> np.ndarray:
    x = noise_level * rng.standard_normal(n)
    return np.clip(x, -1.0, 1.0).astype(np.float32)


def make_synthetic_dataset(spec: SyntheticSpec = SyntheticSpec()) -> WaveformDataset:
    """Seeded two-tone corpus with a held-out split.

    Per class: examples_per_class training waveforms, then
    max(2, examples_per_class // 4) test waveforms drawn from the same
    stream. Classes are "_filler", "kw1", ..., sorted order (filler first).
    """
    names = [FILLER_NAME] + [f"kw{i}" for i in range(1, spec.keywords + 1)]
    if names != sorted(names):
        raise KwsError("class names must sort with the filler first")
    n = int(round(spec.duration * SAMPLE_RATE))
    n_test = max(2, spec.examples_per_class // 4)
    rng = np.random.default_rng(spec.seed)
    dataset = WaveformDataset(labels=names)
    for label, name in enumerate(names):
        pair = None if name == FILLER_NAME else keyword_tone_pair(label)
        for split, count in ((dataset.train, spec.examples_per_class), (dataset.test, n_test)):
            for _ in range(count):
                if pair is None:
                    split.append((_noise_only(rng, n, spec.noise_level), label))
                else:
                    split.append((_tone_burst(rng, pair, n, spec.noise_level), label))
    return dataset


def load_dataset_dir(root: str | Path) -> WaveformDataset:
    """Read <root>/<class>/<example>.wav into a dataset (all in the train split).

    Class order is sorted directory names; file order within a class is
    sorted, so loading is deterministic.
    """
    root = Path(root)
    if not root.is_dir():
        raise KwsError(f"{root}: not a dataset directory")
    class_dirs = sorted(p for p in root.iterdir() if p.is_dir())
    if not class_dirs:
        raise KwsError(f"{root}: no class subdirectories")
    names = [p.name for p in class_dirs]
    if FILLER_NAME not in names:
        raise KwsError(f"{root}: missing a {FILLER_NAME!r} class directory")
    dataset = WaveformDataset(labels=names)
    for label, class_dir in enumerate(class_dirs):
        wavs = sorted(class_dir.glob("*.wav"))
        if not wavs:
            raise KwsError(f"{class_dir}: class directory has no .wav files")
        for path in wavs:
            dataset.train.append((read_wav(path).samples, label))
    return dataset


def center_window_examples(pairs: list[tuple[np.ndarray, int]], context: Context) -> list[LabeledExample]:
    """One training example per waveform: the context window at the centre frame.

    Each window is row n // 2 of `stack_context(log_mel_frames(w), context)`
    for a clip of n frames, bit for bit, but only the frames it reads are
    computed: frames max(0, c - left) .. min(n - 1, c + right) around the
    centre c, gathered with stack_context's edge clamping. A frame does not
    depend on its neighbours (frame_signal rebuilds each frame's first column
    from the raw sample; log_mel projects each row on its own), so framing
    that slice gives the whole clip's frames. Each example owns its
    (context.size, mel_filters) float32 window; the only clip-sized
    temporary is the finiteness check's one-byte-per-sample mask.

    A non-finite sample anywhere in a clip raises NumericError, and a clip
    shorter than one analysis window raises InsufficientAudioError.
    """
    offsets = np.arange(-context.left, context.right + 1)
    hop, width = FrameConfig.hop, FrameConfig.window_length
    examples = []
    for samples, label in pairs:
        x = Waveform(samples).samples
        check_finite(x)
        n = frame_count(len(x))
        rows = np.clip(n // 2 + offsets, 0, max(n - 1, 0))
        first, last = int(rows[0]), int(rows[-1])
        # with n == 0 the slice is the whole clip, which framing refuses
        frames = log_mel_frames(Waveform(x[first * hop : last * hop + width]))
        examples.append(LabeledExample(frames[rows - first], label))
    return examples
