"""Regenerate the benchmark's fixed trained models (kwsbench/models/).

The committed fixtures are the scan and stream workloads' inputs; they are
not retrained per run, so a change to kwslite's training numerics cannot
change what those workloads scan. This script documents how they were made:
every architecture is trained with kwslite.train on the kwslite synthetic
corpus (3 keywords plus filler, seed 1) from three context windows per
waveform (at 1/4, 1/2 and 3/4 of it), which teaches the models to fire
anywhere inside a keyword burst, not only at its centre.

Run from the repository root (a few minutes), with the benchmark's single
BLAS thread, since the thread count can change the order of floating-point
sums and so the trained weights:

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python3 kwsbench/make_models.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import numpy as np

from kwslite import (
    ARCHITECTURES,
    LabeledExample,
    SyntheticSpec,
    TrainConfig,
    Waveform,
    get_arch,
    log_mel_frames,
    make_synthetic_dataset,
    stack_context,
    train,
    weight_manifest,
)

MODELS_DIR = Path(__file__).resolve().parent / "models"
SEED = 1
EPOCHS = 40


def training_windows(dataset, context) -> list[LabeledExample]:
    examples = []
    for samples, label in dataset.train:
        windows = stack_context(log_mel_frames(Waveform(samples)), context)
        n = len(windows)
        examples += [LabeledExample(windows[j], label) for j in (n // 4, n // 2, 3 * n // 4)]
    return examples


def main() -> None:
    MODELS_DIR.mkdir(exist_ok=True)
    dataset = make_synthetic_dataset(SyntheticSpec(keywords=3, seed=SEED))
    manifest = {}
    for name in ARCHITECTURES:
        arch = get_arch(name, len(dataset.labels))
        result = train(arch, training_windows(dataset, arch.context), TrainConfig(epochs=EPOCHS, seed=SEED))
        tensors = weight_manifest(arch)
        flat = np.concatenate([result.weights[t].astype("<f4").ravel() for t, _ in tensors])
        path = MODELS_DIR / f"{name}.npy"
        np.save(path, flat, allow_pickle=False)
        manifest[name] = {
            "file": path.name,
            "sha256": hashlib.sha256(path.read_bytes()).hexdigest(),
            "labels": dataset.labels,
            "tensors": [[t, list(shape)] for t, shape in tensors],
            "final_loss": result.history[-1].loss,
        }
        print(f"{name}: loss {result.history[-1].loss:.6f}, {flat.size} weights")
    recipe = {"seed": SEED, "epochs": EPOCHS, "keywords": 3, "windows_per_waveform": 3}
    (MODELS_DIR / "models.json").write_text(
        json.dumps({"recipe": recipe, "models": manifest}, indent=1, sort_keys=True) + "\n"
    )


if __name__ == "__main__":
    main()
