"""Acceptance checks: the externally promised behaviors with pinned tolerances.

Each test covers one numbered acceptance criterion, enforces its tolerance
and time budget, and prints one ``[criterion NN] PASS``/``FAIL`` line
(visible under ``pytest -s``). These tests intentionally repeat a few
fine-grained checks from the unit modules: this file is the contract, the
unit modules are the diagnostics.
"""

import functools
import hashlib
import json
import time

import numpy as np
import pytest

from kwslite import (
    ARCHITECTURES,
    Context,
    DetectorConfig,
    LabeledExample,
    SyntheticSpec,
    TrainConfig,
    Waveform,
    compare,
    conv2d_optimized,
    conv2d_valid,
    detect,
    evaluate,
    fit_to_budget,
    forward,
    get_arch,
    grad_check,
    init_weights,
    instrumented_forward,
    load_model,
    log_mel_frames,
    make_synthetic_dataset,
    mel_filter_centers,
    posteriors_from_waveform,
    report,
    save_model,
    stack_context,
    train,
)
from kwslite.arch import Conv
from kwslite.cli import main
from kwslite.data import center_window_examples
from kwslite.errors import (
    BadMagicError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from kwslite.tensor import FilterBank, Stride, conv2d_error_bound
from tests.conftest import random_arch, random_window

LABELS4 = ["_filler", "kw1", "kw2", "kw3"]


def criterion(num, budget_seconds):
    """Wrap a test so it prints one PASS/FAIL line and enforces a time cap."""

    def wrap(fn):
        @functools.wraps(fn)
        def run(*args, **kwargs):
            start = time.perf_counter()
            try:
                fn(*args, **kwargs)
                elapsed = time.perf_counter() - start
                assert elapsed < budget_seconds, (
                    f"criterion {num} took {elapsed:.1f}s, budget {budget_seconds}s"
                )
            except BaseException:
                print(f"[criterion {num:02d}] FAIL")
                raise
            print(f"[criterion {num:02d}] PASS ({elapsed:.2f}s)")

        return run

    return wrap


@criterion(1, budget_seconds=1.0)
def test_multiply_reduction_factor(capsys):
    result = compare(get_arch("cnn-trad", 4), get_arch("cnn-one", 4))
    assert 8.0 <= result.multiply_ratio <= 15.0
    assert round(result.multiply_ratio, 2) == 12.02

    code = main(["budget", "--arch", "cnn-trad", "--labels", "4",
                 "--compare", "cnn-one", "--format", "structured"])
    out = capsys.readouterr().out
    assert code == 0
    doc = json.loads(out)
    assert 8.0 <= doc["compare"]["multiply_ratio"] <= 15.0


@criterion(2, budget_seconds=1.0)
def test_parameter_cap_fit():
    cap = 250_000
    for name in ("cnn-tstride2", "cnn-tpool2"):
        best = fit_to_budget(lambda n, name=name: get_arch(name, 4, n), cap)
        maps = next(l.maps for l in best.layers if isinstance(l, Conv))
        assert maps == 63
        assert report(best).total.params == 246_093
        assert report(best).total.params <= cap
        assert report(get_arch(name, 4, maps + 1)).total.params > cap


@criterion(3, budget_seconds=30.0)
def test_analytic_counts_match_instrumented_macs():
    rng = np.random.default_rng(77)
    archs = [get_arch(name, 4) for name in ARCHITECTURES]
    archs += [random_arch(rng) for _ in range(100)]
    for arch in archs:
        weights = init_weights(arch, 3)
        window = random_window(rng, arch)
        _, counted = instrumented_forward(arch, weights, window)
        assert counted == report(arch).total.multiplies


@criterion(4, budget_seconds=5.0)
def test_frontend_contract():
    one_second = np.zeros(16_000, dtype=np.float32)
    silence = log_mel_frames(Waveform(one_second))
    assert silence.shape == (98, 40)
    assert np.all(np.abs(silence - np.log(1e-10)) <= 1e-6)

    t = np.arange(16_000) / 16_000.0
    tone = (0.5 * np.sin(2 * np.pi * 1000.0 * t)).astype(np.float32)
    frames = log_mel_frames(Waveform(tone))
    assert frames.shape == (98, 40)
    centers = mel_filter_centers()
    nearest = int(np.argmin(np.abs(centers - 1000.0)))
    assert int(np.argmax(frames.mean(axis=0))) == nearest


@criterion(5, budget_seconds=120.0)
def test_gradient_correctness():
    rng = np.random.default_rng(5)
    for name in ("dnn", "cnn-trad", "cnn-one"):
        arch = get_arch(name, 4)
        for seed in (0, 1, 2):
            example = LabeledExample(random_window(rng, arch, scale=0.5), seed % 4)
            samples = 25 if name == "cnn-trad" else 40
            worst = grad_check(arch, example, samples_per_tensor=samples, seed=seed)
            assert worst < 1e-4, f"{name} seed {seed}: max rel err {worst:.3e}"


def run_end_to_end(model_path):
    """Synthetic 3-keyword pipeline shared by criteria 6 and 7."""
    start = time.perf_counter()
    dataset = make_synthetic_dataset(SyntheticSpec(keywords=3, seed=1))
    arch = get_arch("cnn-one", len(dataset.labels))
    train_set = center_window_examples(dataset.train, arch.context)
    test_set = center_window_examples(dataset.test, arch.context)
    result = train(arch, train_set, TrainConfig(seed=1))
    _, train_acc = evaluate(arch, result.weights, train_set)
    _, test_acc = evaluate(arch, result.weights, test_set)
    save_model(model_path, arch, result.weights, dataset.labels)

    cfg = DetectorConfig(threshold=0.7)
    kw_samples, kw_label = next(p for p in dataset.test if p[1] != dataset.filler_index)
    noise_samples, _ = next(p for p in dataset.test if p[1] == dataset.filler_index)
    kw_probs = posteriors_from_waveform(arch, result.weights, Waveform(kw_samples))
    noise_probs = posteriors_from_waveform(arch, result.weights, Waveform(noise_samples))
    kw_events = detect(kw_probs, cfg, dataset.filler_index)
    noise_events = detect(noise_probs, cfg, dataset.filler_index)
    return {
        "train_acc": train_acc,
        "test_acc": test_acc,
        "kw_label": kw_label,
        "kw_events": [(e.frame_index, e.keyword, e.confidence) for e in kw_events],
        "noise_events": [(e.frame_index, e.keyword, e.confidence) for e in noise_events],
        "model_sha256": hashlib.sha256(model_path.read_bytes()).hexdigest(),
        "elapsed": time.perf_counter() - start,
        "model_path": model_path,
        "clips": [kw_samples, noise_samples],
    }


@pytest.fixture(scope="module")
def first_run(tmp_path_factory):
    path = tmp_path_factory.mktemp("e2e") / "run_a.kwsm"
    return run_end_to_end(path)


@criterion(6, budget_seconds=300.0)
def test_end_to_end_training_and_detection(first_run):
    assert first_run["elapsed"] < 300.0  # the pipeline itself, run in the fixture
    assert first_run["train_acc"] >= 0.90
    assert first_run["test_acc"] >= 0.80
    assert len(first_run["kw_events"]) >= 1
    for _, keyword, _ in first_run["kw_events"]:
        assert keyword == first_run["kw_label"]
    assert first_run["noise_events"] == []


def test_detect_events_match_per_window_loop(first_run):
    # the shared-stream forward against the per-window loop it replaced
    model = load_model(first_run["model_path"])
    cfg = DetectorConfig(threshold=0.7)
    filler = model.labels.index("_filler")
    found = []
    for samples in first_run["clips"]:
        wave = Waveform(samples)
        windows = stack_context(log_mel_frames(wave), model.arch.context)
        looped = np.stack([forward(model.arch, model.weights, w) for w in windows])
        streamed = posteriors_from_waveform(model.arch, model.weights, wave)
        np.testing.assert_allclose(streamed, looped, rtol=1e-5, atol=1e-12)
        events = detect(streamed, cfg, filler)
        assert events == detect(looped, cfg, filler)
        found.append([(e.frame_index, e.keyword, e.confidence) for e in events])
    assert found == [first_run["kw_events"], first_run["noise_events"]]


def test_streamed_posteriors_keep_the_benchmark_naive_gate(first_run):
    # the repository benchmark holds sampled posterior rows to the naive path
    # at rtol 1e-5, atol 1e-12; every row of a trained model is held to it
    # here, so a shrinking margin fails a test before the benchmark refuses a run
    model = load_model(first_run["model_path"])
    for samples in first_run["clips"]:
        wave = Waveform(samples)
        windows = stack_context(log_mel_frames(wave), model.arch.context)
        naive = np.stack([forward(model.arch, model.weights, w, conv_path="naive") for w in windows])
        streamed = posteriors_from_waveform(model.arch, model.weights, wave)
        np.testing.assert_allclose(streamed, naive, rtol=1e-5, atol=1e-12)


@criterion(7, budget_seconds=300.0)
def test_end_to_end_is_deterministic(first_run, tmp_path):
    second = run_end_to_end(tmp_path / "run_b.kwsm")
    assert second["model_sha256"] == first_run["model_sha256"]
    assert second["kw_events"] == first_run["kw_events"]
    assert second["noise_events"] == first_run["noise_events"]


@criterion(8, budget_seconds=5.0)
def test_serialization_roundtrip_and_corruption(tmp_path):
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        path = tmp_path / f"{name}.kwsm"
        save_model(path, arch, init_weights(arch, 11), LABELS4)
        first = path.read_bytes()
        loaded = load_model(path)
        save_model(path, loaded.arch, loaded.weights, loaded.labels)
        assert path.read_bytes() == first

    good = (tmp_path / "cnn-one.kwsm").read_bytes()
    cases = {
        BadMagicError: b"XXXX" + good[4:],
        UnsupportedVersionError: good[:4] + b"\x63\x00\x00\x00" + good[8:],
        TruncatedPayloadError: good[:-8],
    }
    for error, payload in cases.items():
        bad = tmp_path / "bad.kwsm"
        bad.write_bytes(payload)
        with pytest.raises(error):
            load_model(bad)


@criterion(9, budget_seconds=60.0)
def test_optimized_conv_agrees_with_naive(tmp_path, capsys):
    rng = np.random.default_rng(99)
    for _ in range(1000):
        in_t = int(rng.integers(1, 13))
        in_f = int(rng.integers(1, 13))
        channels = int(rng.integers(1, 4))
        kt = int(rng.integers(1, in_t + 1))
        kf = int(rng.integers(1, in_f + 1))
        maps = int(rng.integers(1, 7))
        stride = Stride(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = rng.standard_normal((in_t, in_f, channels)).astype(np.float32)
        bank = FilterBank(
            rng.standard_normal((kt, kf, channels, maps)).astype(np.float32),
            rng.standard_normal(maps).astype(np.float32),
        )
        # the tolerance on float64 copies of the operands; the float32 conv
        # within its float32 error bound of the exact sums
        x64 = x.astype(np.float64)
        bank64 = FilterBank(bank.weights.astype(np.float64), bank.bias.astype(np.float64))
        naive = conv2d_valid(x64, bank64, stride)
        assert np.allclose(conv2d_optimized(x64, bank64, stride), naive, rtol=1e-5, atol=1e-8)
        fast = conv2d_optimized(x, bank, stride)
        assert np.all(np.abs(fast - naive) <= conv2d_error_bound(x, bank, stride))

    arch = get_arch("cnn-one", 4)
    model = tmp_path / "bench.kwsm"
    save_model(model, arch, init_weights(arch, 0), LABELS4)
    code = main(["bench", "--model", str(model), "--iters", "3"])
    out = capsys.readouterr().out
    assert code == 0
    assert "agreement check OK" in out
    assert "naive" in out and "optimized" in out
