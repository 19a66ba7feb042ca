"""Loaded weights: read-only tensors whose float64 copies are made once and
kept for one model at a time, with outputs bit-identical to plain dicts."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

from kwslite import (
    ARCHITECTURES,
    ArchSpec,
    Context,
    Conv,
    Dense,
    Flatten,
    SoftmaxOut,
    forward,
    forward_frames,
    get_arch,
    init_weights,
    load_model,
    save_model,
)
from kwslite.arch import FrozenWeights
from kwslite.tensor import MacCounter

from conftest import random_arch, random_window

TINY = ArchSpec("tiny", Context(4, 3), (Conv(3, 5, 4), Flatten(), Dense(8), SoftmaxOut(3)))


def saved_and_loaded(tmp_path, arch, seed, name="model.kwsm"):
    """Plain init weights and the FrozenWeights read back from their model file."""
    weights = init_weights(arch, seed, init_scale=0.2)
    path = tmp_path / name
    save_model(path, arch, weights, [f"label{i}" for i in range(arch.labels)])
    return weights, load_model(path).weights


def assert_same_bits(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


def check_loaded_equals_plain(tmp_path, arch, seed, rng):
    plain, loaded = saved_and_loaded(tmp_path, arch, seed)
    assert isinstance(loaded, FrozenWeights)
    window = random_window(rng, arch)
    for conv_path in ("optimized", "naive"):
        outputs, counts = [], []
        for weights in (loaded, plain, loaded):  # the second loaded call reuses the copies
            counter = MacCounter()
            outputs.append(forward(arch, weights, window, conv_path=conv_path, counter=counter))
            counts.append(counter.count)
        assert_same_bits(outputs[0], outputs[1])
        assert_same_bits(outputs[2], outputs[1])
        assert counts[0] == counts[1] == counts[2]
    frames = rng.standard_normal((70, arch.input_f)).astype(np.float32)
    streamed = {}
    for key, weights in (("loaded", loaded), ("plain", plain)):
        counter = MacCounter()
        streamed[key] = (forward_frames(arch, weights, frames, counter=counter), counter.count)
    assert_same_bits(streamed["loaded"][0], streamed["plain"][0])
    assert streamed["loaded"][1] == streamed["plain"][1]


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_loaded_stock_model_computes_bit_for_bit_as_plain_dict(tmp_path, rng, name):
    check_loaded_equals_plain(tmp_path, get_arch(name, 4), 3, rng)


def test_loaded_random_stacks_compute_bit_for_bit_as_plain_dicts(tmp_path, rng):
    for seed in range(8):
        check_loaded_equals_plain(tmp_path, random_arch(rng), seed, rng)


def test_interleaved_models_of_one_arch_keep_their_own_outputs(tmp_path, rng):
    arch = get_arch("cnn-one", 4)
    plain_a, loaded_a = saved_and_loaded(tmp_path, arch, 1, "a.kwsm")
    plain_b, loaded_b = saved_and_loaded(tmp_path, arch, 2, "b.kwsm")
    windows = [random_window(rng, arch) for _ in range(3)]
    frames = rng.standard_normal((40, 40)).astype(np.float32)
    want_a = [forward(arch, plain_a, w) for w in windows] + [forward_frames(arch, plain_a, frames)]
    want_b = [forward(arch, plain_b, w) for w in windows] + [forward_frames(arch, plain_b, frames)]
    assert not np.array_equal(want_a[0], want_b[0])
    for i, w in enumerate(windows):
        assert_same_bits(forward(arch, loaded_a, w), want_a[i])
        assert_same_bits(forward(arch, loaded_b, w), want_b[i])
    assert_same_bits(forward_frames(arch, loaded_a, frames), want_a[-1])
    assert_same_bits(forward_frames(arch, loaded_b, frames), want_b[-1])


def test_float64_copies_are_kept_for_one_model_and_freed_with_it(tmp_path, rng):
    _, a = saved_and_loaded(tmp_path, TINY, 1, "a.kwsm")
    _, b = saved_and_loaded(tmp_path, TINY, 2, "b.kwsm")
    window = random_window(rng, TINY)
    forward(TINY, a, window)
    copy_a = weakref.ref(a.prepared().copies["dense1.weights"])
    assert a.prepared().copies["dense1.weights"] is copy_a()  # kept between calls
    forward(TINY, b, window)
    gc.collect()
    assert copy_a() is None  # b's copies replaced a's
    copy_b = weakref.ref(b.prepared().copies["dense1.weights"])
    del b
    gc.collect()
    assert copy_b() is None  # freed with their weights


def test_loaded_tensors_cannot_be_changed(tmp_path):
    _, weights = saved_and_loaded(tmp_path, TINY, 1)
    tensor = weights["dense1.weights"]
    with pytest.raises(ValueError):
        tensor[0, 0] = 1.0
    with pytest.raises(ValueError):
        tensor.flags.writeable = True
    with pytest.raises(TypeError):
        weights["dense1.weights"] = np.zeros_like(tensor)
    with pytest.raises(TypeError):
        FrozenWeights(bytearray(8), [("w", (2,))])
    mutable = {key: value.copy() for key, value in weights.items()}
    mutable["dense1.weights"][0, 0] = 1.0
    assert mutable["dense1.weights"][0, 0] == 1.0


def test_loaded_dnn_forward_makes_no_weight_sized_temporary(tmp_path, rng):
    arch = get_arch("dnn", 4)
    _, weights = saved_and_loaded(tmp_path, arch, 1)
    window = random_window(rng, arch)
    forward(arch, weights, window)  # warm-up: the float64 copies are made here
    dense1_float64 = 8 * weights["dense1.weights"].size  # 1.47 MB
    tracemalloc.start()
    try:
        forward(arch, weights, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense1_float64, f"forward peaked at {peak} bytes"


def test_threads_sharing_loaded_models_get_their_own_outputs(tmp_path, rng):
    models = [saved_and_loaded(tmp_path, TINY, seed, f"m{seed}.kwsm") for seed in range(3)]
    window = random_window(rng, TINY)
    want = [forward(TINY, plain, window) for plain, _ in models]
    errors = []

    def worker(offset):
        try:
            for i in range(150):
                k = (i + offset) % len(models)
                if forward(TINY, models[k][1], window).tobytes() != want[k].tobytes():
                    errors.append(f"model {k} gave another model's output")
        except Exception as exc:  # reported below: a thread's exception would be lost
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(t,)) for t in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    assert sum(loaded._prepared is not None for _, loaded in models) <= 1
