"""Architecture builders, shape traces, weight manifests, and inference."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

from kwslite import (
    ARCHITECTURES,
    ArchSpec,
    Context,
    Conv,
    Dense,
    Flatten,
    LowRank,
    SoftmaxOut,
    Stride,
    build_cnn_one,
    build_cnn_tpool,
    build_cnn_trad,
    build_cnn_tstride,
    build_dnn_baseline,
    forward,
    forward_frames,
    get_arch,
    init_weights,
    validate,
    weight_manifest,
)
from kwslite.arch import BLOCK_WINDOWS, arch_from_dict, arch_to_dict, layer_names
from kwslite.errors import InsufficientAudioError, ManifestMismatchError, ShapeError
from kwslite.frontend import stack_context
from kwslite.tensor import FilterBank, conv2d_optimized

from conftest import random_arch, random_window


def trace_shapes(arch):
    return [entry.shape for entry in validate(arch)]


def test_dnn_trace():
    assert trace_shapes(build_dnn_baseline(4)) == [
        (36, 40, 1), (1440,), (128,), (128,), (128,), (4,),
    ]


def test_cnn_trad_trace():
    assert trace_shapes(build_cnn_trad(4)) == [
        (32, 40, 1), (12, 32, 64), (12, 10, 64), (3, 7, 64), (1344,), (32,), (128,), (4,),
    ]


def test_cnn_one_trace():
    # single conv spans the whole window in time
    arch = build_cnn_one(4)
    assert trace_shapes(arch) == [
        (32, 40, 1), (1, 32, 64), (2048,), (32,), (128,), (128,), (4,),
    ]
    convs = [l for l in arch.layers if isinstance(l, Conv)]
    assert len(convs) == 1
    assert convs[0].kernel_t == arch.input_t


def test_tstride_and_tpool_traces():
    assert trace_shapes(build_cnn_tstride(4))[:4] == [
        (48, 40, 1), (14, 32, 64), (14, 10, 64), (5, 7, 64),
    ]
    assert trace_shapes(build_cnn_tpool(4))[:4] == [
        (48, 40, 1), (28, 32, 64), (14, 10, 64), (5, 7, 64),
    ]


def test_builder_argument_validation():
    with pytest.raises(ValueError):
        build_dnn_baseline(1)
    with pytest.raises(ValueError):
        build_cnn_tstride(4, stride=1)
    with pytest.raises(ValueError):
        build_cnn_tpool(4, pool=1)


def test_registry_names_and_lookup():
    assert ARCHITECTURES == ("dnn", "cnn-trad", "cnn-one", "cnn-tstride2", "cnn-tpool2")
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        assert arch.name == name
        assert arch.labels == 4
    with pytest.raises(ValueError):
        get_arch("cnn-frankenstein", 4)
    with pytest.raises(ValueError):
        get_arch("dnn", 4, maps=32)  # fixed stack takes no map override


def test_validate_rejects_oversized_kernel():
    arch = ArchSpec("bad", Context(2, 2), (Conv(9, 3, 4), Flatten(), SoftmaxOut(3)))
    with pytest.raises(ShapeError) as info:
        validate(arch)
    assert info.value.layer == "conv1"
    assert info.value.axis == "time"


def test_validate_rejects_misplaced_softmax():
    with pytest.raises(ShapeError):
        validate(ArchSpec("bad", Context(1, 1), (SoftmaxOut(3), Flatten())))
    with pytest.raises(ShapeError):
        validate(ArchSpec("bad", Context(1, 1), (Flatten(),)))


def test_validate_requires_flatten_before_dense():
    arch = ArchSpec("bad", Context(2, 2), (Conv(2, 2, 4), Dense(8), SoftmaxOut(3)))
    with pytest.raises(ShapeError) as info:
        validate(arch)
    assert "flatten" in str(info.value)


def test_layer_names_are_kind_scoped():
    assert layer_names(build_cnn_trad(4)) == [
        "conv1", "conv2", "flatten1", "lowrank1", "dense1", "softmax",
    ]


def test_manifest_matches_trace(rng):
    # every weight tensor's input side must equal the incoming activation size
    for name in ARCHITECTURES:
        arch = get_arch(name, 5)
        manifest = dict(weight_manifest(arch))
        weights = init_weights(arch, 0)
        assert set(weights) == set(manifest)
        for key, shape in manifest.items():
            assert weights[key].shape == shape
            assert weights[key].dtype == np.float32


def test_init_weights_deterministic_and_bounded():
    arch = build_cnn_one(4)
    a = init_weights(arch, 42)
    b = init_weights(arch, 42)
    c = init_weights(arch, 43)
    for key in a:
        npt.assert_array_equal(a[key], b[key])
        assert np.all(np.abs(a[key]) <= 0.05)
    assert any(not np.array_equal(a[k], c[k]) for k in a)


def test_forward_uniform_with_zero_weights(rng):
    arch = build_cnn_one(4)
    zeros = {k: np.zeros(s, dtype=np.float32) for k, s in weight_manifest(arch)}
    probs = forward(arch, zeros, random_window(rng, arch))
    npt.assert_allclose(probs, 0.25, atol=1e-7)


def test_forward_normalized_and_deterministic(rng):
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        weights = init_weights(arch, 9)
        window = random_window(rng, arch)
        a = forward(arch, weights, window)
        b = forward(arch, weights, window)
        assert abs(float(a.sum()) - 1.0) < 1e-6
        npt.assert_array_equal(a, b)


def test_forward_conv_paths_agree(rng):
    arch = build_cnn_trad(4)
    weights = init_weights(arch, 3)
    window = random_window(rng, arch)
    a = forward(arch, weights, window, conv_path="naive")
    b = forward(arch, weights, window, conv_path="optimized")
    npt.assert_allclose(a, b, rtol=1e-5, atol=0)


def test_forward_rejects_wrong_window(rng):
    arch = build_dnn_baseline(4)
    weights = init_weights(arch, 0)
    with pytest.raises(ShapeError):
        forward(arch, weights, np.zeros((32, 40), dtype=np.float32))


def test_forward_reports_missing_and_misshaped_tensors(rng):
    arch = build_cnn_one(4)
    weights = init_weights(arch, 0)
    del weights["dense1.bias"]
    weights["lowrank1.weights"] = np.zeros((3, 3), dtype=np.float32)
    with pytest.raises(ManifestMismatchError) as info:
        forward(arch, weights, random_window(rng, arch))
    message = str(info.value)
    assert "dense1.bias" in message and "lowrank1.weights" in message


def test_arch_dict_roundtrip(rng):
    for name in ARCHITECTURES:
        arch = get_arch(name, 6)
        assert arch_from_dict(arch_to_dict(arch)) == arch
    for _ in range(20):
        arch = random_arch(rng)
        assert arch_from_dict(arch_to_dict(arch)) == arch


def test_random_archs_validate_and_run(rng):
    for _ in range(15):
        arch = random_arch(rng)
        weights = init_weights(arch, 1)
        probs = forward(arch, weights, random_window(rng, arch))
        assert probs.shape == (arch.labels,)
        assert abs(float(probs.sum()) - 1.0) < 1e-6


def per_window(arch, weights, frames, conv_path="optimized"):
    """The oracle for forward_frames: stack every window, classify it alone."""
    windows = stack_context(frames, arch.context)
    return np.stack([forward(arch, weights, w, conv_path=conv_path) for w in windows])


def assert_frames_match(arch, weights, frames, conv_path="optimized"):
    got = forward_frames(arch, weights, frames, conv_path=conv_path)
    assert got.shape == (len(frames), arch.labels)
    assert got.dtype == np.float32
    npt.assert_allclose(got, per_window(arch, weights, frames, conv_path), rtol=1e-5, atol=1e-12)


# lengths around the context size and the block size: one frame, fewer frames
# than one window spans, a partial block, exactly one block, several blocks
EDGE_LENGTHS = (1, 5, BLOCK_WINDOWS - 1, BLOCK_WINDOWS, 2 * BLOCK_WINDOWS + 3)


def test_forward_frames_matches_per_window_on_stock_archs(rng):
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        weights = init_weights(arch, 5, init_scale=0.2)
        for n in EDGE_LENGTHS:
            assert_frames_match(arch, weights, rng.standard_normal((n, 40)).astype(np.float32))
        # the naive oracle costs up to half a second per stock window
        assert_frames_match(arch, weights, rng.standard_normal((2, 40)).astype(np.float32), "naive")


def test_forward_frames_matches_per_window_on_random_archs(rng):
    for trial in range(40):
        arch = random_arch(rng, max_convs=3)
        weights = init_weights(arch, trial, init_scale=0.5)
        n = EDGE_LENGTHS[trial % len(EDGE_LENGTHS)]
        frames = rng.standard_normal((n, 40)).astype(np.float32)
        assert_frames_match(arch, weights, frames)
        assert_frames_match(arch, weights, frames[:7], "naive")


def test_forward_frames_casts_like_stack_context(rng):
    arch = build_cnn_one(4)
    weights = init_weights(arch, 0)
    frames = rng.standard_normal((20, 40))
    got = forward_frames(arch, weights, frames)
    assert got.dtype == np.float32
    npt.assert_array_equal(got, forward_frames(arch, weights, frames.astype(np.float32)))


def test_forward_frames_rejects_bad_streams():
    arch = build_dnn_baseline(4)
    weights = init_weights(arch, 0)
    with pytest.raises(ShapeError):
        forward_frames(arch, weights, np.zeros((10, 39), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward_frames(arch, weights, np.zeros(40, dtype=np.float32))
    with pytest.raises(InsufficientAudioError):
        forward_frames(arch, weights, np.zeros((0, 40), dtype=np.float32))
    with pytest.raises(ValueError):
        forward_frames(arch, weights, np.zeros((3, 40), dtype=np.float32), conv_path="fast")


def traced_peak(fn):
    tracemalloc.start()
    try:
        fn()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_forward_frames_memory_does_not_grow_with_clip_length(rng):
    # Each im2col call leaves a few small tuples on the interpreter's free
    # lists until those lists are full; fill them first so the peaks compare
    # forward_frames' own working sets. The slack covers allocator jitter of
    # a few hundred bytes, far below one extra copy of the output (80 kB).
    tiny = FilterBank(np.ones((1, 1, 1, 1), dtype=np.float32))
    for _ in range(3000):
        conv2d_optimized(np.ones((2, 2, 1), dtype=np.float32), tiny)
    slack = 16 * 1024
    short = rng.standard_normal((1000, 40)).astype(np.float32)  # 10 s at 100 frames/s
    long = rng.standard_normal((6000, 40)).astype(np.float32)  # 60 s
    for name in ("cnn-trad", "cnn-tpool2"):
        arch = get_arch(name, 4)
        weights = init_weights(arch, 0)
        forward_frames(arch, weights, short[:100])
        peak_short = traced_peak(lambda: forward_frames(arch, weights, short))
        peak_long = traced_peak(lambda: forward_frames(arch, weights, long))
        extra_rows = (len(long) - len(short)) * arch.labels * np.dtype(np.float32).itemsize
        assert peak_long <= peak_short + extra_rows + slack, (name, peak_short, peak_long)
