"""Architecture builders, shape traces, weight manifests, and inference."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, strategies as st

import kwslite.arch
from kwslite import (
    ARCHITECTURES,
    ArchSpec,
    Context,
    Conv,
    Dense,
    Flatten,
    LowRank,
    Pool,
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
from kwslite.tensor import FilterBank, conv2d_optimized, conv_output_shape, maxpool, pool_output_shape

from conftest import STEPS_ARCH, in_reverse_order, random_arch, random_window


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
    # the freq kernel, both pool axes and a later conv, on a 5x40 window
    for convs, layer, axis in [
        ((Conv(3, 41, 4),), "conv1", "freq"),
        ((Conv(5, 3, 4, Stride(), Pool(2, 1)),), "conv1", "time"),  # a 1x38 map
        ((Conv(3, 38, 4, Stride(), Pool(1, 4)),), "conv1", "freq"),  # a 3x3 map
        ((Conv(3, 3, 4), Conv(4, 3, 4)), "conv2", "time"),
    ]:
        with pytest.raises(ShapeError) as info:
            validate(ArchSpec("bad", Context(2, 2), (*convs, Flatten(), SoftmaxOut(3))))
        assert (info.value.layer, info.value.axis) == (layer, axis)
        assert str(info.value).startswith(f"{layer}: ")


def _shape_or_axis(compute):
    """What compute() returns, or the axis of the ShapeError it raises."""
    try:
        return compute()
    except ShapeError as exc:
        return ("raises", exc.axis)


sizes = st.integers(1, 12)


@given(t=sizes, f=sizes, kt=sizes, kf=sizes, st_t=sizes, st_f=sizes, pt=sizes, pf=sizes)
def test_geometry_rules_agree_with_kernels_and_validate(t, f, kt, kf, st_t, st_f, pt, pf):
    stride, pool = Stride(st_t, st_f), Pool(pt, pf)
    bank = FilterBank(np.zeros((kt, kf, 1, 2), dtype=np.float32))
    x = np.zeros((t, f, 1), dtype=np.float32)
    # the output-size rules give the kernels' shapes, and raise where they raise
    assert _shape_or_axis(lambda: conv2d_optimized(x, bank, stride).shape[:2]) == _shape_or_axis(
        lambda: conv_output_shape(t, f, kt, kf, stride)
    )
    assert _shape_or_axis(lambda: maxpool(x, pool).shape[:2]) == _shape_or_axis(
        lambda: pool_output_shape(t, f, pool)
    )
    # a one-conv stack on a t x 40 window fails validate exactly when the
    # kernels fail on that window, on the same axis, naming the conv
    window = np.zeros((t, 40, 1), dtype=np.float32)
    kernels = _shape_or_axis(lambda: maxpool(conv2d_optimized(window, bank, stride), pool).shape)
    arch = ArchSpec("p", Context(t - 1, 0), (Conv(kt, kf, 2, stride, pool), Flatten(), SoftmaxOut(2)))
    try:
        traced = validate(arch)[-3].shape  # the conv's last entry, the map flatten reads
    except ShapeError as exc:
        assert exc.layer == "conv1"
        traced = ("raises", exc.axis)
    assert traced == kernels


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


def test_cached_manifest_and_names_are_handed_out_as_copies():
    arch = build_cnn_trad(4)
    manifest, names = weight_manifest(arch), layer_names(arch)
    manifest.append(("extra.weights", (1,)))
    manifest[0] = ("conv1.weights", (0,))
    names.reverse()
    fresh = arch_from_dict(arch_to_dict(arch))  # an equal spec that has cached nothing
    assert fresh is not arch
    assert weight_manifest(arch) == weight_manifest(fresh)
    assert weight_manifest(arch)[0] == ("conv1.weights", (21, 9, 1, 64))
    assert len(weight_manifest(arch)) == len(manifest) - 1
    assert layer_names(arch) == layer_names(fresh) == ["conv1", "conv2", "flatten1", "lowrank1", "dense1", "softmax"]


def test_invalid_spec_raises_on_every_call():
    arch = ArchSpec("bad", Context(2, 2), (Conv(9, 3, 4), Flatten(), SoftmaxOut(3)))
    for _ in range(2):
        with pytest.raises(ShapeError):
            weight_manifest(arch)
        with pytest.raises(ShapeError):
            init_weights(arch, 0)


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


def test_weights_are_checked_on_every_call(rng):
    arch = build_cnn_one(4)
    weights = init_weights(arch, 0)
    window = random_window(rng, arch)
    frames = rng.standard_normal((5, 40)).astype(np.float32)
    forward(arch, weights, window)
    forward_frames(arch, weights, frames)
    broken = [
        {k: v for k, v in weights.items() if k != "dense2.bias"},
        {**weights, "lowrank1.weights": np.zeros((3, 3), dtype=np.float32)},
        {**weights, "conv1.bias": np.zeros(63, dtype=np.float32)},
        {**weights, "conv2.weights": np.zeros((1, 1, 1, 1), dtype=np.float32)},
    ]
    for bad in broken:
        with pytest.raises(ManifestMismatchError):
            forward(arch, bad, window)
        with pytest.raises(ManifestMismatchError):
            forward_frames(arch, bad, frames)
    npt.assert_array_equal(forward(arch, weights, window), forward(arch, dict(weights), window))


@pytest.mark.parametrize("arch", [build_cnn_trad(4), STEPS_ARCH], ids=["cnn-trad", "steps"])
def test_layers_find_their_tensors_whatever_the_key_order(rng, arch):
    weights = init_weights(arch, 3, init_scale=0.2)
    backwards = in_reverse_order(weights)
    assert list(backwards) != list(weights)
    window = random_window(rng, arch)
    frames = rng.standard_normal((40, arch.input_f)).astype(np.float32)
    pairs = [
        (forward(arch, backwards, window, conv_path=path), forward(arch, weights, window, conv_path=path))
        for path in ("optimized", "naive")
    ]
    pairs.append((forward_frames(arch, backwards, frames), forward_frames(arch, weights, frames)))
    for got, want in pairs:
        assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
    name, shape = weight_manifest(arch)[0]
    broken = [
        in_reverse_order({k: v for k, v in weights.items() if k != name}),
        {**backwards, "conv9.weights": np.zeros(shape, dtype=np.float32)},
        {**backwards, name: np.zeros(shape[:-1] + (shape[-1] + 1,), dtype=np.float32)},
    ]
    for bad in broken:
        with pytest.raises(ManifestMismatchError):
            forward(arch, bad, window)
        with pytest.raises(ManifestMismatchError):
            forward_frames(arch, bad, frames)


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


def assert_frames_match(arch, weights, frames, oracle_path="optimized"):
    got = forward_frames(arch, weights, frames)
    assert got.shape == (len(frames), arch.labels)
    assert got.dtype == np.float32
    npt.assert_allclose(got, per_window(arch, weights, frames, oracle_path), rtol=1e-5, atol=1e-12)


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


def test_forward_frames_does_not_depend_on_chunk_size(rng, monkeypatch):
    # each chunk carries every stage's last rows into the next; a carry one
    # row short or long shifts whole windows, far beyond float32 rounding
    stacks = [get_arch(name, 4) for name in ARCHITECTURES] + [random_arch(rng, max_convs=3) for _ in range(6)]
    frames = rng.standard_normal((75, 40)).astype(np.float32)
    for trial, arch in enumerate(stacks):
        weights = init_weights(arch, trial, init_scale=0.2)
        got = {}
        for size in (1, 2, 7, 32):
            monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", size)
            got[size] = forward_frames(arch, weights, frames)
        for size in (1, 2, 7):
            npt.assert_allclose(got[size], got[32], rtol=1e-6, atol=1e-12, err_msg=f"{arch} chunk {size}")


def test_forward_frames_compound_time_steps_end_mid_chunk(rng, monkeypatch):
    arch = STEPS_ARCH
    assert [e.shape for e in validate(arch)][1:5] == [(10, 36, 3), (9, 17, 4), (4, 8, 4), (3, 6, 2)]
    weights = init_weights(arch, 4, init_scale=0.5)
    for n in (BLOCK_WINDOWS + 13, 2 * BLOCK_WINDOWS - 1):
        assert_frames_match(arch, weights, rng.standard_normal((n, 40)).astype(np.float32))
    monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", 7)
    for n in (1, 6, 9, 20, 23):
        assert_frames_match(arch, weights, rng.standard_normal((n, 40)).astype(np.float32))
    assert_frames_match(arch, weights, rng.standard_normal((9, 40)).astype(np.float32), "naive")


def test_forward_frames_casts_like_stack_context(rng):
    arch = build_cnn_one(4)
    weights = init_weights(arch, 0)
    frames = rng.standard_normal((20, 40))
    got = forward_frames(arch, weights, frames)
    assert got.dtype == np.float32
    npt.assert_array_equal(got, forward_frames(arch, weights, frames.astype(np.float32)))


def test_float64_weights_give_float64_posteriors(rng):
    arch = get_arch("cnn-tpool2", 4)
    weights = {k: w.astype(np.float64) for k, w in init_weights(arch, 6, init_scale=0.2).items()}
    frames = rng.standard_normal((3, 40)).astype(np.float32)
    window = stack_context(frames, arch.context)[0]
    naive = forward(arch, weights, window, conv_path="naive")
    optimized = forward(arch, weights, window)
    streamed = forward_frames(arch, weights, frames)
    assert naive.dtype == optimized.dtype == streamed.dtype == np.float64
    npt.assert_allclose(optimized, naive, rtol=1e-12, atol=0)
    npt.assert_allclose(streamed[0], optimized, rtol=1e-12, atol=0)


def test_float32_conv_weights_round_conv_outputs_to_float32(rng):
    # each layer's output takes promote_types(its input, its stored weights):
    # float32 conv weights round the conv maps, float64 dense weights do not
    arch = get_arch("cnn-trad", 4)
    all64 = {k: w.astype(np.float64) for k, w in init_weights(arch, 7, init_scale=0.2).items()}
    mixed = {k: w.astype(np.float32) if k.startswith("conv") else w for k, w in all64.items()}
    frames = rng.standard_normal((3, 40)).astype(np.float32)
    window = stack_context(frames, arch.context)[0]
    for run in (lambda w: forward(arch, w, window), lambda w: forward_frames(arch, w, frames)):
        got, want = run(mixed), run(all64)
        assert got.dtype == want.dtype == np.float64
        assert not np.array_equal(got, want)
        npt.assert_allclose(got, want, rtol=1e-5, atol=1e-12)


def test_forward_frames_rejects_bad_streams():
    arch = build_dnn_baseline(4)
    weights = init_weights(arch, 0)
    with pytest.raises(ShapeError):
        forward_frames(arch, weights, np.zeros((10, 39), dtype=np.float32))
    with pytest.raises(ShapeError):
        forward_frames(arch, weights, np.zeros(40, dtype=np.float32))
    with pytest.raises(InsufficientAudioError):
        forward_frames(arch, weights, np.zeros((0, 40), dtype=np.float32))


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
    # forward_frames' own working sets. A warm-up on the long clip also makes
    # numpy's one-time growth of its as_strided tables before either peak, so
    # the tests run before this one do not decide where it lands. The slack
    # covers allocator jitter of a few hundred bytes, far below one extra copy
    # of the output (80 kB).
    tiny = FilterBank(np.ones((1, 1, 1, 1), dtype=np.float32))
    for _ in range(3000):
        conv2d_optimized(np.ones((2, 2, 1), dtype=np.float32), tiny)
    slack = 16 * 1024
    short = rng.standard_normal((1000, 40)).astype(np.float32)  # 10 s at 100 frames/s
    long = rng.standard_normal((6000, 40)).astype(np.float32)  # 60 s
    for name in ("cnn-trad", "cnn-tpool2"):
        arch = get_arch(name, 4)
        weights = init_weights(arch, 0)
        forward_frames(arch, weights, long)
        peak_short = traced_peak(lambda: forward_frames(arch, weights, short))
        peak_long = traced_peak(lambda: forward_frames(arch, weights, long))
        extra_rows = (len(long) - len(short)) * arch.labels * np.dtype(np.float32).itemsize
        assert peak_long <= peak_short + extra_rows + slack, (name, peak_short, peak_long)
