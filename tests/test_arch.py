"""Architecture builders, shape traces, weight manifests, and inference."""

import dataclasses
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
from kwslite.arch import BLOCK_WINDOWS, arch_from_dict, arch_to_dict, bound_fractions
from kwslite.errors import InsufficientAudioError, ManifestMismatchError, ShapeError
from kwslite.frontend import FrameConfig, stack_context
from kwslite.tensor import (
    FilterBank,
    conv2d_error_bound,
    conv2d_optimized,
    conv2d_valid,
    conv_output_shape,
    maxpool,
    pool_output_shape,
)

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
    # conv2d_valid's shape is the placements its sliding-window view lists,
    # conv2d_optimized's comes from conv_output_shape itself
    rule = _shape_or_axis(lambda: conv_output_shape(t, f, kt, kf, stride))
    assert _shape_or_axis(lambda: conv2d_valid(x, bank, stride).shape[:2]) == rule
    assert _shape_or_axis(lambda: conv2d_optimized(x, bank, stride).shape[:2]) == rule
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
    assert [p.name for p in build_cnn_trad(4).placed] == [
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
    manifest = weight_manifest(arch)
    manifest.append(("extra.weights", (1,)))
    manifest[0] = ("conv1.weights", (0,))
    fresh = arch_from_dict(arch_to_dict(arch))  # an equal spec that has cached nothing
    assert fresh is not arch
    assert weight_manifest(arch) == weight_manifest(fresh)
    assert weight_manifest(arch)[0] == ("conv1.weights", (21, 9, 1, 64))
    assert len(weight_manifest(arch)) == len(manifest) - 1
    assert [p.name for p in arch.placed] == [p.name for p in fresh.placed] == [
        "conv1", "conv2", "flatten1", "lowrank1", "dense1", "softmax",
    ]


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


def test_the_feature_width_is_the_frontends():
    assert [f.name for f in dataclasses.fields(ArchSpec)] == ["name", "context", "layers"]
    assert ArchSpec.input_f == FrameConfig().mel_filters == 40
    assert arch_to_dict(get_arch("dnn", 4))["input_f"] == 40


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


def float64_copies(weights):
    return {k: w.astype(np.float64) for k, w in weights.items()}


def assert_frames_match(arch, weights, frames, oracle_path="optimized"):
    """forward_frames against the per-window oracle, in two legs. A float32
    product's bits depend on its row count, so the structure leg runs on
    float64 copies of the weights, where only a misplaced row (a carry one
    row off, a wrong gather) moves a posterior past rounding; the numerics
    leg holds every weighted layer to its float32 bound on every window."""
    got = forward_frames(arch, weights, frames)
    assert got.shape == (len(frames), arch.labels)
    assert got.dtype == np.float32
    wide = float64_copies(weights)
    npt.assert_allclose(
        forward_frames(arch, wide, frames), per_window(arch, wide, frames, oracle_path), rtol=1e-10, atol=1e-12
    )
    assert_within_bound(arch, weights, frames)


def assert_within_bound(arch, weights, frames):
    """Every weighted layer keeps its float32 error bound on every stacked
    window: the per-layer oracle gate, which a float32 product meets where a
    per-posterior rtol cannot (near cancellation)."""
    for j, window in enumerate(stack_context(frames, arch.context)):
        fractions = bound_fractions(arch, weights, window)
        assert all(f <= 1 for f in fractions.values()), (arch.name, j, fractions)


# lengths around the context size and the block size: one frame, fewer frames
# than one window spans, a partial block, exactly one block, several blocks
EDGE_LENGTHS = (1, 5, BLOCK_WINDOWS - 1, BLOCK_WINDOWS, 2 * BLOCK_WINDOWS + 3)


def test_forward_frames_matches_per_window_on_stock_archs(rng):
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        weights = init_weights(arch, 5, init_scale=0.2)
        for n in EDGE_LENGTHS:
            assert_frames_match(arch, weights, rng.standard_normal((n, 40)).astype(np.float32))


def test_weighted_layers_keep_the_float32_bound(rng):
    stock = [get_arch(name, 4) for name in ARCHITECTURES]
    stacks = stock + [random_arch(rng, max_convs=3) for _ in range(12)] + [STEPS_ARCH]
    frames = rng.standard_normal((40, 40)).astype(np.float32)
    # both edges and the interior of a short clip, each on both phases of
    # cnn-tstride2's time stride and cnn-tpool2's time pool
    picks = [0, 1, 2, 19, 20, 37, 38, 39]
    worst = {"conv": 0.0, "flat": 0.0}
    for trial, arch in enumerate(stacks):
        weights = init_weights(arch, trial, init_scale=0.2 if arch in stock else 0.5)
        windows = stack_context(frames, arch.context)[picks] if arch in stock else [random_window(rng, arch)]
        for j, window in enumerate(windows):
            fractions = bound_fractions(arch, weights, window)
            assert list(fractions) == [p.name for p in arch.placed if p.manifest]  # every weighted layer
            assert all(f <= 1 for f in fractions.values()), (arch.name, j, fractions)
            for name, fraction in fractions.items():
                kind = "conv" if name.startswith("conv") else "flat"
                worst[kind] = max(worst[kind], fraction)
        # float64 weights accumulate in float64, far inside the float32 bound
        wide = bound_fractions(arch, float64_copies(weights), windows[0])
        assert all(f < 1e-6 for f in wide.values()), (arch.name, wide)
    assert min(worst.values()) > 1e-3, worst  # float32 weights do run float32 products


def test_a_conv_kernel_off_by_more_than_rounding_breaks_the_bound(rng, monkeypatch):
    arch = get_arch("cnn-trad", 4)
    weights = init_weights(arch, 0, init_scale=0.2)
    window = random_window(rng, arch)
    honest = kwslite.tensor.conv2d_optimized
    monkeypatch.setattr(kwslite.tensor, "conv2d_optimized", lambda *args, **kw: honest(*args, **kw) * (1 + 1e-4))
    # conv1 sums K = 189 products: its bound is gamma(190), about 1.1e-5 of their magnitudes
    assert bound_fractions(arch, weights, window)["conv1"] > 1
    monkeypatch.setattr(kwslite.tensor, "conv2d_optimized", lambda *args, **kw: honest(*args, **kw) * np.nan)
    fractions = bound_fractions(arch, weights, window)
    assert all(np.isnan(fractions[name]) for name in ("conv1", "conv2"))


def test_the_conv_bound_does_not_depend_on_the_kernel_it_judges(rng, monkeypatch):
    # a bound summed through the public conv would turn NaN with a NaN
    # kernel, and the NaN check above would then pass vacuously
    arch = get_arch("cnn-trad", 4)
    weights = init_weights(arch, 0, init_scale=0.2)
    window = random_window(rng, arch)
    x = rng.standard_normal((3, 3, 1)).astype(np.float32)
    bank = FilterBank(rng.standard_normal((2, 2, 1, 2)).astype(np.float32))
    honest_bound = conv2d_error_bound(x, bank)
    assert np.isfinite(honest_bound).all()
    honest = kwslite.tensor.conv2d_optimized
    monkeypatch.setattr(kwslite.tensor, "conv2d_optimized", lambda *args, **kw: honest(*args, **kw) * np.nan)
    assert conv2d_error_bound(x, bank).tobytes() == honest_bound.tobytes()
    fractions = bound_fractions(arch, weights, window)
    assert all(np.isnan(fractions[name]) for name in ("conv1", "conv2")), fractions


def test_a_flat_kernel_off_by_more_than_rounding_breaks_the_bound(rng, monkeypatch):
    # dense1 sums K = 1440 products: its bound is gamma(1441), about 8.6e-5 of
    # their magnitudes. With every weight and input positive nothing cancels,
    # so an error of 1e-4 of the output is more than the bound allows.
    arch = get_arch("dnn", 4)
    weights = {k: np.abs(w) for k, w in init_weights(arch, 0, init_scale=0.2).items()}
    window = np.abs(random_window(rng, arch))
    assert max(bound_fractions(arch, weights, window).values()) <= 1
    honest = kwslite.tensor.dense

    def off_by(factor):
        # only the float32 product is off: the oracle is the same kernel on float64 operands
        def dense(x, *args, **kw):
            y = honest(x, *args, **kw)
            return y * factor if y.dtype == np.float32 else y

        monkeypatch.setattr(kwslite.tensor, "dense", dense)
        return bound_fractions(arch, weights, window)

    assert off_by(np.float32(1 + 1e-4))["dense1"] > 1
    assert all(np.isnan(f) for f in off_by(np.float32(np.nan)).values())


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
    # row short or long shifts whole windows, far beyond rounding. A float32
    # product's bits depend on its row count, so the chunk sizes are compared
    # on float64 copies of the weights, and the float32 model is held to each
    # layer's bound on every window
    stacks = [get_arch(name, 4) for name in ARCHITECTURES] + [random_arch(rng, max_convs=3) for _ in range(6)]
    frames = rng.standard_normal((75, 40)).astype(np.float32)
    for trial, arch in enumerate(stacks):
        weights = init_weights(arch, trial, init_scale=0.2)
        wide = float64_copies(weights)
        got = {}
        for size in (1, 2, 7, 32):
            monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", size)
            got[size] = forward_frames(arch, wide, frames)
        for size in (1, 2, 7):
            npt.assert_allclose(got[size], got[32], rtol=1e-10, atol=1e-12, err_msg=f"{arch} chunk {size}")
        assert_within_bound(arch, weights, frames)


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
    # float32 conv weights give float32 conv maps, float64 dense weights do not
    arch = get_arch("cnn-trad", 4)
    all64 = {k: w.astype(np.float64) for k, w in init_weights(arch, 7, init_scale=0.2).items()}
    mixed = {k: w.astype(np.float32) if k.startswith("conv") else w for k, w in all64.items()}
    frames = rng.standard_normal((3, 40)).astype(np.float32)
    window = stack_context(frames, arch.context)[0]
    bound = kwslite.arch._plan(arch, mixed).bound
    x = window[:, :, None]
    for p, b in zip(arch.placed, bound):
        x = p.layer.forward(b, x, None)
        assert x.dtype == (np.float32 if p.name.startswith(("conv", "flatten")) else np.float64), p.name
    for run in (lambda w: forward(arch, w, window), lambda w: forward_frames(arch, w, frames)):
        got, want = run(mixed), run(all64)
        assert got.dtype == want.dtype == np.float64
        assert not np.array_equal(got, want)
    assert all(f <= 1 for f in bound_fractions(arch, mixed, window).values())


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


# tracemalloc peaks of a warm forward_frames on a 998-frame clip with
# plain-dict float32 weights, MB: the peaks measured on one and on two BLAS
# threads (equal) plus 5%. The largest buffer is one chunk's conv patch matrix:
# with a whole-kernel conv2 matrix the peaks read 5.12 (cnn-trad) and
# 3.19-3.20 (cnn-tstride2, cnn-tpool2), over these gates.
FORWARD_PEAK_MB = {"cnn-trad": 2.58, "cnn-one": 3.09, "cnn-tstride2": 3.13, "cnn-tpool2": 3.13}


@pytest.mark.parametrize("name", sorted(FORWARD_PEAK_MB))
def test_forward_frames_working_set(name):
    arch = get_arch(name, 4)
    weights = init_weights(arch, 0)
    frames = np.random.default_rng(0).standard_normal((998, arch.input_f)).astype(np.float32)
    forward_frames(arch, weights, frames)  # warm-up
    peak = traced_peak(lambda: forward_frames(arch, weights, frames))
    assert peak < FORWARD_PEAK_MB[name] * 1e6, f"{name}: forward_frames peaked at {peak} bytes"


def test_stock_conv2s_sum_tap_groups_and_conv1s_run_whole():
    # a conv1 tap holds 9 values, too shallow for TAP_DEPTH; conv2's 4 x 64 are not
    for name in ARCHITECTURES[1:]:
        arch = get_arch(name, 4)
        weights = init_weights(arch, 0)
        for p in arch.placed:
            if p.name.startswith("conv"):
                (bank,) = p.layer.bind(p.tensors(weights))
                assert (bank.tap_group == bank.kernel_t) == (p.name == "conv1"), (name, p.name)


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
