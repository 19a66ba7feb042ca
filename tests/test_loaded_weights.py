"""Loaded weights: read-only tensors whose plan (manifest check, every
layer's float64 binding and the stream stages) is built once per spec and
kept for one model at a time, with outputs bit-identical to plain dicts,
and whose forward continues the stream of a window advanced by one frame."""

import gc
import sys
import threading
import tracemalloc
import weakref

import numpy as np
import pytest

import kwslite.arch
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
    log_mel_frames,
    save_model,
    stack_context,
)
from kwslite.arch import FrozenWeights, build_cnn_tstride
from kwslite.audio import Waveform
from kwslite.budget import report, streamed_multiplies
from kwslite.errors import ManifestMismatchError
from kwslite.layers import Layer
from kwslite.tensor import FilterBank, MacCounter

from conftest import STEPS_ARCH, random_arch, random_window

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

    def held(weights):
        """Weak references to a float64 copy and a stream stage of the kept plan."""
        plan = weights.plan(TINY)
        dense1 = [p.name for p in TINY.placed].index("dense1")
        return weakref.ref(plan.bound[dense1][0]), weakref.ref(plan.stages[0][1])

    forward(TINY, a, window)
    plan_a = a.plan(TINY)
    assert a.plan(TINY) is plan_a and a._plan is plan_a  # kept between calls
    del plan_a
    copy_a, stage_a = held(a)
    forward(TINY, b, window)
    gc.collect()
    assert copy_a() is None and stage_a() is None  # b's plan replaced a's
    assert a._plan is None
    copy_b, stage_b = held(b)
    del b
    gc.collect()
    assert copy_b() is None and stage_b() is None  # freed with their weights


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
    assert sum(loaded._plan is not None for _, loaded in models) <= 1


# ---------------------------------------------------------------------------
# A loaded model's forward continues the stream of its last window.


def metered(arch, weights, window, conv_path="optimized"):
    counter = MacCounter()
    return forward(arch, weights, window, conv_path=conv_path, counter=counter), counter.count


def check_continued_stream(tmp_path, monkeypatch, arch, seed, rng, n=12, naive=(1, 2)):
    """forward on consecutive windows of a loaded model: from window 1 on the
    rows of forward_frames at BLOCK_WINDOWS = 1 where streaming is cheaper,
    the plain dict's elsewhere; within rtol of the plain dict and of the
    naive path; metered as the stream or the window costs."""
    plain, loaded = saved_and_loaded(tmp_path, arch, seed)
    frames = rng.standard_normal((n, arch.input_f)).astype(np.float32)
    monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", 1)
    streamed = forward_frames(arch, plain, frames)
    budget = report(arch)
    for j, window in enumerate(stack_context(frames, arch.context)):
        got, count = metered(arch, loaded, window)
        want = forward(arch, plain, window)
        assert got.shape == want.shape and got.dtype == want.dtype
        np.testing.assert_allclose(got, want, rtol=1e-5, atol=1e-12, err_msg=f"{arch} window {j}")
        if j in naive:
            np.testing.assert_allclose(got, forward(arch, plain, window, conv_path="naive"), rtol=1e-5, atol=1e-12)
        if not arch.streams_cheaper:
            assert_same_bits(got, want)
            assert count == budget.total.multiplies
        elif j == 0:
            assert count == budget.total.multiplies
        else:
            assert_same_bits(got, streamed[j])
            assert count == (streamed_multiplies(arch, 2) if j == 1 else budget.per_frame), (arch, j)


def test_continued_hops_build_the_stages_once_per_weights_and_spec(tmp_path, monkeypatch, rng):
    built = []
    for kind in (Layer, Conv, Flatten):  # every kind's stages() is one of these
        def counted(self, placed, weights, stages=kind.__dict__["stages"]):
            built.append(placed.name)
            return stages(self, placed, weights)

        monkeypatch.setattr(kind, "stages", counted)
    arch = get_arch("cnn-tpool2", 4)
    _, loaded = saved_and_loaded(tmp_path, arch, 7)
    frames = rng.standard_normal((24, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    names = [p.name for p in arch.placed]
    for j, window in enumerate(windows):
        count = metered(arch, loaded, window)[1]
        if j >= 2:  # continued, from primed carries
            assert count == report(arch).per_frame
    forward_frames(arch, loaded, frames)
    assert built == names  # once for 24 hops and a whole-clip stream
    same = get_arch("cnn-tpool2", 4)  # an equal spec, but another object: built again
    forward(same, loaded, windows[0])
    forward(same, loaded, windows[1])
    assert built == names * 2


def test_a_plan_validates_each_conv_filter_bank_once(tmp_path, monkeypatch, rng):
    arch = get_arch("cnn-tpool2", 4)
    plain, loaded = saved_and_loaded(tmp_path, arch, 7)
    convs = sum(isinstance(p.layer, Conv) for p in arch.placed)
    built = []  # one entry per FilterBank constructed
    post_init = FilterBank.__post_init__
    monkeypatch.setattr(FilterBank, "__post_init__", lambda bank: built.append(1) or post_init(bank))
    frames = rng.standard_normal((202, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    forward(arch, loaded, windows[0])
    assert len(built) == convs  # the plan binds each conv once
    forward(arch, loaded, windows[1])  # primes the carries
    for window in windows[2:]:  # 200 continued hops
        assert metered(arch, loaded, window)[1] == report(arch).per_frame
    forward_frames(arch, loaded, frames)
    assert len(built) == convs
    forward_frames(arch, plain, rng.standard_normal((300, arch.input_f)).astype(np.float32))
    assert len(built) <= 2 * convs  # a plain dict binds each conv at most once per call


def test_a_failed_manifest_check_is_never_kept(tmp_path, monkeypatch, rng):
    tstride = get_arch("cnn-tstride2", 4)
    _, loaded = saved_and_loaded(tmp_path, tstride, 5)
    other_maps = build_cnn_tstride(4, 2, maps=32)
    window = random_window(rng, tstride)
    frames = rng.standard_normal((3, tstride.input_f)).astype(np.float32)
    for _ in range(3):
        with pytest.raises(ManifestMismatchError):
            forward(other_maps, loaded, window)
        with pytest.raises(ManifestMismatchError):
            forward_frames(other_maps, loaded, frames)
    forward(tstride, loaded, window)
    with pytest.raises(ManifestMismatchError):  # a kept plan for another spec does not pass it
        forward(other_maps, loaded, window)
    checked = []
    check = kwslite.arch.check_weights
    monkeypatch.setattr(kwslite.arch, "check_weights", lambda *args: checked.append(args[0]) or check(*args))
    forward(tstride, loaded, window)
    assert checked == []  # the kept plan's spec is not checked again
    same = get_arch("cnn-tstride2", 4)
    for _ in range(2):
        forward(same, loaded, window)
    assert checked == [same]  # a new spec object is checked once


def test_stock_rule_continues_only_where_a_frame_costs_less_than_a_window():
    cheaper = {name: get_arch(name, 4).streams_cheaper for name in ARCHITECTURES}
    assert cheaper == {"dnn": False, "cnn-trad": True, "cnn-one": False, "cnn-tstride2": True, "cnn-tpool2": True}
    for name, arch in ((name, get_arch(name, 4)) for name in ARCHITECTURES):
        budget = report(arch)
        assert arch.streams_cheaper == (budget.per_frame < budget.total.multiplies), name


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_loaded_stock_model_continues_the_stream(tmp_path, monkeypatch, rng, name):
    check_continued_stream(tmp_path, monkeypatch, get_arch(name, 4), 3, rng)


def test_loaded_random_stacks_continue_the_stream(tmp_path, monkeypatch, rng):
    for seed in range(8):
        check_continued_stream(tmp_path, monkeypatch, random_arch(rng, max_convs=3), seed, rng, n=20, naive=(1, 7))


def test_loaded_compound_steps_stack_continues_the_stream(tmp_path, monkeypatch, rng):
    assert STEPS_ARCH.streams_cheaper
    check_continued_stream(tmp_path, monkeypatch, STEPS_ARCH, 4, rng, n=30, naive=(1, 13, 29))


def test_dnn_and_cnn_one_never_continue(tmp_path, rng):
    for name in ("dnn", "cnn-one"):
        arch = get_arch(name, 4)
        _, loaded = saved_and_loaded(tmp_path, arch, 1)
        frames = rng.standard_normal((4, arch.input_f)).astype(np.float32)
        for window in stack_context(frames, arch.context):
            assert metered(arch, loaded, window)[1] == report(arch).total.multiplies
        assert loaded._stream is None


def _nan_last(window):
    window = window.copy()
    window[-1] = np.nan
    return window


def _changed_row(window):
    window = window.copy()
    window[5] += 1.0
    return window


# after windows 0 and 1 (the stream primed), a call with one of these runs per window
FALL_BACKS = {
    "same window twice": lambda windows: (windows[1], "optimized"),
    "shift by two frames": lambda windows: (windows[3], "optimized"),
    "one changed row": lambda windows: (_changed_row(windows[2]), "optimized"),
    "NaN in the new row": lambda windows: (_nan_last(windows[2]), "optimized"),
    "float64 window": lambda windows: (windows[2].astype(np.float64), "optimized"),
    "naive path": lambda windows: (windows[2], "naive"),
}


@pytest.mark.parametrize("case", sorted(FALL_BACKS))
def test_windows_that_do_not_advance_by_one_frame_run_per_window(tmp_path, rng, case):
    arch = get_arch("cnn-tpool2", 4)
    plain, loaded = saved_and_loaded(tmp_path, arch, 2)
    frames = rng.standard_normal((6, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    for window in windows[:2]:
        forward(arch, loaded, window)
    window, conv_path = FALL_BACKS[case](windows)
    got, count = metered(arch, loaded, window, conv_path)
    want, plain_count = metered(arch, plain, window, conv_path)
    assert_same_bits(got, want)
    assert count == plain_count == report(arch).total.multiplies


def test_windows_holding_a_nan_never_continue(tmp_path, rng):
    # every window holds frame 4 (a NaN frame), at the row a one-frame
    # advance moves it to, so the rows shared with the last window match bit for bit
    arch = get_arch("cnn-trad", 4)
    plain, loaded = saved_and_loaded(tmp_path, arch, 2)
    frames = rng.standard_normal((5, arch.input_f)).astype(np.float32)
    frames[4] = np.nan
    for window in stack_context(frames, arch.context):
        got, count = metered(arch, loaded, window)
        assert_same_bits(got, forward(arch, plain, window))
        assert count == report(arch).total.multiplies


def test_plain_dicts_never_continue(rng):
    arch = get_arch("cnn-tpool2", 4)
    plain = init_weights(arch, 2, init_scale=0.2)
    frames = rng.standard_normal((3, arch.input_f)).astype(np.float32)
    for window in stack_context(frames, arch.context):
        assert metered(arch, plain, window)[1] == report(arch).total.multiplies


def test_a_stream_does_not_continue_under_another_spec(tmp_path, rng):
    # cnn-tstride2 and cnn-tpool2 share their window and their manifest, so
    # either's weights run under the other's spec
    tstride, tpool = get_arch("cnn-tstride2", 4), get_arch("cnn-tpool2", 4)
    plain, loaded = saved_and_loaded(tmp_path, tstride, 5)
    frames = rng.standard_normal((4, tstride.input_f)).astype(np.float32)
    windows = stack_context(frames, tstride.context)
    forward(tpool, loaded, windows[0])
    forward(tpool, loaded, windows[1])
    for arch, window in ((tstride, windows[2]), (tpool, windows[3])):
        got, count = metered(arch, loaded, window)
        assert_same_bits(got, forward(arch, plain, window))
        assert count == report(arch).total.multiplies


def test_two_threads_streaming_one_loaded_model_get_their_own_posteriors(tmp_path):
    arch = get_arch("cnn-tpool2", 4)
    _, loaded = saved_and_loaded(tmp_path, arch, 6)
    clips = []
    for seed in (11, 12):
        samples = 0.1 * np.random.default_rng(seed).standard_normal(8000)
        clips.append(stack_context(log_mel_frames(Waveform(samples.astype(np.float32))), arch.context))
    alone = [np.stack([forward(arch, loaded, window) for window in windows]) for windows in clips]
    got = [[], []]
    errors = []

    def worker(k):
        try:
            got[k].extend(forward(arch, loaded, window) for window in clips[k])
        except Exception as exc:  # reported below: a thread's exception would be lost
            errors.append(repr(exc))

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        threads = [threading.Thread(target=worker, args=(k,)) for k in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert not errors, errors[:3]
    for k in range(2):
        np.testing.assert_allclose(np.stack(got[k]), alone[k], rtol=1e-5, atol=1e-12)
