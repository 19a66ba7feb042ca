"""Loaded weights: read-only tensors whose plan (manifest check and every
layer's binding, on which the spec's stream stages run) is built once per
spec and kept on the model itself, freed with it, with outputs bit-identical
to plain dicts, and whose forward continues the model's own stream of a
window advanced by one frame."""

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
from kwslite.arch import FrozenWeights, build_cnn_tstride, bound_fractions
from kwslite.audio import Waveform
from kwslite.budget import report, streamed_multiplies
from kwslite.errors import InsufficientAudioError, ManifestMismatchError, ShapeError
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
        for weights in (loaded, plain, loaded):  # the second loaded call reuses the kept plan
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


def assert_bound_without_copies(arch, weights):
    """Every array the kept plan binds shares memory with its stored tensor."""
    plan = kwslite.arch._plan(arch, weights)
    for p, binding in zip(arch.placed, plan.bound):
        arrays = [t for b in binding for t in ((b.weights, b.bias) if isinstance(b, FilterBank) else (b,))]
        assert len(arrays) == len(p.manifest), p.name
        for (key, _), array in zip(p.manifest, arrays):
            assert np.shares_memory(array, weights[key]), key


def test_the_kept_plan_binds_no_copies_and_is_freed_with_its_weights(tmp_path, rng):
    _, a = saved_and_loaded(tmp_path, TINY, 1, "a.kwsm")
    _, b = saved_and_loaded(tmp_path, TINY, 2, "b.kwsm")
    window = random_window(rng, TINY)

    def held(weights):
        """A weak reference to conv1's FilterBank, which only the model's plan
        holds (the spec's stages hold no model's tensors)."""
        return weakref.ref(kwslite.arch._plan(TINY, weights).bound[0][0])

    forward(TINY, a, window)
    plan_a = kwslite.arch._plan(TINY, a)
    assert kwslite.arch._plan(TINY, a) is plan_a and a._plan is plan_a  # kept between calls
    del plan_a
    assert_bound_without_copies(TINY, a)
    bank_a = held(a)
    forward(TINY, b, window)
    assert bank_a() is not None and a._plan.bound[0][0] is bank_a()  # b's plan is b's own
    assert b._plan is not None and b._plan.bound[0][0] is not bank_a()
    bank_b = held(b)
    del a, b  # no gc.collect(): nothing refers back to the weights
    assert bank_a() is None and bank_b() is None  # freed with their weights


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


def test_loaded_tensors_are_aligned_whatever_the_header_length(tmp_path):
    # a float32 view off a 4-byte boundary would be copied by every conv product
    offsets = set()
    for n in range(4):
        labels = ["_filler", "k" * (n + 1), "kw2"]  # the header, and the payload's offset, grow by one byte
        path = tmp_path / f"m{n}.kwsm"
        save_model(path, TINY, init_weights(TINY, 0), labels)
        data = path.read_bytes()
        offsets.add((12 + int.from_bytes(data[8:12], "little")) % 4)
        weights = load_model(path).weights
        assert all(t.flags.aligned for t in weights.values())
        assert all(t.tobytes() == init_weights(TINY, 0)[k].tobytes() for k, t in weights.items())
    assert offsets == {0, 1, 2, 3}


def test_loaded_dnn_forward_makes_no_weight_sized_temporary(tmp_path, rng):
    arch = get_arch("dnn", 4)
    _, weights = saved_and_loaded(tmp_path, arch, 1)
    window = random_window(rng, arch)
    forward(arch, weights, window)  # warm-up: the plan is bound here
    dense1 = weights["dense1.weights"].nbytes  # 0.74 MB of float32
    tracemalloc.start()
    try:
        forward(arch, weights, window)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < dense1, f"forward peaked at {peak} bytes"


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
    for _, loaded in models:  # each model's plan binds its own tensors
        assert loaded._plan is not None and loaded._plan.arch is TINY
        assert_bound_without_copies(TINY, loaded)


# ---------------------------------------------------------------------------
# A loaded model's forward continues the stream of its last window.


def metered(arch, weights, window, conv_path="optimized"):
    counter = MacCounter()
    return forward(arch, weights, window, conv_path=conv_path, counter=counter), counter.count


def check_continued_stream(tmp_path, monkeypatch, arch, seed, rng, n=12, naive=(1, 2)):
    """forward on consecutive windows of a loaded model: from window 1 on the
    rows of forward_frames at BLOCK_WINDOWS = 1 where streaming is cheaper,
    the plain dict's elsewhere; within rtol of the plain dict, and every conv
    layer within its float32 bound of the naive path on the `naive` windows;
    metered as the stream or the window costs."""
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
            fractions = bound_fractions(arch, plain, window)
            assert all(f <= 1 for f in fractions.values()), (arch, j, fractions)
        if not arch.streams_cheaper:
            assert_same_bits(got, want)
            assert count == budget.total.multiplies
        elif j == 0:
            assert count == budget.total.multiplies
        else:
            assert_same_bits(got, streamed[j])
            assert count == (streamed_multiplies(arch, 2) if j == 1 else budget.per_frame), (arch, j)


def test_the_stages_are_built_once_per_spec_whatever_runs_on_it(tmp_path, monkeypatch, rng):
    arch = get_arch("cnn-tpool2", 4)  # validated, so its stages are built
    plain, loaded_a = saved_and_loaded(tmp_path, arch, 7, "a.kwsm")
    _, loaded_b = saved_and_loaded(tmp_path, arch, 8, "b.kwsm")
    built = []  # the layers whose stream() ran
    for kind in (Layer, Conv, Flatten):  # every kind's stream() is one of these
        def counted(self, shape, step, window_rows, stream=kind.__dict__["stream"]):
            built.append(self)
            return stream(self, shape, step, window_rows)

        monkeypatch.setattr(kind, "stream", counted)
    frames = rng.standard_normal((24, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    for loaded in (loaded_a, loaded_b):  # each model builds and keeps its own plan
        for j, window in enumerate(windows):
            count = metered(arch, loaded, window)[1]
            if j >= 2:  # continued, from primed carries
                assert count == report(arch).per_frame
        forward_frames(arch, loaded, frames)
    forward_frames(arch, plain, frames)
    assert built == []  # 48 hops, two models and three whole-clip streams built none
    same = get_arch("cnn-tpool2", 4)  # an equal spec, but another object: built again
    assert built == list(same.layers)  # once per layer
    forward(same, loaded_a, windows[0])
    forward(same, loaded_a, windows[1])
    forward_frames(same, loaded_b, frames)
    assert built == list(same.layers)


def test_a_wrong_shape_call_leaves_the_kept_stream_in_place(tmp_path, rng):
    # shapes are checked before a model's plan is touched: otherwise a wrong
    # shape on a restarts a's stream, and a's next advanced window meters a
    # whole window, not one frame's rows; b, which never ran, builds no plan
    arch = get_arch("cnn-tpool2", 4)
    _, a = saved_and_loaded(tmp_path, arch, 1, "a.kwsm")
    _, b = saved_and_loaded(tmp_path, arch, 2, "b.kwsm")
    frames = rng.standard_normal((6, arch.input_f)).astype(np.float32)
    windows = stack_context(frames, arch.context)
    for window in windows[:3]:
        forward(arch, a, window)  # primes a's carries
    kept = a._plan
    for model in (b, a):
        calls = {
            "forward short": (lambda: forward(arch, model, windows[0][:-1]), ShapeError),
            "forward_frames narrow": (lambda: forward_frames(arch, model, frames[:, :-1]), ShapeError),
            "forward_frames empty": (lambda: forward_frames(arch, model, frames[:0]), InsufficientAudioError),
            "bound narrow": (lambda: bound_fractions(arch, model, windows[0][:, :-1]), ShapeError),
            "bound transposed": (lambda: bound_fractions(arch, model, windows[0].T), ShapeError),
        }
        for case, (call, error) in calls.items():
            with pytest.raises(error):
                call()
            assert a._plan is kept and b._plan is None, case
    assert metered(arch, a, windows[3])[1] == report(arch).per_frame


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
    other_maps = build_cnn_tstride(4, maps=32)
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
        assert loaded._plan.last is None


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


def test_models_that_alternate_hops_each_continue_their_own_stream(tmp_path, monkeypatch, rng):
    arch = get_arch("cnn-tpool2", 4)
    plain_a, a = saved_and_loaded(tmp_path, arch, 1, "a.kwsm")
    plain_b, b = saved_and_loaded(tmp_path, arch, 2, "b.kwsm")
    frames = [rng.standard_normal((8, arch.input_f)).astype(np.float32) for _ in range(2)]
    monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", 1)
    streamed = [forward_frames(arch, plain, f) for plain, f in zip((plain_a, plain_b), frames)]
    budget = report(arch)
    windows = [stack_context(f, arch.context) for f in frames]
    for j, pair in enumerate(zip(*windows)):
        for k, (model, window) in enumerate(zip((a, b), pair)):  # a and b alternate hops
            got, count = metered(arch, model, window)
            if j == 0:
                assert count == budget.total.multiplies
                continue
            assert_same_bits(got, streamed[k][j])
            assert count == (streamed_multiplies(arch, 2) if j == 1 else budget.per_frame), (k, j)
    bank_a = weakref.ref(a._plan.bound[0][0])  # conv1's FilterBank, held only by a's plan
    plan_b = b._plan
    del a  # no gc.collect(): nothing refers back to the weights
    assert bank_a() is None
    assert b._plan is plan_b and plan_b.carries is not None  # b's plan and stream stay


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
