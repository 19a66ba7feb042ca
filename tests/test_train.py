"""Training checks: loss math, analytic gradients against central
differences, pooling gradient routing, determinism, divergence, and the
synthetic dataset."""

import importlib
import math
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given, strategies as st

import kwslite.arch
import kwslite.layers
import kwslite.tensor
from kwslite import (
    ARCHITECTURES,
    ArchSpec,
    Context,
    Conv,
    Dense,
    DetectorConfig,
    Flatten,
    LabeledExample,
    LowRank,
    SoftmaxOut,
    TrainConfig,
    Waveform,
    build_cnn_one,
    build_cnn_tpool,
    build_cnn_trad,
    build_cnn_tstride,
    build_dnn_baseline,
    cross_entropy,
    evaluate,
    get_arch,
    grad_check,
    init_weights,
    loss_and_grads,
    log_mel_frames,
    make_synthetic_dataset,
    train,
)
from kwslite.data import (
    FILLER_NAME,
    SyntheticSpec,
    center_window_examples,
    load_dataset_dir,
)
from kwslite.errors import DivergenceError, KwsError, ManifestMismatchError, NumericError, ShapeError
from kwslite.layers import _col2im, _maxpool_route, _maxpool_scatter
from kwslite.tensor import Pool, Stride, im2col, maxpool
from kwslite.train import CHUNK
from kwslite.audio import write_wav

from conftest import STEPS_ARCH, in_reverse_order, random_arch, random_window

train_module = importlib.import_module("kwslite.train")  # the package's `train` is the function


# --- cross entropy ----------------------------------------------------------


def test_cross_entropy_hand_values():
    assert cross_entropy(np.array([0.5, 0.5]), 0) == pytest.approx(np.log(2.0))
    assert cross_entropy(np.array([1.0, 0.0]), 0) == 0.0
    assert cross_entropy(np.array([0.25] * 4), 2) == pytest.approx(np.log(4.0))


def test_cross_entropy_clamps_zero_probability():
    loss = cross_entropy(np.array([0.0, 1.0]), 0)
    assert np.isfinite(loss)
    assert loss == pytest.approx(-np.log(1e-12))


def test_cross_entropy_validates_inputs():
    with pytest.raises(ValueError):
        cross_entropy(np.array([0.5, 0.5]), 2)
    with pytest.raises(ValueError):
        cross_entropy(np.array([0.9, 0.9]), 0)


# --- gradients --------------------------------------------------------------


def test_grad_check_dnn_and_cnn_one(rng):
    for build in (build_dnn_baseline, build_cnn_one):
        arch = build(4)
        example = LabeledExample(random_window(rng, arch), 1)
        err = grad_check(arch, example, samples_per_tensor=40, seed=5)
        assert err < 1e-4, (arch.name, err)


def test_grad_check_pooled_arch(rng):
    arch = build_cnn_trad(4)
    example = LabeledExample(random_window(rng, arch), 2)
    err = grad_check(arch, example, samples_per_tensor=25, seed=5)
    assert err < 1e-4, err


def test_grad_check_strided_and_time_pooled_archs(rng):
    for build in (build_cnn_tstride, build_cnn_tpool):
        arch = build(4)
        example = LabeledExample(random_window(rng, arch, scale=0.5), 3)
        err = grad_check(arch, example, samples_per_tensor=25, seed=5)
        assert err < 1e-4, (arch.name, err)


def test_grad_check_random_stacks():
    # random stacks mix time/frequency strides and pools over up to 3 convs
    rng = np.random.default_rng(77)
    for trial in range(10):
        arch = random_arch(rng, max_convs=3)
        example = LabeledExample(random_window(rng, arch), int(rng.integers(arch.labels)))
        err = grad_check(arch, example, samples_per_tensor=15, seed=trial)
        assert err < 1e-4, (trial, arch.layers, err)


@pytest.mark.parametrize("build", [build_cnn_tstride, build_cnn_tpool])
def test_batch_gradients_are_the_mean_of_single_examples(rng, build):
    arch = build(4)
    weights = {k: v.astype(np.float64) for k, v in init_weights(arch, 3).items()}
    sizes = (1, 3, 16, 17)
    assert any(size > CHUNK and size % CHUNK for size in sizes)  # a chunk boundary mid-batch
    for size in sizes:
        batch = [LabeledExample(random_window(rng, arch), int(rng.integers(4))) for _ in range(size)]
        grads, loss, correct = loss_and_grads(arch, weights, batch)
        singles = [loss_and_grads(arch, weights, [ex]) for ex in batch]
        assert loss == pytest.approx(np.mean([s[1] for s in singles]), rel=1e-12)
        assert correct == sum(s[2] for s in singles)
        for key in grads:
            mean = np.mean([s[0][key] for s in singles], axis=0)
            npt.assert_allclose(grads[key], mean, rtol=1e-6, atol=1e-12, err_msg=f"{key} batch {size}")


def test_zero_input_dense_only_gradients():
    arch = ArchSpec("toy", Context(1, 1), (Flatten(), Dense(8), SoftmaxOut(3)))
    weights = init_weights(arch, 3)
    example = LabeledExample(np.zeros((3, 40), dtype=np.float32), 1)
    grads, loss, _ = loss_and_grads(arch, weights, [example])
    # zero input: weight gradients of the first dense layer vanish,
    # bias gradients do not
    npt.assert_array_equal(grads["dense1.weights"], 0.0)
    assert np.any(grads["dense1.bias"] != 0.0)
    assert np.any(grads["softmax.bias"] != 0.0)
    assert np.isfinite(loss)


def test_duplicated_batch_equals_single_example(rng):
    arch = build_cnn_one(4)
    weights = init_weights(arch, 7)
    example = LabeledExample(random_window(rng, arch), 3)
    single, loss1, _ = loss_and_grads(arch, weights, [example])
    quad, loss4, _ = loss_and_grads(arch, weights, [example] * 4)
    assert loss1 == pytest.approx(loss4, rel=1e-12)
    for key in single:
        npt.assert_array_equal(single[key], quad[key])


def test_window_dtype_does_not_change_gradients(rng):
    # windows are cast to the weights' dtype before batching, so a float64
    # window cannot pull the other examples of its chunk into float64
    arch = build_cnn_trad(4)
    weights = init_weights(arch, 7)
    a = LabeledExample(random_window(rng, arch), 1)
    b = LabeledExample(random_window(rng, arch), 2)
    a64 = LabeledExample(a.window.astype(np.float64), a.label)
    plain, loss, _ = loss_and_grads(arch, weights, [a, b])
    mixed, loss_mixed, _ = loss_and_grads(arch, weights, [a64, b])
    assert loss == loss_mixed
    for key in plain:
        npt.assert_array_equal(plain[key], mixed[key])


def test_training_runs_the_production_conv_kernel(rng, monkeypatch):
    # a 1e-4 relative error in the kernel inference runs moves training's
    # loss and conv gradients too: there is no second conv product to miss it
    arch = build_cnn_trad(4)
    weights = init_weights(arch, 3, init_scale=0.2)
    batch = [LabeledExample(random_window(rng, arch), label) for label in (0, 2, 3)]
    grads, loss, _ = loss_and_grads(arch, weights, batch)
    honest = kwslite.tensor.conv2d_im2col
    monkeypatch.setattr(kwslite.tensor, "conv2d_im2col", lambda *args, **kw: honest(*args, **kw) * (1 + 1e-4))
    off_grads, off_loss, _ = loss_and_grads(arch, weights, batch)
    assert off_loss != loss
    assert not np.array_equal(off_grads["conv1.weights"], grads["conv1.weights"])


def stock_batch(name, size, seed=5):
    arch = get_arch(name, 4)
    rng = np.random.default_rng(seed)
    return arch, [LabeledExample(random_window(rng, arch), int(rng.integers(4))) for _ in range(size)]


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_float32_gradients_do_not_depend_on_chunk_size(monkeypatch, name):
    arch, batch = stock_batch(name, 17)
    weights = init_weights(arch, 3)
    runs = []
    for chunk in (1, 3, 8, 17):
        monkeypatch.setattr(train_module, "CHUNK", chunk)
        runs.append(loss_and_grads(arch, weights, batch))
    (first, loss, _), rest = runs[0], runs[1:]
    for grads, other_loss, _ in rest:
        assert other_loss == loss
        for key in first:
            assert grads[key].dtype == np.float32
            assert grads[key].tobytes() == first[key].tobytes(), key


def gamma64(n):
    """Higham's gamma(n) at float64's unit roundoff: n float64 terms summed
    in any order lie within gamma(n - 1) * sum|term| of the exact sum."""
    nu = n * 2.0**-53
    return nu / (1 - nu)


@pytest.mark.parametrize("layer", [Dense(6), LowRank(5)], ids=["dense", "lowrank"])
def test_flat_gradient_totals_are_held_to_a_stated_bound(layer):
    # a flat layer's float64 totals are summed in an order that depends on
    # the chunk size; each entry must stay within gamma64(N) * sum_b|d_b*x_b|
    # of the exactly rounded sum of its N = 17 exact float32 products
    rng = np.random.default_rng(11)
    n, width = 17, 40
    shapes = [shape for _, shape in layer.manifest("flat", (width,))]
    tensors = tuple(rng.standard_normal(shape).astype(np.float32) for shape in shapes)
    x = rng.standard_normal((n, width)).astype(np.float32)
    delta = rng.standard_normal((n, layer.width)).astype(np.float32)
    for chunk in (1, 3, 8, 17):
        totals = tuple(np.zeros(shape) for shape in shapes)
        seen = []  # each example's delta after the activation, as the layer used it
        for start in range(0, n, chunk):
            cache = {}
            layer.train_forward(tensors, x[start : start + chunk], cache)
            d = delta[start : start + chunk]
            seen.append(d * cache["route"] if "route" in cache else d)
            layer.train_backward(tensors, cache, d, totals, input_grad=False)
        d64 = np.concatenate(seen).astype(np.float64)
        terms = [d64[:, :, None] * x.astype(np.float64)[:, None, :]]  # exact in float64
        if len(totals) == 2:
            terms.append(d64)
        for total, term in zip(totals, terms):
            flat = term.reshape(n, -1)
            exact = np.array([math.fsum(flat[:, i]) for i in range(flat.shape[1])]).reshape(total.shape)
            excess = np.abs(total - exact) - gamma64(n) * np.abs(term).sum(axis=0)
            assert excess.max() <= 0, f"chunk {chunk}: {excess.max()} past the bound"


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_float32_backward_tracks_the_float64_backward(name):
    # grad_check validates the float64 backward; this ties the float32
    # products training runs to it
    arch, batch = stock_batch(name, 16)
    weights = init_weights(arch, 3)
    grads32, _, _ = loss_and_grads(arch, weights, batch)
    grads64, _, _ = loss_and_grads(arch, {k: w.astype(np.float64) for k, w in weights.items()}, batch)
    for key, g64 in grads64.items():
        assert grads32[key].dtype == np.float32
        npt.assert_allclose(grads32[key], g64, rtol=0, atol=2e-6 * np.abs(g64).max(), err_msg=key)


# tracemalloc peaks of one warm 16-example call with float32 weights, MB:
# the larger of the peaks measured on one and on two BLAS threads, plus 5%
TRAIN_PEAK_MB = {"dnn": 4.23, "cnn-trad": 5.78, "cnn-one": 1.92, "cnn-tstride2": 6.71, "cnn-tpool2": 10.75}


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_loss_and_grads_peak_memory(name):
    arch, batch = stock_batch(name, 16)
    weights = init_weights(arch, 3)
    loss_and_grads(arch, weights, batch)  # warm-up
    tracemalloc.start()
    try:
        loss_and_grads(arch, weights, batch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < TRAIN_PEAK_MB[name] * 1e6, f"{name}: loss_and_grads peaked at {peak} bytes"


@pytest.mark.parametrize("arch", [build_cnn_trad(4), STEPS_ARCH], ids=["cnn-trad", "steps"])
def test_training_finds_its_tensors_whatever_the_key_order(rng, monkeypatch, arch):
    examples = [LabeledExample(random_window(rng, arch), i % arch.labels) for i in range(6)]
    weights = init_weights(arch, 3, init_scale=0.2)
    want, want_loss, want_correct = loss_and_grads(arch, weights, examples)
    got, loss, correct = loss_and_grads(arch, in_reverse_order(weights), examples)
    assert (loss, correct) == (want_loss, want_correct) and set(got) == set(want)
    for key in want:
        assert got[key].dtype == want[key].dtype and got[key].tobytes() == want[key].tobytes(), key

    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    want_run = train(arch, examples, cfg)
    init = kwslite.arch.init_weights
    monkeypatch.setattr(kwslite.arch, "init_weights", lambda *args: in_reverse_order(init(*args)))
    got_run = train(arch, examples, cfg)
    assert list(got_run.weights) == list(reversed(list(want_run.weights)))  # the reversed start was used
    assert [s.loss for s in got_run.history] == [s.loss for s in want_run.history]
    for key, w in want_run.weights.items():
        assert got_run.weights[key].tobytes() == w.tobytes(), key


# --- max-pool routing -------------------------------------------------------


def oracle_maxpool_argmax(x, pool):
    """The reference for `tensor.maxpool` and `_maxpool_route`: each window's
    positions moved to a last axis, whose argmax (the first maximum) picks
    the pooled value."""
    *lead, t, f, c = x.shape
    t2, f2 = kwslite.tensor.pool_output_shape(t, f, pool)
    blocks = x[..., : t2 * pool.time, : f2 * pool.freq, :].reshape(*lead, t2, pool.time, f2, pool.freq, c)
    windows = np.moveaxis(blocks, (-4, -2), (-2, -1)).reshape(*lead, t2, f2, c, pool.time * pool.freq)
    arg = windows.argmax(axis=-1)
    return np.take_along_axis(windows, arg[..., None], axis=-1)[..., 0], arg


def oracle_maxpool_scatter(grad_pooled, arg, pre_shape, pool):
    """The reference for `_maxpool_scatter`: one strided write per window position."""
    t2, f2 = grad_pooled.shape[-3:-1]
    grad_pre = np.zeros(pre_shape, dtype=grad_pooled.dtype)
    for k in range(pool.time * pool.freq):
        dt, df = divmod(k, pool.freq)
        grad_pre[..., dt : t2 * pool.time : pool.time, df : f2 * pool.freq : pool.freq, :] = np.where(
            arg == k, grad_pooled, 0.0
        )
    return grad_pre


def test_maxpool_routing_conserves_gradient(rng):
    x = rng.standard_normal((6, 9, 3)).astype(np.float64)
    pool = Pool(2, 3)
    pooled = maxpool(x, pool)
    route = _maxpool_route(x, pooled, pool)
    upstream = rng.standard_normal(pooled.shape)
    routed = _maxpool_scatter(upstream, route, x.shape)
    # every window's gradient lands on exactly one input position
    assert routed.shape == x.shape
    npt.assert_allclose(routed.sum(), upstream.sum(), rtol=1e-12)
    assert np.count_nonzero(routed) <= upstream.size
    # and it lands on the argmax position
    for ti in range(3):
        for fi in range(3):
            for c in range(3):
                window = x[2 * ti : 2 * ti + 2, 3 * fi : 3 * fi + 3, c]
                routed_win = routed[2 * ti : 2 * ti + 2, 3 * fi : 3 * fi + 3, c]
                flat = np.argmax(window)
                assert routed_win.reshape(-1)[flat] == upstream[ti, fi, c]


def test_maxpool_ties_break_to_earliest():
    x = np.zeros((2, 2, 1), dtype=np.float64)  # all equal: earliest wins
    route = _maxpool_route(x, maxpool(x, Pool(2, 2)), Pool(2, 2))
    # the route is laid out (t2, pool.time, f2, pool.freq, c)
    assert route[0, :, 0, :, 0].tolist() == [[True, False], [False, False]]


@st.composite
def conv_cases(draw):
    b = draw(st.sampled_from([1, 3]))
    t, f, c = draw(st.integers(1, 9)), draw(st.integers(1, 9)), draw(st.integers(1, 3))
    kernel_t, kernel_f = draw(st.integers(1, t)), draw(st.integers(1, f))
    stride = Stride(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    return (b, t, f, c), kernel_t, kernel_f, stride, draw(st.integers(0, 2**32 - 1))


@given(conv_cases())
def test_col2im_is_the_adjoint_of_im2col(case):
    shape, kernel_t, kernel_f, stride, seed = case
    rng = np.random.default_rng(seed)
    # positive entries: no cancellation, so the two sums agree to rounding
    x = rng.uniform(1.0, 2.0, shape)
    cols = im2col(x, kernel_t, kernel_f, stride)[0]
    g = rng.uniform(1.0, 2.0, cols.shape)
    back = _col2im(g, shape, kernel_t, kernel_f, stride)
    assert back.shape == shape
    npt.assert_allclose(np.sum(cols * g), np.sum(x * back), rtol=1e-12)


@st.composite
def pool_cases(draw):
    pool = Pool(draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    t, f = draw(st.integers(pool.time, 8)), draw(st.integers(pool.freq, 8))
    shape = (*draw(st.sampled_from([(), (1,), (3,), (2, 3)])), t, f, draw(st.integers(1, 3)))
    dtype = draw(st.sampled_from([np.float32, np.float64]))
    return shape, pool, dtype, draw(st.booleans()), draw(st.integers(0, 2**32 - 1))


def pool_map(shape, dtype, ties, rng):
    # few distinct values, both zeros among them, make ties inside a window likely
    x = rng.choice([-0.0, 0.0, 1.0, 2.0], shape) if ties else rng.standard_normal(shape)
    return x.astype(dtype)


@given(pool_cases())
def test_maxpool_route_equals_the_argmax_oracle(case):
    shape, pool, dtype, ties, seed = case
    rng = np.random.default_rng(seed)
    x = pool_map(shape, dtype, ties, rng)
    # tensor.maxpool, which inference and training both run, on one map or
    # on leading axes: the oracle's pooled values byte for byte, signed zeros included
    want_pooled, arg = oracle_maxpool_argmax(x, pool)
    pooled = maxpool(x, pool)
    assert (pooled.dtype, pooled.shape) == (want_pooled.dtype, want_pooled.shape)
    assert pooled.tobytes() == want_pooled.tobytes()
    route = _maxpool_route(x, pooled, pool)
    upstream = rng.standard_normal(pooled.shape).astype(dtype)
    want = oracle_maxpool_scatter(upstream, arg, shape, pool)
    routed = _maxpool_scatter(upstream, route, shape)
    assert (routed.dtype, routed.shape) == (want.dtype, want.shape)
    assert routed.tobytes() == want.tobytes()


@given(pool_cases())
def test_batched_maxpool_equals_stacked_examples(case):
    shape, pool, dtype, ties, seed = case
    assume(len(shape) > 3)
    rng = np.random.default_rng(seed)
    x = pool_map(shape, dtype, ties, rng)
    pooled = maxpool(x, pool)
    route = _maxpool_route(x, pooled, pool)
    upstream = rng.standard_normal(pooled.shape).astype(dtype)
    routed = _maxpool_scatter(upstream, route, x.shape)
    for b in range(shape[0]):
        pooled_b = maxpool(x[b], pool)
        route_b = _maxpool_route(x[b], pooled_b, pool)
        npt.assert_array_equal(pooled[b], pooled_b)
        npt.assert_array_equal(route[b], route_b)
        npt.assert_array_equal(routed[b], _maxpool_scatter(upstream[b], route_b, x[b].shape))


@pytest.mark.parametrize("name", ["cnn-trad", "cnn-tpool2"])
def test_training_with_the_argmax_oracle_gives_the_same_bytes(monkeypatch, name):
    arch, examples = stock_batch(name, 6)
    cfg = TrainConfig(epochs=2, batch_size=4, seed=5)
    want = train(arch, examples, cfg)
    calls = []

    def oracle_pool(x, pool):
        return oracle_maxpool_argmax(x, pool)[0]

    def oracle_route(x, pooled, pool):
        calls.append(pool)
        return oracle_maxpool_argmax(x, pool)[1], pool

    def oracle_scatter(grad_pooled, route, pre_shape):
        arg, pool = route
        return oracle_maxpool_scatter(grad_pooled, arg, pre_shape, pool)

    monkeypatch.setattr(kwslite.tensor, "maxpool", oracle_pool)
    monkeypatch.setattr(kwslite.layers, "_maxpool_route", oracle_route)
    monkeypatch.setattr(kwslite.layers, "_maxpool_scatter", oracle_scatter)
    got = train(arch, examples, cfg)
    assert calls  # the oracle routed this run
    assert [s.loss for s in got.history] == [s.loss for s in want.history]
    for key, w in want.weights.items():
        assert got.weights[key].tobytes() == w.tobytes(), key


def test_the_stream_time_pool_keeps_maxpools_tie_rule(rng):
    # the stream pools a row in frequency, then folds rows 2i and 2i + 1 in
    # time: on maps full of +-0 ties, only the first-maximum rule in both
    # makes its row 2i the 2-D pool's row i, bit for bit
    layer = Conv(1, 1, 1, pool=Pool(2, 3))
    x = rng.choice([-0.0, 0.0, 1.0], (16, 9, 1), p=[0.45, 0.45, 0.1]).astype(np.float32)
    (_, _), (_, time_pool) = layer.stream(x.shape, 1, len(x))[0]
    rows = time_pool(None, maxpool(x, Pool(1, 3)), None)
    assert rows[::2].tobytes() == oracle_maxpool_argmax(x, Pool(2, 3))[0].tobytes()


# --- one forward ------------------------------------------------------------


def zero_heavy_windows(rng, arch):
    """Windows whose zeros, whole rows and single bins, make ties and
    exact-zero products likely."""
    windows = np.stack([random_window(rng, arch) for _ in range(5)])
    windows[0] = 0.0
    windows[1, ::2] = 0.0
    windows[2] = np.maximum(windows[2], 0.0)
    windows[3, :, ::3] = -0.0
    return windows


def test_training_forward_is_the_per_window_forward(rng):
    # the same kernels on a batch: training's float64 posteriors, cast to
    # float32 as dense casts its softmax, equal forward()'s bit for bit
    stacks = [get_arch(name, 4) for name in ARCHITECTURES] + [random_arch(rng, max_convs=3) for _ in range(12)]
    for arch in stacks + [STEPS_ARCH]:
        weights = init_weights(arch, 3, init_scale=0.2)
        windows = zero_heavy_windows(rng, arch)
        posteriors, _ = train_module._forward(arch, weights, windows)
        for i, window in enumerate(windows):
            want = kwslite.arch.forward(arch, weights, window)
            assert posteriors[i].astype(np.float32).tobytes() == want.tobytes(), (arch.layers, i)


def test_evaluate_scores_the_training_forward(rng):
    arch = get_arch("cnn-tpool2", 4)
    weights = init_weights(arch, 5, init_scale=0.2)
    examples = [LabeledExample(w, i % 4) for i, w in enumerate(np.concatenate([zero_heavy_windows(rng, arch)] * 2))]
    posteriors = [kwslite.arch.forward(arch, weights, ex.window) for ex in examples]
    loss, accuracy = evaluate(arch, weights, examples)
    assert accuracy == np.mean([p.argmax() == ex.label for p, ex in zip(posteriors, examples)])
    # float64 posteriors: within float32's rounding of each probability
    want = np.mean([cross_entropy(p, ex.label) for p, ex in zip(posteriors, examples)])
    assert abs(loss - want) <= 2**-23


# --- training loop ----------------------------------------------------------


@pytest.fixture(scope="module")
def tiny_corpus():
    ds = make_synthetic_dataset(SyntheticSpec(keywords=2, examples_per_class=6, seed=3))
    arch = build_cnn_one(len(ds.labels))
    return arch, center_window_examples(ds.train, arch.context)


@pytest.mark.parametrize("lr", [math.nan, math.inf, -math.inf, -1e-3])
def test_learning_rate_must_be_finite_and_non_negative(lr):
    with pytest.raises(ValueError, match="learning rate"):
        TrainConfig(learning_rate=lr)


def test_zero_learning_rate_keeps_init(tiny_corpus):
    arch, examples = tiny_corpus
    cfg = TrainConfig(learning_rate=0.0, epochs=2, seed=11)
    result = train(arch, examples, cfg)
    init = init_weights(arch, 11)
    for key in init:
        npt.assert_array_equal(result.weights[key], init[key])


def test_training_deterministic(tiny_corpus):
    arch, examples = tiny_corpus
    cfg = TrainConfig(learning_rate=0.05, epochs=4, seed=2)
    a = train(arch, examples, cfg)
    b = train(arch, examples, cfg)
    assert [s.loss for s in a.history] == [s.loss for s in b.history]
    for key in a.weights:
        npt.assert_array_equal(a.weights[key], b.weights[key])


def test_training_reduces_loss(tiny_corpus):
    arch, examples = tiny_corpus
    result = train(arch, examples, TrainConfig(epochs=15, seed=0))
    assert result.history[-1].loss < result.history[0].loss
    assert len(result.history) == 15


def test_wrong_window_shape_is_rejected(tiny_corpus):
    arch, examples = tiny_corpus
    # right size, transposed: (input_f, input_t)
    bad = list(examples)
    bad[5] = LabeledExample(np.ascontiguousarray(bad[5].window.T), bad[5].label)
    with pytest.raises(ShapeError, match="example 5"):
        train(arch, bad, TrainConfig(epochs=1, seed=0))
    weights = init_weights(arch, 0)
    with pytest.raises(ShapeError, match="example 1"):
        loss_and_grads(arch, weights, [examples[0], bad[5]])


@pytest.mark.parametrize("label", [-1, 3, 7])
def test_out_of_range_label_is_rejected_before_training(tiny_corpus, label):
    arch, examples = tiny_corpus
    assert arch.labels == 3
    bad = list(examples)
    last = len(bad) - 1
    bad[last] = LabeledExample(bad[last].window, label)
    # the check runs before epoch 1, not when the bad example's batch comes up
    with pytest.raises(ValueError, match=f"example {last}"):
        train(arch, bad, TrainConfig(epochs=1, batch_size=1, seed=0))
    with pytest.raises(ValueError, match="example 0"):
        loss_and_grads(arch, init_weights(arch, 0), [bad[last]])


@pytest.mark.parametrize("name", ["dnn", "cnn-tpool2"])
def test_weights_off_the_manifest_are_rejected_by_name(rng, name):
    arch = get_arch(name, 3)
    batch = [LabeledExample(random_window(rng, arch), 1)]
    weights = init_weights(arch, 0)
    missing = {k: w for k, w in weights.items() if k != "dense1.bias"}
    misshaped = {**weights, "dense1.bias": np.zeros(5, np.float32)}
    extra = {**weights, "dense9.bias": np.zeros(5, np.float32)}
    for bad, match in (
        (missing, "missing dense1.bias"),
        (misshaped, "dense1.bias has shape"),
        (extra, "unexpected tensor dense9.bias"),
    ):
        for call in (loss_and_grads, evaluate):
            with pytest.raises(ManifestMismatchError, match=match):
                call(arch, bad, batch)


def test_history_records_time_and_gradient_norm(tiny_corpus):
    arch, examples = tiny_corpus
    result = train(arch, examples, TrainConfig(epochs=2, seed=0))
    for stats in result.history:
        assert stats.seconds > 0.0
        assert np.isfinite(stats.grad_norm) and stats.grad_norm > 0.0
    # at zero learning rate every epoch sees the same gradients
    frozen = train(arch, examples, TrainConfig(learning_rate=0.0, epochs=2, batch_size=len(examples), seed=0))
    grads, _, _ = loss_and_grads(arch, init_weights(arch, 0), examples)
    expected = np.sqrt(sum(np.sum(g.astype(np.float64) ** 2) for g in grads.values()))
    for stats in frozen.history:
        assert stats.grad_norm == pytest.approx(expected, rel=1e-6)


def test_train_checks_its_examples_once(tiny_corpus, monkeypatch):
    arch, examples = tiny_corpus
    calls = {"_check_examples": 0, "check_weights": 0}

    def counted(owner, name):
        real = getattr(owner, name)

        def call(*args):
            calls[name] += 1
            return real(*args)

        monkeypatch.setattr(owner, name, call)

    counted(train_module, "_check_examples")
    counted(kwslite.arch, "check_weights")
    train(arch, examples, TrainConfig(epochs=3, batch_size=4, seed=0))
    assert calls == {"_check_examples": 1, "check_weights": 0}
    loss_and_grads(arch, init_weights(arch, 0), examples[:4])  # the public call keeps both checks
    assert calls == {"_check_examples": 2, "check_weights": 1}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow is the point
def test_divergence_reports_epoch(tiny_corpus):
    arch, examples = tiny_corpus
    with pytest.raises(DivergenceError) as info:
        train(arch, examples, TrainConfig(learning_rate=1e9, epochs=10, seed=0))
    assert info.value.epoch is not None
    assert 1 <= info.value.epoch <= 10


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_a_window_that_is_not_finite_is_refused_by_name(bad):
    # unchecked, a NaN window gives a finite loss with NaN gradients, and
    # train() returns NaN weights without raising
    arch = get_arch("cnn-one", 4)
    rng = np.random.default_rng(5)
    examples = [LabeledExample(random_window(rng, arch), i % 4) for i in range(8)]
    examples[5].window[3, 7] = bad
    weights = init_weights(arch, 0)
    calls = {
        "train": lambda: train(arch, examples, TrainConfig(epochs=1, batch_size=8)),
        "loss_and_grads": lambda: loss_and_grads(arch, weights, examples),
        "evaluate": lambda: evaluate(arch, weights, examples),
    }
    for name, call in calls.items():
        with pytest.raises(NumericError, match="example 5"):
            call()


def test_a_gradient_that_is_not_finite_stops_training(tiny_corpus, monkeypatch):
    arch, examples = tiny_corpus
    real = train_module.loss_and_grads

    def nan_gradient(*args):
        grads, loss, correct = real(*args)
        name = next(iter(grads))
        grads[name] = np.full_like(grads[name], np.nan)
        return grads, loss, correct  # the loss stays finite

    monkeypatch.setattr(train_module, "loss_and_grads", nan_gradient)
    with pytest.raises(DivergenceError) as info:
        train(arch, examples, TrainConfig(epochs=3, seed=0))
    assert info.value.epoch == 1


def test_training_relu_keeps_nan_as_inference_does():
    layer = Dense(1)
    tensors = (np.ones((1, 1), dtype=np.float32), np.zeros(1, dtype=np.float32))
    x = np.array([[np.nan], [-1.0]], dtype=np.float32)  # two examples
    trained = layer.train_forward(tensors, x, {})[:, 0]
    inferred = [layer.forward(layer.bind(tensors), row, None)[0] for row in x]
    for y in (trained, inferred):
        assert np.isnan(y[0]) and y[1] == 0.0


def test_evaluate_matches_history_scale(tiny_corpus):
    arch, examples = tiny_corpus
    result = train(arch, examples, TrainConfig(epochs=20, seed=1))
    loss, acc = evaluate(arch, result.weights, examples)
    assert 0.0 <= acc <= 1.0
    assert loss < np.log(3)  # better than uniform over 3 classes


# --- synthetic dataset ------------------------------------------------------


def test_synthetic_dataset_layout():
    spec = SyntheticSpec(keywords=3, examples_per_class=20, seed=1)
    ds = make_synthetic_dataset(spec)
    assert ds.labels == ["_filler", "kw1", "kw2", "kw3"]
    assert ds.labels == sorted(ds.labels)
    assert ds.filler_index == 0
    assert len(ds.train) == 80
    assert len(ds.test) == 4 * max(2, 20 // 4)
    for samples, label in ds.train + ds.test:
        assert samples.dtype == np.float32
        assert len(samples) == 16000
        assert 0 <= label <= 3
        assert np.all(np.abs(samples) <= 1.0)


def test_synthetic_dataset_deterministic():
    a = make_synthetic_dataset(SyntheticSpec(seed=9))
    b = make_synthetic_dataset(SyntheticSpec(seed=9))
    for (xa, la), (xb, lb) in zip(a.train, b.train):
        npt.assert_array_equal(xa, xb)
        assert la == lb


def test_synthetic_classes_have_distinct_dominant_filters():
    ds = make_synthetic_dataset(SyntheticSpec(keywords=3, examples_per_class=2, seed=4))
    dominant = {}
    for label in range(1, 4):
        samples = next(x for x, l in ds.train if l == label)
        frames = log_mel_frames(Waveform(samples))
        dominant[label] = int(np.argmax(frames.mean(axis=0)))
    assert len(set(dominant.values())) == 3


def test_first_epoch_loss_near_uniform(tiny_corpus):
    arch, examples = tiny_corpus
    result = train(arch, examples, TrainConfig(epochs=1, seed=6))
    assert result.history[0].loss <= np.log(arch.labels) + 0.1


def test_load_dataset_dir(tmp_path):
    rng = np.random.default_rng(0)
    for cls in (FILLER_NAME, "go", "stop"):
        d = tmp_path / cls
        d.mkdir()
        for i in range(2):
            write_wav(d / f"ex{i}.wav", 0.1 * rng.standard_normal(16000))
    ds = load_dataset_dir(tmp_path)
    assert ds.labels == [FILLER_NAME, "go", "stop"]
    assert len(ds.train) == 6
    assert ds.filler_index == 0


def test_load_dataset_dir_requires_filler(tmp_path):
    d = tmp_path / "go"
    d.mkdir()
    write_wav(d / "a.wav", np.zeros(16000))
    with pytest.raises(KwsError):
        load_dataset_dir(tmp_path)


@pytest.mark.parametrize("config, field, minimum", [
    (DetectorConfig, "w_smooth", 1),
    (DetectorConfig, "w_max", 1),
    (DetectorConfig, "refractory", 0),
    (TrainConfig, "epochs", 1),
    (TrainConfig, "batch_size", 1),
    (SyntheticSpec, "keywords", 1),
    (SyntheticSpec, "examples_per_class", 1),
])
def test_config_count_fields_take_only_integers(config, field, minimum):
    # a float or bool count is refused at construction, not deep inside a run
    for value in (2.0, 2.5, True, "2"):
        with pytest.raises(TypeError, match=f"{config.__name__}: {field} must be an integer"):
            config(**{field: value})
    with pytest.raises(ValueError, match=f"{field} must be >= {minimum}"):
        config(**{field: minimum - 1})
    assert getattr(config(**{field: np.int64(minimum)}), field) == minimum
