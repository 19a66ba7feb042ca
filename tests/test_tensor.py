"""Kernel-level checks: both conv paths, pooling, dense layers, softmax."""

import math

import numpy as np
import numpy.testing as npt
import pytest

from kwslite import (
    FilterBank,
    MacCounter,
    Pool,
    Stride,
    conv2d_optimized,
    conv2d_valid,
    dense,
    flatten,
    linear,
    maxpool,
)
from kwslite.errors import ShapeError
from kwslite.tensor import (
    TAP_DEPTH,
    UNIT_ROUNDOFF,
    conv2d_error_bound,
    conv_output_shape,
    gamma,
    im2col,
)


def _rand_bank(rng, kt, kf, c, n):
    return FilterBank(
        rng.standard_normal((kt, kf, c, n)).astype(np.float32),
        rng.standard_normal(n).astype(np.float32),
    )


def test_conv_tiny_hand_example():
    # [[1,2],[3,4]] against an identity-diagonal kernel: 1*1 + 4*1 = 5
    x = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.float32).reshape(2, 2, 1)
    bank = FilterBank(np.array([[[[1.0]], [[0.0]]], [[[0.0]], [[1.0]]]], dtype=np.float32))
    out = conv2d_valid(x, bank)
    assert out.shape == (1, 1, 1)
    assert out[0, 0, 0] == 5.0


def test_conv_identity_kernel_passthrough(rng):
    x = rng.standard_normal((6, 7, 1)).astype(np.float32)
    bank = FilterBank(np.ones((1, 1, 1, 1), dtype=np.float32))
    npt.assert_array_equal(conv2d_valid(x, bank)[:, :, 0], x[:, :, 0])
    npt.assert_array_equal(conv2d_optimized(x, bank)[:, :, 0], x[:, :, 0])


def test_conv_output_shape_law(rng):
    # formula vs. brute-force enumeration of valid placements
    for _ in range(200):
        t, f = int(rng.integers(1, 30)), int(rng.integers(1, 30))
        kt, kf = int(rng.integers(1, t + 1)), int(rng.integers(1, f + 1))
        s = Stride(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        out_t, out_f = conv_output_shape(t, f, kt, kf, s)
        assert out_t == len(range(0, t - kt + 1, s.time))
        assert out_f == len(range(0, f - kf + 1, s.freq))
        assert out_t >= 1 and out_f >= 1


def test_conv_known_shape(rng):
    x = rng.standard_normal((32, 40, 1)).astype(np.float32)
    out = conv2d_optimized(x, _rand_bank(rng, 21, 9, 1, 64))
    assert out.shape == (12, 32, 64)


def float64_copies(x, bank):
    return x.astype(np.float64), FilterBank(bank.weights.astype(np.float64), bank.bias.astype(np.float64))


def test_conv_paths_agree_random(rng):
    # float64 operands meet a relative tolerance; float32 ones, whose sums a
    # float32 accumulation cannot hold to one near cancellation, their bound
    for _ in range(150):
        t, f, c = int(rng.integers(2, 14)), int(rng.integers(2, 14)), int(rng.integers(1, 4))
        kt, kf = int(rng.integers(1, t + 1)), int(rng.integers(1, f + 1))
        n = int(rng.integers(1, 6))
        s = Stride(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = rng.standard_normal((t, f, c)).astype(np.float32)
        bank = _rand_bank(rng, kt, kf, c, n)
        x64, bank64 = float64_copies(x, bank)
        a = conv2d_valid(x64, bank64, s)
        b = conv2d_optimized(x64, bank64, s)
        assert a.shape == b.shape
        npt.assert_allclose(a, b, rtol=1e-5, atol=0)
        assert np.all(np.abs(conv2d_optimized(x, bank, s) - a) <= conv2d_error_bound(x, bank, s))


def test_production_conv_accumulates_in_the_promoted_dtype_within_the_bound(rng):
    # float32 operands: a float32 product, each output within its a-priori
    # bound of the exact sums; a float64 operand: a float64 product
    worst = 0.0
    for _ in range(300):
        t, f, c = int(rng.integers(1, 13)), int(rng.integers(1, 13)), int(rng.integers(1, 4))
        kt, kf = int(rng.integers(1, t + 1)), int(rng.integers(1, f + 1))
        s = Stride(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = rng.standard_normal((t, f, c)).astype(np.float32)
        bank = _rand_bank(rng, kt, kf, c, int(rng.integers(1, 7)))
        fast = conv2d_optimized(x, bank, s)
        assert fast.dtype == np.float32
        err = np.abs(fast - conv2d_valid(x.astype(np.float64), bank, s))
        bound = conv2d_error_bound(x, bank, s)
        assert bound.dtype == np.float64 and np.all(err <= bound)
        worst = max(worst, float(np.max(err / bound)))
        x64, bank64 = float64_copies(x, bank)
        for args in ((x, bank64), (x64, bank), (x64, bank64)):
            assert conv2d_optimized(*args, s).dtype == np.float64
    assert 0 < worst < 1


def loop_conv(x, filters, stride, counter):
    """The written-out definition conv2d_valid once ran: one float64 inner
    product per output position and map, each metered as it runs."""
    kt, kf = filters.kernel_t, filters.kernel_f
    out_t, out_f = conv_output_shape(x.shape[0], x.shape[1], kt, kf, stride)
    x64, w64, b64 = (a.astype(np.float64) for a in (x, filters.weights, filters.bias))
    out = np.empty((out_t, out_f, filters.maps))
    for ti in range(out_t):
        for fi in range(out_f):
            patch = x64[ti * stride.time : ti * stride.time + kt, fi * stride.freq : fi * stride.freq + kf]
            for k in range(filters.maps):
                out[ti, fi, k] = np.sum(patch * w64[:, :, :, k]) + b64[k]
                counter.add(patch.size)
    return out.astype(np.promote_types(x.dtype, filters.weights.dtype))


def test_reference_conv_is_the_per_output_loop(rng):
    # float32 results equal the loop's bit for bit; float64 results, whose
    # sums the two order differently, lie within gamma_64(K + 1) * (sum|w*x| + |b|)
    u64 = 2.0**-53
    for trial in range(120):
        t, f, c = int(rng.integers(1, 12)), int(rng.integers(1, 12)), int(rng.integers(1, 5))
        full = trial % 4 == 0  # a kernel as large as its input
        kt, kf = (t, f) if full else (int(rng.integers(1, t + 1)), int(rng.integers(1, f + 1)))
        s = Stride(int(rng.integers(1, 4)), int(rng.integers(1, 4)))
        bank = _rand_bank(rng, kt, kf, c, int(rng.integers(1, 6)))
        x = rng.standard_normal((t, f, c)).astype(np.float32)
        got_count, want_count = MacCounter(), MacCounter()
        got, want = conv2d_valid(x, bank, s, got_count), loop_conv(x, bank, s, want_count)
        assert got.dtype == want.dtype == np.float32 and got.shape == want.shape
        assert got.tobytes() == want.tobytes(), (t, f, c, kt, kf, s)
        assert got_count.count == want_count.count
        bank64 = FilterBank(bank.weights.astype(np.float64), bank.bias.astype(np.float64))
        x64 = rng.standard_normal((t, f, c))
        got, want = conv2d_valid(x64, bank64, s), loop_conv(x64, bank64, s, MacCounter())
        magnitudes = FilterBank(np.abs(bank64.weights), np.abs(bank64.bias))
        n = kt * kf * c + 1
        bound = n * u64 / (1 - n * u64) * loop_conv(np.abs(x64), magnitudes, s, MacCounter())
        assert got.dtype == np.float64 and np.all(np.abs(got - want) <= bound), (t, f, c, kt, kf, s)


def test_gamma_is_the_float32_dot_product_constant():
    assert gamma(1) == UNIT_ROUNDOFF / (1 - UNIT_ROUNDOFF)
    assert gamma(190) == pytest.approx(190 * 2.0**-24, rel=2e-5)
    with pytest.raises(ValueError):
        gamma(2**24)


def sliding_window_im2col(x, kernel_t, kernel_f, stride):
    """The reference unfold: numpy's sliding windows, strided, with the window
    axes moved from last, (..., out_t, out_f, c, kt, kf), to the filters' layout."""
    windows = np.lib.stride_tricks.sliding_window_view(x, (kernel_t, kernel_f), axis=(-3, -2))
    windows = windows[..., :: stride.time, :: stride.freq, :, :, :]
    out_t, out_f = windows.shape[-5], windows.shape[-4]
    return windows.transpose(*range(x.ndim - 1), -2, -1, -3).reshape(*x.shape[:-3], out_t * out_f, -1)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("lead", [(), (3,), (2, 2)])
def test_im2col_equals_the_sliding_window_unfold_bit_for_bit(rng, dtype, lead):
    cases = [
        ((7, 9, 2), 3, 4, Stride(1, 1)),
        ((9, 11, 3), 2, 3, Stride(2, 1)),
        ((8, 10, 1), 3, 2, Stride(1, 3)),
        ((11, 12, 2), 4, 5, Stride(3, 2)),
        ((5, 6, 2), 5, 6, Stride(1, 1)),  # a kernel as large as its input
        ((5, 6, 2), 5, 6, Stride(2, 3)),
    ]
    for shape, kt, kf, stride in cases:
        base = rng.standard_normal(lead + (3 * shape[0],) + shape[1:]).astype(dtype)
        # contiguous, every third row from each phase (x[p::step]), and leading axes stored last
        inputs = [base[..., : shape[0], :, :]] + [base[..., p :: 3, :, :] for p in range(3)]
        inputs.append(np.moveaxis(rng.standard_normal(shape + lead).astype(dtype), (0, 1, 2), (-3, -2, -1)))
        for x in inputs:
            got, want = im2col(x, kt, kf, stride), sliding_window_im2col(x, kt, kf, stride)
            assert got.shape == want.shape and got.dtype == want.dtype == dtype
            assert got.tobytes() == want.tobytes(), (shape, kt, kf, stride, x.strides)
    with pytest.raises(ShapeError):
        im2col(np.zeros(lead + (5, 6, 2), dtype), 6, 6, Stride())


def test_conv_counter_meters_actual_multiplies(rng):
    x = rng.standard_normal((9, 11, 2)).astype(np.float32)
    bank = _rand_bank(rng, 3, 4, 2, 5)
    for conv in (conv2d_valid, conv2d_optimized):
        counter = MacCounter()
        out = conv(x, bank, Stride(2, 1), counter=counter)
        out_t, out_f, n = out.shape
        assert counter.count == out_t * out_f * 3 * 4 * 2 * n, conv.__name__


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_production_conv_on_a_batch_is_its_maps_stacked_bit_for_bit(rng, dtype):
    # stacked products over (B, T, F, C) run each map's own shapes, so a
    # map's output does not depend on the batch it comes in; the last case
    # sums grouped taps (a stock conv2's)
    for t, f, c, kt, kf, n in ((9, 11, 2, 3, 4, 5), (32, 40, 1, 21, 8, 16), (14, 10, 64, 10, 4, 8)):
        bank = _rand_bank(rng, kt, kf, c, n)
        bank = FilterBank(bank.weights.astype(dtype), bank.bias.astype(dtype))
        for batch in (1, 3, 8):
            for s in (Stride(1, 1), Stride(2, 1), Stride(1, 2), Stride(2, 2)):
                x = rng.standard_normal((batch, t, f, c)).astype(dtype)
                counter, singles = MacCounter(), [MacCounter() for _ in range(batch)]
                got = conv2d_optimized(x, bank, s, counter)
                want = np.stack([conv2d_optimized(m, bank, s, one) for m, one in zip(x, singles)])
                assert got.dtype == want.dtype == dtype and got.shape == want.shape
                assert got.tobytes() == want.tobytes(), (t, kt, batch, s)
                assert counter.count == sum(one.count for one in singles)


def grouped_case(rng, dtype, lead, time_stride):
    """A random conv whose taps reach TAP_DEPTH below its kernel's whole time
    span, in `dtype`, on maps with leading axes `lead`: (x, bank, stride)."""
    kt = int(rng.choice([2, 3, 4, 6]))
    g = int(rng.choice([d for d in range(1, kt) if kt % d == 0]))
    kf = int(rng.integers(1, 4))
    c = -(-TAP_DEPTH // (g * kf)) + int(rng.integers(0, 4))  # g taps reach the depth
    stride = Stride(time_stride, int(rng.integers(1, 3)))
    t, f = kt + int(rng.integers(0, 7)), kf + int(rng.integers(0, 4))
    bank = _rand_bank(rng, kt, kf, c, int(rng.integers(1, 6)))
    bank = FilterBank(bank.weights.astype(dtype), bank.bias.astype(dtype))
    return rng.standard_normal(lead + (t, f, c)).astype(dtype), bank, stride


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_a_grouped_conv_keeps_the_bound_and_meters_the_closed_form(rng, dtype):
    # kernel_t / tap_group products summed into one output: float32 operands
    # within gamma(K + 1) of the exact sums, float64 ones within twice the
    # same bound at float64's u (the oracle's einsum rounds in float64 too)
    u, slack = (UNIT_ROUNDOFF, 1) if dtype == np.float32 else (2.0**-53, 2)
    for trial in range(48):
        lead = ((), (3,))[trial % 2]
        x, bank, s = grouped_case(rng, dtype, lead, time_stride=1 + trial // 2 % 2)
        assert bank.tap_group < bank.kernel_t
        counter = MacCounter()
        got = conv2d_optimized(x, bank, s, counter)
        out_t, out_f = conv_output_shape(x.shape[-3], x.shape[-2], bank.kernel_t, bank.kernel_f, s)
        assert got.dtype == dtype and got.shape == lead + (out_t, out_f, bank.maps)
        assert counter.count == math.prod(lead) * out_t * out_f * bank.weights.size
        k = bank.kernel_t * bank.kernel_f * bank.in_channels
        bound = slack * gamma(k + 1, u) / gamma(k + 1) * conv2d_error_bound(x, bank, s)
        exact = [conv2d_valid(m.astype(np.float64), bank, s) for m in x.reshape(-1, *x.shape[-3:])]
        err = np.abs(got - np.reshape(exact, got.shape))
        assert np.all(err <= bound), (trial, x.shape, bank.weights.shape, s)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_an_ungrouped_conv_is_one_im2col_product_bit_for_bit(rng, dtype):
    # taps too shallow to reach TAP_DEPTH (every stock conv1, cnn-one's conv)
    cases = [
        ((84, 40, 1), 21, 9, Stride(1, 1)),
        ((32, 40, 1), 21, 9, Stride(2, 1)),
        ((32, 40, 1), 32, 9, Stride(1, 1)),
        ((9, 11, 3), 3, 4, Stride(2, 1)),
        ((7, 9, 2), 7, 9, Stride(1, 2)),
    ]
    for lead in ((), (3,)):
        for shape, kt, kf, s in cases:
            bank = _rand_bank(rng, kt, kf, shape[2], 16)
            bank = FilterBank(bank.weights.astype(dtype), bank.bias.astype(dtype))
            assert bank.tap_group == kt
            x = rng.standard_normal(lead + shape).astype(dtype)
            want = im2col(x, kt, kf, s) @ bank.weights.reshape(-1, bank.maps)
            want += bank.bias
            got = conv2d_optimized(x, bank, s)
            assert got.tobytes() == want.reshape(got.shape).tobytes(), (lead, shape, kt, s)


def test_the_tap_group_is_the_smallest_divisor_whose_taps_reach_the_depth(rng):
    for _ in range(200):
        kt, kf, c = (int(n) for n in rng.integers(1, (13, 9, 2 * TAP_DEPTH // 3)))
        bank = FilterBank(np.zeros((kt, kf, c, 1), dtype=np.float32))
        reach = [g for g in range(1, kt + 1) if kt % g == 0 and g * kf * c >= TAP_DEPTH]
        assert bank.tap_group == min(reach, default=kt), (kt, kf, c)


def grouped_sum(x, bank, stride, out_t, first_rows):
    """conv2d_optimized's grouped sum written out: group k's product reads x's
    group unfold at rows first_rows[k], first_rows[k] + stride.time, ...
    (None: group k is left out); the products are summed in group order,
    then the bias is added."""
    g = bank.tap_group
    cols = im2col(x, g, bank.kernel_f, Stride(1, stride.freq))
    cols = cols.reshape(x.shape[0] - g + 1, -1, cols.shape[-1])
    taps = bank.weights.reshape(bank.kernel_t // g, -1, bank.maps)
    out = None
    for first, w in zip(first_rows, taps):
        if first is not None:
            part = cols[first : first + (out_t - 1) * stride.time + 1 : stride.time].reshape(-1, w.shape[0]) @ w
            out = part if out is None else out + part
    out += bank.bias
    return out.reshape(out_t, -1, bank.maps)


def test_a_grouped_conv_that_drops_or_shifts_a_tap_group_breaks_the_bound(rng):
    bank = _rand_bank(rng, 10, 4, 64, 8)  # a stock conv2's taps over 64 channels
    g, groups = bank.tap_group, 10 // bank.tap_group
    assert groups > 1
    x = rng.standard_normal((17, 10, 64)).astype(np.float32)
    body = x[:-1]  # x's last row lets a group read one row later
    for s in (Stride(1, 1), Stride(2, 1)):
        out_t, _ = conv_output_shape(len(body), 10, 10, 4, s)
        exact = conv2d_valid(body.astype(np.float64), bank, s)
        bound = conv2d_error_bound(body, bank, s)
        firsts = [k * g for k in range(groups)]
        honest = grouped_sum(x, bank, s, out_t, firsts)
        assert honest.tobytes() == conv2d_optimized(body, bank, s).tobytes()
        assert np.all(np.abs(honest - exact) <= bound)
        for k in range(groups):
            for wrong in (None, firsts[k] + 1):  # group k dropped, or read a row late
                broken = grouped_sum(x, bank, s, out_t, firsts[:k] + [wrong] + firsts[k + 1 :])
                assert np.max(np.abs(broken - exact) / bound) > 1, (s, k, wrong)


def test_conv_errors_name_axis(rng):
    x = rng.standard_normal((5, 6, 2)).astype(np.float32)
    with pytest.raises(ShapeError) as info:
        conv2d_valid(x, _rand_bank(rng, 2, 2, 3, 4))
    assert info.value.axis == "channels"
    with pytest.raises(ShapeError) as info:
        conv2d_valid(x, _rand_bank(rng, 6, 2, 2, 4))
    assert info.value.axis == "time"
    with pytest.raises(ShapeError) as info:
        conv2d_optimized(x, _rand_bank(rng, 2, 7, 2, 4))
    assert info.value.axis == "freq"
    with pytest.raises(ShapeError) as info:
        conv2d_optimized(x, _rand_bank(rng, 2, 2, 3, 4))
    assert info.value.axis == "channels"
    with pytest.raises(ShapeError) as info:
        conv2d_optimized(np.stack([x, x]), _rand_bank(rng, 2, 2, 3, 4))
    assert info.value.axis == "channels"
    with pytest.raises(ShapeError) as info:
        conv2d_optimized(np.stack([x, x]), _rand_bank(rng, 6, 2, 2, 4))
    assert info.value.axis == "time"
    with pytest.raises(ShapeError) as info:
        conv2d_optimized(x[:, :, 0], _rand_bank(rng, 2, 2, 1, 4))
    assert info.value.axis is None  # no channels axis to name: a map needs all three


def test_no_nan_from_finite_inputs(rng):
    for _ in range(30):
        x = (100.0 * rng.standard_normal((7, 8, 2))).astype(np.float32)
        bank = _rand_bank(rng, 3, 3, 2, 4)
        for out in (conv2d_valid(x, bank), conv2d_optimized(x, bank)):
            assert np.all(np.isfinite(out))


def test_maxpool_freq_example():
    row = np.array([1.0, 5.0, 3.0, 2.0, 2.0, 2.0, 9.0], dtype=np.float32).reshape(1, 7, 1)
    out = maxpool(row, Pool(1, 3))
    # trailing remainder (the 9) is dropped
    npt.assert_array_equal(out[0, :, 0], [5.0, 2.0])


def test_maxpool_known_shape(rng):
    x = rng.standard_normal((12, 32, 64)).astype(np.float32)
    assert maxpool(x, Pool(1, 3)).shape == (12, 10, 64)


def test_maxpool_identity_and_scaling(rng):
    x = rng.standard_normal((4, 6, 3)).astype(np.float32)
    npt.assert_array_equal(maxpool(x, Pool(1, 1)), x)
    # commutes with positive scaling
    npt.assert_allclose(maxpool(2.5 * x, Pool(2, 3)), 2.5 * maxpool(x, Pool(2, 3)), rtol=1e-6)


def test_maxpool_output_contains_window_max(rng):
    x = rng.standard_normal((6, 9, 2)).astype(np.float32)
    out = maxpool(x, Pool(2, 3))
    for ti in range(3):
        for fi in range(3):
            for c in range(2):
                window = x[2 * ti : 2 * ti + 2, 3 * fi : 3 * fi + 3, c]
                assert out[ti, fi, c] == window.max()


def test_pool_validation():
    with pytest.raises(ValueError):
        Pool(0, 1)
    x = np.zeros((2, 2, 1), dtype=np.float32)
    with pytest.raises(ShapeError):
        maxpool(x, Pool(3, 1))


def test_flatten_row_major_and_roundtrip(rng):
    x = np.array([[[1.0], [2.0]]], dtype=np.float32)  # (1, 2, 1)
    npt.assert_array_equal(flatten(x), [1.0, 2.0])
    y = rng.standard_normal((3, 7, 64)).astype(np.float32)
    flat = flatten(y)
    assert flat.shape == (1344,)
    npt.assert_array_equal(flat.reshape(3, 7, 64), y)


def test_dense_hand_examples():
    out = dense(np.array([2.0, 3.0], dtype=np.float32),
                np.array([[1.0, 1.0]], dtype=np.float32),
                np.array([1.0], dtype=np.float32))
    npt.assert_array_equal(out, [6.0])
    relu = dense(np.array([1.0], dtype=np.float32),
                 np.array([[-1.0], [2.0]], dtype=np.float32),
                 np.zeros(2, dtype=np.float32), "relu")
    npt.assert_array_equal(relu, [0.0, 2.0])


def test_dense_softmax_activation():
    out = dense(np.zeros(3, dtype=np.float32), np.zeros((2, 3), dtype=np.float32),
                np.zeros(2, dtype=np.float32), "softmax")
    npt.assert_allclose(out, [0.5, 0.5], atol=1e-7)


def test_dense_counter_and_errors(rng):
    w = rng.standard_normal((4, 6)).astype(np.float32)
    counter = MacCounter()
    dense(rng.standard_normal(6).astype(np.float32), w, np.zeros(4, dtype=np.float32),
          counter=counter)
    assert counter.count == 24
    with pytest.raises(ShapeError):
        dense(np.zeros(5, dtype=np.float32), w, np.zeros(4, dtype=np.float32))
    with pytest.raises(ValueError):
        dense(np.zeros(6, dtype=np.float32), w, np.zeros(4, dtype=np.float32), "tanh")


def test_linear_has_no_bias(rng):
    w = rng.standard_normal((3, 5)).astype(np.float32)
    x = rng.standard_normal(5).astype(np.float32)
    npt.assert_allclose(linear(x, w), w.astype(np.float64) @ x.astype(np.float64),
                        rtol=1e-6)
    counter = MacCounter()
    linear(x, w, counter=counter)
    assert counter.count == 15


def test_dense_and_linear_map_a_batch_row_by_row(rng):
    x = rng.standard_normal((5, 6)).astype(np.float32)
    w = rng.standard_normal((4, 6)).astype(np.float32)
    b = rng.standard_normal(4).astype(np.float32)
    for activation in ("none", "relu", "softmax"):
        counter = MacCounter()
        batch = dense(x, w, b, activation, counter=counter)
        assert batch.shape == (5, 4) and batch.dtype == np.float32
        assert counter.count == 5 * w.size
        npt.assert_allclose(batch, [dense(row, w, b, activation) for row in x], rtol=1e-6)
    counter = MacCounter()
    npt.assert_allclose(linear(x, w, counter=counter), [linear(row, w) for row in x], rtol=1e-6)
    assert counter.count == 5 * w.size
    with pytest.raises(ShapeError):
        linear(x[None], w)


def test_flatten_batch_of_windows(rng):
    y = rng.standard_normal((2, 3, 7, 4)).astype(np.float32)
    flat = flatten(y)
    assert flat.shape == (2, 84)
    npt.assert_array_equal(flat[1], flatten(y[1]))
    with pytest.raises(ShapeError):
        flatten(np.zeros((2, 2), dtype=np.float32))


def softmax(z):
    """The softmax branch of dense: identity weights, zero bias; one vector or a batch."""
    n = z.shape[-1]
    return dense(z, np.eye(n, dtype=np.float32), np.zeros(n, dtype=np.float32), "softmax")


def test_softmax_properties(rng):
    for _ in range(50):
        n = int(rng.integers(2, 9))
        for shape in ((n,), (3, n)):  # one vector and a batch
            z = (10.0 * rng.standard_normal(shape)).astype(np.float32)
            p = softmax(z)
            npt.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
            assert np.all(p > 0.0) and np.all(p < 1.0 + 1e-7)
            # shift invariance
            npt.assert_allclose(softmax(z + 3.7), p, atol=1e-6)


def test_softmax_extreme_logits_finite():
    z = np.array([1000.0, -1000.0, 0.0], dtype=np.float32)
    for logits in (z, np.stack([z, z[::-1]])):  # one vector and a batch
        p = softmax(logits)
        assert np.all(np.isfinite(p))
        npt.assert_allclose(p.sum(axis=-1), 1.0, atol=1e-6)
