"""Kernel-level checks: both conv paths, pooling, dense layers, softmax."""

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
    softmax,
)
from kwslite.errors import ShapeError
from kwslite.tensor import conv_output_shape


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


def test_conv_paths_agree_random(rng):
    for _ in range(150):
        t, f, c = int(rng.integers(2, 14)), int(rng.integers(2, 14)), int(rng.integers(1, 4))
        kt, kf = int(rng.integers(1, t + 1)), int(rng.integers(1, f + 1))
        n = int(rng.integers(1, 6))
        s = Stride(int(rng.integers(1, 3)), int(rng.integers(1, 3)))
        x = rng.standard_normal((t, f, c)).astype(np.float32)
        bank = _rand_bank(rng, kt, kf, c, n)
        a = conv2d_valid(x, bank, s)
        b = conv2d_optimized(x, bank, s)
        assert a.shape == b.shape
        npt.assert_allclose(a, b, rtol=1e-5, atol=0)


def test_conv_counter_meters_actual_multiplies(rng):
    x = rng.standard_normal((9, 11, 2)).astype(np.float32)
    bank = _rand_bank(rng, 3, 4, 2, 5)
    counter = MacCounter()
    out = conv2d_valid(x, bank, Stride(2, 1), counter=counter)
    out_t, out_f, n = out.shape
    assert counter.count == out_t * out_f * 3 * 4 * 2 * n


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


def test_softmax_properties(rng):
    for _ in range(50):
        z = (10.0 * rng.standard_normal(int(rng.integers(2, 9)))).astype(np.float32)
        p = softmax(z)
        assert abs(float(p.sum()) - 1.0) < 1e-6
        assert np.all(p > 0.0) and np.all(p < 1.0 + 1e-7)
        # shift invariance
        npt.assert_allclose(softmax(z + 3.7), p, atol=1e-6)


def test_softmax_extreme_logits_finite():
    p = softmax(np.array([1000.0, -1000.0, 0.0], dtype=np.float32))
    assert np.all(np.isfinite(p))
    assert abs(float(p.sum()) - 1.0) < 1e-6
