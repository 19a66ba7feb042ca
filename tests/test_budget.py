"""Budget accounting: frozen totals, ratio math, cap fitting, and the
instrumented-versus-analytic cross-check."""

import numpy as np
import pytest

import kwslite.arch
from kwslite import (
    ARCHITECTURES,
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
    compare,
    fit_to_budget,
    forward,
    forward_frames,
    format_report,
    get_arch,
    init_weights,
    instrumented_forward,
    report,
    streamed_multiplies,
    weight_manifest,
)
from kwslite.errors import InfeasibleBudgetError
from kwslite.tensor import MacCounter, Pool

from conftest import random_arch, random_window

# frozen expected totals for the stock stacks at 4 labels
EXPECTED = {
    "dnn": (217_988, 217_600),
    "cnn-trad": (223_812, 8_133_120),
    "cnn-one": (105_284, 676_352),
}


def test_layer_cost_hand_values():
    # first conv of the two-conv stack: 21*9*1*64+64 params,
    # 12*32 placements * 189 weights * 64 maps multiplies
    cost = Conv(21, 9, 64, Stride(1, 1), Pool(1, 3)).cost((32, 40, 1))
    assert cost.params == 12_160
    assert cost.multiplies == 4_644_864
    cost = Dense(128).cost((32,))
    assert cost.params == 4_224
    assert cost.multiplies == 4_096
    cost = LowRank(32).cost((1344,))
    assert cost.params == cost.multiplies == 43_008
    assert Flatten().cost((3, 7, 64)).params == 0
    assert SoftmaxOut(4).cost((128,)).multiplies == 512


def test_frozen_totals():
    for name, (params, multiplies) in EXPECTED.items():
        total = report(get_arch(name, 4)).total
        assert total.params == params, name
        assert total.multiplies == multiplies, name


def test_totals_equal_sum_of_parts():
    for name in ARCHITECTURES:
        rep = report(get_arch(name, 4))
        assert rep.total.params == sum(r.cost.params for r in rep.per_layer)
        assert rep.total.multiplies == sum(r.cost.multiplies for r in rep.per_layer)


def test_params_equal_manifest_element_count():
    # independent route: the manifest enumerates every weight tensor
    rng = np.random.default_rng(31)
    archs = [get_arch(name, 4) for name in ARCHITECTURES] + [random_arch(rng, max_convs=3) for _ in range(20)]
    for arch in archs:
        manifest_total = sum(int(np.prod(shape)) for _, shape in weight_manifest(arch))
        assert report(arch).total.params == manifest_total, arch


def test_compare_ratios():
    result = compare(build_cnn_trad(4), build_cnn_one(4))
    assert round(result.multiply_ratio, 2) == 12.02
    assert round(result.param_ratio, 2) == 2.13
    assert 8.0 <= result.multiply_ratio <= 15.0
    same = compare(build_dnn_baseline(4), build_dnn_baseline(4))
    assert same.multiply_ratio == 1.0 and same.param_ratio == 1.0


def test_fit_to_budget_is_maximal():
    for template in (lambda n: build_cnn_tstride(4, n),
                     lambda n: build_cnn_tpool(4, n)):
        best = fit_to_budget(template, 250_000)
        maps = next(l.maps for l in best.layers if isinstance(l, Conv))
        assert report(best).total.params <= 250_000
        assert report(template(maps + 1)).total.params > 250_000
        assert maps == 63


def test_fit_default_maps_exceed_cap():
    # the stock 64-map variants sit just above a 250k cap, which is the
    # whole point of the fitting helper
    assert report(get_arch("cnn-tstride2", 4)).total.params > 250_000
    assert report(get_arch("cnn-tpool2", 4)).total.params > 250_000


def test_fit_infeasible_cap():
    with pytest.raises(InfeasibleBudgetError):
        fit_to_budget(lambda n: build_cnn_tpool(4, n), 100)


def test_params_monotone_in_maps():
    previous = -1
    for n in range(1, 129):
        current = report(build_cnn_tstride(4, n)).total.params
        assert current > previous
        previous = current


def test_instrumented_equals_analytic_for_stock(rng):
    for name in ("dnn", "cnn-one"):
        arch = get_arch(name, 4)
        weights = init_weights(arch, 1)
        _, macs = instrumented_forward(arch, weights, random_window(rng, arch))
        assert macs == report(arch).total.multiplies, name


def test_instrumented_equals_analytic_random(rng):
    for _ in range(25):
        arch = random_arch(rng)
        weights = init_weights(arch, 2)
        window = random_window(rng, arch)
        probs, macs = instrumented_forward(arch, weights, window)
        assert macs == report(arch).total.multiplies
        assert abs(float(probs.sum()) - 1.0) < 1e-6
        counter = MacCounter()
        forward(arch, weights, window, counter=counter)
        assert counter.count == macs


def test_metered_optimized_forward_equals_report(rng):
    # the production conv path meters what it runs: cnn-trad once counted
    # only its dense tail here (47,616 of 8,133,120 multiplies)
    stacks = [get_arch(name, 4) for name in ARCHITECTURES] + [random_arch(rng, max_convs=3) for _ in range(12)]
    for trial, arch in enumerate(stacks):
        counter = MacCounter()
        forward(arch, init_weights(arch, trial), random_window(rng, arch), counter=counter)
        assert counter.count == report(arch).total.multiplies, arch


def test_format_report_mentions_layers():
    text = format_report(report(build_cnn_trad(4)))
    for token in ("conv1", "conv1.pool", "lowrank1", "total", "8,133,120"):
        assert token in text


def test_per_frame_counts_for_stock():
    rep = report(build_cnn_trad(4))
    convs = [row for row in rep.per_layer if row.name in ("conv1", "conv2")]
    assert [row.per_frame for row in convs] == [387_072, 1_146_880]
    assert sum(row.per_frame for row in convs) == 1_533_952
    assert sum(row.cost.multiplies for row in convs) == 8_085_504
    assert rep.per_frame == 1_581_568
    for name in ARCHITECTURES:
        arch = get_arch(name, 4)
        per_frame = report(arch).per_frame
        # every extra frame adds one row to each conv stream and one window to the tail
        for n in (1, 2, 50, 998):
            assert streamed_multiplies(arch, n + 1) - streamed_multiplies(arch, n) == per_frame, name
    dnn = build_dnn_baseline(4)
    assert streamed_multiplies(dnn, 7) == 7 * report(dnn).total.multiplies
    with pytest.raises(ValueError):
        streamed_multiplies(dnn, 0)


def time_steps(arch):
    """Product of the time strides and pools before each conv of the stack."""
    steps, step = [], 1
    for layer in arch.layers:
        if isinstance(layer, Conv):
            steps.append(step)
            step *= layer.stride.time * layer.pool.time
    return steps


def test_streamed_closed_form_equals_metered_forward_frames(rng, monkeypatch):
    # several chunks per clip, and lengths ending mid-chunk
    monkeypatch.setattr(kwslite.arch, "BLOCK_WINDOWS", 4)
    checked = 0
    while checked < 8:
        arch = random_arch(rng, max_convs=3)
        if max(time_steps(arch)) < 2:
            continue  # a time stride or pool must dilate some later conv
        weights = init_weights(arch, checked)
        for n in (1, 6, 11):
            counter = MacCounter()
            frames = rng.standard_normal((n, 40)).astype(np.float32)
            forward_frames(arch, weights, frames, counter=counter)
            assert counter.count == streamed_multiplies(arch, n), (arch, n)
        checked += 1
