"""Exact parameter and multiply accounting for architecture stacks.

Two routes to the same numbers: closed-form counting from the layer specs
(`report`), and an instrumented run of the reference kernels that tallies
every scalar multiply as it executes (`instrumented_forward`). Bias additions
and activations are not multiplies and are never counted; pooling and
flatten are free; convolution multiplies are metered at the pre-pool output
size, since pooling discards values after they are computed.

Both routes also cover a streamed clip, where `forward_frames` computes each
conv position once for all the windows that share it: `report` gives the
multiplies per new frame and `streamed_multiplies` the exact count for a
clip of n frames, which a metered `forward_frames` run reproduces.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import arch as _arch
from .arch import ArchSpec
from .errors import InfeasibleBudgetError
from .layers import ZERO_COST, LayerCost
from .tensor import MacCounter

__all__ = [
    "LayerCost",
    "LayerBudget",
    "BudgetReport",
    "CompareResult",
    "report",
    "compare",
    "fit_to_budget",
    "instrumented_forward",
    "streamed_multiplies",
    "format_report",
]


@dataclass(frozen=True)
class LayerBudget:
    """One row of a report. `per_frame` is the layer's multiplies per new
    frame of a streamed clip: a conv's cost for one output row (its
    per-window cost over its pre-pool output rows), a dense layer's cost for
    one window."""

    name: str
    out_shape: tuple[int, ...]
    cost: LayerCost
    per_frame: int


@dataclass(frozen=True)
class BudgetReport:
    arch_name: str
    per_layer: tuple[LayerBudget, ...]
    total: LayerCost
    per_frame: int


@dataclass(frozen=True)
class CompareResult:
    name_a: str
    name_b: str
    total_a: LayerCost
    total_b: LayerCost
    multiply_ratio: float
    param_ratio: float


def report(arch: ArchSpec) -> BudgetReport:
    """Per-layer and total costs; totals are the exact sum of the parts."""
    rows: list[LayerBudget] = []
    for p in arch.placed:
        out, *pooled = p.trace
        cost, per_frame = p.layer.cost(p.in_shape), p.layer.frame_multiplies(p.in_shape)
        rows.append(LayerBudget(p.name, out.shape, cost, per_frame))
        rows += [LayerBudget(entry.name, entry.shape, ZERO_COST, 0) for entry in pooled]
    total = sum((row.cost for row in rows), ZERO_COST)
    return BudgetReport(arch.name, tuple(rows), total, sum(row.per_frame for row in rows))


def streamed_multiplies(arch: ArchSpec, n_frames: int) -> int:
    """Exact multiplies `forward_frames` executes on a clip of n_frames frames.

    The stack runs once over the edge-padded stream of n_frames + input_t - 1
    rows. Each stage of a layer turns r rows into r minus the rows it keeps
    (its `keep` in `Placed.stages`, from `Layer.stream`), and the layer's
    first stage does its multiplies: the layer's per-frame count for each
    row it outputs. After flatten there is one row per frame.
    """
    if n_frames < 1:
        raise ValueError(f"need at least one frame, got {n_frames}")
    rows, total = n_frames + arch.input_t - 1, 0
    for p in arch.placed:
        (first, _), *rest = p.stages
        rows -= first
        total += rows * p.layer.frame_multiplies(p.in_shape)
        rows -= sum(keep for keep, _ in rest)
    return total


def compare(a: ArchSpec, b: ArchSpec) -> CompareResult:
    """Cost ratios total(a)/total(b), computed as exact rationals."""
    ta, tb = report(a).total, report(b).total
    ratios = (float(Fraction(ta.multiplies, tb.multiplies)), float(Fraction(ta.params, tb.params)))
    return CompareResult(a.name, b.name, ta, tb, *ratios)


def fit_to_budget(template: Callable[[int], ArchSpec], cap: int) -> ArchSpec:
    """Largest feature-map count whose total parameters fit under `cap`.

    `template` maps a map count n >= 1 to a full ArchSpec. Parameter totals
    must be nondecreasing in n (they are, for every stock template: each
    weight tensor grows with n). Exponential search brackets the cap and
    binary search pins the answer, whose count (which validates it) is
    within the cap: the searches keep params(lo) <= cap.
    """
    if cap < 1:
        raise InfeasibleBudgetError(f"parameter cap must be >= 1, got {cap}")

    def params(n: int) -> int:
        return report(template(n)).total.params

    if params(1) > cap:
        raise InfeasibleBudgetError(
            f"cap {cap} is infeasible: even one feature map needs {params(1)} parameters"
        )
    lo, hi = 1, 2
    while params(hi) <= cap:
        lo, hi = hi, hi * 2
        if hi > 1 << 22:
            raise InfeasibleBudgetError(f"cap {cap} admits absurdly many maps; refusing")
    # invariant: params(lo) <= cap < params(hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if params(mid) <= cap:
            lo = mid
        else:
            hi = mid
    return template(lo)


def instrumented_forward(
    arch: ArchSpec, weights: Mapping[str, np.ndarray], window: np.ndarray
) -> tuple[np.ndarray, int]:
    """Run the reference path with a multiply meter; returns (posterior, count).

    The count comes from the kernels themselves, not the formulas, so it is
    an independent check on `report`: the naive conv reads its count off the
    windows it contracts, not off conv_output_shape.
    """
    counter = MacCounter()
    probs = _arch.forward(arch, weights, window, conv_path="naive", counter=counter)
    return probs, counter.count


def format_report(rep: BudgetReport) -> str:
    """Fixed-width text table, one row per layer plus a totals row.

    `multiplies` is the cost of one isolated window, `per frame` the cost of
    each new frame when `detect` streams a clip.
    """
    header = f"{'layer':<14} {'output':<16} {'params':>12} {'multiplies':>14} {'per frame':>12}"
    lines = [f"architecture: {rep.arch_name}", header, "-" * len(header)]
    for row in rep.per_layer:
        shape = "x".join(str(d) for d in row.out_shape)
        lines.append(
            f"{row.name:<14} {shape:<16} {row.cost.params:>12,} "
            f"{row.cost.multiplies:>14,} {row.per_frame:>12,}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<14} {'':<16} {rep.total.params:>12,} {rep.total.multiplies:>14,} {rep.per_frame:>12,}"
    )
    return "\n".join(lines)
