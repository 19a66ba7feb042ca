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

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import arch as _arch
from . import tensor
from .arch import ArchSpec, Conv, Dense, Flatten, LowRank, SoftmaxOut, validate
from .errors import InfeasibleBudgetError
from .tensor import MacCounter

__all__ = [
    "LayerCost",
    "LayerBudget",
    "BudgetReport",
    "CompareResult",
    "count_layer",
    "report",
    "compare",
    "fit_to_budget",
    "instrumented_forward",
    "streamed_multiplies",
    "format_report",
]


@dataclass(frozen=True)
class LayerCost:
    params: int
    multiplies: int

    def __add__(self, other: "LayerCost") -> "LayerCost":
        return LayerCost(self.params + other.params, self.multiplies + other.multiplies)


ZERO_COST = LayerCost(0, 0)


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


def count_layer(layer, in_shape: tuple[int, ...]) -> LayerCost:
    """Closed-form cost of one layer given its input shape.

    Conv: params kt*kf*c_in*maps + maps, multiplies out_t*out_f*kt*kf*c_in*maps
    with out dims taken before any pooling. Dense and the softmax output add
    a bias to params only. LowRank has no bias: params = multiplies = in*rank.
    """
    if isinstance(layer, Conv):
        t, f, c = in_shape
        out_t, out_f = tensor.conv_output_shape(t, f, layer.kernel_t, layer.kernel_f, layer.stride)
        weights = layer.kernel_t * layer.kernel_f * c * layer.maps
        return LayerCost(weights + layer.maps, out_t * out_f * weights)
    if isinstance(layer, Flatten):
        return ZERO_COST
    if isinstance(layer, LowRank):
        (n,) = in_shape
        return LayerCost(n * layer.rank, n * layer.rank)
    if isinstance(layer, Dense):
        (n,) = in_shape
        return LayerCost(n * layer.units + layer.units, n * layer.units)
    if isinstance(layer, SoftmaxOut):
        (n,) = in_shape
        return LayerCost(n * layer.labels + layer.labels, n * layer.labels)
    raise TypeError(f"unknown layer spec {layer!r}")


def report(arch: ArchSpec) -> BudgetReport:
    """Per-layer and total costs; totals are the exact sum of the parts."""
    trace = validate(arch)
    rows: list[LayerBudget] = []
    shape: tuple[int, ...] = trace[0].shape
    cursor = 1  # walks the trace in step with the layers
    for name, layer in zip(_arch.layer_names(arch), arch.layers):
        cost = count_layer(layer, shape)
        out_shape = trace[cursor].shape
        per_frame = cost.multiplies // out_shape[0] if isinstance(layer, Conv) else cost.multiplies
        rows.append(LayerBudget(name, out_shape, cost, per_frame))
        cursor += 1
        if isinstance(layer, Conv) and layer.pool.active:
            rows.append(LayerBudget(f"{name}.pool", trace[cursor].shape, ZERO_COST, 0))
            cursor += 1
        shape = trace[cursor - 1].shape
    total = ZERO_COST
    for row in rows:
        total = total + row.cost
    return BudgetReport(arch.name, tuple(rows), total, sum(row.per_frame for row in rows))


def streamed_multiplies(arch: ArchSpec, n_frames: int) -> int:
    """Exact multiplies `forward_frames` executes on a clip of n_frames frames.

    The conv stack runs once over the edge-padded stream of n_frames +
    input_t - 1 rows. At time step d (the product of the time strides and
    pools before it), a conv of kernel_t rows turns r rows into
    r - d*(kernel_t - 1), and a time pool of p rows into r - d*(p - 1); each
    conv output row costs the layer's per-frame multiplies. The dense tail
    runs once per frame.
    """
    if n_frames < 1:
        raise ValueError(f"need at least one frame, got {n_frames}")
    per_frame = {row.name: row.per_frame for row in report(arch).per_layer}
    rows, step, total = n_frames + arch.input_t - 1, 1, 0
    for name, layer in zip(_arch.layer_names(arch), arch.layers):
        if isinstance(layer, Conv):
            rows -= step * (layer.kernel_t - 1)
            total += rows * per_frame[name]
            step *= layer.stride.time
            rows -= step * (layer.pool.time - 1)
            step *= layer.pool.time
        else:
            total += n_frames * per_frame[name]
    return total


def compare(a: ArchSpec, b: ArchSpec) -> CompareResult:
    """Cost ratios total(a)/total(b), computed as exact rationals."""
    ra, rb = report(a), report(b)
    return CompareResult(
        a.name,
        b.name,
        ra.total,
        rb.total,
        float(Fraction(ra.total.multiplies, rb.total.multiplies)),
        float(Fraction(ra.total.params, rb.total.params)),
    )


def fit_to_budget(template: Callable[[int], ArchSpec], cap: int) -> ArchSpec:
    """Largest feature-map count whose total parameters fit under `cap`.

    `template` maps a map count n >= 1 to a full ArchSpec. Parameter totals
    must be nondecreasing in n (they are, for every stock template: each
    weight tensor grows with n). Exponential search brackets the cap, binary
    search pins the answer, and the winning spec is re-validated and
    re-counted before being returned.
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
    best = template(lo)
    validate(best)
    if report(best).total.params > cap:
        raise InfeasibleBudgetError(f"internal error: fit result exceeds cap {cap}")
    return best


def instrumented_forward(
    arch: ArchSpec, weights: dict[str, np.ndarray], window: np.ndarray
) -> tuple[np.ndarray, int]:
    """Run the reference path with a multiply meter; returns (posterior, count).

    The count comes from the kernels themselves, not the formulas, so it is
    an independent check on `report`.
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
            f"{row.name:<14} {shape:<16} {row.cost.params:>12,} {row.cost.multiplies:>14,} {row.per_frame:>12,}"
        )
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<14} {'':<16} {rep.total.params:>12,} {rep.total.multiplies:>14,} {rep.per_frame:>12,}"
    )
    return "\n".join(lines)
