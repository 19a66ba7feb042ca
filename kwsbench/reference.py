"""A fixed reference loop that measures how fast the machine runs right now.

On a shared host the same code can run 40% faster or slower from one stretch
of a few seconds to the next (measured on a 2-vCPU virtual machine: the speed
switches between two levels about 1.45x apart, every 5 to 30 s), so the
median of a 35 s run depends on how long the run spent at each level. The
benchmark therefore times this loop right before and right after every timed
operation and reports that operation's time in reference seconds:

    reference seconds = wall seconds * NOMINAL_S / (mean of the two loop times)

A change to kwslite moves reference seconds exactly as it moves wall seconds
(the loop does not call kwslite); a change of machine speed moves both the
operation and the loop, and cancels. Wall-clock figures stay in the report.
"""

from __future__ import annotations

from time import perf_counter

import numpy as np

# about the loop's median time on the machine the benchmark was sized on; a
# constant, so reference seconds read as wall seconds on that machine
NOMINAL_S = 0.010
# float32 products and reductions, as in the classifier's layers, and a
# Python-level loop, as in per-call overhead
_ROUNDS = 80
_rng = np.random.default_rng(0)
_A = _rng.standard_normal((96, 96)).astype(np.float32)
_X = _rng.standard_normal((400, 96)).astype(np.float32)


def seconds(rounds: int = _ROUNDS) -> float:
    """Wall time of the reference loop, scaled from `rounds` rounds to a full pass."""
    start = perf_counter()
    for _ in range(rounds):
        np.maximum(_X @ _A, 0.0).sum(axis=0)
        [i * i for i in range(300)]
    return (perf_counter() - start) * _ROUNDS / rounds


class Tracker:
    """Short slices of the reference loop taken inside a loop of short timed units.

    Bracketing a whole operation misses speed changes within it, which matter
    for units of about a millisecond (stream hops): take() runs a slice of
    SLICE_ROUNDS rounds every EVERY units, outside their timing, and per_unit()
    gives each unit the median of the NEAREST slices around it.
    """

    EVERY = 20
    SLICE_ROUNDS = 8
    NEAREST = 5

    def __init__(self):
        self.slices: list[tuple[int, float]] = []

    def take(self, unit: int) -> None:
        """Run a slice before `unit` when it is due."""
        if unit % self.EVERY == 0:
            self.slices.append((unit, seconds(self.SLICE_ROUNDS)))

    def per_unit(self, units: int) -> list[float]:
        """Reference loop time for each of `units` units, after a closing slice."""
        self.slices.append((units, seconds(self.SLICE_ROUNDS)))
        at = np.array([u for u, _ in self.slices])
        loop = np.array([s for _, s in self.slices])
        return [float(np.median(loop[np.argsort(np.abs(at - u), kind="stable")[: self.NEAREST]]))
                for u in range(units)]


def scale(wall_s: float, loop_s: float) -> float:
    """`wall_s` in reference seconds, given the reference loop's time around it."""
    return wall_s * NOMINAL_S / loop_s
