"""Correctness checks for the benchmark's operations.

Each check compares what kwslite produced with an oracle and returns a list
of problems (empty when the output is right), so a corrupted output is
counted as a failed operation rather than passing silently.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from clips import Plant

# the gate `kwslite bench` applies between the naive and optimized conv paths
RTOL = 1e-5
ATOL = 1e-12


@dataclass(frozen=True)
class Event:
    frame: int
    keyword: str
    confidence: float


@dataclass(frozen=True)
class Outcomes:
    planted: int
    detected: int
    false_alarms: int


def events_from_detector(events, labels) -> list[Event]:
    return [Event(e.frame_index, labels[e.keyword], float(e.confidence)) for e in events]


def events_from_cli(doc: dict) -> list[Event]:
    return [Event(int(e["frame"]), str(e["keyword"]), float(e["confidence"])) for e in doc["events"]]


def may_cause(plant: Plant, frame: int, context, cfg) -> bool:
    """Whether audio of `plant` can reach the detector's decision at `frame`.

    A window centred at m sees frames m - left .. m + right; the decision at
    j smooths over w_smooth windows and takes a max over w_max of those.
    """
    return plant.first_frame - context.right <= frame <= (
        plant.last_frame + context.left + cfg.w_smooth + cfg.w_max
    )


def keyword_outcomes(events: list[Event], plants, labels, context, cfg) -> tuple[Outcomes, list[Event]]:
    """Count detected keywords, and return the false alarms: events naming no
    keyword planted within reach of their frame."""

    def explains(p: Plant, e: Event) -> bool:
        return labels[p.keyword] == e.keyword and may_cause(p, e.frame, context, cfg)

    false_alarms = [e for e in events if not any(explains(p, e) for p in plants)]
    detected = sum(any(explains(p, e) for e in events) for p in plants)
    return Outcomes(len(plants), detected, len(false_alarms)), false_alarms


def posterior_problems(posteriors: np.ndarray, sampled: dict[int, np.ndarray]) -> list[str]:
    """Sampled production posterior rows must match the naive-path rows."""
    problems = []
    for idx, naive in sampled.items():
        row = posteriors[idx]
        if not np.allclose(row, naive, rtol=RTOL, atol=ATOL):
            worst = float(np.max(np.abs(row.astype(np.float64) - naive) / np.maximum(np.abs(naive), 1e-12)))
            problems.append(f"window {idx}: posterior differs from the naive path (rel {worst:.3e})")
    return problems


def event_problems(got: list[Event], want: list[Event], what: str) -> list[str]:
    if got == want:
        return []
    return [f"{what}: got {len(got)} events, expected {len(want)}; first difference at "
            f"{next((i for i, (a, b) in enumerate(zip(got, want)) if a != b), min(len(got), len(want)))}"]


def differing_event_frames(got: list[Event], want: list[Event]) -> set[int]:
    """Frames of events present in one list but not the other."""
    return {e.frame for e in set(got) ^ set(want)}


def frame_mismatches(streamed: np.ndarray, batch: np.ndarray) -> list[int]:
    """Hops whose frame is not bit-identical to the batch frontend's frame."""
    if streamed.shape != batch.shape:
        return list(range(max(len(streamed), len(batch))))
    return [int(i) for i in np.flatnonzero(np.any(streamed != batch, axis=1))]


def window_mismatches(streamed: np.ndarray, batch: np.ndarray) -> list[int]:
    if streamed.shape != batch.shape:
        return list(range(max(len(streamed), len(batch))))
    return [int(i) for i in np.flatnonzero(np.any(streamed != batch, axis=(1, 2)))]


def training_problems(losses: list[float]) -> list[str]:
    if not losses or not np.all(np.isfinite(losses)):
        return [f"non-finite loss history {losses}"]
    if not losses[-1] < losses[0]:
        return [f"loss did not fall: {losses[0]:.6f} -> {losses[-1]:.6f}"]
    return []
