"""Spans recorded from the benchmark around calls into kwslite's public functions.

While installed, a Tracer replaces each traced function in every kwslite
module that binds it (so `from .frontend import log_mel_frames` call sites are
covered too) with a wrapper that records a span: name, start, end, the index
of the enclosing span, and the id of the benchmark operation it belongs to.
Spans stay in memory until the run ends; a span's self time is its duration
minus the durations of its direct children.
"""

from __future__ import annotations

import functools
import sys
import time
from contextlib import contextmanager

# (module, attribute, span name). Tensor kernels get the kind of layer they
# compute as their span name; workloads map them to budget.report rows.
TRACED = (
    ("kwslite.audio", "read_wav", "audio.read_wav"),
    ("kwslite.modelio", "load_model", "modelio.load_model"),
    ("kwslite.modelio", "save_model", "modelio.save_model"),
    ("kwslite.frontend", "log_mel_frames", "frontend.log_mel_frames"),
    ("kwslite.frontend", "stack_context", "frontend.stack_context"),
    ("kwslite.frontend", "build_mel_filterbank", "frontend.build_mel_filterbank"),
    ("kwslite.arch", "forward", "arch.forward"),
    ("kwslite.arch", "check_weights", "arch.check_weights"),
    ("kwslite.tensor", "conv2d_optimized", "tensor.conv"),
    ("kwslite.tensor", "conv2d_valid", "tensor.conv"),
    ("kwslite.tensor", "maxpool", "tensor.pool"),
    ("kwslite.tensor", "flatten", "tensor.flatten"),
    ("kwslite.tensor", "linear", "tensor.lowrank"),
    ("kwslite.tensor", "dense", "tensor.dense"),
    ("kwslite.posterior", "detect", "posterior.detect"),
    ("kwslite.posterior", "StreamingDetector.push", "posterior.push"),
    ("kwslite.train", "loss_and_grads", "train.loss_and_grads"),
    ("kwslite.data", "make_synthetic_dataset", "data.make_synthetic_dataset"),
    ("kwslite.data", "center_window_examples", "data.center_window_examples"),
)

NAME, START, END, PARENT, OP = range(5)


def _kwslite_modules():
    return [m for name, m in list(sys.modules.items()) if name == "kwslite" or name.startswith("kwslite.")]


class Patch:
    """Replaces one function everywhere kwslite binds it; undo() restores it."""

    def __init__(self, module: str, attr: str, make_wrapper):
        self._undo = []
        owner = sys.modules.get(module)
        *path, leaf = attr.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        original = getattr(owner, leaf, None)
        self.found = original is not None
        if not self.found:
            return
        wrapper = make_wrapper(original)
        targets = [owner] if path else _kwslite_modules()
        for target in targets:
            if target.__dict__.get(leaf) is original:
                setattr(target, leaf, wrapper)
                self._undo.append((target, leaf, original))

    def undo(self) -> None:
        for target, leaf, original in reversed(self._undo):
            setattr(target, leaf, original)
        self._undo = []


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self.op = -1
        self.op_labels: dict[int, str] = {}
        self.missing: list[str] = []
        self._stack: list[int] = []
        self._patches: list[Patch] = []

    def _open(self, name: str) -> int:
        idx = len(self.spans)
        parent = self._stack[-1] if self._stack else -1
        self.spans.append([name, time.perf_counter(), 0.0, parent, self.op])
        self._stack.append(idx)
        return idx

    def _close(self, idx: int) -> None:
        self.spans[idx][END] = time.perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str):
        idx = self._open(name)
        try:
            yield
        finally:
            self._close(idx)

    @contextmanager
    def operation(self, label: str):
        """A root span for one benchmark operation; spans inside share its id."""
        self.op += 1
        self.op_labels[self.op] = label
        with self.span("op"):
            yield

    def _wrapper(self, name: str):
        def make(fn):
            @functools.wraps(fn)
            def traced(*args, **kwargs):
                idx = self._open(name)
                try:
                    return fn(*args, **kwargs)
                finally:
                    self._close(idx)

            return traced

        return make

    def install(self) -> None:
        for module, attr, name in TRACED:
            patch = Patch(module, attr, self._wrapper(name))
            if patch.found:
                self._patches.append(patch)
            elif f"{module}.{attr}" not in self.missing:
                self.missing.append(f"{module}.{attr}")

    def uninstall(self) -> None:
        for patch in reversed(self._patches):
            patch.undo()
        self._patches = []

    @contextmanager
    def installed(self):
        self.install()
        try:
            yield
        finally:
            self.uninstall()

    def self_times(self) -> list[float]:
        own = [s[END] - s[START] for s in self.spans]
        for s in self.spans:
            if s[PARENT] >= 0:
                own[s[PARENT]] -= s[END] - s[START]
        return own
