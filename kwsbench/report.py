"""Turn a run's outcomes and spans into the benchmark's metrics.

End-to-end metrics (untraced runs) are the same on every workload, so each
workload can be compared with its own earlier runs metric by metric. Per-layer
metrics (traced runs) are a fixed list too; a layer the workload does not
exercise reports 0.
"""

from __future__ import annotations

import statistics
from collections import defaultdict

import kwslite
from kwslite import ARCHITECTURES

from tracer import NAME, OP, PARENT, START, END

# budget.report rows of every architecture at 4 labels, as of the seed commit;
# the names are fixed here so the metric list does not follow a rename
LAYER_ROWS = {
    "dnn": ("flatten1", "dense1", "dense2", "dense3", "softmax"),
    "cnn-trad": ("conv1", "conv1.pool", "conv2", "flatten1", "lowrank1", "dense1", "softmax"),
    "cnn-one": ("conv1", "flatten1", "lowrank1", "dense1", "dense2", "softmax"),
    "cnn-tstride2": ("conv1", "conv1.pool", "conv2", "flatten1", "lowrank1", "dense1", "softmax"),
    "cnn-tpool2": ("conv1", "conv1.pool", "conv2", "flatten1", "lowrank1", "dense1", "softmax"),
}
LABELS = 4


def row_span(row: str) -> str:
    """The traced tensor kernel that computes a budget.report row."""
    if row.endswith(".pool"):
        return "tensor.pool"
    kind = row.rstrip("0123456789")
    return {"conv": "tensor.conv", "flatten": "tensor.flatten", "lowrank": "tensor.lowrank",
            "dense": "tensor.dense", "softmax": "tensor.dense"}[kind]


def multiplies() -> dict[tuple[str, str], int]:
    """Exact multiplies per window of every (architecture, row) from budget.report."""
    counts = {}
    for arch in ARCHITECTURES:
        for row in kwslite.report(kwslite.get_arch(arch, LABELS)).per_layer:
            counts[(arch, row.name)] = row.cost.multiplies
    return counts


def end_to_end_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every end-to-end metric."""
    return [("setup_s", "s", "lower"), ("peak_rss_mb", "MB", "lower")] + [
        (f"rtf.{a}", "s/s", "higher") for a in ARCHITECTURES
    ]


def per_layer_names() -> list[tuple[str, str]]:
    """(name, unit) of every per-layer metric, in a fixed order."""
    names = []
    for arch, rows in LAYER_ROWS.items():
        names += [(f"tensor.{arch}.{row}.self_s", "s") for row in rows]
        # flatten and pooling rows do no multiplies
        names += [(f"tensor.{arch}.{row}.gmac_per_s", "GMAC/s") for row in rows
                  if row_span(row) not in ("tensor.flatten", "tensor.pool")]
    names += [
        ("arch.forward.calls", "1/window"),
        ("arch.forward.self_s", "s"),
        ("arch.check_weights.calls", "1/window"),
        ("frontend.log_mel_frames.self_s", "s"),
        ("frontend.stack_context.self_s", "s"),
        ("frontend.build_mel_filterbank.calls", "1/call"),
        ("posterior.detect.self_s", "s"),
        ("posterior.push.self_s", "s"),
        ("posterior.keywords_planted", "1/clip"),
        ("posterior.keywords_detected", "1/clip"),
        ("posterior.false_alarms", "1/clip"),
        ("audio.read_wav.self_s", "s"),
        ("modelio.load_model.self_s", "s"),
        ("cli.detect.self_s", "s"),
    ]
    for arch in ARCHITECTURES:
        names += [(f"train.{arch}.loss_and_grads.self_s", "s"), (f"train.{arch}.examples_per_s", "1/s")]
    names += [
        ("data.make_synthetic_dataset.self_s", "s"),
        ("data.center_window_examples.self_s", "s"),
        ("modelio.save_model.self_s", "s"),
    ]
    return names


def _div(a: float, b: float) -> float:
    return a / b if b else 0.0


def timing_summary(samples: list[float]) -> dict:
    """Median, the highest percentile with at least ten samples beyond it, and the count."""
    n = len(samples)
    out = {"n": n, "median": statistics.median(samples) if samples else None, "tail": None}
    for pct in (99.9, 99.0, 95.0, 90.0, 75.0, 50.0):
        if n * (1 - pct / 100) >= 10:
            cut = statistics.quantiles(samples, n=1000, method="inclusive")[int(pct * 10) - 1]
            out["tail"] = {"percentile": pct, "value": cut}
            break
    return out


def layer_table(tracer, outcomes) -> tuple[dict, list[dict], float]:
    """Per-layer metrics from a traced run's spans.

    Self times of tensor rows and arch.forward are seconds per classified
    window; other self times are seconds per call. Returns the metrics, a
    per-row table joining self time with multiplies, and the self time of
    tensor calls that matched no budget.report row.
    """
    spans = tracer.spans
    own = tracer.self_times()
    op_arch = dict(tracer.op_labels)
    counts = multiplies()
    traced = [o for o in outcomes if o.traced]
    windows = defaultdict(int)
    examples = defaultdict(int)
    for o in traced:
        windows[o.arch] += o.windows
        examples[o.arch] += o.examples
    all_windows = sum(windows.values())

    calls = defaultdict(int)
    self_s = defaultdict(float)
    row_self = defaultdict(float)
    train_self = defaultdict(float)
    train_total = defaultdict(float)
    train_calls = defaultdict(int)
    unattributed = 0.0
    # tensor kernels under one parent span, in call order, map onto the
    # architecture's budget.report rows of the same kind, in row order
    cursor: dict[int, int] = {}
    for idx, s in enumerate(spans):
        name = s[NAME]
        calls[name] += 1
        self_s[name] += own[idx]
        arch = op_arch.get(s[OP])
        if name.startswith("tensor.") and arch in LAYER_ROWS:
            rows = LAYER_ROWS[arch]
            pos = cursor.get(s[PARENT], 0)
            while pos < len(rows) and row_span(rows[pos]) != name:
                pos += 1
            if pos < len(rows):
                row_self[(arch, rows[pos])] += own[idx]
                cursor[s[PARENT]] = pos + 1
            else:
                unattributed += own[idx]
        elif name == "train.loss_and_grads" and arch in LAYER_ROWS:
            train_self[arch] += own[idx]
            train_total[arch] += s[END] - s[START]
            train_calls[arch] += 1

    quality = [o.quality for o in outcomes if o.quality is not None]
    metrics = {}
    table = []
    for arch, rows in LAYER_ROWS.items():
        for row in rows:
            mult = counts.get((arch, row), 0)
            seconds = row_self[(arch, row)]
            rate = _div(mult * windows[arch], seconds) / 1e9
            metrics[f"tensor.{arch}.{row}.self_s"] = _div(seconds, windows[arch])
            metrics[f"tensor.{arch}.{row}.gmac_per_s"] = rate
            table.append({"arch": arch, "layer": row, "multiplies_per_window": mult,
                          "windows": windows[arch], "self_s_per_window": _div(seconds, windows[arch]),
                          "gmac_per_s": rate})
        metrics[f"train.{arch}.loss_and_grads.self_s"] = _div(train_self[arch], train_calls[arch])
        metrics[f"train.{arch}.examples_per_s"] = _div(examples[arch], train_total[arch])
    metrics.update({
        "arch.forward.calls": _div(calls["arch.forward"], all_windows),
        "arch.forward.self_s": _div(self_s["arch.forward"], all_windows),
        "arch.check_weights.calls": _div(calls["arch.check_weights"], all_windows),
        "frontend.build_mel_filterbank.calls": _div(calls["frontend.build_mel_filterbank"],
                                                    calls["frontend.log_mel_frames"]),
        "posterior.keywords_planted": _div(sum(q.planted for q in quality), len(quality)),
        "posterior.keywords_detected": _div(sum(q.detected for q in quality), len(quality)),
        "posterior.false_alarms": _div(sum(q.false_alarms for q in quality), len(quality)),
    })
    for span in ("frontend.log_mel_frames", "frontend.stack_context", "posterior.detect", "posterior.push",
                 "audio.read_wav", "modelio.load_model", "cli.detect", "data.make_synthetic_dataset",
                 "data.center_window_examples", "modelio.save_model"):
        metrics[f"{span}.self_s"] = _div(self_s[span], calls[span])
    return metrics, table, unattributed


def write_spans(tracer, path) -> None:
    """Save every span (name, start, end, parent, operation) as numpy arrays."""
    import numpy as np

    names = sorted({s[NAME] for s in tracer.spans})
    code = {name: i for i, name in enumerate(names)}
    spans = tracer.spans
    np.savez_compressed(
        path,
        names=np.array(names),
        name=np.array([code[s[NAME]] for s in spans], dtype=np.int32),
        start=np.array([s[START] for s in spans]),
        end=np.array([s[END] for s in spans]),
        parent=np.array([s[PARENT] for s in spans], dtype=np.int64),
        op=np.array([s[OP] for s in spans], dtype=np.int64),
        op_labels=np.array([tracer.op_labels[i] for i in range(len(tracer.op_labels))]),
    )
