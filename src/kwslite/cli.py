"""Command-line interface.

Subcommands: featurize, describe, budget, fit, train, detect, bench. Exit
codes: 0 success, 1 usage error, 2 data/format error, 3 numeric failure.
Every command echoes its effective settings (header line in text mode, a
"config" object in --format structured), so runs are self-describing, and
every command except bench timing is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import platform
import sys
import time
from collections.abc import Mapping

import numpy as np

from . import budget as _budget
from . import arch as _arch
from .audio import SAMPLE_RATE, read_wav
from .data import FILLER_NAME, center_window_examples, load_dataset_dir, make_synthetic_dataset, SyntheticSpec
from .errors import AgreementError, KwsError, NumericError
from .frontend import Context, FrameConfig, log_mel_frames, stack_context, write_feature_dump
from .modelio import load_model, save_model
from .posterior import DetectorConfig, detect, posteriors_from_waveform
from .train import TrainConfig, train

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_DATA = 2
EXIT_NUMERIC = 3

FRAME_SECONDS = FrameConfig.hop / SAMPLE_RATE

__all__ = ["main"]


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    # argparse exits with status 2 on bad flags; this CLI reserves 2 for
    # data errors, so route parse failures through our own exception
    def error(self, message):
        raise UsageError(message)


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be >= 1, got {value}")
    return value


def _threshold(text: str) -> float:
    value = float(text)
    if not (0.0 < value <= 1.0):
        raise argparse.ArgumentTypeError(f"threshold must be in (0, 1], got {value}")
    return value


def _context(text: str) -> Context:
    try:
        left, right = (int(part) for part in text.split(","))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"context must be LEFT,RIGHT integers, got {text!r}") from exc
    return Context(left, right)


def _default_seed() -> int:
    env = os.environ.get("KWS_SEED")
    if env is None:
        return 0
    try:
        return int(env)
    except ValueError as exc:
        raise UsageError(f"KWS_SEED must be an integer, got {env!r}") from exc


@functools.cache  # argparse spends about 1 ms per build, mostly formatting help for each argument
def _build_parser() -> _Parser:
    parser = _Parser(prog="kwslite", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p):
        p.add_argument("--format", choices=("text", "structured"), default="text",
                       help="text tables or a single JSON document")

    p = sub.add_parser("featurize", help="WAV to stacked log-mel context windows")
    p.add_argument("wav", help="input WAV (mono 16-bit PCM, 16 kHz)")
    p.add_argument("--out", required=True, help="output feature dump path")
    p.add_argument("--context", type=_context, default=None, metavar="L,R",
                   help="stack L left / R right frames (default: no stacking)")
    add_format(p)

    p = sub.add_parser("describe", help="layer-by-layer shape trace of an architecture")
    p.add_argument("--arch", required=True, choices=_arch.ARCHITECTURES)
    p.add_argument("--labels", type=_positive_int, default=4)
    p.add_argument("--maps", type=_positive_int, default=None,
                   help="feature maps (cnn-tstride2/cnn-tpool2 only)")
    add_format(p)

    p = sub.add_parser("budget", help="exact parameter and multiply counts")
    p.add_argument("--arch", required=True, choices=_arch.ARCHITECTURES)
    p.add_argument("--labels", type=_positive_int, default=4)
    p.add_argument("--maps", type=_positive_int, default=None)
    p.add_argument("--compare", choices=_arch.ARCHITECTURES, default=None,
                   help="also report cost ratios against this architecture")
    add_format(p)

    p = sub.add_parser("fit", help="largest map count under a parameter cap")
    p.add_argument("--arch", required=True, choices=("cnn-tstride2", "cnn-tpool2"))
    p.add_argument("--cap", type=_positive_int, default=250000)
    p.add_argument("--labels", type=_positive_int, default=4)
    add_format(p)

    p = sub.add_parser("train", help="train a model on a dataset directory or synthetic data")
    p.add_argument("--arch", choices=_arch.ARCHITECTURES, default="cnn-one")
    source = p.add_mutually_exclusive_group(required=True)
    source.add_argument("--data", help="dataset directory: <root>/<class>/<example>.wav")
    source.add_argument("--synthetic", type=_positive_int, metavar="K",
                        help="generate a synthetic corpus with K keyword classes")
    p.add_argument("--out", required=True, help="output model path")
    p.add_argument("--seed", type=int, default=None, help="default: KWS_SEED env var, else 0")
    p.add_argument("--epochs", type=_positive_int, default=200)
    p.add_argument("--lr", type=float, default=0.05)
    p.add_argument("--batch-size", type=_positive_int, default=16)
    p.add_argument("--per-class", type=_positive_int, default=20,
                   help="synthetic training examples per class")
    p.add_argument("--noise", type=float, default=0.05, help="synthetic noise level")
    p.add_argument("--quiet", action="store_true", help="suppress per-epoch lines")
    add_format(p)

    p = sub.add_parser("detect", help="scan a WAV for keyword events")
    p.add_argument("wav")
    p.add_argument("--model", required=True)
    p.add_argument("--threshold", type=_threshold, default=0.7)
    p.add_argument("--smooth", type=_positive_int, default=30, metavar="W",
                   help="posterior smoothing window (frames)")
    p.add_argument("--window", type=_positive_int, default=100, metavar="W",
                   help="confidence max window (frames)")
    p.add_argument("--refractory", type=int, default=30,
                   help="frames to stay quiet after an event")
    add_format(p)

    p = sub.add_parser(
        "bench",
        help="check the optimized paths against the naive one, then time both conv paths",
        description="Checks forward_frames and forward (on a loaded model, the continued stream) "
        "against the naive per-window path on a seeded frame stream, then times forward on its "
        "first window, repeated: a repeated window never continues the stream, so both paths "
        "compute the whole window.",
    )
    p.add_argument("--model", required=True)
    p.add_argument("--iters", type=_positive_int, default=20)
    p.add_argument("--seed", type=int, default=None)
    add_format(p)

    return parser


def _emit(args, settings: dict, doc: dict, text_lines: list[str]) -> None:
    """Print `doc` with the command and its settings as one JSON document
    under --format structured, else the settings header and `text_lines`."""
    if args.format == "structured":
        print(json.dumps({"command": args.command, "config": settings, **doc}, indent=2, sort_keys=True))
    else:
        for line in (_config_header(args.command, settings), *text_lines):
            print(line)


def _config_header(command: str, settings: dict) -> str:
    parts = " ".join(f"{key}={value}" for key, value in settings.items())
    return f"# kwslite {command} {parts}"


def cmd_featurize(args) -> int:
    wave = read_wav(args.wav)
    frames = log_mel_frames(wave)
    context = args.context if args.context is not None else Context(0, 0)
    windows = stack_context(frames, context)
    write_feature_dump(args.out, windows)
    settings = {
        "in": args.wav,
        "out": args.out,
        "context": f"{context.left},{context.right}",
        "window_ms": 1000 * FrameConfig.window_length // SAMPLE_RATE,
        "hop_ms": 1000 * FrameConfig.hop // SAMPLE_RATE,
        "mel_filters": frames.shape[1],
    }
    doc = {
        "frames": int(frames.shape[0]),
        "features": int(frames.shape[1]),
        "window_shape": [int(windows.shape[1]), int(windows.shape[2])],
    }
    lines = [
        f"{frames.shape[0]} frames x {frames.shape[1]}",
        f"wrote {windows.shape[0]} windows of {windows.shape[1]}x{windows.shape[2]} to {args.out}",
    ]
    _emit(args, settings, doc, lines)
    return EXIT_OK


def cmd_describe(args) -> int:
    arch = _arch.get_arch(args.arch, args.labels, args.maps)
    trace = _arch.validate(arch)
    settings = {"arch": args.arch, "labels": args.labels,
                "context": f"{arch.context.left},{arch.context.right}"}
    if args.maps is not None:
        settings["maps"] = args.maps
    doc = {"trace": [{"layer": e.name, "shape": list(e.shape)} for e in trace]}
    width = max(len(e.name) for e in trace)
    lines = [f"{e.name:<{width}}  {'x'.join(str(d) for d in e.shape)}" for e in trace]
    _emit(args, settings, doc, lines)
    return EXIT_OK


def cmd_budget(args) -> int:
    arch = _arch.get_arch(args.arch, args.labels, args.maps)
    rep = _budget.report(arch)
    settings = {"arch": args.arch, "labels": args.labels}
    if args.maps is not None:
        settings["maps"] = args.maps
    if args.compare:
        settings["compare"] = args.compare
    doc = {
        "layers": [
            {"layer": row.name, "output": list(row.out_shape),
             "params": row.cost.params, "multiplies": row.cost.multiplies,
             "per_frame_multiplies": row.per_frame}
            for row in rep.per_layer
        ],
        "total": {"params": rep.total.params, "multiplies": rep.total.multiplies},
        "per_frame": {"multiplies": rep.per_frame},
    }
    lines = [_budget.format_report(rep)]
    if args.compare:
        other = _arch.get_arch(args.compare, args.labels)
        cmp_result = _budget.compare(arch, other)
        doc["compare"] = {
            "against": args.compare,
            "multiply_ratio": round(cmp_result.multiply_ratio, 2),
            "param_ratio": round(cmp_result.param_ratio, 2),
        }
        lines.append(f"multiply ratio {arch.name}/{other.name}: {cmp_result.multiply_ratio:.2f}")
        lines.append(f"param ratio {arch.name}/{other.name}: {cmp_result.param_ratio:.2f}")
    _emit(args, settings, doc, lines)
    return EXIT_OK


def cmd_fit(args) -> int:
    def template(maps: int):
        return _arch.get_arch(args.arch, args.labels, maps)

    best = _budget.fit_to_budget(template, args.cap)
    maps = best.layers[0].maps  # both fittable architectures open with a conv
    rep = _budget.report(best)
    settings = {"arch": args.arch, "cap": args.cap, "labels": args.labels}
    doc = {"maps": maps, "params": rep.total.params, "multiplies": rep.total.multiplies}
    line = f"maps={maps} params={rep.total.params:,} multiplies={rep.total.multiplies:,} (cap {args.cap:,})"
    _emit(args, settings, doc, [line])
    return EXIT_OK


def cmd_train(args) -> int:
    seed = args.seed if args.seed is not None else _default_seed()
    # built first, so a bad flag fails before any data is read or generated
    cfg = TrainConfig(learning_rate=args.lr, epochs=args.epochs, batch_size=args.batch_size, seed=seed)
    if args.data:
        dataset = load_dataset_dir(args.data)
    else:
        dataset = make_synthetic_dataset(
            SyntheticSpec(keywords=args.synthetic, examples_per_class=args.per_class,
                          noise_level=args.noise, seed=seed)
        )
    arch = _arch.get_arch(args.arch, len(dataset.labels))
    examples = center_window_examples(dataset.train, arch.context)
    settings = {
        "arch": args.arch, "source": args.data or f"synthetic:{args.synthetic}",
        "labels": len(dataset.labels), "examples": len(examples), "seed": seed,
        "epochs": cfg.epochs, "lr": cfg.learning_rate, "batch_size": cfg.batch_size,
        "out": args.out,
    }
    verbose = args.format == "text" and not args.quiet
    if verbose:
        print(_config_header(args.command, settings))  # before training, so a long run names itself
    result = train(arch, examples, cfg)
    if verbose:
        for i, stats in enumerate(result.history, 1):
            if i == 1 or i == len(result.history) or i % 20 == 0:
                print(f"epoch {i}/{cfg.epochs} loss={stats.loss:.4f} acc={stats.accuracy:.3f} "
                      f"grad_norm={stats.grad_norm:.4g} time={stats.seconds:.3f}s")
    save_model(args.out, arch, result.weights, dataset.labels)
    final = result.history[-1]
    doc = {
        "final_loss": final.loss,
        "final_accuracy": final.accuracy,
        "model": args.out,
        "history": [{"loss": s.loss, "accuracy": s.accuracy, "seconds": s.seconds, "grad_norm": s.grad_norm}
                    for s in result.history],
        "environment": _environment(),
    }
    lines = [f"final loss={final.loss:.4f} acc={final.accuracy:.3f}", f"wrote {args.out}"]
    if verbose:
        print("\n".join(lines))  # the header is already out
    else:
        _emit(args, settings, doc, lines)
    return EXIT_OK


def _environment() -> dict:
    """What a run was measured on, for its --format structured output."""
    blas = _blas()  # a copy: the cached dict is shared by every call
    return {"numpy": np.__version__, "python": platform.python_version(), "cpu_count": os.cpu_count(),
            "blas": dict(blas) if blas else None}


@functools.cache
def _blas() -> dict | None:
    """The BLAS numpy was built with, or None where numpy cannot say (an older
    numpy's show_config takes no mode=). Asked once: detect runs are timed."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    except (TypeError, KeyError):
        return None
    return {"name": blas.get("name"), "version": blas.get("version")}


def cmd_detect(args) -> int:
    model = load_model(args.model)
    wave = read_wav(args.wav)
    cfg = DetectorConfig(threshold=args.threshold, w_smooth=args.smooth,
                         w_max=args.window, refractory=args.refractory)
    filler = model.labels.index(FILLER_NAME) if FILLER_NAME in model.labels else 0
    probs = posteriors_from_waveform(model.arch, model.weights, wave)
    events = detect(probs, cfg, filler)
    settings = {
        "model": args.model, "wav": args.wav, "threshold": cfg.threshold,
        "smooth": cfg.w_smooth, "window": cfg.w_max, "refractory": cfg.refractory,
    }
    doc = {
        "frames": int(probs.shape[0]),
        "events": [
            {"frame": e.frame_index, "time": round(e.frame_index * FRAME_SECONDS, 3),
             "keyword": model.labels[e.keyword], "confidence": e.confidence}
            for e in events
        ],
        "environment": _environment(),
    }
    lines = [
        f"{e.frame_index}\t{e.frame_index * FRAME_SECONDS:.3f}\t{model.labels[e.keyword]}\t{e.confidence:.4f}"
        for e in events
    ]
    _emit(args, settings, doc, lines)
    return EXIT_OK


# Frames in bench's agreement stream: edge replication at both ends,
# windows on both interleaved calls of a conv at time step 2 (after a time
# stride or pool of 2), and two forward calls that continue a loaded model's
# stream, one priming it. The naive per-window reference costs a few
# milliseconds a window on the stock stacks, so the check stays quick.
AGREEMENT_FRAMES = 3


def _check_agreement(arch: _arch.ArchSpec, weights: Mapping[str, np.ndarray], frames: np.ndarray) -> float:
    """Check the production paths against the naive oracle and each other.

    On every stacked window of `frames`, each weighted layer must keep its
    float32 error bound against the naive path (arch.bound_fractions).
    forward of every window in order, which continues a loaded model's
    stream where that is cheaper, must match forward of each window alone
    (rtol 1e-5, atol 1e-12). A float32 product's bits depend on its row
    count, so forward_frames must match that on float64 copies of the
    weights (rtol 1e-10), where only a misplaced row could differ. Raises
    AgreementError otherwise. Returns the worst fraction of a bound.
    """
    windows = stack_context(frames, arch.context)
    worst = 0.0
    for j, window in enumerate(windows):
        for name, fraction in _arch.bound_fractions(arch, weights, window).items():
            if not fraction <= 1:  # NaN included
                raise AgreementError(
                    f"the optimized path breaks a layer's float32 error bound before timing "
                    f"({fraction:.3e} of the bound at {name} on window {j})"
                )
            worst = max(worst, fraction)
    alone = dict(weights)  # a plain dict never continues a stream
    per_window = np.stack([_arch.forward(arch, alone, w) for w in windows])
    if not np.allclose(np.stack([_arch.forward(arch, weights, w) for w in windows]), per_window,
                       rtol=1e-5, atol=1e-12):
        raise AgreementError("the continued rows disagree with the per-window forward before timing")
    wide = {name: np.asarray(w, dtype=np.float64) for name, w in weights.items()}
    wide_rows = np.stack([_arch.forward(arch, wide, w) for w in windows])
    if not np.allclose(_arch.forward_frames(arch, wide, frames), wide_rows, rtol=1e-10, atol=1e-12):
        raise AgreementError("the streamed rows disagree with the per-window forward before timing")
    return worst


def cmd_bench(args) -> int:
    model = load_model(args.model)
    seed = args.seed if args.seed is not None else _default_seed()
    rng = np.random.default_rng(seed)
    frames = rng.standard_normal((AGREEMENT_FRAMES, model.arch.input_f)).astype(np.float32)
    worst = _check_agreement(model.arch, model.weights, frames)
    window = stack_context(frames, model.arch.context)[0]

    timings = {}
    for path in ("naive", "optimized"):
        samples = []
        for _ in range(args.iters):
            start = time.perf_counter()
            _arch.forward(model.arch, model.weights, window, conv_path=path)
            samples.append(time.perf_counter() - start)
        arr = np.array(samples)
        timings[path] = {"mean_ms": float(arr.mean() * 1e3), "p50_ms": float(np.median(arr) * 1e3)}

    settings = {"model": args.model, "iters": args.iters, "seed": seed}
    doc = {"agreement": "OK", "worst_bound_fraction": worst, "timings": timings}
    lines = [f"agreement check OK (worst layer error {worst:.3e} of its float32 bound)"]
    for path, stats in timings.items():
        lines.append(f"{path:<10} mean {stats['mean_ms']:8.3f} ms   p50 {stats['p50_ms']:8.3f} ms")
    _emit(args, settings, doc, lines)
    return EXIT_OK


_COMMANDS = {
    "featurize": cmd_featurize,
    "describe": cmd_describe,
    "budget": cmd_budget,
    "fit": cmd_fit,
    "train": cmd_train,
    "detect": cmd_detect,
    "bench": cmd_bench,
}


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except (UsageError, ValueError, NotADirectoryError) as exc:
        print(f"kwslite: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except NumericError as exc:
        print(f"kwslite: numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except (KwsError, FileNotFoundError, IsADirectoryError) as exc:
        print(f"kwslite: error: {exc}", file=sys.stderr)
        return EXIT_DATA


if __name__ == "__main__":
    sys.exit(main())
