"""The three workloads. Each is a closed loop: one client, one process.

scan    `kwslite detect --format structured` through the in-process CLI,
        one seeded 10 s clip per round, scanned once by every architecture.
stream  the same fixed models fed one 10 ms hop at a time through public
        functions: log_mel_frames on the hop's frame, a context ring with
        edge replication, forward on one window, StreamingDetector.push.
train   train.train for a fixed number of epochs on a seeded synthetic
        corpus, for every architecture.

Every workload calls kwslite through module attributes (kwslite.arch.forward,
not a name imported here), so the tracer's wrappers see the calls.
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import statistics
from collections import deque
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import kwslite
import kwslite.arch
import kwslite.cli
import kwslite.data
import kwslite.frontend
import kwslite.modelio
import kwslite.posterior
from kwslite import ARCHITECTURES, DetectorConfig, StreamingDetector, SyntheticSpec, TrainConfig, Waveform

import clips
import oracles
import reference
from tracer import Patch

# the package exports a function named train, which hides the submodule attribute
train_module = importlib.import_module("kwslite.train")

MODELS_DIR = Path(__file__).resolve().parent / "models"
DETECTOR = DetectorConfig(threshold=0.7, w_smooth=30, w_max=100, refractory=30)
WARMUP_CLIP = 1_000_000  # clip index reserved for warm-up audio
TRAIN_EPOCHS = 2
TRAIN_SEED = 0
TRAIN_PER_CLASS = 20


@dataclass
class Outcome:
    """One operation's timings and checks."""

    arch: str
    times: list[float]  # seconds per timed unit (a command, a hop, a train call)
    audio_seconds: float  # seconds of audio handled per timed unit
    attempted: int
    failed: int
    problems: list[str] = field(default_factory=list)
    traced: bool = False
    windows: int = 0  # classifier windows evaluated, for per-layer rates
    examples: int = 0  # training examples through loss_and_grads
    quality: oracles.Outcomes | None = None
    references: list[float] = field(default_factory=list)  # reference loop time around each timed unit


@dataclass(frozen=True)
class Fixture:
    arch: kwslite.ArchSpec
    weights: dict
    labels: list
    fixture_sha256: str
    path: Path
    model_sha256: str


def traced(tracer, label: str):
    """Install the tracer and open an operation span, or do nothing untraced."""
    stack = contextlib.ExitStack()
    if tracer is not None:
        stack.enter_context(tracer.installed())
        stack.enter_context(tracer.operation(label))
    return stack


def sha256(path: Path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def write_fixtures(workdir: Path) -> dict[str, Fixture]:
    """Check the committed weights and write them as .kwsm files with save_model."""
    doc = json.loads((MODELS_DIR / "models.json").read_text())
    fixtures = {}
    for name in ARCHITECTURES:
        entry = doc["models"][name]
        source = MODELS_DIR / entry["file"]
        digest = sha256(source)
        if digest != entry["sha256"]:
            raise RuntimeError(f"{source}: sha256 {digest} does not match models.json")
        flat = np.load(source, allow_pickle=False)
        weights, offset = {}, 0
        for tensor, shape in entry["tensors"]:
            size = int(np.prod(shape))
            weights[tensor] = flat[offset : offset + size].reshape(shape).astype(np.float32)
            offset += size
        arch = kwslite.get_arch(name, len(entry["labels"]))
        path = workdir / f"{name}.kwsm"
        kwslite.modelio.save_model(path, arch, weights, entry["labels"])
        fixtures[name] = Fixture(arch, weights, entry["labels"], digest, path, sha256(path))
    return fixtures


def naive_rows(arch, weights, windows, picks) -> dict[int, np.ndarray]:
    return {
        int(j): kwslite.arch.forward(arch, weights, windows[j], conv_path="naive").astype(np.float64)
        for j in picks
    }


class Workload:
    """A workload runs operations: execute() is timed, check() is not."""

    name = ""
    archs = ARCHITECTURES
    clip_seconds = 10.0

    def __init__(self, seed: int, workdir: Path):
        self.seed = seed
        self.workdir = workdir
        self._clips: dict[int, clips.Clip] = {}

    def clip(self, index: int) -> clips.Clip:
        """Clip `index` of this seed; only the latest one is kept."""
        if index not in self._clips:
            seconds = 0.5 if index == WARMUP_CLIP else self.clip_seconds
            self._clips = {index: clips.make_clip(self.seed, index, seconds)}
        return self._clips[index]

    def naive_check(self, index: int, arch: str, n: int) -> list[int]:
        """The window of clip `index` to check against the naive path.

        One architecture per clip, in turn, and one seeded window: the naive
        path costs up to half a second per window.
        """
        if self.archs[index % len(self.archs)] != arch:
            return []
        return [int(np.random.default_rng([self.seed, index]).integers(n))]

    def warmup(self) -> None:
        for arch in self.archs:
            self.execute(arch, WARMUP_CLIP, None)

    def run(self, arch: str, index: int, tracer) -> Outcome:
        """Execute between two passes of the reference loop, then check.

        Units that carry no reference times of their own get the mean of the two.
        """
        before = reference.seconds()
        result = self.execute(arch, index, tracer)
        after = reference.seconds()
        outcome = self.check(result)
        if not outcome.references:
            outcome.references = [(before + after) / 2] * len(outcome.times)
        return outcome

    def finish(self, outcomes: list[Outcome]) -> list[Outcome]:
        return []

    def figures(self, unit_times: dict[str, list[float]]) -> dict:
        """Workload-specific figures for the report, from each architecture's unit times."""
        return {}

    def environment(self) -> dict:
        return {}


@dataclass
class ScanRun:
    arch: str
    index: int
    traced: bool
    seconds: float
    exit_code: int
    stdout: str
    posteriors: np.ndarray | None  # what the command computed, when it calls posteriors_from_waveform


class Scan(Workload):
    name = "scan"

    def prepare(self) -> None:
        self.fixtures = write_fixtures(self.workdir)

    def wav(self, index: int) -> Path:
        path = self.workdir / f"clip-{index}.wav"
        if not path.exists():
            for old in self.workdir.glob("clip-*.wav"):
                old.unlink()
            clips.write_wav(path, self.clip(index))
        return path

    def execute(self, arch: str, index: int, tracer) -> ScanRun:
        fx = self.fixtures[arch]
        argv = ["detect", str(self.wav(index)), "--model", str(fx.path), "--format", "structured",
                "--threshold", str(DETECTOR.threshold), "--smooth", str(DETECTOR.w_smooth),
                "--window", str(DETECTOR.w_max), "--refractory", str(DETECTOR.refractory)]
        captured = []

        def capture(fn):
            def wrapper(*args, **kwargs):
                captured.append(fn(*args, **kwargs))
                return captured[-1]
            return wrapper

        out = io.StringIO()
        patch = Patch("kwslite.posterior", "posteriors_from_waveform", capture)
        try:
            with contextlib.redirect_stdout(out), traced(tracer, arch):
                start = perf_counter()
                with tracer.span("cli.detect") if tracer else contextlib.nullcontext():
                    code = kwslite.cli.main(argv)
                elapsed = perf_counter() - start
        finally:
            patch.undo()
        return ScanRun(arch, index, tracer is not None, elapsed, code, out.getvalue(),
                       captured[-1] if captured else None)

    def check(self, run: ScanRun) -> Outcome:
        fx = self.fixtures[run.arch]
        clip = self.clip(run.index)
        problems = []
        events = []
        if run.exit_code != 0:
            problems.append(f"detect exited with {run.exit_code}")
        else:
            events = oracles.events_from_cli(json.loads(run.stdout))
        waveform = Waveform(clip.samples)
        posteriors = run.posteriors
        if posteriors is None:
            posteriors = kwslite.posterior.posteriors_from_waveform(fx.arch, fx.weights, waveform)
        windows = kwslite.frontend.stack_context(kwslite.frontend.log_mel_frames(waveform), fx.arch.context)
        picks = self.naive_check(run.index, run.arch, len(windows))
        problems += oracles.posterior_problems(posteriors, naive_rows(fx.arch, fx.weights, windows, picks))
        detector = StreamingDetector(DETECTOR, fx.labels.index("_filler"))
        streamed = [e for e in (detector.push(p) for p in posteriors) if e is not None]
        problems += oracles.event_problems(
            events, oracles.events_from_detector(streamed, fx.labels), "cli events vs StreamingDetector")
        quality, false_alarms = oracles.keyword_outcomes(events, clip.plants, fx.labels, fx.arch.context, DETECTOR)
        problems += [f"false alarm: {e.keyword} at frame {e.frame}" for e in false_alarms]
        return Outcome(run.arch, [run.seconds], clip.seconds, 1, int(bool(problems)), problems,
                       run.traced, len(windows), quality=quality)

    def environment(self) -> dict:
        return {"models": {a: {"fixture_sha256": f.fixture_sha256, "kwsm_sha256": f.model_sha256}
                           for a, f in self.fixtures.items()}}


@dataclass
class StreamRun:
    arch: str
    index: int
    traced: bool
    times: list[float]  # one per hop, flush steps included
    references: list[float]  # reference loop time around each hop
    frames: np.ndarray  # frame of every hop
    windows: np.ndarray  # window j, produced by hop j + right
    posteriors: np.ndarray
    events: list


class Stream(Scan):
    name = "stream"
    # short streams, so every architecture streams many times across a run
    clip_seconds = 4.0

    def prepare(self) -> None:
        super().prepare()
        self.models = {a: kwslite.modelio.load_model(f.path) for a, f in self.fixtures.items()}

    def execute(self, arch: str, index: int, tracer) -> StreamRun:
        model = self.models[arch]
        samples = self.clip(index).samples
        ctx = model.arch.context
        n = kwslite.frontend.frame_count(len(samples), kwslite.frontend.FrameConfig())
        frames = np.empty((n, 40), np.float32)
        windows = np.empty((n, ctx.size, 40), np.float32)
        probs = np.empty((n, len(model.labels)), np.float32)
        times = []
        events = []
        ring: deque = deque(maxlen=ctx.size)
        detector = StreamingDetector(DETECTOR, model.labels.index("_filler"))
        tracker = reference.Tracker()
        with traced(tracer, arch):
            log_mel_frames = kwslite.frontend.log_mel_frames
            forward = kwslite.arch.forward
            # the last `right` hops bring no audio: they flush the right-context tail
            for hop in range(n + ctx.right):
                tracker.take(hop)
                start = perf_counter()
                if hop < n:
                    frame = log_mel_frames(Waveform(samples[hop * clips.HOP : hop * clips.HOP + clips.WINDOW]))[0]
                    if hop == 0:
                        ring.extend([frame] * ctx.left)
                    ring.append(frame)
                else:
                    ring.append(ring[-1])
                window = row = event = None
                if len(ring) == ctx.size:
                    window = np.stack(ring)
                    row = forward(model.arch, model.weights, window)
                    event = detector.push(row)
                times.append(perf_counter() - start)
                if hop < n:
                    frames[hop] = frame
                if window is not None:
                    windows[hop - ctx.right] = window
                    probs[hop - ctx.right] = row
                    if event is not None:
                        events.append(event)
        return StreamRun(arch, index, tracer is not None, times, tracker.per_unit(len(times)), frames, windows,
                         probs, events)

    def check(self, run: StreamRun) -> Outcome:
        """Failed hops: a frame or window that is not bit-exact, a posterior off
        the naive path, an event batch detect does not give, or a false alarm."""
        fx = self.fixtures[run.arch]
        clip = self.clip(run.index)
        ctx = fx.arch.context
        filler = fx.labels.index("_filler")
        batch_frames = kwslite.frontend.log_mel_frames(Waveform(clip.samples))
        batch_windows = kwslite.frontend.stack_context(batch_frames, ctx)
        bad = {h: "frame differs from batch log_mel_frames"
               for h in oracles.frame_mismatches(run.frames, batch_frames)}
        for j in oracles.window_mismatches(run.windows, batch_windows):
            bad.setdefault(j + ctx.right, "window differs from batch stack_context")
        for pick in self.naive_check(run.index, run.arch, len(batch_windows)):
            for problem in oracles.posterior_problems(
                    run.posteriors, naive_rows(fx.arch, fx.weights, batch_windows, [pick])):
                bad.setdefault(pick + ctx.right, problem)
        got = oracles.events_from_detector(run.events, fx.labels)
        want = oracles.events_from_detector(kwslite.posterior.detect(run.posteriors, DETECTOR, filler), fx.labels)
        for f in oracles.differing_event_frames(got, want):
            bad.setdefault(f + ctx.right, f"streamed event at frame {f} differs from batch detect")
        quality, false_alarms = oracles.keyword_outcomes(got, clip.plants, fx.labels, ctx, DETECTOR)
        for e in false_alarms:
            bad.setdefault(e.frame + ctx.right, f"false alarm: {e.keyword} at frame {e.frame}")
        problems = [f"hop {h}: {why}" for h, why in sorted(bad.items())]
        return Outcome(run.arch, run.times, clips.HOP / clips.SAMPLE_RATE, len(run.times), len(bad), problems,
                       run.traced, len(run.posteriors), quality=quality, references=run.references)

    def figures(self, unit_times):
        """Hop latency p50 and p99 in ms; p99 needs ten hops beyond it."""
        out = {}
        for arch, times in unit_times.items():
            out[f"hop_p50_ms.{arch}"] = 1e3 * statistics.median(times)
            out[f"hop_p99_ms.{arch}"] = (1e3 * statistics.quantiles(times, n=100, method="inclusive")[98]
                                         if len(times) >= 1000 else None)
        return out


@dataclass
class TrainRun:
    arch: str
    traced: bool
    seconds: float
    losses: list[float]
    model_bytes: bytes


class Train(Workload):
    name = "train"

    def prepare(self) -> None:
        spec = SyntheticSpec(keywords=clips.KEYWORDS, examples_per_class=TRAIN_PER_CLASS, seed=self.seed)
        dataset = kwslite.data.make_synthetic_dataset(spec)
        self.labels = dataset.labels
        self.corpus_seconds = len(dataset.train) * spec.duration
        self.specs = {a: kwslite.get_arch(a, len(self.labels)) for a in self.archs}
        self.examples = {}
        for arch in self.specs.values():
            if arch.context not in self.examples:
                self.examples[arch.context] = kwslite.data.center_window_examples(dataset.train, arch.context)
        self.first_model: dict[str, bytes] = {}

    def warmup(self) -> None:
        for arch in self.specs.values():
            train_module.train(arch, self.examples[arch.context][:16], TrainConfig(epochs=1, seed=TRAIN_SEED))

    def execute(self, arch: str, index: int, tracer) -> TrainRun:
        spec = self.specs[arch]
        path = self.workdir / f"{arch}.kwsm"
        with traced(tracer, arch):
            start = perf_counter()
            result = train_module.train(spec, self.examples[spec.context],
                                        TrainConfig(epochs=TRAIN_EPOCHS, seed=TRAIN_SEED))
            elapsed = perf_counter() - start
            kwslite.modelio.save_model(path, spec, result.weights, self.labels)
        return TrainRun(arch, tracer is not None, elapsed, [h.loss for h in result.history], path.read_bytes())

    def check(self, run: TrainRun) -> Outcome:
        """Loss must fall; the same seed must give byte-identical model files."""
        problems = oracles.training_problems(run.losses)
        if self.first_model.setdefault(run.arch, run.model_bytes) != run.model_bytes:
            problems.append("weights differ from an earlier call with the same seed")
        examples = len(self.examples[self.specs[run.arch].context])
        return Outcome(run.arch, [run.seconds], self.corpus_seconds * TRAIN_EPOCHS, 1, int(bool(problems)),
                       problems, run.traced, examples=examples * TRAIN_EPOCHS)

    def figures(self, unit_times):
        return {f"epoch_s.{arch}": statistics.median(times) / TRAIN_EPOCHS for arch, times in unit_times.items()}

    def finish(self, outcomes: list[Outcome]) -> list[Outcome]:
        """An untimed repeat for architectures the run trained only once."""
        extra = []
        for arch in self.archs:
            first = self.first_model.get(arch)
            if sum(o.arch == arch for o in outcomes) < 2 and first is not None:
                same = self.execute(arch, 1, None).model_bytes == first
                problems = [] if same else ["weights differ when repeated with the same seed"]
                extra.append(Outcome(arch, [], 0.0, 1, len(problems), problems))
        return extra


WORKLOADS = {"scan": Scan, "stream": Stream, "train": Train}
