"""Streaming one 10 ms hop at a time, checked against the batch pipeline.

For every stock architecture, a model is written with save_model and read
back with load_model, as a deployed device would, and a seeded 3 s clip is
fed hop by hop: the hop's 400-sample frame goes through log_mel_frames, a
context ring (edge frames replicated, the right-context tail flushed at the
end) gives one window, forward classifies it with the loaded weights and
StreamingDetector.push smooths and detects. Each window is also classified
with the plain dict of weights the model was saved from. The loaded weights
continue the stream where a frame costs fewer multiplies than a window
(cnn-trad, cnn-tstride2, cnn-tpool2): each hop after the first pushes only
its new frame through the carried conv stages. The plain dict, which could
change between calls, runs every window whole, as do dnn and cnn-one. The
demo prints the median time per hop of each stage, forward on the loaded and
on the plain weights, the multiplies forward metered per hop on the loaded
weights next to a whole window's, and its achieved GMAC/s per hop. A second
pass over the clip, on a model loaded anew, counts each stage's Python calls
into kwslite per hop (sys.setprofile, keeping only functions defined in the
package, so the count does not depend on the numpy version; forward's
include its MacCounter's), which timing noise cannot hide. It then
checks that both give the same posteriors bit for bit, every
streamed frame equals batch log_mel_frames bit for bit, every window equals
stack_context, and the streamed events equal batch detect on the same
posteriors. It exits with status 1 on any mismatch.

Run with: python3 demos/05_stream_hop.py  (a few seconds)
"""

import os
import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import numpy as np

import kwslite
from kwslite import (
    ARCHITECTURES,
    DetectorConfig,
    FrameConfig,
    StreamingDetector,
    Waveform,
    detect,
    forward,
    get_arch,
    init_weights,
    load_model,
    log_mel_frames,
    report,
    save_model,
    stack_context,
)
from kwslite.tensor import MacCounter

SR = 16000
HOP, WINDOW = FrameConfig.hop, FrameConfig.window_length
# untrained weights drawn wide enough that posteriors move with the input,
# and a threshold low enough that some events fire
detector_cfg = DetectorConfig(threshold=0.5, w_smooth=10, w_max=30, refractory=20)

rng = np.random.default_rng(0)
t = np.arange(3 * SR) / SR
samples = 0.05 * rng.standard_normal(len(t))
for start in (0.5, 1.6, 2.3):  # three 300 ms two-tone bursts
    burst = (t >= start) & (t < start + 0.3)
    samples[burst] += 0.4 * np.sin(2 * np.pi * 700 * t[burst]) + 0.3 * np.sin(2 * np.pi * 1900 * t[burst])
samples = samples.astype(np.float32)
batch_frames = log_mel_frames(Waveform(samples))
n = len(batch_frames)


def timed(fn, *args):
    """fn(*args) and the microseconds it took."""
    start = time.perf_counter()
    result = fn(*args)
    return result, 1e6 * (time.perf_counter() - start)


PACKAGE = str(Path(kwslite.__file__).parent) + os.sep


def counted(fn, *args):
    """fn(*args) and the Python calls it made into kwslite: calls of
    functions defined under the package's directory, fn's own included.
    Calls into numpy and C functions are left out, so the count does not
    depend on the numpy version."""
    calls = 0

    def profile(frame, event, arg):
        nonlocal calls
        if event == "call" and frame.f_code.co_filename.startswith(PACKAGE):
            calls += 1

    sys.setprofile(profile)
    try:
        result = fn(*args)
    finally:
        sys.setprofile(None)
    return result, calls


STAGES = ("frontend", "forward", "(plain)", "push")


def stream(arch, weights, plain, measure):
    """Feed the clip hop by hop through log_mel_frames, forward on the
    loaded and on the plain weights, and push, each stage call run by
    measure(fn, *args) -> (result, figure). Returns the figures per stage,
    the MACs forward metered per hop on the loaded weights, and the frames,
    windows, posterior rows and events."""
    left, right = arch.context.left, arch.context.right
    ring = deque(maxlen=arch.input_t)
    detector = StreamingDetector(detector_cfg)
    frames, windows, rows, events = [], [], [], []
    figures = {stage: [] for stage in STAGES}
    macs = []
    plain_differs = False
    # the last `right` hops bring no audio: they flush the right-context tail
    for hop in range(n + right):
        if hop < n:
            hop_wave = Waveform(samples[hop * HOP : hop * HOP + WINDOW])
            frame_rows, figure = measure(log_mel_frames, hop_wave)
            frame = frame_rows[0]
            figures["frontend"].append(figure)
            frames.append(frame)
            if hop == 0:
                ring.extend([frame] * left)
            ring.append(frame)
        else:
            ring.append(ring[-1])
        if len(ring) < arch.input_t:
            continue
        window = np.stack(ring)
        counter = MacCounter()
        row, figure = measure(forward, arch, weights, window, "optimized", counter)
        figures["forward"].append(figure)
        macs.append(counter.count)
        plain_row, figure = measure(forward, arch, plain, window)
        figures["(plain)"].append(figure)
        plain_differs |= plain_row.dtype != row.dtype or plain_row.tobytes() != row.tobytes()
        event, figure = measure(detector.push, row)
        figures["push"].append(figure)
        windows.append(window)
        rows.append(row)
        if event is not None:
            events.append(event)
    return figures, macs, plain_differs, frames, windows, rows, events


failures = []
model_dir = tempfile.TemporaryDirectory()
times, calls = {}, {}
print(f"{n} hops of {1e3 * HOP / SR:.0f} ms; median us per hop (total: the loaded weights), and the")
print("loaded forward's median metered multiplies per hop against a whole window's, and its GMAC/s")
print(f"{'arch':<13}{'frontend':>9}{'forward':>9}{'(plain)':>9}{'push':>9}{'total':>9}  events"
      f"{'MACs/hop':>12}{'window':>12}{'GMAC/s':>8}")
for name in ARCHITECTURES:
    arch = get_arch(name, 4)
    plain = init_weights(arch, 0, init_scale=0.3)
    path = Path(model_dir.name) / f"{name}.kwsm"
    save_model(path, arch, plain, ["_filler", "kw1", "kw2", "kw3"])
    # read-only, bound once on the first forward; each pass streams on a model of its own
    stage_us, macs, plain_differs, frames, windows, rows, events = stream(
        arch, load_model(path).weights, plain, timed)
    stage_calls = stream(arch, load_model(path).weights, plain, counted)[0]

    medians = {stage: float(np.median(us)) for stage, us in stage_us.items()}
    total = medians["frontend"] + medians["forward"] + medians["push"]
    gmacs = 1e-3 * np.array(macs) / stage_us["forward"]
    print(f"{name:<13}" + "".join(f"{m:9.0f}" for m in medians.values()) + f"{total:9.0f}  {len(events):>6}"
          f"{np.median(macs):12,.0f}{report(arch).total.multiplies:12,}{np.median(gmacs):8.1f}")
    calls[name] = {stage: int(np.median(c)) for stage, c in stage_calls.items()}
    if plain_differs:
        failures.append(f"{name}: the loaded weights give other posteriors than the plain dict")
    if not np.array_equal(np.stack(frames), batch_frames):
        failures.append(f"{name}: streamed frames differ from batch log_mel_frames")
    if not np.array_equal(np.stack(windows), stack_context(batch_frames, arch.context)):
        failures.append(f"{name}: streamed windows differ from batch stack_context")
    if events != detect(np.stack(rows), detector_cfg):
        failures.append(f"{name}: streamed events differ from batch detect")

print("\nmedian kwslite Python calls per hop (total: the loaded weights)")
print(f"{'arch':<13}{'frontend':>9}{'forward':>9}{'(plain)':>9}{'push':>9}{'total':>9}")
for name, per_stage in calls.items():
    total = per_stage["frontend"] + per_stage["forward"] + per_stage["push"]
    print(f"{name:<13}" + "".join(f"{c:9d}" for c in per_stage.values()) + f"{total:9d}")

model_dir.cleanup()
if failures:
    print("\n".join(failures))
    sys.exit(1)
print("the loaded weights give the plain dict's posteriors bit for bit, and every streamed frame,")
print("window and event equals the batch result")
