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
weights next to a whole window's, and its achieved GMAC/s per hop. It then
checks that both give the same posteriors bit for bit, every
streamed frame equals batch log_mel_frames bit for bit, every window equals
stack_context, and the streamed events equal batch detect on the same
posteriors. It exits with status 1 on any mismatch.

Run with: python3 demos/05_stream_hop.py  (a few seconds)
"""

import sys
import tempfile
import time
from collections import deque
from pathlib import Path

import numpy as np

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


failures = []
model_dir = tempfile.TemporaryDirectory()
print(f"{n} hops of {1e3 * HOP / SR:.0f} ms; median us per hop (total: the loaded weights), and the")
print("loaded forward's median metered multiplies per hop against a whole window's, and its GMAC/s")
print(f"{'arch':<13}{'frontend':>9}{'forward':>9}{'(plain)':>9}{'push':>9}{'total':>9}  events"
      f"{'MACs/hop':>12}{'window':>12}{'GMAC/s':>8}")
for name in ARCHITECTURES:
    arch = get_arch(name, 4)
    plain = init_weights(arch, 0, init_scale=0.3)
    path = Path(model_dir.name) / f"{name}.kwsm"
    save_model(path, arch, plain, ["_filler", "kw1", "kw2", "kw3"])
    weights = load_model(path).weights  # read-only; bound once, as they are, on the first forward
    left, right = arch.context.left, arch.context.right
    ring = deque(maxlen=arch.input_t)
    detector = StreamingDetector(detector_cfg)
    frames, windows, rows, events = [], [], [], []
    stage_us = {"frontend": [], "forward": [], "(plain)": [], "push": []}
    macs, gmacs = [], []  # per hop of the loaded forward
    plain_differs = False
    # the last `right` hops bring no audio: they flush the right-context tail
    for hop in range(n + right):
        if hop < n:
            hop_wave = Waveform(samples[hop * HOP : hop * HOP + WINDOW])
            frame_rows, us = timed(log_mel_frames, hop_wave)
            frame = frame_rows[0]
            stage_us["frontend"].append(us)
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
        row, us = timed(forward, arch, weights, window, "optimized", counter)
        stage_us["forward"].append(us)
        macs.append(counter.count)
        gmacs.append(1e-3 * counter.count / us)
        plain_row, us = timed(forward, arch, plain, window)
        stage_us["(plain)"].append(us)
        plain_differs |= plain_row.dtype != row.dtype or plain_row.tobytes() != row.tobytes()
        event, us = timed(detector.push, row)
        stage_us["push"].append(us)
        windows.append(window)
        rows.append(row)
        if event is not None:
            events.append(event)

    medians = {stage: float(np.median(us)) for stage, us in stage_us.items()}
    total = medians["frontend"] + medians["forward"] + medians["push"]
    print(f"{name:<13}" + "".join(f"{m:9.0f}" for m in medians.values()) + f"{total:9.0f}  {len(events):>6}"
          f"{np.median(macs):12,.0f}{report(arch).total.multiplies:12,}{np.median(gmacs):8.1f}")
    if plain_differs:
        failures.append(f"{name}: the loaded weights give other posteriors than the plain dict")
    if not np.array_equal(np.stack(frames), batch_frames):
        failures.append(f"{name}: streamed frames differ from batch log_mel_frames")
    if not np.array_equal(np.stack(windows), stack_context(batch_frames, arch.context)):
        failures.append(f"{name}: streamed windows differ from batch stack_context")
    if events != detect(np.stack(rows), detector_cfg):
        failures.append(f"{name}: streamed events differ from batch detect")

model_dir.cleanup()
if failures:
    print("\n".join(failures))
    sys.exit(1)
print("the loaded weights give the plain dict's posteriors bit for bit, and every streamed frame,")
print("window and event equals the batch result")
