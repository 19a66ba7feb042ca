"""Streaming one 10 ms hop at a time, checked against the batch pipeline.

For every stock architecture, a seeded 3 s clip is fed hop by hop: the hop's
400-sample frame goes through log_mel_frames, a context ring (edge frames
replicated, the right-context tail flushed at the end) gives one window,
forward classifies it and StreamingDetector.push smooths and detects. The
demo prints the median time per hop of each stage, then checks that every
streamed frame equals batch log_mel_frames bit for bit, every window equals
stack_context, and the streamed events equal batch detect on the same
posteriors. It exits with status 1 on any mismatch.

Run with: python3 demos/05_stream_hop.py  (a few seconds)
"""

import sys
import time
from collections import deque

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
    log_mel_frames,
    stack_context,
)

SR = 16000
cfg = FrameConfig()
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
batch_frames = log_mel_frames(Waveform(samples), cfg)
n = len(batch_frames)

failures = []
print(f"{n} hops of {1e3 * cfg.hop / SR:.0f} ms; median ms per hop")
print(f"{'arch':<13}{'frontend':>9}{'forward':>9}{'push':>9}{'total':>9}  events")
for name in ARCHITECTURES:
    arch = get_arch(name, 4)
    weights = init_weights(arch, 0, init_scale=0.3)
    left, right = arch.context.left, arch.context.right
    ring = deque(maxlen=arch.input_t)
    detector = StreamingDetector(detector_cfg)
    frames, windows, rows, events = [], [], [], []
    stage_ms = {"frontend": [], "forward": [], "push": []}
    # the last `right` hops bring no audio: they flush the right-context tail
    for hop in range(n + right):
        if hop < n:
            start = time.perf_counter()
            frame = log_mel_frames(Waveform(samples[hop * cfg.hop : hop * cfg.hop + cfg.window_length]), cfg)[0]
            stage_ms["frontend"].append(1e3 * (time.perf_counter() - start))
            frames.append(frame)
            if hop == 0:
                ring.extend([frame] * left)
            ring.append(frame)
        else:
            ring.append(ring[-1])
        if len(ring) < arch.input_t:
            continue
        window = np.stack(ring)
        start = time.perf_counter()
        row = forward(arch, weights, window)
        stage_ms["forward"].append(1e3 * (time.perf_counter() - start))
        start = time.perf_counter()
        event = detector.push(row)
        stage_ms["push"].append(1e3 * (time.perf_counter() - start))
        windows.append(window)
        rows.append(row)
        if event is not None:
            events.append(event)

    medians = {stage: float(np.median(ms)) for stage, ms in stage_ms.items()}
    print(f"{name:<13}" + "".join(f"{m:9.3f}" for m in medians.values()) + f"{sum(medians.values()):9.3f}  {len(events)}")
    if not np.array_equal(np.stack(frames), batch_frames):
        failures.append(f"{name}: streamed frames differ from batch log_mel_frames")
    if not np.array_equal(np.stack(windows), stack_context(batch_frames, arch.context)):
        failures.append(f"{name}: streamed windows differ from batch stack_context")
    if events != detect(np.stack(rows), detector_cfg):
        failures.append(f"{name}: streamed events differ from batch detect")

if failures:
    print("\n".join(failures))
    sys.exit(1)
print("every streamed frame, window and event equals the batch result")
