"""Log-mel frontend walkthrough: framing, filterbank, context stacking.

Run with: python3 demos/01_frontend_features.py
"""

import numpy as np

from kwslite import (
    Context,
    FrameConfig,
    Waveform,
    log_mel_frames,
    mel_filter_centers,
    stack_context,
)

print(f"frame window {FrameConfig.window_length} samples, hop {FrameConfig.hop} samples, "
      f"{FrameConfig.mel_filters} mel filters")

# one second of a two-tone chord, the same shape of signal the synthetic
# keyword corpus uses
t = np.arange(16_000) / 16_000.0
wave = Waveform((0.4 * np.sin(2 * np.pi * 700.0 * t)
                 + 0.4 * np.sin(2 * np.pi * 2100.0 * t)).astype(np.float32))

frames = log_mel_frames(wave)
print(f"1.00 s of audio -> {frames.shape[0]} frames x {frames.shape[1]} features")

# the filterbank is laid out on the mel scale, so centers bunch up at low
# frequencies and spread out toward Nyquist
centers = mel_filter_centers()
print(f"filter centers run {centers[0]:.0f} Hz .. {centers[-1]:.0f} Hz")

# each tone shows up as a local peak at the filter nearest its frequency
mean_energy = frames.mean(axis=0)
for freq in (700.0, 2100.0):
    nearest = int(np.argmin(np.abs(centers - freq)))
    is_peak = mean_energy[nearest] >= max(mean_energy[nearest - 1], mean_energy[nearest + 1])
    print(f"  {freq:.0f} Hz -> filter {nearest} (center {centers[nearest]:.0f} Hz), "
          f"local peak: {is_peak}")

# silence hits the log floor everywhere: log(power) is clamped at log(1e-10)
silence = log_mel_frames(Waveform(np.zeros(16_000, dtype=np.float32)))
print(f"silence floor: every value = {silence.min():.4f} (= ln 1e-10)")

# models consume stacked context windows, not single frames; stacking
# replicates edge frames so every frame gets a full window
window = stack_context(frames, Context(23, 8))
print(f"context (23 left, 8 right) -> {window.shape[0]} windows of "
      f"{window.shape[1]}x{window.shape[2]}")
first_is_replicated = np.array_equal(window[0][0], window[0][23])
print(f"first window pads by repeating frame 0: {first_is_replicated}")
