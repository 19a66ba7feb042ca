"""Two convolution paths, one answer: agreement check and timing.

Also shows the streamed forward that `kwslite detect` uses: every frame's
posterior from one pass over the frame stream, checked against classifying
each stacked window on its own, and its exact streamed multiply count. Last,
the stage split of `detect` on a seeded 10 s clip for every stock
architecture: median ms of the frontend, the classifier and detection, with
the classifier's exact streamed multiplies and the rate it achieves on them,
and beside it each weighted layer's worst error against the naive path as
a fraction of its float32 bound. A float32 model's convs and flat layers run
as float32 products, so they are held to that bound, gamma(K + 1) times the
sum of the magnitudes of each output's K products and bias, not to a
relative tolerance. It exits with status 1 if a count or an event list
disagrees, or a layer breaks its bound.

Run with: python3 demos/04_conv_paths.py
"""

import sys
import time

import numpy as np

from kwslite import (
    ARCHITECTURES,
    DetectorConfig,
    MacCounter,
    StreamingDetector,
    Waveform,
    detect,
    forward,
    forward_frames,
    get_arch,
    init_weights,
    instrumented_forward,
    log_mel_frames,
    report,
    stack_context,
    streamed_multiplies,
)
from kwslite.arch import bound_fractions

arch = get_arch("cnn-one", 4)
weights = init_weights(arch, 0)
rng = np.random.default_rng(0)
window = rng.standard_normal((arch.input_t, arch.input_f)).astype(np.float32)

# the naive path is the oracle: each conv is its definition, one float64
# sum of products over the sliding windows of its input, and each flat layer
# its kernel on float64 operands; the optimized path lowers conv to a single
# matrix multiply, and runs every product in float32 for these float32 weights
naive = forward(arch, weights, window, conv_path="naive")
fast = forward(arch, weights, window, conv_path="optimized")
print(f"max |naive - optimized| = {np.max(np.abs(naive - fast)):.3e}")

# the instrumented naive pass counts real multiply-accumulates; the analytic
# budget predicts the same integer without running anything
_, counted = instrumented_forward(arch, weights, window)
predicted = report(arch).total.multiplies
print(f"counted MACs {counted:,} == predicted {predicted:,}: {counted == predicted}")

for path in ("naive", "optimized"):
    samples = []
    for _ in range(10):
        start = time.perf_counter()
        forward(arch, weights, window, conv_path=path)
        samples.append(time.perf_counter() - start)
    print(f"{path:<10} mean {1e3 * np.mean(samples):7.3f} ms over 10 runs")

# both conv paths meter what they execute: a MacCounter passed to the
# production path counts the same multiplies as the naive one
counter = MacCounter()
forward(arch, weights, window, counter=counter)
print(f"one cnn-one forward pass costs {counter.count:,} multiplies")

# detect classifies every frame's context window. Overlapping windows share
# all but one frame, so forward_frames streams the frames through the conv
# stack once, computing each conv position once for the whole clip instead of
# once per window, then runs the dense tail batched over chunks of windows.
frames = rng.standard_normal((1000, arch.input_f)).astype(np.float32)  # 10 s of frames
start = time.perf_counter()
per_window = np.stack([forward(arch, weights, w) for w in stack_context(frames, arch.context)])
loop_s = time.perf_counter() - start
start = time.perf_counter()
shared = forward_frames(arch, weights, frames)
stream_s = time.perf_counter() - start
print(f"10 s clip: per-window loop {loop_s:.3f} s, shared stream {stream_s:.3f} s")
print(f"max |per-window - shared| = {np.max(np.abs(per_window - shared)):.3e}, "
      f"allclose(rtol=1e-5): {np.allclose(shared, per_window, rtol=1e-5, atol=1e-12)}")

# the streamed count is exact too: metering a short stream gives the
# closed form, and each further frame costs the budget's per-frame figure
# (cnn-one's kernel spans its whole window, so cnn-trad shows the saving)
trad = get_arch("cnn-trad", 4)
counter = MacCounter()
forward_frames(trad, init_weights(trad, 0), frames[:5], counter=counter)
print(f"cnn-trad 5-frame stream: counted {counter.count:,} multiplies, "
      f"closed form {streamed_multiplies(trad, 5):,}")
print(f"cnn-trad: {report(trad).per_frame:,} multiplies per streamed frame, "
      f"{report(trad).total.multiplies:,} per isolated window")
if counter.count != streamed_multiplies(trad, 5):
    sys.exit(1)


def median_ms(call, runs=5):
    samples = []
    for _ in range(runs):
        start = time.perf_counter()
        call()
        samples.append(time.perf_counter() - start)
    return 1e3 * float(np.median(samples))


# where `kwslite detect` spends a 10 s clip: noise with two-tone bursts,
# untrained weights drawn wide enough that posteriors move with the input,
# and a threshold low enough that events fire
SR = 16000
t = np.arange(10 * SR) / SR
samples = 0.05 * rng.standard_normal(len(t))
for start in np.arange(0.5, 10, 1.5):  # 300 ms bursts
    burst = (t >= start) & (t < start + 0.3)
    samples[burst] += 0.4 * np.sin(2 * np.pi * 700 * t[burst]) + 0.3 * np.sin(2 * np.pi * 1900 * t[burst])
clip = Waveform(samples.astype(np.float32))
features = log_mel_frames(clip)
n = len(features)
detector_cfg = DetectorConfig(threshold=0.4)
print(f"stage split of a 10 s clip ({n} frames), median ms of 5 runs: "
      f"log_mel_frames {median_ms(lambda: log_mel_frames(clip)):.2f}")
print(f"{'arch':<13}{'forward_frames':>15}{'detect':>8}{'streamed multiplies':>21}{'GMAC/s':>8}  events"
      f"  worst layer error / float32 bound")
mismatched, over_bound = [], []
for name in ARCHITECTURES:
    clf = get_arch(name, 4)
    clf_weights = init_weights(clf, 0, init_scale=0.1)
    probs = forward_frames(clf, clf_weights, features)
    classify_ms = median_ms(lambda: forward_frames(clf, clf_weights, features))
    detect_ms = median_ms(lambda: detect(probs, detector_cfg))
    multiplies = streamed_multiplies(clf, n)
    events = detect(probs, detector_cfg)
    streamer = StreamingDetector(detector_cfg)
    if events != [e for e in map(streamer.push, probs) if e is not None]:
        mismatched.append(name)
    # two windows of the clip, the second in a burst; the naive kernel takes
    # a few milliseconds per window
    worst = {}
    windows = stack_context(features, clf.context)
    for j in (0, 60):
        for layer, fraction in bound_fractions(clf, clf_weights, windows[j]).items():
            worst[layer] = float(np.maximum(worst.get(layer, 0.0), fraction))  # NaN propagates
    over_bound += [f"{name} {layer}" for layer, fraction in worst.items() if not fraction <= 1]
    print(f"{name:<13}{classify_ms:>15.2f}{detect_ms:>8.2f}{multiplies:>21,}"
          f"{multiplies / classify_ms / 1e6:>8.2f}  {len(events):>6}  "
          + ", ".join(f"{layer} {fraction:.2e}" for layer, fraction in worst.items()))
if mismatched:
    print(f"detect and StreamingDetector disagree for {', '.join(mismatched)}")
if over_bound:
    print(f"layers over their float32 bound: {', '.join(over_bound)}")
if mismatched or over_bound:
    sys.exit(1)
