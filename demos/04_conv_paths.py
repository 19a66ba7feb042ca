"""Two convolution paths, one answer: agreement check and timing.

Also shows the shared-stream forward that `kwslite detect` uses: every
frame's posterior from one pass over the frame stream, checked against
classifying each stacked window on its own.

Run with: python3 demos/04_conv_paths.py
"""

import time

import numpy as np

from kwslite import (
    MacCounter,
    forward,
    forward_frames,
    get_arch,
    init_weights,
    instrumented_forward,
    report,
    stack_context,
)

arch = get_arch("cnn-one", 4)
weights = init_weights(arch, 0)
rng = np.random.default_rng(0)
window = rng.standard_normal((arch.input_t, arch.input_f)).astype(np.float32)

# the naive path is the oracle: explicit loops, one multiply per counted
# multiply; the optimized path lowers conv to a single matrix multiply
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

# a MacCounter can also be threaded through a single layer by hand
counter = MacCounter()
forward(arch, weights, window, conv_path="naive", counter=counter)
print(f"one cnn-one forward pass costs {counter.count:,} multiplies")

# detect classifies every frame's context window. Overlapping windows share
# all but one frame, so forward_frames runs each conv position once per block
# of windows instead of once per window, then one batched dense tail.
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
