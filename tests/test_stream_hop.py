"""The Python calls a warm stream hop makes into kwslite, per stage.

A few microseconds of per-hop dispatch hide in the timing noise of a
streamed run; the number of kwslite functions a hop calls does not. Each
stage of one warm hop on every stock architecture (log_mel_frames on a
one-frame clip, forward on a loaded model, StreamingDetector.push) is held
at or under the count it makes now. demos/05_stream_hop.py prints the same
counts next to each stage's time."""

import os
import sys
from pathlib import Path

import numpy as np
import pytest

import kwslite
from kwslite import (
    ARCHITECTURES,
    DetectorConfig,
    FrameConfig,
    StreamingDetector,
    Waveform,
    forward,
    get_arch,
    init_weights,
    load_model,
    log_mel_frames,
    save_model,
    stack_context,
)

PACKAGE = str(Path(kwslite.__file__).parent) + os.sep

# the calls of one warm hop: forward continues the loaded model's stream on
# cnn-trad, cnn-tstride2 and cnn-tpool2, and runs the whole window on dnn
# and cnn-one
HOP_CALLS = {
    "dnn": {"frontend": 4, "forward": 26, "push": 3},
    "cnn-trad": {"frontend": 4, "forward": 59, "push": 3},
    "cnn-one": {"frontend": 4, "forward": 40, "push": 3},
    "cnn-tstride2": {"frontend": 4, "forward": 59, "push": 3},
    "cnn-tpool2": {"frontend": 4, "forward": 62, "push": 3},
}


def kwslite_calls(fn, *args):
    """fn(*args) and the calls it made of Python functions defined in
    kwslite's package directory, fn's own included; numpy's and C calls are
    left out, so the count does not depend on the numpy version."""
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


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_a_warm_hop_makes_no_more_kwslite_calls_than_today(tmp_path, name):
    arch = get_arch(name, 4)
    save_model(tmp_path / "model.kwsm", arch, init_weights(arch, 0, init_scale=0.3), ["_f", "a", "b", "c"])
    weights = load_model(tmp_path / "model.kwsm").weights
    rng = np.random.default_rng(1)
    clip = (0.3 * rng.standard_normal(FrameConfig.window_length)).astype(np.float32)
    windows = stack_context(rng.standard_normal((5, arch.input_f)).astype(np.float32), arch.context)
    detector = StreamingDetector(DetectorConfig(threshold=0.5, w_smooth=3, w_max=4, refractory=0))
    for window in windows[:3]:  # the second hop primes the stream, the third continues it
        log_mel_frames(Waveform(clip))
        detector.push(forward(arch, weights, window))
    counts = {}
    _, counts["frontend"] = kwslite_calls(log_mel_frames, Waveform(clip))
    row, counts["forward"] = kwslite_calls(forward, arch, weights, windows[3])
    _, counts["push"] = kwslite_calls(detector.push, row)
    assert all(counts[stage] <= most for stage, most in HOP_CALLS[name].items()), (counts, HOP_CALLS[name])
