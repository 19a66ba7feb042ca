"""Training-example construction: centre windows computed from the frames
they read, against whole-clip framing and stacking."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwslite import Context, Waveform, log_mel_frames, stack_context
from kwslite.data import center_window_examples
from kwslite.errors import InsufficientAudioError, NumericError

SR = 16000
STOCK_CONTEXTS = (Context(39, 8), Context(23, 8), Context(25, 10))
EDGE_LENGTHS = (400, 401, 560, 1000, 16159, 16160, 33333)


def clip(seed, n):
    """A chord under noise, so neighbouring frames differ."""
    rng = np.random.default_rng(seed)
    t = np.arange(n) / SR
    x = 0.3 * np.sin(2 * np.pi * 700.0 * t) + 0.2 * np.sin(2 * np.pi * 1900.0 * t)
    return np.clip(x + 0.05 * rng.standard_normal(n), -1.0, 1.0).astype(np.float32)


def whole_clip_window(samples, context):
    """The centre row of the whole clip's window stack: what each example must equal."""
    windows = stack_context(log_mel_frames(Waveform(samples)), context)
    return windows[len(windows) // 2]


def assert_same_window(got, want):
    assert got.dtype == want.dtype and got.shape == want.shape
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("context", STOCK_CONTEXTS, ids=str)
@pytest.mark.parametrize("n", EDGE_LENGTHS)
def test_centre_window_matches_whole_clip_stack(n, context):
    samples = clip(n, n)
    (example,) = center_window_examples([(samples, 2)], context)
    assert example.label == 2
    assert_same_window(example.window, whole_clip_window(samples, context))


@given(
    n=st.integers(400, 40000),
    left=st.integers(0, 60),
    right=st.integers(0, 20),
    seed=st.integers(0, 2**16),
)
def test_centre_window_matches_whole_clip_stack_property(n, left, right, seed):
    context = Context(left, right)
    samples = clip(seed, n)
    (example,) = center_window_examples([(samples, 0)], context)
    assert_same_window(example.window, whole_clip_window(samples, context))


def test_windows_own_their_memory():
    pairs = [(clip(i, n), i) for i, n in enumerate(EDGE_LENGTHS)]
    for example in center_window_examples(pairs, Context(39, 8)):
        assert example.window.base is None
        assert example.window.flags.c_contiguous


def test_nan_outside_the_centre_window_still_raises():
    samples = clip(0, SR)
    samples[5] = np.nan  # frame 0; the Context(23, 8) centre window starts at frame 25
    with pytest.raises(NumericError, match="sample 5 "):
        center_window_examples([(samples, 0)], Context(23, 8))


def test_clip_shorter_than_one_frame_raises():
    with pytest.raises(InsufficientAudioError):
        center_window_examples([(clip(0, 399), 0)], Context(39, 8))


def _warm(context):
    # the filterbank and window caches fill on the first call, outside the measurement
    center_window_examples([(clip(0, 1000), 0)], context)


def test_examples_hold_only_their_windows():
    context = Context(39, 8)
    pairs = [(clip(i, SR), i % 4) for i in range(20)]
    _warm(context)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        examples = center_window_examples(pairs, context)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    window_bytes = sum(e.window.nbytes for e in examples)
    assert held < 2 * window_bytes, f"{held} bytes held for {window_bytes} bytes of windows"


def test_long_clip_peak_does_not_follow_its_length():
    context = Context(39, 8)
    samples = clip(0, 120 * SR)
    _warm(context)
    tracemalloc.start()
    try:
        (example,) = center_window_examples([(samples, 0)], context)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4_000_000, f"peak {peak} bytes for one window from a 120 s clip"
    assert_same_window(example.window, whole_clip_window(samples, context))
