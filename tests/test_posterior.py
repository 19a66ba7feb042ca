"""Posterior smoothing, batch detection against a brute-force
oracle, and streaming equivalence."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from kwslite import (
    DetectionEvent,
    DetectorConfig,
    StreamingDetector,
    Waveform,
    detect,
    get_arch,
    init_weights,
    posteriors_from_waveform,
    smooth,
)
from kwslite.errors import NumericError, ShapeError


def random_stream(rng, n=120, labels=4):
    # rows normalized so they look like posteriors
    raw = rng.random((n, labels)).astype(np.float32) + 1e-3
    return (raw / raw.sum(axis=1, keepdims=True)).astype(np.float32)


def naive_smooth(probs, w_smooth):
    """Independent smoothing: average every frame's block on its own."""
    probs = np.asarray(probs)
    out = np.empty_like(probs)
    for j in range(probs.shape[0]):
        block = probs[max(0, j - w_smooth + 1) : j + 1].astype(np.float64)
        out[j] = np.mean(block, axis=0).astype(probs.dtype)
    return out


def naive_detect(probs, cfg, filler_index=0):
    """Independent scan: recompute every window from scratch."""
    smoothed = naive_smooth(probs, cfg.w_smooth)
    events = []
    last = None
    for j in range(smoothed.shape[0]):
        if last is not None and j - last <= cfg.refractory:
            continue
        conf = np.max(smoothed[max(0, j - cfg.w_max + 1) : j + 1], axis=0).copy()
        conf[filler_index] = 0.0
        best = int(np.argmax(conf))
        if conf[best] >= cfg.threshold:
            events.append(DetectionEvent(j, best, float(conf[best])))
            last = j
    return events


# --- smoothing --------------------------------------------------------------


def test_smooth_window_one_is_identity(rng):
    probs = random_stream(rng)
    npt.assert_array_equal(smooth(probs, 1), probs)


def test_smooth_hand_example():
    stream = np.array([[0.2, 0.8], [0.4, 0.6], [0.6, 0.4]], dtype=np.float64)
    out = smooth(stream, 2)
    npt.assert_allclose(out[:, 0], [0.2, 0.3, 0.5], rtol=1e-12)


def test_smooth_constant_stream_unchanged():
    stream = np.tile(np.array([[0.1, 0.7, 0.2]], dtype=np.float32), (50, 1))
    npt.assert_allclose(smooth(stream, 30), stream, atol=1e-7)


def test_smooth_preserves_normalization(rng):
    probs = random_stream(rng)
    sums = smooth(probs, 7).sum(axis=1)
    npt.assert_allclose(sums, 1.0, atol=1e-6)


def test_smooth_validates(rng):
    with pytest.raises(ShapeError):
        smooth(np.zeros(5, dtype=np.float32), 3)
    with pytest.raises(ValueError):
        smooth(random_stream(rng), 0)


# --- detection --------------------------------------------------------------


def test_all_filler_stream_has_zero_confidence():
    stream = np.zeros((40, 3), dtype=np.float32)
    stream[:, 0] = 1.0
    events = detect(stream, DetectorConfig(threshold=0.5))
    assert events == []


def test_single_ramp_fires_once_at_first_crossing():
    n = 60
    stream = np.zeros((n, 2), dtype=np.float32)
    ramp = np.linspace(0.0, 1.0, n, dtype=np.float32)
    stream[:, 1] = ramp
    stream[:, 0] = 1.0 - ramp
    cfg = DetectorConfig(threshold=0.7, w_smooth=1, w_max=1, refractory=n)
    events = detect(stream, cfg)
    assert len(events) == 1
    assert events[0].keyword == 1
    assert events[0].frame_index == int(np.argmax(ramp >= 0.7))


def test_threshold_one_with_sub_one_posteriors():
    rng = np.random.default_rng(0)
    stream = random_stream(rng)  # strictly below 1 everywhere
    events = detect(stream, DetectorConfig(threshold=1.0, w_smooth=3, w_max=10))
    assert events == []


def test_refractory_suppresses_second_crossing():
    stream = np.zeros((30, 2), dtype=np.float32)
    stream[:, 0] = 1.0
    for j in (5, 12):  # two spikes closer than the refractory
        stream[j] = [0.0, 1.0]
    cfg = DetectorConfig(threshold=0.9, w_smooth=1, w_max=1, refractory=10)
    events = detect(stream, cfg)
    assert [e.frame_index for e in events] == [5]


def test_events_sorted_and_separated(rng):
    for trial in range(20):
        probs = random_stream(np.random.default_rng(trial), n=150)
        cfg = DetectorConfig(threshold=0.4, w_smooth=4, w_max=12, refractory=7)
        events = detect(probs, cfg)
        frames = [e.frame_index for e in events]
        assert frames == sorted(frames)
        assert all(b - a > cfg.refractory for a, b in zip(frames, frames[1:]))
        assert all(e.confidence >= cfg.threshold for e in events)
        assert all(e.keyword != 0 for e in events)


def test_detect_matches_naive_oracle_exactly(rng):
    for trial in range(25):
        probs = random_stream(np.random.default_rng(100 + trial), n=130, labels=5)
        cfg = DetectorConfig(threshold=0.35, w_smooth=6, w_max=20, refractory=9)
        assert detect(probs, cfg) == naive_detect(probs, cfg)


# every power of two up to 2048 and its neighbours: the doubling passes of the
# trailing max end exactly at, just short of and just past a power of two
POWER_WINDOWS = sorted({p + d for p in (2**k for k in range(12)) for d in (-1, 0, 1)} - {0})


@st.composite
def posterior_streams(draw):
    n = draw(st.integers(1, 1200))
    labels = draw(st.integers(2, 5))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    if draw(st.booleans()):
        # quarters: exact zeros, maxima tied across labels and frames, and
        # confidences landing exactly on the 0.25, 0.5 and 1.0 thresholds
        probs = rng.integers(0, 5, (n, labels)) / 4
    else:
        raw = rng.random((n, labels))
        probs = raw / raw.sum(axis=1, keepdims=True)
    return probs.astype(draw(st.sampled_from([np.float32, np.float64])))


@settings(max_examples=200)
@given(data=st.data())
def test_smooth_and_detect_equal_per_frame_loops_bit_for_bit(data):
    probs = data.draw(posterior_streams())
    n, labels = probs.shape
    windows = st.one_of(st.integers(1, n + 3), st.sampled_from(POWER_WINDOWS))
    cfg = DetectorConfig(
        threshold=data.draw(st.sampled_from([0.25, 0.3, 0.5, 0.7, 1.0])),
        w_smooth=data.draw(windows),
        w_max=data.draw(windows),
        refractory=data.draw(st.integers(0, n)),
    )
    filler_index = data.draw(st.integers(0, labels - 1))
    smoothed, expected = smooth(probs, cfg.w_smooth), naive_smooth(probs, cfg.w_smooth)
    assert smoothed.dtype == expected.dtype and smoothed.tobytes() == expected.tobytes()
    assert detect(probs, cfg, filler_index) == naive_detect(probs, cfg, filler_index)


def test_detector_config_validation():
    with pytest.raises(ValueError):
        DetectorConfig(threshold=0.0)
    with pytest.raises(ValueError):
        DetectorConfig(threshold=1.01)
    with pytest.raises(ValueError):
        DetectorConfig(w_smooth=0)
    DetectorConfig(threshold=1.0)  # closed upper end is allowed


def keyword_after(n=20, onset=5):
    # filler until `onset`, then one keyword: DetectorConfig(0.5, 3, 5, 2)
    # fires at frames 6, 9, 12, 15 and 18
    probs = np.tile(np.array([0.8, 0.1, 0.1], dtype=np.float32), (n, 1))
    probs[onset:] = [0.1, 0.8, 0.1]
    return probs


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("frame", [0, 4])
def test_non_finite_posterior_raises_on_both_paths(value, frame):
    cfg = DetectorConfig(0.5, 3, 5, 2)
    clean = keyword_after()
    assert [e.frame_index for e in detect(clean, cfg)] == [6, 9, 12, 15, 18]
    bad = clean.copy()
    bad[frame, 1] = value
    for check in (lambda: detect(bad, cfg), lambda: smooth(bad, 3)):
        with pytest.raises(NumericError, match=f"frame {frame} is not finite"):
            check()
    # push refuses the row before touching its state: the clean row pushed
    # in its place continues the stream as if the bad one never came
    detector = StreamingDetector(cfg)
    events = stream_events(detector, clean[:frame])
    with pytest.raises(NumericError, match=f"frame {frame} is not finite"):
        detector.push(bad[frame])
    events += stream_events(detector, clean[frame:])
    assert events == detect(clean, cfg)


@pytest.mark.parametrize("dtype", [int, np.int8, bool])
def test_integer_posterior_streams_are_refused_on_both_paths(dtype):
    # smooth() casts its float64 means back to the stream's dtype, so an
    # integer stream would truncate each mean of 0.5 here to 0: as float32
    # every frame fires, as int only frame 0 would
    cfg = DetectorConfig(threshold=0.5, w_smooth=2, w_max=1, refractory=0)
    clean = np.array([[0, 1], [1, 0]] * 40, dtype=np.float32)
    assert len(detect(clean, cfg)) == 80
    bad = clean.astype(dtype)
    for check in (lambda: detect(bad, cfg), lambda: smooth(bad, 2)):
        with pytest.raises(NumericError, match="floating point"):
            check()
    # a refused push leaves the detector as it was
    detector = StreamingDetector(cfg)
    events = stream_events(detector, clean[:3])
    with pytest.raises(NumericError, match="floating point"):
        detector.push(bad[3])
    events += stream_events(detector, clean[3:])
    assert events == detect(clean, cfg)


BAD_ARGUMENTS = {
    "smooth window 2.5": (lambda p: smooth(p, 2.5), TypeError),
    "smooth window True": (lambda p: smooth(p, True), TypeError),
    "smooth window 0": (lambda p: smooth(p, 0), ValueError),
    "detect filler 7": (lambda p: detect(p, DetectorConfig(0.5, 3, 5, 2), filler_index=7), ShapeError),
    "detect filler -1": (lambda p: detect(p, DetectorConfig(0.5, 3, 5, 2), filler_index=-1), ShapeError),
    "detect filler True": (lambda p: detect(p, DetectorConfig(0.5, 3, 5, 2), filler_index=True), ShapeError),
    "push filler 3": (lambda p: StreamingDetector(filler_index=3).push(p[0]), ShapeError),
    "push filler -1": (lambda p: StreamingDetector(filler_index=-1).push(p[0]), ShapeError),
}


@pytest.mark.parametrize("case", BAD_ARGUMENTS)
def test_bad_window_or_filler_is_refused(case):
    call, error = BAD_ARGUMENTS[case]
    with pytest.raises(error) as info:
        call(keyword_after())  # 3 labels
    if error is ShapeError:
        assert info.value.axis == "labels"


# --- streaming --------------------------------------------------------------


def test_streaming_matches_batch_exactly(rng):
    for trial in range(10):
        probs = random_stream(np.random.default_rng(200 + trial), n=140, labels=4)
        cfg = DetectorConfig(threshold=0.4, w_smooth=5, w_max=15, refractory=6)
        batch = detect(probs, cfg)
        detector = StreamingDetector(cfg)
        streamed = [e for e in (detector.push(row) for row in probs) if e is not None]
        assert streamed == batch


def test_streaming_rejects_matrix_push():
    detector = StreamingDetector(DetectorConfig())
    with pytest.raises(ShapeError):
        detector.push(np.zeros((3, 4), dtype=np.float32))


@pytest.mark.parametrize("row", [np.array([1.0]), np.zeros(0)])
def test_streaming_refuses_fewer_than_two_labels_as_detect_does(row):
    with pytest.raises(ShapeError) as batch:
        detect(row[None], DetectorConfig())
    detector = StreamingDetector(DetectorConfig())
    with pytest.raises(ShapeError) as streamed:
        detector.push(row)
    assert batch.value.axis == streamed.value.axis == "labels"
    assert detector.push(np.full(3, 1 / 3)) is None  # the refused row primed nothing


def stream_events(detector, probs):
    return [e for e in (detector.push(row) for row in probs) if e is not None]


@given(
    n=st.integers(1, 90),
    labels=st.integers(2, 5),
    w_smooth=st.integers(1, 12),
    w_max=st.integers(1, 30),
    refractory=st.integers(0, 8),
    threshold=st.sampled_from([0.3, 0.4, 0.5, 0.7]),
    dtype=st.sampled_from([np.float32, np.float64]),
    seed=st.integers(0, 2**16),
)
def test_streaming_equals_detect_property(n, labels, w_smooth, w_max, refractory, threshold, dtype, seed):
    # rings hold 2 * w rows (at most 60); n up to 90 ends streams both before
    # the rings first wrap and after they have wrapped
    probs = random_stream(np.random.default_rng(seed), n=n, labels=labels).astype(dtype)
    cfg = DetectorConfig(threshold=threshold, w_smooth=w_smooth, w_max=w_max, refractory=refractory)
    assert stream_events(StreamingDetector(cfg), probs) == detect(probs, cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
def test_streaming_confidences_equal_detect_bit_for_bit(dtype):
    # w_max 1, no refractory and a low threshold: every frame fires with its
    # own smoothed keyword posterior as confidence, so any change in how the
    # trailing mean is summed shows in the event list (rows drawn in float64:
    # float32 values sum exactly in float64, in any order)
    raw = np.random.default_rng(3).random((300, 3))
    probs = (raw / raw.sum(axis=1, keepdims=True)).astype(dtype)
    cfg = DetectorConfig(threshold=0.01, w_smooth=30, w_max=1, refractory=0)
    batch = detect(probs, cfg)
    assert len(batch) == len(probs)
    assert stream_events(StreamingDetector(cfg), probs) == batch


def test_column_major_stream_smooths_like_row_major():
    # np.mean over a column-major float64 block sums pairwise, not row by
    # row; smooth() and StreamingDetector add the rows oldest first whatever
    # the caller's layout, so their confidences agree bit for bit
    raw = np.random.default_rng(3).random((300, 3))
    probs = raw / raw.sum(axis=1, keepdims=True)
    column_major = np.asfortranarray(probs)
    assert smooth(column_major, 30).tobytes() == smooth(probs, 30).tobytes()
    cfg = DetectorConfig(threshold=0.01, w_smooth=30, w_max=1, refractory=0)
    assert stream_events(StreamingDetector(cfg), column_major) == detect(column_major, cfg)


@pytest.mark.parametrize("dtype", [np.float32, np.float64])
@pytest.mark.parametrize("w_smooth, w_max", [(1, 1), (1, 4), (3, 1), (30, 100)])
def test_streaming_threshold_test_runs_in_row_dtype(dtype, w_smooth, w_max):
    # a keyword posterior exactly at the float32 rounding of the threshold: in
    # float32 it reaches 0.7, in float64 it is just below; both paths must agree
    row = np.array([1 - np.float32(0.7), np.float32(0.7)], dtype=dtype)
    probs = np.tile(row, (2 * w_max + 5, 1))
    cfg = DetectorConfig(threshold=0.7, w_smooth=w_smooth, w_max=w_max, refractory=0)
    batch = detect(probs, cfg)
    assert stream_events(StreamingDetector(cfg), probs) == batch
    assert len(batch) == (len(probs) if dtype == np.float32 else 0)


def test_streaming_rejects_label_count_change():
    detector = StreamingDetector(DetectorConfig())
    detector.push(np.full(4, 0.25, dtype=np.float32))
    with pytest.raises(ShapeError):
        detector.push(np.full(3, 1 / 3, dtype=np.float32))
    with pytest.raises(ShapeError):
        detector.push(np.full(5, 0.2, dtype=np.float32))


def test_interleaved_detectors_share_no_state():
    cfg = DetectorConfig(threshold=0.4, w_smooth=5, w_max=12, refractory=3)
    a = random_stream(np.random.default_rng(7), n=150, labels=4)
    b = random_stream(np.random.default_rng(8), n=150, labels=3)
    da, db = StreamingDetector(cfg), StreamingDetector(cfg, filler_index=2)
    got_a, got_b = [], []
    for ra, rb in zip(a, b):
        got_a.append(da.push(ra))
        got_b.append(db.push(rb))
    assert [e for e in got_a if e is not None] == detect(a, cfg)
    assert [e for e in got_b if e is not None] == detect(b, cfg, filler_index=2)


def test_long_clip_detection_peak_does_not_follow_its_length():
    # the frontend frames 64 frames at a time and the classifier classifies
    # 64 windows per chunk, so beyond its samples a 180 s clip holds its
    # features (2.9 MB), its posteriors and one chunk's working set (5.1 MB
    # on cnn-trad): 8.2 MB measured, where framing the whole clip at once
    # would take 205.6 MB
    arch = get_arch("cnn-trad", 4)
    weights = init_weights(arch, 0)
    samples = (0.1 * np.random.default_rng(4).standard_normal(180 * 16000)).astype(np.float32)
    wave = Waveform(samples)
    detect(posteriors_from_waveform(arch, weights, Waveform(samples[:16000])), DetectorConfig())
    tracemalloc.start()
    try:
        detect(posteriors_from_waveform(arch, weights, wave), DetectorConfig())
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 16_000_000, f"peak {peak} bytes on a 180 s clip"
