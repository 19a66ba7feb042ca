"""Frontend checks: framing, mel geometry, log energies, context stacking,
WAV IO, and the feature dump format."""

import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given
from hypothesis import strategies as st

from kwslite import (
    Context,
    FrameConfig,
    Waveform,
    build_mel_filterbank,
    frame_signal,
    log_mel,
    log_mel_frames,
    mel_filter_centers,
    read_feature_dump,
    read_wav,
    stack_context,
    write_feature_dump,
    write_wav,
)
from kwslite.errors import AudioFormatError, InsufficientAudioError, KwsError, NumericError, ShapeError
from kwslite.frontend import frame_count

from conftest import hostile_wavs

SR = 16000


def tone(freq, seconds=1.0, amp=0.5):
    t = np.arange(int(round(seconds * SR))) / SR
    return (amp * np.sin(2 * np.pi * freq * t)).astype(np.float32)


# --- framing ---------------------------------------------------------------


def test_the_feature_format_takes_no_settings():
    # 40 log-mel bins every 10 ms over 25 ms windows of 16 kHz audio
    cfg = FrameConfig()
    assert cfg == FrameConfig() and hash(cfg) == hash(FrameConfig())
    assert (cfg.window_length, cfg.hop, cfg.mel_filters) == (400, 160, 40)
    with pytest.raises(TypeError):
        FrameConfig(hop=80)
    with pytest.raises(TypeError):
        Waveform(np.zeros(SR, dtype=np.float32), 8000)


def test_one_second_gives_98_frames():
    frames = frame_signal(Waveform(np.zeros(SR, dtype=np.float32)))
    assert frames.shape == (98, 400)


def test_frame_count_law(rng):
    # formula against brute-force placement enumeration
    cfg = FrameConfig()
    for _ in range(200):
        n = int(rng.integers(0, 4 * SR))
        expected = len([s for s in range(0, max(n - cfg.window_length, 0) + 1, cfg.hop)
                        if s + cfg.window_length <= n])
        assert frame_count(n) == expected


def test_exactly_one_window():
    assert frame_signal(Waveform(np.zeros(400, dtype=np.float32))).shape == (1, 400)
    with pytest.raises(InsufficientAudioError):
        frame_signal(Waveform(np.zeros(399, dtype=np.float32)))


def test_preemphasis_and_window_applied():
    # a constant signal: frame = (1 - 0.97) * hamming except the first sample
    x = np.ones(400, dtype=np.float32)
    frames = frame_signal(Waveform(x))
    ham = np.hamming(400)
    npt.assert_allclose(frames[0, 0], ham[0], rtol=1e-6)
    npt.assert_allclose(frames[0, 1:], 0.03 * ham[1:], rtol=1e-4)


def gather_frame_signal(samples, cfg):
    """Reference framing: gather every frame, then pre-emphasize it on its own."""
    x = np.asarray(samples, dtype=np.float64)
    n = frame_count(len(x), cfg)
    idx = np.arange(cfg.window_length)[None, :] + cfg.hop * np.arange(n)[:, None]
    frames = x[idx]
    emphasized = frames.copy()
    emphasized[:, 1:] -= cfg.preemphasis * frames[:, :-1]
    return emphasized * np.hamming(cfg.window_length)


@given(data=st.data())
def test_frame_signal_equals_gathered_frames_bit_for_bit(data):
    cfg = FrameConfig()
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    n = data.draw(st.integers(cfg.window_length, 20000))
    x = data.draw(st.sampled_from([1e-3, 0.5, 1.0])) * rng.standard_normal(n)
    x[rng.random(x.size) < data.draw(st.sampled_from([0.0, 0.3]))] = 0.0  # exact zeros
    w = Waveform(x.astype(data.draw(st.sampled_from([np.float32, np.float64]))))
    got, expected = frame_signal(w), gather_frame_signal(w.samples, cfg)
    assert got.shape == expected.shape and got.tobytes() == expected.tobytes()


def test_hop_shift_moves_frames_by_one():
    rng = np.random.default_rng(5)
    x = rng.standard_normal(SR).astype(np.float32)
    a = log_mel_frames(Waveform(x))
    b = log_mel_frames(Waveform(x[160:]))
    npt.assert_allclose(a[1:], b[: a.shape[0] - 1], atol=1e-4)


# --- mel filterbank ---------------------------------------------------------


def test_melbank_shape_and_coverage():
    bank = build_mel_filterbank()
    assert bank.shape == (40, 257)
    assert np.all(bank >= 0.0)
    assert np.all(bank.sum(axis=1) > 0.0)


def test_mel_centers_match_independent_formula():
    # recompute the equal-mel spacing directly from the 2595*log10(1+f/700) map
    def to_mel(f):
        return 2595.0 * np.log10(1.0 + f / 700.0)

    def from_mel(m):
        return 700.0 * (10.0 ** (m / 2595.0) - 1.0)

    edges = np.linspace(to_mel(20.0), to_mel(8000.0), 42)
    expected = from_mel(edges)[1:-1]
    npt.assert_allclose(mel_filter_centers(), expected, rtol=1e-12)
    assert np.all(np.diff(expected) > 0)
    # equal spacing on the mel axis
    npt.assert_allclose(np.diff(to_mel(expected)), np.diff(to_mel(expected))[0], rtol=1e-9)


def test_melbank_is_shared_and_read_only():
    bank = build_mel_filterbank()
    assert build_mel_filterbank() is bank
    assert not bank.flags.writeable
    with pytest.raises(ValueError):
        bank[0, 0] = 1.0
    with pytest.raises(ValueError):
        bank += 1.0


def test_melbank_per_config_equals_uncached_build():
    npt.assert_array_equal(build_mel_filterbank(), build_mel_filterbank.__wrapped__())


# --- log-mel ----------------------------------------------------------------


def test_silence_hits_log_floor():
    frames = log_mel_frames(Waveform(np.zeros(SR, dtype=np.float32)))
    npt.assert_allclose(frames, np.log(1e-10), rtol=1e-6)


def test_pure_tone_peaks_at_nearest_filter():
    frames = log_mel_frames(Waveform(tone(1000.0)))
    centers = mel_filter_centers()
    peak = int(np.argmax(frames.mean(axis=0)))
    assert peak == int(np.argmin(np.abs(centers - 1000.0)))


def test_amplitude_doubling_adds_log4():
    lo = log_mel_frames(Waveform(tone(1000.0, amp=0.2)))
    hi = log_mel_frames(Waveform(tone(1000.0, amp=0.4)))
    # compare only comfortably unclamped energies
    mask = lo > np.log(1e-10) + 2.0
    diff = (hi - lo)[mask]
    npt.assert_allclose(diff, np.log(4.0), atol=1e-4)


def test_features_float32_and_finite():
    frames = log_mel_frames(Waveform(tone(440.0)))
    assert frames.dtype == np.float32
    assert np.all(np.isfinite(frames))


def test_frontend_deterministic():
    x = np.random.default_rng(11).standard_normal(SR).astype(np.float32)
    a = log_mel_frames(Waveform(x))
    b = log_mel_frames(Waveform(x.copy()))
    npt.assert_array_equal(a, b)


def test_one_row_log_mel_equals_its_batch_row():
    # each row scaled so filter 7 has energy 1, putting its log near 0 where a
    # float32 feature resolves the last bits of the float64 energy
    bank = build_mel_filterbank()
    frames = np.random.default_rng(5).standard_normal((200, 400))
    spectrum = np.fft.rfft(frames, n=512, axis=1)
    energy = (spectrum.real**2 + spectrum.imag**2) @ bank[7]
    frames /= np.sqrt(energy)[:, None]
    batch = log_mel(frames)
    assert np.abs(batch[:, 7]).max() < 1e-6
    for i in range(len(frames)):
        npt.assert_array_equal(log_mel(frames[i : i + 1])[0], batch[i], err_msg=f"row {i}")
    npt.assert_array_equal(log_mel(frames[3:10]), batch[3:10])


def test_streamed_hop_frames_equal_batch_frames():
    cfg = FrameConfig()
    n = 3 * SR
    rng = np.random.default_rng(7)
    samples = (rng.standard_normal(n) * np.geomspace(1e-3, 1.0, n)).astype(np.float32)
    batch = log_mel_frames(Waveform(samples))
    for h in range(len(batch)):
        hop = samples[h * cfg.hop : h * cfg.hop + cfg.window_length]
        npt.assert_array_equal(log_mel_frames(Waveform(hop))[0], batch[h], err_msg=f"hop {h}")


def test_log_mel_rejects_overlong_frames():
    with pytest.raises(ShapeError) as info:
        log_mel(np.zeros((3, 600)))
    assert info.value.axis == "time"
    assert log_mel(np.zeros((3, 512))).shape == (3, 40)


# --- context stacking -------------------------------------------------------


def test_stack_shapes():
    frames = np.zeros((98, 40), dtype=np.float32)
    assert stack_context(frames, Context(25, 10)).shape == (98, 36, 40)
    assert stack_context(frames, Context(23, 8)).shape == (98, 32, 40)
    assert stack_context(frames, Context(39, 8)).shape == (98, 48, 40)


def test_stack_zero_context_identity(rng):
    frames = rng.standard_normal((10, 4)).astype(np.float32)
    npt.assert_array_equal(stack_context(frames, Context(0, 0))[:, 0, :], frames)


def test_stack_edge_replication(rng):
    frames = rng.standard_normal((6, 3)).astype(np.float32)
    windows = stack_context(frames, Context(2, 2))
    # window 0: frames [0,0,0,1,2]; window 5: frames [3,4,5,5,5]
    npt.assert_array_equal(windows[0], frames[[0, 0, 0, 1, 2]])
    npt.assert_array_equal(windows[5], frames[[3, 4, 5, 5, 5]])
    # interior rows are exact copies
    npt.assert_array_equal(windows[3], frames[1:6])


def test_stack_copies_the_windows_once(rng):
    frames = rng.standard_normal((998, 40)).astype(np.float32)
    tracemalloc.start()
    try:
        windows = stack_context(frames, Context(39, 8))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1.5 * windows.nbytes, f"peak {peak} bytes for a {windows.nbytes}-byte output"


def test_stack_casts_like_gathering_first(rng):
    frames = rng.standard_normal((30, 5))  # float64
    windows = stack_context(frames, Context(3, 2))
    assert windows.dtype == np.float32
    npt.assert_array_equal(windows, frames[np.clip(np.arange(30)[:, None] + np.arange(-3, 3), 0, 29)]
                           .astype(np.float32))


def test_stack_empty_errors():
    with pytest.raises(InsufficientAudioError):
        stack_context(np.zeros((0, 40), dtype=np.float32), Context(1, 1))


# --- WAV IO -----------------------------------------------------------------


def test_wav_roundtrip(tmp_path, rng):
    x = np.clip(rng.standard_normal(SR // 2) * 0.2, -1, 1).astype(np.float32)
    path = tmp_path / "x.wav"
    write_wav(path, x)
    back = read_wav(path)
    assert back.duration == 0.5
    npt.assert_allclose(back.samples, x, atol=1.0 / 32768.0)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_write_wav_refuses_non_finite_samples(tmp_path, bad):
    # PCM has no NaN or infinity: clipping would store them as 0 and full scale
    x = np.zeros(100, dtype=np.float32)
    x[37] = bad
    path = tmp_path / "x.wav"
    with pytest.raises(NumericError, match="sample 37 "):
        write_wav(path, x)
    assert not path.exists()


@pytest.mark.parametrize("shape", [(100, 2), (2, 100), (), (1, 1, 5)])
def test_write_wav_refuses_anything_but_one_signal(tmp_path, shape):
    # a (100, 2) array was once written flattened, as 200 interleaved mono samples
    path = tmp_path / "x.wav"
    with pytest.raises(AudioFormatError, match="1-D"):
        write_wav(path, np.zeros(shape))
    assert not path.exists()


def test_wav_rejects_wrong_formats(tmp_path):
    import struct
    import wave

    stereo = tmp_path / "stereo.wav"
    with wave.open(str(stereo), "wb") as wf:
        wf.setnchannels(2)
        wf.setsampwidth(2)
        wf.setframerate(SR)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        read_wav(stereo)

    wrong_rate = tmp_path / "rate.wav"
    with wave.open(str(wrong_rate), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(2)
        wf.setframerate(44100)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        read_wav(wrong_rate)

    eight_bit = tmp_path / "w8.wav"
    with wave.open(str(eight_bit), "wb") as wf:
        wf.setnchannels(1)
        wf.setsampwidth(1)
        wf.setframerate(SR)
        wf.writeframes(b"\x00" * 64)
    with pytest.raises(AudioFormatError):
        read_wav(eight_bit)

    not_wav = tmp_path / "junk.wav"
    not_wav.write_bytes(struct.pack("<I", 0xDEADBEEF) * 8)
    with pytest.raises(AudioFormatError):
        read_wav(not_wav)


def test_wav_hostile_chunk_sizes_are_format_errors(tmp_path):
    fmt_size, riff_size = hostile_wavs(tmp_path)
    with pytest.raises(AudioFormatError, match="chunk size"):
        read_wav(fmt_size)
    with pytest.raises(AudioFormatError, match="mid-sample"):
        read_wav(riff_size)


_WAV_SAMPLES = (0.5 * np.sin(np.arange(64) / 3.0)).astype(np.float32)


@given(
    edits=st.lists(st.tuples(st.integers(0, 43), st.integers(0, 255)), min_size=1, max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 44 + 2 * len(_WAV_SAMPLES))),
)
def test_wav_header_fuzz_gives_format_error_or_valid_waveform(tmp_path_factory, edits, cut):
    path = tmp_path_factory.mktemp("fuzz") / "x.wav"
    write_wav(path, _WAV_SAMPLES)
    data = bytearray(path.read_bytes())
    for pos, value in edits:
        data[pos] = value
    path.write_bytes(bytes(data[:cut]))
    try:
        wav = read_wav(path)
    except KwsError:
        return
    assert wav.samples.dtype == np.float32 and wav.samples.ndim == 1
    assert len(wav.samples) <= len(_WAV_SAMPLES)
    assert np.all(np.abs(wav.samples) <= 1.0)


def test_non_finite_sample_is_numeric_error():
    samples = (0.1 * np.sin(np.arange(16_000) / 7.0)).astype(np.float32)
    samples[500] = np.nan
    with pytest.raises(NumericError, match="sample 500 "):
        log_mel_frames(Waveform(samples))
    samples[500], samples[9000] = 0.0, np.inf
    with pytest.raises(NumericError, match="sample 9000 "):
        log_mel_frames(Waveform(samples))


# --- feature dump -----------------------------------------------------------


def test_feature_dump_roundtrip(tmp_path, rng):
    windows = rng.standard_normal((7, 32, 40)).astype(np.float32)
    path = tmp_path / "feats.bin"
    write_feature_dump(path, windows)
    with open(path, "rb") as fh:
        assert fh.readline() == b"32 40 7\n"
    npt.assert_array_equal(read_feature_dump(path), windows)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_feature_dump_rejects_non_finite_values(tmp_path, rng, bad):
    windows = rng.standard_normal((3, 4, 5)).astype(np.float32)
    windows[1, 2, 3] = windows[2, 0, 0] = bad
    path = tmp_path / "feats.bin"
    write_feature_dump(path, windows)
    with pytest.raises(NumericError, match=r"feature 3 of frame 2 in window 1 is not finite"):
        read_feature_dump(path)


@pytest.mark.parametrize("header", [b"-1 -1 4\n", b"0 5 3\n", b"2 0 1\n", b"2 2 0\n", b"2 -2 -1\n"])
def test_feature_dump_rejects_non_positive_header(tmp_path, header):
    path = tmp_path / "feats.bin"
    path.write_bytes(header + bytes(16))
    with pytest.raises(KwsError, match="positive"):
        read_feature_dump(path)


_DUMP_PAYLOAD = np.arange(16, dtype="<f4").tobytes()  # a valid dump is b"2 2 4\n" + this


@given(
    header=st.one_of(
        st.just(b"2 2 4"),
        st.lists(st.integers(-2, 4), min_size=3, max_size=3).map(lambda v: " ".join(map(str, v)).encode()),
        st.text(alphabet="-+0123456789 _x", max_size=10).map(str.encode),
        st.binary(max_size=10),
    ),
    cut=st.integers(0, len(_DUMP_PAYLOAD)),
    edits=st.lists(st.tuples(st.integers(0, len(_DUMP_PAYLOAD) - 1), st.integers(0, 255)), max_size=4),
)
def test_feature_dump_fuzz_gives_kws_error_or_valid_array(tmp_path_factory, header, cut, edits):
    payload = bytearray(_DUMP_PAYLOAD)
    for pos, value in edits:
        payload[pos] = value
    path = tmp_path_factory.mktemp("fuzz") / "feats.bin"
    path.write_bytes(header + b"\n" + bytes(payload[:cut]))
    try:
        windows = read_feature_dump(path)
    except KwsError:
        return
    assert windows.dtype == np.float32 and windows.ndim == 3 and min(windows.shape) >= 1
    count, t, f = windows.shape
    stored_header, stored_payload = path.read_bytes().split(b"\n", 1)
    assert [int(v) for v in stored_header.split()] == [t, f, count]
    assert windows.tobytes() == stored_payload


def test_feature_dump_truncation_detected(tmp_path, rng):
    path = tmp_path / "feats.bin"
    write_feature_dump(path, rng.standard_normal((3, 2, 4)).astype(np.float32))
    data = path.read_bytes()
    path.write_bytes(data[:-5])
    with pytest.raises(KwsError):
        read_feature_dump(path)
