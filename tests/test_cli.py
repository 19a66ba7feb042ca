"""Command-line interface: exit codes, output shapes, structured mode."""

import inspect
import json
import os
import platform
from pathlib import Path

import numpy as np
import pytest

import kwslite.arch
from kwslite import ArchSpec, Context, Conv, Dense, Flatten, SoftmaxOut, cli, init_weights, save_model
from kwslite.audio import SAMPLE_RATE, read_wav, write_wav
from kwslite.cli import main
from kwslite.errors import AgreementError, NumericError
from kwslite.frontend import read_feature_dump
from kwslite.modelio import load_model
from kwslite.posterior import posteriors_from_waveform

from conftest import CRAFTED_HEADERS, hostile_wavs, oversized_model, rewrite_header, with_nan_weight


def make_wav(path, seconds=1.0, freq=1000.0):
    t = np.arange(int(SAMPLE_RATE * seconds)) / SAMPLE_RATE
    write_wav(path, 0.5 * np.sin(2 * np.pi * freq * t))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv, "--format", "structured")
    assert code == 0, err
    return json.loads(out)


@pytest.fixture(scope="module")
def tone_wav(tmp_path_factory):
    return make_wav(tmp_path_factory.mktemp("wav") / "tone.wav")


@pytest.fixture(scope="module")
def tiny_model(tmp_path_factory, capsys=None):
    path = tmp_path_factory.mktemp("model") / "tiny.kwsm"
    code = main(["train", "--arch", "cnn-one", "--synthetic", "2", "--per-class", "4",
                 "--epochs", "3", "--seed", "3", "--out", str(path), "--quiet"])
    assert code == 0
    return str(path)


def test_featurize_writes_dump(tmp_path, capsys, tone_wav):
    out = tmp_path / "feats.bin"
    code, text, _ = run(capsys, "featurize", tone_wav, "--out", str(out))
    assert code == 0
    assert "98 frames x 40" in text
    assert "wrote 98 windows of 1x40" in text
    assert read_feature_dump(out).shape == (98, 1, 40)


def test_featurize_context_stacking(tmp_path, capsys, tone_wav):
    out = tmp_path / "feats.bin"
    doc = run_json(capsys, "featurize", tone_wav, "--out", str(out), "--context", "23,8")
    assert doc["frames"] == 98
    assert doc["window_shape"] == [32, 40]
    assert doc["config"]["context"] == "23,8"
    assert read_feature_dump(out).shape == (98, 32, 40)


def test_featurize_short_audio_is_data_error(tmp_path, capsys):
    wav = make_wav(tmp_path / "short.wav", seconds=0.01)
    code, _, err = run(capsys, "featurize", wav, "--out", str(tmp_path / "x.bin"))
    assert code == 2
    assert "error" in err


def test_featurize_missing_file_is_data_error(tmp_path, capsys):
    code, _, _ = run(capsys, "featurize", str(tmp_path / "nope.wav"),
                     "--out", str(tmp_path / "x.bin"))
    assert code == 2


def test_featurize_bad_context_is_usage_error(tmp_path, capsys, tone_wav):
    code, _, err = run(capsys, "featurize", tone_wav, "--out", str(tmp_path / "x.bin"),
                       "--context", "abc")
    assert code == 1
    assert "LEFT,RIGHT" in err


def test_describe_text_and_structured(capsys):
    code, text, _ = run(capsys, "describe", "--arch", "cnn-trad", "--labels", "4")
    assert code == 0
    for token in ("conv1", "conv2", "flatten1", "lowrank1", "dense1", "softmax"):
        assert token in text
    doc = run_json(capsys, "describe", "--arch", "cnn-one", "--labels", "4")
    names = [entry["layer"] for entry in doc["trace"]]
    assert names[0] == "input"
    assert names[-1] == "softmax"
    assert doc["trace"][-1]["shape"] == [4]


def test_describe_unknown_arch_is_usage_error(capsys):
    code, _, _ = run(capsys, "describe", "--arch", "resnet")
    assert code == 1


def test_describe_maps_on_fixed_arch_is_usage_error(capsys):
    code, _, err = run(capsys, "describe", "--arch", "cnn-one", "--maps", "32")
    assert code == 1
    assert "maps" in err


def test_budget_matches_frozen_totals(capsys):
    doc = run_json(capsys, "budget", "--arch", "cnn-trad", "--labels", "4")
    assert doc["total"] == {"params": 223_812, "multiplies": 8_133_120}
    doc = run_json(capsys, "budget", "--arch", "cnn-one", "--labels", "4")
    assert doc["total"] == {"params": 105_284, "multiplies": 676_352}


def test_budget_prints_per_frame_streamed_multiplies(capsys):
    code, text, _ = run(capsys, "budget", "--arch", "cnn-trad", "--labels", "4")
    assert code == 0
    assert "per frame" in text
    assert "1,581,568" in text  # beside the 8,133,120 of one isolated window
    doc = run_json(capsys, "budget", "--arch", "cnn-trad", "--labels", "4")
    assert doc["per_frame"] == {"multiplies": 1_581_568}
    conv1 = doc["layers"][0]
    assert (conv1["layer"], conv1["multiplies"], conv1["per_frame_multiplies"]) == ("conv1", 4_644_864, 387_072)


def test_budget_compare_ratios(capsys):
    code, text, _ = run(capsys, "budget", "--arch", "cnn-trad", "--labels", "4",
                        "--compare", "cnn-one")
    assert code == 0
    assert "multiply ratio cnn-trad/cnn-one: 12.02" in text
    assert "param ratio cnn-trad/cnn-one: 2.13" in text
    doc = run_json(capsys, "budget", "--arch", "cnn-trad", "--compare", "cnn-one")
    assert doc["compare"]["multiply_ratio"] == 12.02
    assert doc["compare"]["param_ratio"] == 2.13


def test_fit_reports_maximal_maps(capsys):
    doc = run_json(capsys, "fit", "--arch", "cnn-tstride2", "--cap", "250000")
    assert doc["maps"] == 63
    assert doc["params"] == 246_093
    code, text, _ = run(capsys, "fit", "--arch", "cnn-tstride2", "--cap", "250000")
    assert code == 0
    assert "maps=63" in text


def test_fit_infeasible_cap_is_data_error(capsys):
    code, _, err = run(capsys, "fit", "--arch", "cnn-tpool2", "--cap", "10")
    assert code == 2
    assert "cap" in err


def test_fit_zero_cap_is_usage_error(capsys):
    code, _, _ = run(capsys, "fit", "--arch", "cnn-tpool2", "--cap", "0")
    assert code == 1


def test_train_writes_loadable_model(tmp_path, capsys):
    out = tmp_path / "m.kwsm"
    doc = run_json(capsys, "train", "--arch", "dnn", "--synthetic", "2",
                   "--per-class", "4", "--epochs", "2", "--seed", "0",
                   "--out", str(out))
    assert doc["config"]["labels"] == 3
    assert len(doc["history"]) == 2
    loaded = load_model(out)
    assert loaded.labels == ["_filler", "kw1", "kw2"]
    assert loaded.arch.name == "dnn"


def check_environment(env):
    assert set(env) == {"numpy", "python", "cpu_count", "blas"}
    assert (env["numpy"], env["python"], env["cpu_count"]) == (
        np.__version__, platform.python_version(), os.cpu_count())
    if "mode" in inspect.signature(np.show_config).parameters:
        assert set(env["blas"]) == {"name", "version"}
        assert all(isinstance(value, str) and value for value in env["blas"].values())
    else:
        assert env["blas"] is None


def test_environment_asks_numpy_for_its_blas_once(monkeypatch):
    cli._blas.cache_clear()
    asked = []
    show_config = np.show_config
    monkeypatch.setattr(np, "show_config", lambda **kw: asked.append(kw) or show_config(**kw))
    first = cli._environment()
    assert cli._environment() == first
    assert len(asked) == 1


def test_train_history_reports_time_and_gradient_norm(tmp_path, capsys):
    args = ("train", "--arch", "dnn", "--synthetic", "2", "--per-class", "4",
            "--epochs", "2", "--seed", "0", "--out", str(tmp_path / "m.kwsm"))
    doc = run_json(capsys, *args)
    for entry in doc["history"]:
        assert set(entry) == {"loss", "accuracy", "seconds", "grad_norm"}
        assert entry["seconds"] > 0.0
        assert np.isfinite(entry["grad_norm"]) and entry["grad_norm"] > 0.0
    check_environment(doc["environment"])
    code, text, _ = run(capsys, *args)
    assert code == 0
    epoch_lines = [line for line in text.splitlines() if line.startswith("epoch ")]
    assert len(epoch_lines) == 2
    for line, entry in zip(epoch_lines, doc["history"]):
        assert f"grad_norm={entry['grad_norm']:.4g}" in line  # same seed, same gradients
        assert " time=" in line and line.endswith("s")


def test_train_is_deterministic(tmp_path, capsys):
    args = ["train", "--arch", "dnn", "--synthetic", "2", "--per-class", "4",
            "--epochs", "2", "--seed", "9", "--quiet"]
    a, b = tmp_path / "a.kwsm", tmp_path / "b.kwsm"
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_train_missing_data_dir_is_usage_error(tmp_path, capsys):
    code, _, _ = run(capsys, "train", "--data", str(tmp_path / "nowhere"),
                     "--out", str(tmp_path / "m.kwsm"))
    assert code in (1, 2)  # path errors surface as usage or data depending on cause
    assert not (tmp_path / "m.kwsm").exists()


def test_train_requires_exactly_one_source(tmp_path, capsys):
    code, _, _ = run(capsys, "train", "--out", str(tmp_path / "m.kwsm"))
    assert code == 1
    code, _, _ = run(capsys, "train", "--data", "d", "--synthetic", "2",
                     "--out", str(tmp_path / "m.kwsm"))
    assert code == 1


@pytest.mark.parametrize("lr", ["nan", "inf", "-inf", "-1"])
def test_train_learning_rate_must_be_finite_and_non_negative(tmp_path, capsys, lr):
    out = tmp_path / "m.kwsm"
    code, _, err = run(capsys, "train", "--arch", "dnn", "--synthetic", "2", "--per-class", "4",
                       "--epochs", "1", f"--lr={lr}", "--out", str(out), "--quiet")
    assert (code, out.exists()) == (1, False)
    assert "learning rate" in err
    # the flag is checked before any data is read: no dataset directory error
    code, _, err = run(capsys, "train", "--data", str(tmp_path / "nowhere"), f"--lr={lr}", "--out", str(out))
    assert (code, out.exists()) == (1, False)
    assert "learning rate" in err


def test_train_seed_from_environment(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KWS_SEED", "7")
    doc = run_json(capsys, "train", "--arch", "dnn", "--synthetic", "2",
                   "--per-class", "4", "--epochs", "1",
                   "--out", str(tmp_path / "m.kwsm"), "--quiet")
    assert doc["config"]["seed"] == 7


def test_train_bad_environment_seed_is_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("KWS_SEED", "lucky")
    code, _, err = run(capsys, "train", "--arch", "dnn", "--synthetic", "2",
                       "--per-class", "4", "--epochs", "1",
                       "--out", str(tmp_path / "m.kwsm"), "--quiet")
    assert code == 1
    assert "KWS_SEED" in err


def test_oversized_model_is_a_data_error(tmp_path, capsys, tone_wav):
    model = str(oversized_model(tmp_path / "huge.kwsm"))
    for argv in (["bench", "--model", model, "--iters", "1"], ["detect", tone_wav, "--model", model]):
        code, _, err = run(capsys, *argv)
        assert code == 2 and "weight payload has 32 bytes" in err, (argv, err)


def test_detect_hostile_wav_headers_are_data_errors(tmp_path, capsys, tiny_model):
    for wav in hostile_wavs(tmp_path):
        code, _, err = run(capsys, "detect", str(wav), "--model", tiny_model)
        assert code == 2, (wav.name, err)
        assert "kwslite" in err and "Traceback" not in err


def test_detect_runs_and_reports_schema(tmp_path, capsys, tiny_model, tone_wav):
    doc = run_json(capsys, "detect", tone_wav, "--model", tiny_model,
                   "--threshold", "0.99")
    assert doc["frames"] == 98
    check_environment(doc["environment"])
    assert isinstance(doc["events"], list)
    for event in doc["events"]:
        assert set(event) == {"frame", "time", "keyword", "confidence"}
        assert event["keyword"] != "_filler"
        assert event["confidence"] >= 0.99


def test_detect_text_lines_are_tab_separated(tmp_path, capsys, tiny_model, tone_wav):
    code, text, _ = run(capsys, "detect", tone_wav, "--model", tiny_model,
                        "--threshold", "0.5")
    assert code == 0
    lines = [l for l in text.splitlines() if not l.startswith("#")]
    for line in lines:
        frame, time_s, name, conf = line.split("\t")
        assert int(frame) >= 0
        assert abs(float(time_s) - int(frame) * 0.010) < 1e-9
        assert 0.0 <= float(conf) <= 1.0
        assert name != "_filler"


def test_detect_threshold_out_of_range_is_usage_error(capsys, tiny_model, tone_wav):
    for bad in ("1.01", "0", "-0.2"):
        code, _, _ = run(capsys, "detect", tone_wav, "--model", tiny_model,
                         "--threshold", bad)
        assert code == 1


def test_detect_missing_model_is_data_error(tmp_path, capsys, tone_wav):
    code, _, _ = run(capsys, "detect", tone_wav, "--model", str(tmp_path / "no.kwsm"))
    assert code == 2


def test_detect_garbage_model_is_data_error(tmp_path, capsys, tone_wav):
    bad = tmp_path / "bad.kwsm"
    bad.write_bytes(b"this is not a model file")
    code, _, _ = run(capsys, "detect", tone_wav, "--model", str(bad))
    assert code == 2


def test_detect_nan_weight_is_numeric_failure(tmp_path, capsys, tiny_model, tone_wav):
    broken = with_nan_weight(Path(tiny_model), tmp_path / "nan.kwsm", "dense1.weights")
    code, out, err = run(capsys, "detect", tone_wav, "--model", str(broken), "--format", "structured")
    assert code == 3
    assert out == ""
    assert "dense1.weights" in err and "non-finite" in err and "Traceback" not in err


def test_nan_weight_in_memory_fails_at_the_posterior_check(tiny_model, tone_wav):
    model = load_model(tiny_model)
    weights = {k: v.copy() for k, v in model.weights.items()}  # loaded tensors are read-only
    weights["dense1.weights"][0, 0] = np.nan
    with pytest.raises(NumericError, match="frame 0 is not finite"):
        posteriors_from_waveform(model.arch, weights, read_wav(tone_wav))


@pytest.mark.parametrize("edit", sorted(CRAFTED_HEADERS))
def test_detect_malformed_header_numbers_are_data_errors(tmp_path, capsys, tiny_model, tone_wav, edit):
    broken = rewrite_header(Path(tiny_model), tmp_path / "bad.kwsm", CRAFTED_HEADERS[edit])
    code, out, err = run(capsys, "detect", tone_wav, "--model", str(broken))
    assert code == 2, err
    assert out == ""
    assert "malformed model header" in err and "Traceback" not in err


def test_bench_disagreement_is_numeric_failure(capsys, monkeypatch, tiny_model):
    honest = kwslite.arch.forward_frames
    monkeypatch.setattr(kwslite.arch, "forward_frames", lambda *args: honest(*args) + 1e-3)
    model = load_model(tiny_model)
    rng = np.random.default_rng(0)
    frames = rng.standard_normal((cli.AGREEMENT_FRAMES, model.arch.input_f)).astype(np.float32)
    with pytest.raises(AgreementError):
        cli._check_agreement(model.arch, model.weights, frames)
    code, out, err = run(capsys, "bench", "--model", tiny_model, "--iters", "1")
    assert code == 3
    assert "disagree" in err and "agreement check OK" not in out


def test_bench_checks_the_continued_stream(tmp_path, capsys, monkeypatch):
    # cnn-one, which the other bench tests use, never continues; this stack does
    arch = ArchSpec("tiny-conv", Context(4, 3), (Conv(3, 5, 4), Flatten(), Dense(8), SoftmaxOut(3)))
    assert arch.streams_cheaper
    model = tmp_path / "tiny-conv.kwsm"
    save_model(model, arch, init_weights(arch, 0, init_scale=0.2), ["_filler", "kw1", "kw2"])
    honest, calls, error = kwslite.arch._continue, [], [0.0]

    def counted(*args):
        calls.append(1)
        return honest(*args) + error[0]

    monkeypatch.setattr(kwslite.arch, "_continue", counted)
    code, text, _ = run(capsys, "bench", "--model", str(model), "--iters", "3")
    assert code == 0 and "agreement check OK" in text
    assert len(calls) == 2  # windows 1 and 2 of the check; the timed window never continues
    error[0] = 1e-3
    code, out, err = run(capsys, "bench", "--model", str(model), "--iters", "3")
    assert code == 3
    assert "disagree" in err and "agreement check OK" not in out


def test_bench_checks_each_conv_layer_against_its_float32_bound(capsys, monkeypatch, tiny_model):
    # an error a little over float32 rounding, in the production conv kernel
    # itself, moves the per-window and streamed rows alike: only the
    # per-layer bound against the naive kernel sees it
    honest = kwslite.tensor.conv2d_optimized
    for error in (1e-3, np.nan):
        monkeypatch.setattr(kwslite.tensor, "conv2d_optimized", lambda *args, **kw: honest(*args, **kw) * (1 + error))
        code, out, err = run(capsys, "bench", "--model", tiny_model, "--iters", "1")
        assert code == 3
        assert "float32 error bound" in err and "conv1 on window 0" in err and "agreement check OK" not in out


def test_bench_times_both_paths(capsys, tiny_model):
    code, text, _ = run(capsys, "bench", "--model", tiny_model, "--iters", "3")
    assert code == 0
    assert "agreement check OK" in text
    assert "naive" in text and "optimized" in text
    doc = run_json(capsys, "bench", "--model", tiny_model, "--iters", "3")
    assert doc["agreement"] == "OK"
    assert set(doc["timings"]) == {"naive", "optimized"}
    for stats in doc["timings"].values():
        assert stats["mean_ms"] > 0.0


def test_bench_zero_iters_is_usage_error(capsys, tiny_model):
    code, _, _ = run(capsys, "bench", "--model", tiny_model, "--iters", "0")
    assert code == 1


def test_every_command_echoes_config(capsys, tmp_path, tiny_model, tone_wav):
    out = tmp_path / "f.bin"
    model_out = tmp_path / "m.kwsm"
    invocations = [
        ["featurize", tone_wav, "--out", str(out)],
        ["describe", "--arch", "dnn"],
        ["budget", "--arch", "cnn-one"],
        ["fit", "--arch", "cnn-tstride2"],
        ["train", "--arch", "dnn", "--synthetic", "2", "--per-class", "4",
         "--epochs", "1", "--out", str(model_out), "--quiet"],
        ["detect", tone_wav, "--model", tiny_model],
        ["bench", "--model", tiny_model, "--iters", "1"],
    ]
    for argv in invocations:
        code, text, err = run(capsys, *argv)
        assert code == 0, (argv, err)
        assert text.startswith(f"# kwslite {argv[0]} "), argv
        doc = run_json(capsys, *argv)
        assert doc["command"] == argv[0]
        assert isinstance(doc["config"], dict) and doc["config"], argv


def test_no_command_is_usage_error(capsys):
    code, _, _ = run(capsys)
    assert code == 1


def test_main_builds_its_parser_once_per_process(capsys):
    # in-process callers (the benchmark, tests, notebooks) call main many
    # times; argparse spends about 1 ms building the parser. A usage error
    # raised while parsing must not spoil the kept parser for the next call.
    cli._build_parser.cache_clear()
    assert run(capsys, "describe", "--arch", "dnn")[0] == 0
    assert run(capsys, "describe", "--arch", "bogus")[0] == 1
    code, text, _ = run(capsys, "budget", "--arch", "cnn-one")
    assert code == 0 and "cnn-one" in text
    info = cli._build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 2)
