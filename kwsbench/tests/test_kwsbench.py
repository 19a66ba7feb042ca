"""The benchmark's own tests: the output contract at a tiny run length, and
corrupted outputs counted as failed operations.

Run from the repository root: python3 -m pytest kwsbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

import report
from kwslite import ARCHITECTURES
from workloads import WORKLOADS, Scan, Stream, Train

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "kwsbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=180)


def test_benchmark_json_lists_what_the_run_emits():
    doc = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in doc["workloads"]] == list(WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == report.end_to_end_names()
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == report.per_layer_names()
    assert any(m["name"] == "setup_s" and m["bound"] == max(e["bound"] for e in doc["end_to_end"])
               for m in doc["end_to_end"])


@pytest.mark.parametrize("workload", list(WORKLOADS))
@pytest.mark.parametrize("trace", ["0", "1"])
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0.1", "--trace", trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = (dict(report.per_layer_names()) if trace == "1"
                else {name: unit for name, unit, _ in report.end_to_end_names()})
    assert {k: v["unit"] for k, v in result["metrics"].items()} == expected
    assert all(isinstance(v["value"], float) for v in result["metrics"].values())
    if trace == "0":
        assert all(v["value"] > 0 for v in result["metrics"].values())
    detail = json.loads(proc.stdout.splitlines()[-2])
    assert detail["metrics"]["error_rate"] == 0.0
    assert detail["environment"]["traced"] is (trace == "1")


def test_exits_without_a_result_outside_a_checkout(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "kwsbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "scan", "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""


@pytest.fixture(scope="module")
def scan(tmp_path_factory):
    workload = Scan(7, tmp_path_factory.mktemp("scan"))
    workload.prepare()
    return workload


@pytest.fixture(scope="module")
def stream(tmp_path_factory):
    workload = Stream(7, tmp_path_factory.mktemp("stream"))
    workload.prepare()
    return workload


# the clip on which cnn-one's posteriors are checked against the naive path
ONE = ARCHITECTURES.index("cnn-one")


def test_scan_counts_a_perturbed_posterior(scan):
    run = scan.execute("cnn-one", ONE, None)
    assert scan.check(run).failed == 0
    probs = run.posteriors.copy()
    (pick,) = scan.naive_check(ONE, "cnn-one", len(probs))
    probs[pick] *= 1.001
    outcome = scan.check(replace(run, posteriors=probs))
    assert outcome.failed == 1
    assert "naive path" in outcome.problems[0]


def test_scan_counts_a_dropped_event(scan):
    run = scan.execute("cnn-one", 0, None)
    doc = json.loads(run.stdout)
    assert doc["events"], "the clip should make cnn-one fire"
    doc["events"].pop()
    outcome = scan.check(replace(run, stdout=json.dumps(doc)))
    assert outcome.failed == 1
    assert "StreamingDetector" in outcome.problems[0]


def test_scan_counts_a_false_alarm(scan):
    run = scan.execute("cnn-one", 0, None)
    doc = json.loads(run.stdout)
    first = scan.clip(0).plants[0]
    wrong = "kw1" if first.keyword != 1 else "kw2"
    doc["events"].insert(0, {"frame": 0, "time": 0.0, "keyword": wrong, "confidence": 0.9})
    outcome = scan.check(replace(run, stdout=json.dumps(doc)))
    assert outcome.failed == 1
    assert outcome.quality.false_alarms == 1


def test_stream_counts_a_frame_that_is_not_bit_exact(stream):
    run = stream.execute("cnn-one", 0, None)
    assert stream.check(run).failed == 0
    frames = run.frames.copy()
    frames[100, 3] = np.nextafter(frames[100, 3], np.inf)
    outcome = stream.check(replace(run, frames=frames))
    assert outcome.failed == 1
    assert outcome.problems[0].startswith("hop 100: frame differs")


def test_stream_counts_a_dropped_event_and_a_perturbed_posterior(stream):
    run = stream.execute("cnn-one", ONE, None)
    assert run.events, "the clip should make cnn-one fire"
    assert stream.check(replace(run, events=run.events[:-1])).failed == 1
    probs = run.posteriors.copy()
    (pick,) = stream.naive_check(ONE, "cnn-one", len(probs))
    probs[pick] += np.float32(1e-3)
    assert stream.check(replace(run, posteriors=probs)).failed >= 1


def test_train_counts_rising_loss_and_nondeterministic_weights(tmp_path):
    workload = Train(7, tmp_path)
    workload.prepare()
    run = workload.execute("cnn-one", 0, None)
    assert workload.check(run).failed == 0
    assert workload.check(replace(run, losses=run.losses[::-1])).failed == 1
    assert workload.check(replace(run, losses=[float("nan")] * 3)).failed == 1
    changed = run.model_bytes[:-1] + bytes([run.model_bytes[-1] ^ 1])
    assert workload.check(replace(run, model_bytes=changed)).failed == 1


def test_times_are_scaled_by_the_reference_loop():
    import reference
    from run import summarize
    from workloads import Outcome

    slow = Outcome("dnn", [0.5], 10.0, 1, 0, references=[2 * reference.NOMINAL_S])
    fast = Outcome("dnn", [0.25], 10.0, 1, 0, references=[reference.NOMINAL_S])
    rtf, per_arch, _ = summarize([slow, fast], ["dnn"])
    # the same work at half the machine speed reads the same in reference seconds
    assert rtf["dnn"] == pytest.approx(40.0)
    assert per_arch["dnn"]["rtf_wall"] == pytest.approx(30.0)
    assert reference.scale(1.0, 2 * reference.NOMINAL_S) == pytest.approx(0.5)
