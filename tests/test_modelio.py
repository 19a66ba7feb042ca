"""Model container: bit-exact roundtrips and specific corruption errors."""

import hashlib
import struct

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from kwslite import (
    ARCHITECTURES,
    ArchSpec,
    Context,
    Conv,
    Dense,
    Flatten,
    LowRank,
    Pool,
    SoftmaxOut,
    Stride,
    get_arch,
    init_weights,
    load_model,
    save_model,
)
from kwslite.arch import arch_to_dict, check_weights
from kwslite.errors import (
    BadMagicError,
    KwsError,
    ManifestMismatchError,
    ModelFormatError,
    NumericError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)
from kwslite.modelio import MAGIC

from conftest import CRAFTED_HEADERS, rewrite_header, with_nan_weight

LABELS = ["_filler", "kw1", "kw2", "kw3"]


def checksum(path):
    return hashlib.sha256(path.read_bytes()).hexdigest()


@pytest.mark.parametrize("name", ARCHITECTURES)
def test_roundtrip_bitexact(tmp_path, name):
    arch = get_arch(name, 4)
    weights = init_weights(arch, 21)
    path = tmp_path / "model.kwsm"
    save_model(path, arch, weights, LABELS)
    loaded = load_model(path)
    assert loaded.arch == arch
    assert loaded.labels == LABELS
    assert set(loaded.weights) == set(weights)
    for key in weights:
        npt.assert_array_equal(loaded.weights[key], weights[key])
        assert loaded.weights[key].dtype == np.float32

    # save(load(save(x))) is byte-identical
    first = checksum(path)
    save_model(path, loaded.arch, loaded.weights, loaded.labels)
    assert checksum(path) == first


def test_payload_size_is_exactly_params_times_four(tmp_path):
    arch = get_arch("cnn-one", 4)
    path = tmp_path / "model.kwsm"
    save_model(path, arch, init_weights(arch, 0), LABELS)
    data = path.read_bytes()
    assert data[:4] == MAGIC
    version, header_len = struct.unpack_from("<II", data, 4)
    assert version == 1
    assert len(data) - 12 - header_len == 4 * 105_284


def test_header_is_plain_json(tmp_path):
    import json

    arch = get_arch("dnn", 4)
    path = tmp_path / "model.kwsm"
    save_model(path, arch, init_weights(arch, 0), LABELS)
    data = path.read_bytes()
    _, header_len = struct.unpack_from("<II", data, 4)
    doc = json.loads(data[12 : 12 + header_len].decode("utf-8"))
    assert doc["labels"] == LABELS
    assert doc["arch"]["name"] == "dnn"
    assert [name for name, _ in doc["manifest"]][0] == "dense1.weights"


@pytest.fixture
def saved(tmp_path):
    arch = get_arch("cnn-one", 4)
    path = tmp_path / "model.kwsm"
    save_model(path, arch, init_weights(arch, 5), LABELS)
    return path, path.read_bytes()


def test_bad_magic(saved):
    path, data = saved
    path.write_bytes(b"NOPE" + data[4:])
    with pytest.raises(BadMagicError):
        load_model(path)
    path.write_bytes(b"KW")  # shorter than the magic itself
    with pytest.raises(BadMagicError):
        load_model(path)


def test_unsupported_version(saved):
    path, data = saved
    path.write_bytes(data[:4] + struct.pack("<I", 2) + data[8:])
    with pytest.raises(UnsupportedVersionError):
        load_model(path)


def test_truncated_payload(saved):
    path, data = saved
    path.write_bytes(data[:-100])
    with pytest.raises(TruncatedPayloadError):
        load_model(path)


def test_trailing_garbage(saved):
    path, data = saved
    path.write_bytes(data + b"\x00" * 16)
    with pytest.raises(TruncatedPayloadError):
        load_model(path)


def test_truncated_header(saved):
    path, data = saved
    _, header_len = struct.unpack_from("<II", data, 4)
    path.write_bytes(data[: 12 + header_len // 2])
    with pytest.raises(TruncatedPayloadError):
        load_model(path)


def test_corrupt_header_json(saved):
    path, data = saved
    _, header_len = struct.unpack_from("<II", data, 4)
    broken = data[:12] + b"{" * header_len + data[12 + header_len :]
    path.write_bytes(broken)
    with pytest.raises(ModelFormatError):
        load_model(path)


def test_save_validates_weights(tmp_path):
    arch = get_arch("cnn-one", 4)
    weights = init_weights(arch, 0)
    weights.pop("softmax.bias")
    with pytest.raises(ManifestMismatchError):
        save_model(tmp_path / "m.kwsm", arch, weights, LABELS)


def test_save_validates_label_count(tmp_path):
    arch = get_arch("cnn-one", 4)
    with pytest.raises(ManifestMismatchError):
        save_model(tmp_path / "m.kwsm", arch, init_weights(arch, 0), LABELS[:3])


@pytest.mark.parametrize(
    "labels", [[0, 1, 2, 3], ["_filler", "kw1", 2, "kw3"], [b"_filler", b"kw1", b"kw2", b"kw3"]]
)
def test_save_refuses_labels_load_would_refuse(tmp_path, labels):
    # load_model reads labels only as a list of str, so save_model writes nothing else
    arch = get_arch("cnn-one", 4)
    path = tmp_path / "m.kwsm"
    first_bad = next(name for name in labels if not isinstance(name, str))
    with pytest.raises(TypeError, match=f"label {labels.index(first_bad)} is"):
        save_model(path, arch, init_weights(arch, 0), labels)
    assert not path.exists()


def test_corrupted_weight_values_still_load_shape_safe(saved):
    # flipping payload bytes must not crash loading; shapes are intact
    path, data = saved
    corrupted = bytearray(data)
    corrupted[-50] ^= 0xFF
    path.write_bytes(bytes(corrupted))
    loaded = load_model(path)
    assert loaded.weights["softmax.bias"].shape == (4,)


TINY = ArchSpec(
    "tiny",
    Context(2, 1),
    (Conv(2, 3, 2, Stride(1, 2), Pool(1, 2)), Flatten(), Dense(3), SoftmaxOut(2)),
)


@given(
    edits=st.lists(st.tuples(st.integers(0, 1 << 16), st.integers(0, 255)), min_size=1, max_size=4),
    cut=st.one_of(st.none(), st.integers(0, 1 << 12)),
)
def test_load_model_header_fuzz_gives_kws_error_or_valid_model(tmp_path_factory, edits, cut):
    path = tmp_path_factory.mktemp("fuzz") / "tiny.kwsm"
    save_model(path, TINY, init_weights(TINY, 0), ["_filler", "kw"])
    data = bytearray(path.read_bytes())
    header_end = 12 + struct.unpack_from("<I", data, 8)[0]
    for pos, value in edits:
        data[pos % header_end] = value  # magic, version, header length and JSON header
    path.write_bytes(bytes(data[:cut]))
    try:
        model = load_model(path)
    except KwsError:
        return
    check_weights(model.arch, model.weights)
    assert len(model.labels) == model.arch.labels
    assert all(w.dtype == np.float32 for w in model.weights.values())


# every layer kind, so each kind's header fields are exercised
SMALL = ArchSpec(
    "small",
    Context(2, 1),
    (Conv(2, 3, 2, Stride(1, 2), Pool(1, 2)), Flatten(), LowRank(3), Dense(3), SoftmaxOut(2)),
)


@pytest.fixture(scope="module")
def small_model(tmp_path_factory):
    path = tmp_path_factory.mktemp("small") / "small.kwsm"
    save_model(path, SMALL, init_weights(SMALL, 0), ["_filler", "kw"])
    return path


@pytest.mark.parametrize("edit", sorted(CRAFTED_HEADERS))
def test_malformed_header_numbers_raise_model_format_error(tmp_path, small_model, edit):
    broken = rewrite_header(small_model, tmp_path / "bad.kwsm", CRAFTED_HEADERS[edit])
    with pytest.raises(ModelFormatError, match="malformed model header"):
        load_model(broken)


def _arch_field_paths(doc):
    paths = [("name",), ("context",), ("input_f",), ("layers",)]
    for i, layer in enumerate(doc["layers"]):
        paths += [("layers", i, key) for key in layer]
    return paths


_SMALL_PATHS = _arch_field_paths(arch_to_dict(SMALL))


@given(
    path=st.sampled_from(_SMALL_PATHS),
    value=st.one_of(
        st.floats(allow_nan=False, allow_infinity=False),
        st.booleans(),
        st.text(max_size=4),
        st.lists(st.integers(0, 64), max_size=1),
    ),
)
def test_arch_field_of_another_type_gives_kws_error(tmp_path_factory, small_model, path, value):
    def edit(doc):
        owner = doc["arch"]
        for key in path[:-1]:
            owner = owner[key]
        assume(not (isinstance(value, str) and isinstance(owner[path[-1]], str)))
        owner[path[-1]] = value

    broken = rewrite_header(small_model, tmp_path_factory.mktemp("swap") / "bad.kwsm", edit)
    with pytest.raises(KwsError):
        load_model(broken)


def test_save_refuses_non_finite_weights(tmp_path):
    for bad in (np.nan, np.inf, 1e39):  # 1e39 overflows float32
        weights = {k: v.astype(np.float64) for k, v in init_weights(SMALL, 0).items()}
        weights["lowrank1.weights"][1, 2] = bad
        path = tmp_path / "nan.kwsm"
        with pytest.raises(NumericError, match="lowrank1.weights"):
            save_model(path, SMALL, weights, ["_filler", "kw"])
        assert not path.exists()


def test_load_refuses_non_finite_weights(tmp_path, small_model):
    broken = with_nan_weight(small_model, tmp_path / "nan.kwsm", "dense1.bias")
    with pytest.raises(NumericError, match="dense1.bias"):
        load_model(broken)
