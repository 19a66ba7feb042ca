import json
import struct

import numpy as np
import pytest
from hypothesis import settings

from kwslite import (
    ArchSpec,
    Context,
    Conv,
    Dense,
    Flatten,
    LowRank,
    Pool,
    SoftmaxOut,
    Stride,
    validate,
)
from kwslite.arch import weight_manifest
from kwslite.audio import write_wav
from kwslite.errors import ShapeError
from kwslite.modelio import load_model

# property tests draw the same examples on every run, with no per-example
# time limit (timings on a loaded machine vary too much for one)
settings.register_profile("kwslite", derandomize=True, deadline=None)
settings.load_profile("kwslite")


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def random_window(rng, arch, scale=1.0):
    return (scale * rng.standard_normal((arch.input_t, arch.input_f))).astype(np.float32)


def in_reverse_order(weights):
    """The same tensors, keyed in the reverse of manifest order."""
    return dict(reversed(list(weights.items())))


def random_arch(rng, max_convs=2):
    """A small random-but-valid layer stack for property-style tests."""
    for _ in range(200):
        left = int(rng.integers(2, 10))
        right = int(rng.integers(1, 6))
        layers = []
        n_convs = int(rng.integers(1, max_convs + 1))
        for _ in range(n_convs):
            layers.append(
                Conv(
                    int(rng.integers(1, 6)),
                    int(rng.integers(1, 9)),
                    int(rng.integers(1, 7)),
                    Stride(int(rng.integers(1, 3)), int(rng.integers(1, 3))),
                    Pool(int(rng.integers(1, 3)), int(rng.integers(1, 4))),
                )
            )
        layers.append(Flatten())
        if rng.random() < 0.5:
            layers.append(LowRank(int(rng.integers(1, 13))))
        for _ in range(int(rng.integers(0, 3))):
            layers.append(Dense(int(rng.integers(1, 25))))
        layers.append(SoftmaxOut(int(rng.integers(2, 7))))
        arch = ArchSpec("random", Context(left, right), tuple(layers))
        try:
            validate(arch)
        except ShapeError:
            continue
        return arch
    raise AssertionError("could not sample a valid architecture in 200 tries")


# a stride-2 conv, then a pool-2 conv: the third conv reads every 4th row of
# its stream, and flatten every 8th
STEPS_ARCH = ArchSpec(
    "steps",
    Context(14, 6),
    (
        Conv(3, 5, 3, Stride(2, 1)),
        Conv(2, 4, 4, Stride(1, 2), Pool(2, 2)),
        Conv(2, 3, 2),
        Flatten(),
        Dense(6),
        SoftmaxOut(3),
    ),
)


def hostile_wavs(path_dir):
    """The two header corruptions that once escaped as raw exceptions."""
    base = path_dir / "base.wav"
    write_wav(base, 0.5 * np.sin(np.arange(1600) / 10.0))
    data = base.read_bytes()
    fmt_size = bytearray(data)
    fmt_size[19] = 0xF4  # fmt chunk size 0xF4000010: wave raised a bare RuntimeError
    riff_size = bytearray(data)
    riff_size[4] = 0x41  # the RIFF chunk now ends 3101 bytes into the data chunk, mid-sample
    paths = (path_dir / "fmt_size.wav", path_dir / "riff_size.wav")
    for path, raw in zip(paths, (fmt_size, riff_size)):
        path.write_bytes(bytes(raw))
    return paths


def rewrite_header(src, dst, edit):
    """Copy a model file to dst with edit(doc) applied to its JSON header."""
    data = src.read_bytes()
    (header_len,) = struct.unpack_from("<I", data, 8)
    doc = json.loads(data[12 : 12 + header_len])
    edit(doc)
    header = json.dumps(doc, sort_keys=True, separators=(",", ":")).encode()
    dst.write_bytes(data[:8] + struct.pack("<I", len(header)) + header + data[12 + header_len :])
    return dst


def _set_field(kind, key, value_of):
    def edit(doc):
        layer = next(entry for entry in doc["arch"]["layers"] if entry["kind"] == kind)
        layer[key] = value_of(layer[key])

    return edit


def _set_first_dim(index, value_of):
    def edit(doc):
        shape = doc["manifest"][0][1]  # conv1.weights: (kernel_t, kernel_f, 1, maps)
        shape[index] = value_of(shape[index])

    return edit


def _set_label(index, value):
    def edit(doc):
        doc["labels"][index] = value

    return edit


def _set_input_f(value):
    def edit(doc):
        doc["arch"]["input_f"] = value

    return edit


# model-header edits that load_model must refuse as malformed; all but the
# input_f ones once escaped it as a TypeError or loaded silently
CRAFTED_HEADERS = {
    "maps-float": _set_field("conv", "maps", float),
    "kernel_t-float": _set_field("conv", "kernel_t", float),
    "rank-true": _set_field("lowrank", "rank", lambda value: True),
    "stride-short": _set_field("conv", "stride", lambda value: value[:1]),
    "dim-fraction": _set_first_dim(-1, lambda value: value + 0.9),
    "dim-true": _set_first_dim(2, lambda value: True),
    "label-number": _set_label(0, 3.5),
    "label-list": _set_label(0, ["x"]),
    "label-null": _set_label(-1, None),
    "input_f-float": _set_input_f(40.0),
    "input_f-true": _set_input_f(True),
    "input_f-other": _set_input_f(41),
}


def with_nan_weight(src, dst, tensor):
    """Copy a model file to dst with the first value of `tensor` set to NaN."""
    data = bytearray(src.read_bytes())
    (header_len,) = struct.unpack_from("<I", data, 8)
    offset = 12 + header_len
    for name, shape in weight_manifest(load_model(src).arch):
        if name == tensor:
            break
        offset += 4 * int(np.prod(shape))
    struct.pack_into("<f", data, offset, float("nan"))
    dst.write_bytes(bytes(data))
    return dst
