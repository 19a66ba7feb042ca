"""Bit-exact model container.

Layout: 4-byte magic b"KWSM", then two little-endian uint32 words (format
version, header length in bytes), then a UTF-8 JSON header, then the weight
payload: every tensor as little-endian float32 in C order, concatenated in
manifest order. The header holds the architecture description, the label
names, and the ordered tensor manifest with shapes; it is serialized with
sorted keys and fixed separators, so saving the same model twice produces
byte-identical files. Loading is declarative: the header is parsed, never
executed, and the architecture is re-validated before any payload is read.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Mapping
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .arch import ArchSpec, FrozenWeights, arch_from_dict, arch_to_dict, check_weights, weight_manifest
from .errors import (
    BadMagicError,
    ManifestMismatchError,
    ModelFormatError,
    NumericError,
    TruncatedPayloadError,
    UnsupportedVersionError,
)

MAGIC = b"KWSM"
VERSION = 1

__all__ = ["MAGIC", "VERSION", "LoadedModel", "save_model", "load_model"]


@dataclass
class LoadedModel:
    arch: ArchSpec
    weights: Mapping[str, np.ndarray]  # a FrozenWeights from load_model
    labels: list[str]


def _header_bytes(arch: ArchSpec, labels: list[str]) -> bytes:
    manifest = [[name, list(shape)] for name, shape in weight_manifest(arch)]
    doc = {"arch": arch_to_dict(arch), "labels": list(labels), "manifest": manifest}
    return json.dumps(doc, sort_keys=True, separators=(",", ":")).encode("utf-8")


def _check_labels(labels: list[str]) -> None:
    """Raise TypeError unless `labels` is a list or tuple of str, the one form load_model reads."""
    if not isinstance(labels, (list, tuple)):
        raise TypeError(f"labels must be a list of strings, got {type(labels).__name__}")
    for i, name in enumerate(labels):
        if not isinstance(name, str):
            raise TypeError(f"label {i} is {name!r}, not a str")


def _check_finite(where: str, tensors: Mapping[str, np.ndarray]) -> None:
    for name, w in tensors.items():
        if not np.isfinite(w).all():
            count = int(np.count_nonzero(~np.isfinite(w)))
            raise NumericError(f"{where}: weight tensor {name} holds {count} non-finite values")


def save_model(
    path: str | Path, arch: ArchSpec, weights: Mapping[str, np.ndarray], labels: list[str]
) -> None:
    """Write arch + labels + weights; same model in, same bytes out.

    Writes nothing and raises NumericError if a tensor holds a NaN or an
    infinity as float32, or TypeError if a label is not a str.
    """
    check_weights(arch, weights)  # validates the stack on its way
    _check_labels(labels)
    if len(labels) != arch.labels:
        raise ManifestMismatchError(
            f"{len(labels)} label names for an architecture with {arch.labels} outputs"
        )
    with np.errstate(over="ignore"):  # a value beyond float32 becomes inf and is refused below
        stored = {name: np.ascontiguousarray(weights[name], dtype="<f4") for name, _ in weight_manifest(arch)}
    _check_finite(f"cannot save {path}", stored)
    header = _header_bytes(arch, labels)
    with open(path, "wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", VERSION, len(header)))
        fh.write(header)
        for w in stored.values():
            fh.write(w.tobytes())


def load_model(path: str | Path) -> LoadedModel:
    """Read a model container, failing loudly and specifically.

    The weights are a FrozenWeights: read-only views of the file's bytes,
    which no caller can change (`{k: v.copy() for k, v in weights.items()}`
    is a mutable copy). Raises BadMagicError, UnsupportedVersionError,
    TruncatedPayloadError, or ManifestMismatchError depending on what is
    wrong with the file, another ModelFormatError for a malformed header,
    and NumericError naming the first tensor that holds a NaN or an
    infinity.
    """
    data = Path(path).read_bytes()
    if data[:4] != MAGIC:
        raise BadMagicError(f"{path}: not a model file (bad magic {data[:4]!r})")
    if len(data) < 12:
        raise TruncatedPayloadError(f"{path}: file ends inside the fixed header")
    version, header_len = struct.unpack_from("<II", data, 4)
    if version != VERSION:
        raise UnsupportedVersionError(f"{path}: container version {version}, expected {VERSION}")
    if len(data) < 12 + header_len:
        raise TruncatedPayloadError(f"{path}: file ends inside the JSON header")
    try:
        doc = json.loads(data[12 : 12 + header_len].decode("utf-8"))
        arch = arch_from_dict(doc["arch"])
        labels = doc["labels"]
        _check_labels(labels)
        stored_manifest = []
        for name, shape in doc["manifest"]:
            # JSON integers only: neither 64.9 nor true may pass as a dimension
            if not isinstance(shape, list) or not all(type(d) is int for d in shape):
                raise ValueError(f"tensor {name!r} has non-integer dimensions {shape!r}")
            stored_manifest.append((name, tuple(shape)))
    except ModelFormatError:
        raise
    except Exception as exc:
        raise ModelFormatError(f"{path}: malformed model header ({exc})") from exc

    expected_manifest = weight_manifest(arch)  # validates the stack; ShapeError if it is invalid
    if stored_manifest != expected_manifest:
        raise ManifestMismatchError(
            f"{path}: stored tensor manifest does not match the architecture"
        )
    if len(labels) != arch.labels:
        raise ManifestMismatchError(
            f"{path}: {len(labels)} label names for {arch.labels} outputs"
        )

    expected_bytes = sum(4 * int(np.prod(shape)) for _, shape in expected_manifest)
    payload_bytes = len(data) - (12 + header_len)
    if payload_bytes < expected_bytes:
        raise TruncatedPayloadError(
            f"{path}: weight payload has {payload_bytes} bytes, needs {expected_bytes}"
        )
    if payload_bytes > expected_bytes:
        raise TruncatedPayloadError(
            f"{path}: {payload_bytes - expected_bytes} trailing bytes after the weight payload"
        )

    weights = FrozenWeights(data, expected_manifest, offset=12 + header_len)
    _check_finite(str(path), weights)
    return LoadedModel(arch, weights, labels)
