"""Portable model container: a JSON header line (format version, tensor
names and shapes, seed, extra metadata) followed by raw little-endian
float64 tensor data in declaration order. Only the functions that read
or write tensor data load numpy."""

from __future__ import annotations

import json
import math
import os
from typing import TYPE_CHECKING

if TYPE_CHECKING:
    import numpy as np

FORMAT_NAME = "safetymap-model"
FORMAT_VERSION = 1
_SLICE = 1 << 15  # elements per slice of the finite check


def _check_finite(path: str, tensors: dict[str, np.ndarray]) -> None:
    """Raise a ValueError naming path, the first tensor holding NaN or inf and
    how many such values it holds, counted over slices of _SLICE elements, so
    no tensor-sized mask is allocated."""
    import numpy as np

    for name, value in tensors.items():
        flat = value.reshape(-1)
        bad = sum(
            len(part) - np.count_nonzero(np.isfinite(part))
            for part in (flat[i : i + _SLICE] for i in range(0, flat.size, _SLICE))
        )
        if bad:
            raise ValueError(f"{path}: tensor {name!r} holds {bad} non-finite values")


def save_tensors(path: str, tensors: dict[str, np.ndarray], meta: dict | None = None) -> None:
    """Write named tensors plus metadata; iteration order is the declaration
    order. A tensor or a meta value holding NaN or inf is a ValueError,
    raised before the file is opened. A C-contiguous float64 tensor is
    written from its own buffer, without a copy."""
    import numpy as np

    _check_finite(path, tensors)
    header = {
        "format": FORMAT_NAME,
        "version": FORMAT_VERSION,
        "tensors": [{"name": k, "shape": list(v.shape)} for k, v in tensors.items()],
        "meta": meta or {},
    }
    line = json.dumps(header, sort_keys=True, allow_nan=False).encode("utf-8") + b"\n"
    with open(path, "wb") as fh:
        fh.write(line)
        for v in tensors.values():
            fh.write(np.ascontiguousarray(v, dtype="<f8").data)


def _is_entry(entry: object) -> bool:
    """A tensor entry: a string name and a list of non-negative integer dims."""
    return (
        isinstance(entry, dict)
        and isinstance(entry.get("name"), str)
        and isinstance(entry.get("shape"), list)
        and all(type(d) is int and d >= 0 for d in entry["shape"])
    )


def load_tensors(path: str) -> tuple[dict[str, np.ndarray], dict]:
    """Read a container back into (tensors, meta). A header that is not a
    container header, a malformed or repeated tensor entry, tensor data that
    is short or followed by extra bytes, and a tensor holding NaN or inf are
    ValueErrors naming path. Each tensor is read straight into its array."""
    import numpy as np

    with open(path, "rb") as fh:
        header_line = fh.readline()
        if not header_line.endswith(b"\n"):
            raise ValueError(f"{path}: truncated model header")
        try:
            header = json.loads(header_line)
        except ValueError as exc:  # malformed JSON or bytes that are not UTF-8
            raise ValueError(f"{path}: invalid model header: {exc}") from exc
        if not isinstance(header, dict) or header.get("format") != FORMAT_NAME:
            raise ValueError(f"{path}: not a {FORMAT_NAME} container")
        if header.get("version") != FORMAT_VERSION:
            raise ValueError(f"{path}: unsupported version {header.get('version')}")
        entries, meta = header.get("tensors"), header.get("meta", {})
        if not isinstance(entries, list) or not isinstance(meta, dict):
            raise ValueError(f"{path}: model header needs a 'tensors' list and a 'meta' object")
        left = os.fstat(fh.fileno()).st_size - fh.tell()  # bytes of tensor data
        tensors: dict[str, np.ndarray] = {}
        for i, entry in enumerate(entries):
            if not _is_entry(entry) or entry["name"] in tensors:
                raise ValueError(f"{path}: malformed or repeated tensor entry {i}: {entry!r}")
            shape = tuple(entry["shape"])
            nbytes = math.prod(shape) * 8
            # allocated only once the file is known to hold its bytes
            if nbytes > left or fh.readinto(tensor := np.empty(shape, dtype="<f8")) != nbytes:
                raise ValueError(f"{path}: truncated tensor {entry['name']!r}")
            tensors[entry["name"]] = tensor
            left -= nbytes
    if left:
        raise ValueError(f"{path}: {left} bytes after the last tensor")
    _check_finite(path, tensors)
    return tensors, meta


def container_kind(path: str) -> object:
    """The meta kind path's header line declares, or None where it declares none."""
    with open(path, "rb") as fh:
        try:
            return json.loads(fh.readline())["meta"]["kind"]
        except (ValueError, TypeError, KeyError, RecursionError):
            return None


def meta_int(key: str, value: object) -> int:
    """value when the header holds it as a JSON integer; a bool, float,
    string or any other value is a ValueError naming key."""
    if type(value) is not int:
        raise ValueError(f"{key} must be an integer, got {value!r}")
    return value


def meta_float(key: str, value: object) -> float:
    """value as a float when the header holds it as a finite JSON number (an
    integer or a float); a bool, string, NaN, infinity or any other value is
    a ValueError naming key."""
    if type(value) not in (int, float) or not math.isfinite(value):
        raise ValueError(f"{key} must be a finite number, got {value!r}")
    return float(value)


def check_shapes(path: str, tensors: dict[str, np.ndarray], want: dict[str, tuple]) -> None:
    """Raise a ValueError naming path and every tensor that is missing, extra
    or of another shape than want, the shapes its meta implies."""
    got = {key: v.shape for key, v in tensors.items()}
    if got != want:
        wrong = [
            f"{key} {got.get(key, 'missing')}, meta implies {want.get(key, 'none')}"
            for key in sorted(got.keys() | want.keys())
            if got.get(key) != want.get(key)
        ]
        raise ValueError(f"{path}: tensors do not match the meta: {'; '.join(wrong)}")
