"""Versioned binary checkpoint container for named parameters.

Layout (all integers little-endian):
    magic "DYGW" | u32 version | u32 entry count
    per entry: u32 name length | name utf-8 | u8 precision tag ('f'/'d')
               | u32 ndim | u32 dims... | raw little-endian values

Round-trips are bit-exact. Model files name each parameter under an
``encoder/``, ``decoder/`` or ``predictor/`` prefix; only ``save_model``
and ``load_model`` know those prefixes.
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path

import numpy as np

from .errors import DataError
from .tensor import Tensor

MAGIC = b"DYGW"
VERSION = 2

_TAGS = {np.dtype(np.float32): b"f", np.dtype(np.float64): b"d"}
_DTYPES = {b"f": np.dtype("<f4"), b"d": np.dtype("<f8")}


def save_checkpoint(path, params: dict[str, Tensor]) -> None:
    """Write ``params`` atomically: a reader sees the old file or the whole new one."""
    chunks = [MAGIC, struct.pack("<II", VERSION, len(params))]
    for name, p in params.items():
        tag = _TAGS.get(p.values.dtype)
        if tag is None:
            raise DataError(f"unsupported checkpoint dtype {p.values.dtype} for {name!r}")
        encoded = name.encode("utf-8")
        chunks.append(struct.pack("<I", len(encoded)))
        chunks.append(encoded)
        chunks.append(tag)
        chunks.append(struct.pack("<I", p.values.ndim))
        chunks.append(struct.pack(f"<{p.values.ndim}I", *p.values.shape))
        chunks.append(np.ascontiguousarray(p.values, dtype=_DTYPES[tag]).tobytes())
    path = Path(path)
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with tmp.open("wb") as fh:
            fh.write(b"".join(chunks))
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)


def load_checkpoint(path) -> dict[str, np.ndarray]:
    """Read a checkpoint; a malformed, truncated or over-long file is a ``DataError``."""
    raw = Path(path).read_bytes()
    offset = 0

    def take(size: int) -> bytes:
        nonlocal offset
        if size > len(raw) - offset:
            raise DataError(f"{path}: truncated checkpoint")
        offset += size
        return raw[offset - size:offset]

    def u32s(count: int) -> tuple[int, ...]:
        return struct.unpack(f"<{count}I", take(4 * count))

    if take(4) != MAGIC:
        raise DataError(f"{path}: not a checkpoint file (bad magic)")
    version, count = u32s(2)
    if version != VERSION:
        raise DataError(f"{path}: unsupported checkpoint version {version}")
    out: dict[str, np.ndarray] = {}
    for _ in range(count):
        (name_len,) = u32s(1)
        try:
            name = take(name_len).decode("utf-8")
        except UnicodeDecodeError:
            raise DataError(f"{path}: parameter name is not utf-8") from None
        tag = take(1)
        dtype = _DTYPES.get(tag)
        if dtype is None:
            raise DataError(f"{path}: unknown precision tag {tag!r}")
        (ndim,) = u32s(1)
        shape = u32s(ndim)
        values = np.frombuffer(take(math.prod(shape) * dtype.itemsize), dtype=dtype)
        try:  # a zero dim next to huge ones passes the size check but not numpy
            values = values.reshape(shape)
        except ValueError:
            raise DataError(f"{path}: bad shape {shape} for {name!r}") from None
        out[name] = values.astype(dtype.newbyteorder("="), copy=True)
    if offset != len(raw):
        raise DataError(f"{path}: {len(raw) - offset} trailing bytes after the last entry")
    return out


def _model_params(encoder, decoder, predictor) -> dict[str, Tensor]:
    params: dict[str, Tensor] = {}
    for prefix, part in (("encoder", encoder), ("decoder", decoder), ("predictor", predictor)):
        if part is not None:
            params.update(part.named(prefix))
    return params


def save_model(path, encoder=None, decoder=None, predictor=None) -> None:
    save_checkpoint(path, _model_params(encoder, decoder, predictor))


def load_model(path, encoder=None, decoder=None, predictor=None) -> None:
    """Copy a model file's arrays into the given parts, validating names and shapes."""
    state = load_checkpoint(path)
    for name, tensor in _model_params(encoder, decoder, predictor).items():
        if name not in state:
            raise DataError(f"checkpoint missing parameter {name!r}")
        arr = state[name]
        if tuple(arr.shape) != tensor.shape:
            raise DataError(f"checkpoint shape {arr.shape} != {tensor.shape} for {name!r}")
        tensor.values = arr.astype(tensor.dtype, copy=True)
