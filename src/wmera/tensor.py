"""Binary I/O of dense tensors.

Tensors are plain float64 numpy arrays in C (row-major) order. The record
layout is the portability contract used by model files and preprocessing
caches: little-endian, rank as u32, extents as u64 each, then the flat data
as f64.
"""

from __future__ import annotations

import struct
from typing import BinaryIO

import numpy as np

from .errors import FormatError


# Binary record layout. All fields little-endian.
_RANK = struct.Struct("<I")
_EXTENT = struct.Struct("<Q")
_MAX_RANK = 64  # sanity bound; nothing in this package goes near it


def write_tensor(stream: BinaryIO, t: np.ndarray) -> None:
    t = np.asarray(t, dtype=np.float64)
    stream.write(_RANK.pack(t.ndim))
    for extent in t.shape:
        stream.write(_EXTENT.pack(extent))
    stream.write(np.ascontiguousarray(t, dtype="<f8").tobytes())


def read_tensor(stream: BinaryIO) -> np.ndarray:
    head = stream.read(_RANK.size)
    if len(head) < _RANK.size:
        raise FormatError("truncated tensor record: missing rank field")
    (rank,) = _RANK.unpack(head)
    if rank > _MAX_RANK:
        raise FormatError(f"implausible tensor rank {rank}")
    shape = []
    for i in range(rank):
        raw = stream.read(_EXTENT.size)
        if len(raw) < _EXTENT.size:
            raise FormatError(f"truncated tensor record: missing extent {i}")
        (extent,) = _EXTENT.unpack(raw)
        if extent == 0:
            raise FormatError("tensor record with a zero extent")
        shape.append(int(extent))
    count = int(np.prod(shape, dtype=np.int64)) if shape else 1
    raw = stream.read(8 * count)
    if len(raw) < 8 * count:
        raise FormatError(f"truncated tensor record: expected {count} values, "
                          f"got {len(raw) // 8}")
    return np.frombuffer(raw, dtype="<f8").astype(np.float64).reshape(shape)
