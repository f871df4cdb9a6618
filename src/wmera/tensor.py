"""Dense tensor primitives: truncated SVD splits and binary I/O.

Tensors are plain float64 numpy arrays in C (row-major) order. The binary
record layout at the bottom of this module is the portability contract used
by model files and preprocessing caches: little-endian, rank as u32, extents
as u64 each, then the flat data as f64.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO

import numpy as np

from .errors import ArgumentError, FormatError, NumericError


@dataclass(frozen=True)
class SvdResult:
    """Truncated SVD of a tensor split across a (left axes | right axes) cut."""

    left_factor: np.ndarray       # (left extents..., rank), orthonormal columns
    singular_values: np.ndarray   # non-increasing, >= 0
    right_factor: np.ndarray      # (rank, right extents...), orthonormal rows
    truncation_error: float       # sum of squares of the discarded singular values

    @property
    def rank(self) -> int:
        return len(self.singular_values)


def svd_split(t: np.ndarray, left_axes, delta: float = 0.0,
              chi_max: int | None = None) -> SvdResult:
    """Split ``t`` across (left_axes | remaining axes) with a thresholded SVD.

    Singular values strictly below ``delta`` (an absolute threshold) are
    discarded and the rank is capped at ``chi_max`` (None = unbounded). At
    least one singular value is always kept.
    """
    t = np.asarray(t, dtype=np.float64)
    if isinstance(left_axes, (set, frozenset)):
        left = tuple(sorted(left_axes))
    else:
        left = tuple(left_axes)
    if not left or len(left) >= t.ndim or len(set(left)) != len(left):
        raise ArgumentError("left_axes must be a nonempty proper subset of the axes")
    if any(not 0 <= ax < t.ndim for ax in left):
        raise ArgumentError(f"left_axes {left} out of range for rank {t.ndim}")
    if delta < 0:
        raise ArgumentError("delta must be >= 0")
    if chi_max is not None and chi_max < 1:
        raise ArgumentError("chi_max must be >= 1")

    right = tuple(ax for ax in range(t.ndim) if ax not in left)
    left_shape = tuple(t.shape[ax] for ax in left)
    right_shape = tuple(t.shape[ax] for ax in right)
    mat = t.transpose(left + right).reshape(
        int(np.prod(left_shape, dtype=np.int64)),
        int(np.prod(right_shape, dtype=np.int64)))
    try:
        u, s, vh = np.linalg.svd(mat, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on a {mat.shape} matrix") from exc

    keep = int(np.count_nonzero(s >= delta))
    if chi_max is not None:
        keep = min(keep, chi_max)
    keep = max(keep, 1)
    err = float(np.sum(s[keep:] ** 2))
    return SvdResult(
        left_factor=np.ascontiguousarray(u[:, :keep]).reshape(left_shape + (keep,)),
        singular_values=s[:keep].copy(),
        right_factor=np.ascontiguousarray(vh[:keep]).reshape((keep,) + right_shape),
        truncation_error=err,
    )


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
