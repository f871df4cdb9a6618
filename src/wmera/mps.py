"""Matrix product states: construction, gauges, two-site merge/split, file I/O.

Cores are order-3 arrays laid out (left bond, site, right bond); boundary
bonds have extent 1. Values are immutable by convention: every operation
returns a new state and never mutates core arrays in place, so unchanged
cores may be shared between instances.
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import ArgumentError, DimensionError, FormatError, StateError
from .tensor import read_tensor, svd_split, write_tensor


class MPS:
    """Chain of (left, site, right) cores with an optional orthogonality center.

    ``ortho_center = c`` asserts that cores left of ``c`` are left-orthogonal
    and cores right of ``c`` are right-orthogonal; ``None`` claims no gauge.
    """

    __slots__ = ("cores", "ortho_center")

    def __init__(self, cores: Iterable[np.ndarray], ortho_center: int | None = None):
        cores = [np.asarray(c, dtype=np.float64) for c in cores]
        if not cores:
            raise ArgumentError("an MPS needs at least one core")
        for j, c in enumerate(cores):
            if c.ndim != 3:
                raise DimensionError(f"core {j} has rank {c.ndim}, expected 3")
        if cores[0].shape[0] != 1 or cores[-1].shape[2] != 1:
            raise DimensionError("boundary bonds must have extent 1")
        for j in range(len(cores) - 1):
            if cores[j].shape[2] != cores[j + 1].shape[0]:
                raise DimensionError(
                    f"bond mismatch between sites {j} and {j + 1}: "
                    f"{cores[j].shape[2]} vs {cores[j + 1].shape[0]}")
        if ortho_center is not None and not 0 <= ortho_center < len(cores):
            raise ArgumentError(f"ortho_center {ortho_center} out of range")
        self.cores = cores
        self.ortho_center = ortho_center

    @classmethod
    def _from_valid(cls, cores: list[np.ndarray], ortho_center: int | None = None) -> "MPS":
        """Unchecked constructor for internal operations whose float64 cores
        already satisfy every invariant ``__init__`` checks."""
        m = cls.__new__(cls)
        m.cores = cores
        m.ortho_center = ortho_center
        return m

    def __len__(self) -> int:
        return len(self.cores)

    @property
    def site_dims(self) -> list[int]:
        return [c.shape[1] for c in self.cores]

    @property
    def bond_dims(self) -> list[int]:
        """Extents of the N+1 bonds, including the two trivial boundary bonds."""
        return [self.cores[0].shape[0]] + [c.shape[2] for c in self.cores]

    @property
    def max_bond(self) -> int:
        return max(self.bond_dims)

    def copy(self) -> "MPS":
        return MPS._from_valid([c.copy() for c in self.cores], self.ortho_center)

    def to_dense(self) -> np.ndarray:
        """Contract everything into an order-N array. Exponential; test scale only."""
        out = self.cores[0]
        for c in self.cores[1:]:
            out = np.tensordot(out, c, axes=(out.ndim - 1, 0))
        return out.reshape(out.shape[1:-1])

    def __repr__(self) -> str:
        return (f"MPS(n_sites={len(self)}, max_bond={self.max_bond}, "
                f"ortho_center={self.ortho_center})")


@dataclass
class BondTensor:
    """Two neighbouring cores fused over their shared bond.

    ``value`` has layout (left bond, site j, site j+1, right bond).
    """

    value: np.ndarray
    site_index: int


def product_state(site_vectors: Sequence[np.ndarray]) -> MPS:
    """Bond-1 MPS whose dense form is the outer product of the site vectors."""
    vectors = [np.asarray(v, dtype=np.float64) for v in site_vectors]
    if not vectors:
        raise ArgumentError("product_state needs at least one site vector")
    for j, v in enumerate(vectors):
        if v.ndim != 1 or v.size == 0:
            raise ArgumentError(f"site vector {j} must be a nonempty 1-d array")
        if not np.any(v):
            raise ArgumentError(f"site vector {j} is identically zero")
    return MPS([v.reshape(1, -1, 1) for v in vectors])


def inner(w: MPS, x: MPS) -> float:
    """Full overlap of two states, contracted site by site left to right."""
    if len(w) != len(x) or w.site_dims != x.site_dims:
        raise DimensionError("inner needs matching lengths and site dimensions")
    env = np.ones((1, 1))
    for wc, xc in zip(w.cores, x.cores):
        env = np.tensordot(env, wc, axes=(0, 0))            # (bx, s, bw')
        env = np.tensordot(env, xc, axes=([0, 1], [0, 1]))  # (bw', bx')
    return float(env[0, 0])


def _left_orthogonalize(cores: list[np.ndarray], start: int, stop: int) -> None:
    for j in range(start, stop):
        dl, d, dr = cores[j].shape
        q, r = np.linalg.qr(cores[j].reshape(dl * d, dr))
        cores[j] = q.reshape(dl, d, -1)
        cores[j + 1] = np.tensordot(r, cores[j + 1], axes=(1, 0))


def _right_orthogonalize(cores: list[np.ndarray], start: int, stop: int) -> None:
    for j in range(start, stop, -1):
        dl, d, dr = cores[j].shape
        # core = R^T Q^T with Q^T having orthonormal rows
        q, r = np.linalg.qr(cores[j].reshape(dl, d * dr).T)
        cores[j] = q.T.reshape(-1, d, dr)
        cores[j - 1] = np.tensordot(cores[j - 1], r, axes=(2, 1))


def canonicalize(m: MPS, center: int) -> MPS:
    """Return an equal state in mixed-canonical form centered at ``center``.

    When the input already claims a center, only the cores between the old
    and new centers are touched, so moving the center one site is O(1) QRs.
    """
    if not 0 <= center < len(m):
        raise ArgumentError(f"center {center} out of range for {len(m)} sites")
    cores = list(m.cores)
    if m.ortho_center is None:
        _left_orthogonalize(cores, 0, center)
        _right_orthogonalize(cores, len(cores) - 1, center)
    elif m.ortho_center <= center:
        _left_orthogonalize(cores, m.ortho_center, center)
    else:
        _right_orthogonalize(cores, m.ortho_center, center)
    return MPS._from_valid(cores, ortho_center=center)


def merge_bond(m: MPS, j: int) -> BondTensor:
    """Fuse cores j and j+1 into one (left, site, site, right) block.

    Requires the orthogonality center at j or j+1 so that the block carries
    the full state norm and local updates stay globally meaningful.
    """
    if not 0 <= j < len(m) - 1:
        raise ArgumentError(f"bond index {j} out of range for {len(m)} sites")
    if m.ortho_center not in (j, j + 1):
        raise StateError(f"merge_bond at {j} needs the orthogonality center at "
                         f"{j} or {j + 1}, found {m.ortho_center}")
    return BondTensor(np.tensordot(m.cores[j], m.cores[j + 1], axes=(2, 0)), j)


def split_bond(m: MPS, b: BondTensor, delta: float, chi_max: int | None,
               new_center: int) -> tuple[MPS, float]:
    """Replace cores j, j+1 of ``m`` with the truncated SVD factors of ``b``.

    Singular values are absorbed into the core at ``new_center`` (j or j+1),
    which becomes the orthogonality center. Returns the new state and the
    truncation error (sum of squared discarded singular values).
    """
    j = b.site_index
    if not 0 <= j < len(m) - 1:
        raise ArgumentError(f"bond index {j} out of range for {len(m)} sites")
    if new_center not in (j, j + 1):
        raise ArgumentError(f"new_center must be {j} or {j + 1}, got {new_center}")
    dl, d, d2, dr = b.value.shape
    if (dl != m.cores[j].shape[0] or d != m.cores[j].shape[1]
            or d2 != m.cores[j + 1].shape[1] or dr != m.cores[j + 1].shape[2]):
        raise DimensionError("bond tensor shape does not match the target sites")
    res = svd_split(b.value, (0, 1), delta, chi_max)
    k = res.rank
    if new_center == j + 1:
        left = res.left_factor
        right = (res.singular_values[:, None] * res.right_factor.reshape(k, -1)
                 ).reshape(k, d2, dr)
    else:
        left = (res.left_factor.reshape(-1, k) * res.singular_values
                ).reshape(dl, d, k)
        right = res.right_factor
    cores = list(m.cores)
    cores[j] = left
    cores[j + 1] = right
    return MPS._from_valid(cores, ortho_center=new_center), res.truncation_error


# Model file layout: magic, format version (u32), core count (u32), cores.
MPS_MAGIC = b"WMERA-MPS"
MPS_FORMAT_VERSION = 1
_U32 = struct.Struct("<I")


def write_mps_record(stream: BinaryIO, m: MPS) -> None:
    """Bare record (no magic): core count then each core as a tensor record."""
    stream.write(_U32.pack(len(m)))
    for c in m.cores:
        write_tensor(stream, c)


def read_mps_record(stream: BinaryIO) -> MPS:
    head = stream.read(_U32.size)
    if len(head) < _U32.size:
        raise FormatError("truncated state record: missing core count")
    (count,) = _U32.unpack(head)
    if count == 0:
        raise FormatError("state record with zero cores")
    try:
        return MPS([read_tensor(stream) for _ in range(count)])
    except (ArgumentError, DimensionError) as exc:
        raise FormatError(f"inconsistent state record: {exc}") from exc


def save_mps(path, m: MPS) -> None:
    with open(path, "wb") as f:
        f.write(MPS_MAGIC)
        f.write(_U32.pack(MPS_FORMAT_VERSION))
        write_mps_record(f, m)


def load_mps(path) -> MPS:
    with open(path, "rb") as f:
        magic = f.read(len(MPS_MAGIC))
        if magic != MPS_MAGIC:
            raise FormatError(f"{path}: not a model file (bad magic {magic!r})")
        raw = f.read(_U32.size)
        if len(raw) < _U32.size:
            raise FormatError(f"{path}: truncated header")
        (version,) = _U32.unpack(raw)
        if version != MPS_FORMAT_VERSION:
            raise FormatError(f"{path}: unsupported format version {version}")
        return read_mps_record(f)
