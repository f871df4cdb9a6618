"""Matrix product states, model file I/O, and the package's one MPS algebra.

Cores are order-3 arrays laid out (left bond, site, right bond); boundary
bonds have extent 1. ``MPS`` values are immutable by convention: every
operation returns a new state and never mutates core arrays in place, so
unchanged cores may be shared between instances. Gauge moves, two-site
merges and truncated SVD splits run batched on an :class:`MPSStack`;
:func:`canonicalize` and :func:`merge_bond` run them on a single state as a
stack of one that views its cores, and :func:`split_bond` splits one chain's
two cores directly, with the same rank rule. State
records, of model files and cache scale files alike, are written in one place,
:func:`write_mps_records`, and parsed in one place, :func:`read_mps_records`,
both straight from and into a stack; no other module knows their layout.
"""

from __future__ import annotations

import struct
from typing import BinaryIO, Iterable, Sequence

import numpy as np

from .errors import (ArgumentError, DataError, DimensionError, FormatError, NumericError,
                     StateError)
from .util import atomic_write, read_file


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

    def to_dense(self) -> np.ndarray:
        """Contract everything into an order-N array. Exponential; test scale only."""
        out = self.cores[0]
        for c in self.cores[1:]:
            out = np.tensordot(out, c, axes=(out.ndim - 1, 0))
        return out.reshape(out.shape[1:-1])

    def __repr__(self) -> str:
        return (f"MPS(n_sites={len(self)}, max_bond={self.max_bond}, "
                f"ortho_center={self.ortho_center})")


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


class MPSStack:
    """n chains of one length, stacked per site and zero-padded.

    ``cores[j]`` has shape (n, bl, d, br) and sample i's own core is the
    leading block ``cores[j][i, :bonds[i, j], :, :bonds[i, j + 1]]``; every
    entry outside it is zero, so padding trails every bond and a QR or SVD
    of the padded matrix contains each sample's own factors. ``bonds`` is
    (n, N + 1) and ``center`` is the orthogonality center all samples
    share, as in ``MPS.ortho_center``. Kernel steps update a stack in place.
    """

    __slots__ = ("cores", "bonds", "center")

    def __init__(self, cores: list[np.ndarray], bonds: np.ndarray,
                 center: int | None = None):
        self.cores = cores
        self.bonds = bonds
        self.center = center

    @classmethod
    def from_states(cls, states: list[MPS]) -> "MPSStack":
        """Stack states of one length whose site dimensions agree site by site."""
        if not states:
            raise ArgumentError("no states to stack")
        dims = states[0].site_dims
        if any(s.site_dims != dims for s in states):
            raise DimensionError("stacked states must share their length and site dimensions")
        return cls.concatenate([cls([c[None] for c in s.cores], np.array([s.bond_dims]),
                                    s.ortho_center) for s in states])

    @classmethod
    def concatenate(cls, stacks: list["MPSStack"]) -> "MPSStack":
        """Stacks of one length and site dimensions, one after another,
        padded only as far as the widest sample's bonds."""
        bonds = np.concatenate([s.bonds for s in stacks])
        ext = bonds.max(axis=0)
        cores = [np.zeros((len(bonds), ext[j], c.shape[2], ext[j + 1]))
                 for j, c in enumerate(stacks[0].cores)]
        lo = 0
        for s in stacks:
            hi, own = lo + len(s.bonds), s.bonds.max(axis=0)
            for j, c in enumerate(s.cores):
                cores[j][lo:hi, :own[j], :, :own[j + 1]] = c[:, :own[j], :, :own[j + 1]]
            lo = hi
        centers = {s.center for s in stacks}
        return cls(cores, bonds, centers.pop() if len(centers) == 1 else None)

    def rows(self, lo: int, hi: int) -> "MPSStack":
        """A copy of samples ``lo`` to ``hi - 1``, padded only as far as their
        own widest bonds, that kernel steps may update in place."""
        bonds = self.bonds[lo:hi].copy()
        ext = bonds.max(axis=0)
        return MPSStack([c[lo:hi, :ext[j], :, :ext[j + 1]].copy()
                         for j, c in enumerate(self.cores)], bonds, self.center)

    def states(self) -> list[MPS]:
        """Every sample as its own MPS, trimmed to its own bonds.

        The cores are views of this stack's arrays, so a later kernel step
        on the stack changes them.
        """
        return [MPS._from_valid([c[i, :b[j], :, :b[j + 1]]
                                 for j, c in enumerate(self.cores)], self.center)
                for i, b in enumerate(self.bonds.tolist())]


def _trim_left(core: np.ndarray, dims: np.ndarray) -> None:
    """Zero each sample's rows of ``core`` beyond its left bond ``dims[i]``."""
    if dims.min() < core.shape[1]:
        core *= (np.arange(core.shape[1]) < dims[:, None])[:, :, None, None]


def _trim_right(core: np.ndarray, dims: np.ndarray) -> None:
    """Zero each sample's columns of ``core`` beyond its right bond ``dims[i]``."""
    if dims.min() < core.shape[3]:
        core *= (np.arange(core.shape[3]) < dims[:, None])[:, None, None, :]


def _orthogonalize_left(st: MPSStack, j: int) -> None:
    """Make core j left-orthogonal, moving its R factor into core j + 1."""
    core, nxt = st.cores[j], st.cores[j + 1]
    n, bl, d, br = core.shape
    q, r = np.linalg.qr(core.reshape(n, bl * d, br))
    st.bonds[:, j + 1] = np.minimum(d * st.bonds[:, j], st.bonds[:, j + 1])
    k = st.bonds[:, j + 1].max()
    st.cores[j] = q[:, :, :k].reshape(n, bl, d, k)
    st.cores[j + 1] = (r[:, :k] @ nxt.reshape(n, br, -1)).reshape(n, k, nxt.shape[2], -1)
    _trim_right(st.cores[j], st.bonds[:, j + 1])
    _trim_left(st.cores[j + 1], st.bonds[:, j + 1])


def _orthogonalize_right(st: MPSStack, j: int) -> None:
    """Make core j right-orthogonal, moving its R factor into core j - 1.

    The QR runs on rows ordered (right bond, site), not (site, right bond),
    so that padded rows trail and each sample's factors are leading blocks.
    """
    core, prev = st.cores[j], st.cores[j - 1]
    n, bl, d, br = core.shape
    q, r = np.linalg.qr(core.transpose(0, 3, 2, 1).reshape(n, br * d, bl))
    st.bonds[:, j] = np.minimum(st.bonds[:, j], d * st.bonds[:, j + 1])
    k = st.bonds[:, j].max()
    st.cores[j] = q[:, :, :k].reshape(n, br, d, k).transpose(0, 3, 2, 1)
    st.cores[j - 1] = (prev.reshape(n, -1, bl) @ r[:, :k].transpose(0, 2, 1)
                       ).reshape(n, prev.shape[1], prev.shape[2], k)
    _trim_left(st.cores[j], st.bonds[:, j])
    _trim_right(st.cores[j - 1], st.bonds[:, j])


def _canonicalize(st: MPSStack, center: int) -> None:
    """Move every sample to mixed-canonical form centered at ``center``."""
    if st.center is None:
        for j in range(center):
            _orthogonalize_left(st, j)
        for j in range(len(st.cores) - 1, center, -1):
            _orthogonalize_right(st, j)
    elif st.center <= center:
        for j in range(st.center, center):
            _orthogonalize_left(st, j)
    else:
        for j in range(st.center, center, -1):
            _orthogonalize_right(st, j)
    st.center = center


def _merge(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Neighbouring stacked cores fused into blocks of shape (n, bl, d, d', br)."""
    n, bl, d, bm = a.shape
    return (a.reshape(n, bl * d, bm) @ b.reshape(n, bm, -1)).reshape(
        n, bl, d, b.shape[2], b.shape[3])


def svd_split(mats: np.ndarray, delta: float = 0.0, chi_max: int | None = None,
              size: np.ndarray | None = None):
    """Truncated SVD of a stack of matrices (n, rows, cols).

    Matrix i keeps its singular values >= ``delta``, at most ``chi_max`` and
    at most ``size[i]`` (its own extent inside padding), but at least one.
    Returns ``(u, s, vh, keep, err)``: factors cut to the largest kept rank
    (matrix i's past ``keep[i]`` are the caller's to zero), each kept rank,
    and each truncation error (sum of squared discarded singular values).
    """
    if delta < 0:
        raise ArgumentError("delta must be >= 0")
    if chi_max is not None and chi_max < 1:
        raise ArgumentError("chi_max must be >= 1")
    try:
        u, s, vh = np.linalg.svd(mats, full_matrices=False)
    except np.linalg.LinAlgError as exc:
        raise NumericError(f"SVD failed to converge on a stack of {len(mats)} "
                           f"{mats.shape[1]}x{mats.shape[2]} matrices") from exc
    keep = (s >= delta).sum(axis=1)
    cap = s.shape[1] if size is None else size
    if chi_max is not None:
        cap = np.minimum(cap, chi_max)
    keep = np.maximum(np.minimum(keep, cap), 1)
    k = int(keep.max())
    # singular values are sorted, so matrix i discards s[i, keep[i]:]
    tail = np.where(np.arange(s.shape[1]) >= keep[:, None], s, 0.0)
    err = np.einsum("ij,ij->i", tail, tail)  # sets no overflow flag; inf is caught below
    if not np.isfinite(err).all():
        raise NumericError(f"truncation error out of floating-point range: largest "
                           f"singular value {s[:, 0].max():.3g}")
    return u[:, :, :k], s[:, :k], vh[:, :k], keep, err


def _absorb(u: np.ndarray, s: np.ndarray, vh: np.ndarray,
            right: bool) -> tuple[np.ndarray, np.ndarray]:
    """Stacked SVD factors with the singular values absorbed into ``vh``
    (``right``) or into ``u``."""
    if right:
        return u, s[:, :, None] * vh
    return u * s[:, None, :], vh


def _split(st: MPSStack, j: int, block: np.ndarray, delta: float,
           chi_max: int | None, new_center: int) -> np.ndarray:
    """Replace cores j, j + 1 with the truncated SVD factors of ``block``.

    Each sample keeps the rank :func:`svd_split` picks for it alone. The
    singular values are absorbed into the core at ``new_center`` (j or
    j + 1), which becomes the center. Returns each sample's truncation error.
    """
    n, bl, d, d2, br = block.shape
    size = np.minimum(d * st.bonds[:, j], d2 * st.bonds[:, j + 2])
    u, s, vh, keep, err = svd_split(block.reshape(n, bl * d, d2 * br), delta, chi_max, size)
    u, vh = _absorb(u, s, vh, new_center == j + 1)
    st.cores[j] = u.reshape(n, bl, d, -1)
    st.cores[j + 1] = vh.reshape(n, -1, d2, br)
    st.bonds[:, j + 1] = keep
    st.center = new_center
    # Singular vectors of a padded matrix can reach into the padding where
    # the sample's own singular values are zero; cut them back on every side.
    _trim_left(st.cores[j], st.bonds[:, j])
    _trim_right(st.cores[j], keep)
    _trim_left(st.cores[j + 1], keep)
    _trim_right(st.cores[j + 1], st.bonds[:, j + 2])
    return err


def canonicalize(m: MPS, center: int) -> MPS:
    """Return an equal state in mixed-canonical form centered at ``center``.

    When the input already claims a center, only the cores between the old
    and new centers are touched, so moving the center one site is O(1) QRs.
    """
    if not 0 <= center < len(m):
        raise ArgumentError(f"center {center} out of range for {len(m)} sites")
    st = MPSStack([c[None] for c in m.cores], np.array([m.bond_dims]), m.ortho_center)
    _canonicalize(st, center)
    return MPS._from_valid([c[0] for c in st.cores], center)  # one chain: no padding


def merge_bond(m: MPS, j: int) -> np.ndarray:
    """Fuse cores j and j+1 into one (left, site, site, right) block.

    Requires the orthogonality center at j or j+1 so that the block carries
    the full state norm and local updates stay globally meaningful.
    """
    if not 0 <= j < len(m) - 1:
        raise ArgumentError(f"bond index {j} out of range for {len(m)} sites")
    if m.ortho_center not in (j, j + 1):
        raise StateError(f"merge_bond at {j} needs the orthogonality center at "
                         f"{j} or {j + 1}, found {m.ortho_center}")
    return _merge(m.cores[j][None], m.cores[j + 1][None])[0]


def split_bond(m: MPS, j: int, block: np.ndarray, delta: float, chi_max: int | None,
               new_center: int) -> tuple[MPS, float]:
    """Replace cores j, j+1 of ``m`` with the truncated SVD factors of ``block``.

    Singular values are absorbed into the core at ``new_center`` (j or j+1),
    which becomes the orthogonality center. Returns the new state and the
    truncation error (sum of squared discarded singular values).
    """
    if not 0 <= j < len(m) - 1:
        raise ArgumentError(f"bond index {j} out of range for {len(m)} sites")
    if new_center not in (j, j + 1):
        raise ArgumentError(f"new_center must be {j} or {j + 1}, got {new_center}")
    a, b = m.cores[j], m.cores[j + 1]
    if block.shape != a.shape[:2] + b.shape[1:]:
        raise DimensionError("bond tensor shape does not match the target sites")
    # one chain has no padding to trim: split the block as a stack of one
    bl, d, d2, br = block.shape
    u, s, vh, _, err = svd_split(block.reshape(1, bl * d, d2 * br), delta, chi_max)
    u, vh = _absorb(u, s, vh, new_center == j + 1)
    cores = list(m.cores)
    cores[j], cores[j + 1] = u[0].reshape(bl, d, -1), vh[0].reshape(-1, d2, br)
    return MPS._from_valid(cores, new_center), float(err[0])


# Model file layout: magic, format version (u32), one state record. A state
# record is its core count (u32), then per core a header (rank 3 as u32, the
# three extents as u64) and the core's values as f64, all little-endian;
# cache scale files are state records back to back.
MPS_MAGIC = b"WMERA-MPS"
MPS_FORMAT_VERSION = 1
_U32 = struct.Struct("<I")
_MODEL_HEAD = MPS_MAGIC + _U32.pack(MPS_FORMAT_VERSION)
_CORE_HEAD = struct.Struct("<IQQQ")  # header of a core: rank 3, extents


def write_mps_records(stream: BinaryIO, stack: MPSStack, digest=None) -> None:
    """Every sample of ``stack``, trimmed to its own bonds, as one state record.

    Records are written one at a time, so no more than one record's bytes
    are held beyond the stack; ``digest`` (a :mod:`hashlib` object), when
    given, is fed the same bytes.
    """
    head = _U32.pack(len(stack.cores))
    cores = [c.astype("<f8", copy=False) for c in stack.cores]
    for i, b in enumerate(stack.bonds.tolist()):
        parts = [head]
        for j, c in enumerate(cores):
            core = c[i, :b[j], :, :b[j + 1]]
            parts += (_CORE_HEAD.pack(3, *core.shape), core.tobytes())
        record = b"".join(parts)
        stream.write(record)
        if digest is not None:
            digest.update(record)


def read_mps_records(buf: bytes, count: int) -> MPSStack:
    """``count`` state records that fill ``buf`` exactly, as one zero-padded
    stack.

    The records must share their length and, site by site, their site
    dimension. Every header is checked, and every extent against the bytes
    the buffer still holds, before a core array is allocated; any defect,
    trailing bytes included, is a FormatError.
    """
    if count < 1:
        raise ArgumentError("read_mps_records needs at least one record")
    size, pos = len(buf), 0
    unpack_core, head_size = _CORE_HEAD.unpack_from, _CORE_HEAD.size
    bonds, offsets, dims = [], [], None
    i = 0
    try:
        for i in range(count):
            (n_cores,) = _U32.unpack_from(buf, pos)
            pos += _U32.size
            if n_cores == 0:
                raise FormatError(f"state record {i} has zero cores")
            if dims is not None and n_cores != len(dims):
                raise FormatError(f"state record {i} has {n_cores} cores, "
                                  f"record 0 has {len(dims)}")
            left, row_bonds, row_offsets, row_dims = 1, [1], [], []
            for j in range(n_cores):
                rank, bl, d, br = unpack_core(buf, pos)
                pos += head_size
                n_bytes = 8 * bl * d * br
                if rank != 3 or bl != left or not n_bytes:
                    raise FormatError(f"state record {i}: core {j} has rank {rank} and "
                                      f"extents ({bl}, {d}, {br}) after a bond of {left}")
                if n_bytes > size - pos:
                    raise FormatError(f"truncated state record {i}: core {j} claims "
                                      f"{n_bytes} bytes, {size - pos} left")
                row_bonds.append(br)
                row_offsets.append(pos)
                row_dims.append(d)
                pos += n_bytes
                left = br
            if left != 1:
                raise FormatError(f"state record {i}: right boundary bond has extent {left}")
            if dims is None:
                dims = row_dims
            elif row_dims != dims:
                raise FormatError(f"state record {i}: site dimensions differ from record 0")
            bonds.append(row_bonds)
            offsets.append(row_offsets)
    except struct.error:
        raise FormatError(f"truncated state record {i}: a header is cut off") from None
    if pos != size:
        raise FormatError(f"{size - pos} bytes after the last state record")
    ext = np.max(bonds, axis=0)
    cores = [np.zeros((count, ext[j], d, ext[j + 1])) for j, d in enumerate(dims)]
    # Every field before a core's values is 4 or 28 bytes and every value 8,
    # so values start 0 or 4 bytes past a multiple of 8: slice them from one
    # of two word views of the buffer.
    words = [np.frombuffer(buf, "<f8", (size - r) // 8, r) for r in (0, 4)]
    for i, (row_bonds, row_offsets) in enumerate(zip(bonds, offsets)):
        for j, off in enumerate(row_offsets):
            bl, d, br = row_bonds[j], dims[j], row_bonds[j + 1]
            w = off >> 3
            cores[j][i, :bl, :, :br] = words[off >> 2 & 1][w:w + bl * d * br].reshape(bl, d, br)
    return MPSStack(cores, np.array(bonds))


def save_mps(path, m: MPS) -> None:
    with atomic_write(path) as f:
        f.write(_MODEL_HEAD)
        write_mps_records(f, MPSStack([c[None] for c in m.cores], np.array([m.bond_dims])))


def load_mps(path) -> MPS:
    data = read_file(path, StateError, f"no trained model at {path}; run 'wmera train' first")
    head = data[:len(_MODEL_HEAD)]
    if head != _MODEL_HEAD:
        raise FormatError(f"{path}: not a model file of format version {MPS_FORMAT_VERSION}")
    try:
        m = read_mps_records(data[len(head):], 1).states()[0]
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
    if not all(np.isfinite(c).all() for c in m.cores):
        raise DataError(f"{path}: the model holds a non-finite value")
    return m
