"""Coarse-graining layers applied to many MPS-encoded samples at once, plus
the on-disk cache of every sample at every scale.

Samples go through a layer as an :class:`~wmera.mps.MPSStack`, one
zero-padded array of shape (n, left bond, 2, right bond) per site, and every
gauge move, merge and split is a step of the batched MPS algebra in
:mod:`wmera.mps`, so each sample's rank at every cut is the one
:func:`~wmera.mps.svd_split` would choose for that sample alone.

A layer applies its disentanglers pair by pair as two-site gates, each
followed by a truncated SVD re-split. The pair straddling the chain ends
(periodic wrap) cannot be merged across the open boundary, so it is applied
as a sum of per-end operator pairs. The end operators leave the sum's index
on the two boundary bonds; the isometries then contract the even pairs into
coarse sites, halving the chain. Closing the loop would carry the index
through every interior bond, multiplying it by the gate's operator rank (4
for Daub4), but that enlarged chain is never built: one left-to-right pass
keeps only the R factor of each of its left parts, and one right-to-left
pass of one-site SVDs against those R factors cuts every bond of the
coarse chain to its minimal rank. Every layer's output therefore has its
orthogonality center at site 0, where the next layer's first gate (at
sites 1, 2) is one QR away. Fine-graining runs the same wrap gate on the
fine chain, without isometries, and so also returns weights centered at
site 0.

A dataset is one stack per scale, from encoding through the cache to
training. The adjacent gates of a layer run once on the scale's whole
stack; only the wrap stage, whose R factors are the one large
intermediate (at most half the enlarged chain), runs in chunks of
consecutive samples whose enlarged stack, counted from the bonds the
isometries actually leave, would fit ``_CHUNK_BYTES``. A chunk holds at
least one sample, and the coarser chunks are joined into the next scale's
stack. Single states
(:func:`apply_layer`, :func:`apply_pair_gates` and fine-graining) run the
same kernel as a stack of one.

The on-disk cache is a manifest plus one file of state records per scale;
:mod:`wmera.mps` writes and parses the records straight from and into the
scale's stack, and this module keeps the manifest.
"""

from __future__ import annotations

import hashlib
import json
import math
import re
from dataclasses import dataclass
from pathlib import Path
from typing import Sequence

import numpy as np

from .errors import (
    ArgumentError,
    DataError,
    DimensionError,
    FormatError,
    StateError,
)
from .mps import (MPS, MPSStack, _canonicalize, _merge, _split, _trim_left, _trim_right,
                  inner, product_state, read_mps_records, svd_split, write_mps_records)
from .util import atomic_write, read_file, read_json, sha256_hex
from .wavelet import WaveletMeraLayer, build_daub4_layer

# A gate contracts its first (row) index with the incoming pair state:
# out[ab] = sum_st in[st] gate[st, ab]. This orientation, together with
# placing disentanglers on the (2i+1, 2i+2) pairs, is what makes a layer act
# as the stride-2 stencil of daub4_from_angles; single_particle_response and
# its tests pin the convention.

_IDENTITY4 = np.eye(4)

# Part of the cache fingerprint: raise it whenever what a layer computes
# changes, so that caches an earlier layer kernel built are rebuilt.
LAYER_REVISION = 4

# Bound on the bytes one chunk's wrap-enlarged stack would take. Only the
# wrap stage is chunked: it never builds that stack, but holds the R factor
# of each of its left parts until the compression ends, at most half those
# bytes, so this caps the memory of coarse-graining independently of the
# dataset size, while the adjacent gates run on every sample at once.
_CHUNK_BYTES = 4 << 20


def _check_sites(st: MPSStack, n_sites: int) -> None:
    if len(st.cores) != n_sites:
        raise DimensionError(f"layer expects {n_sites} sites, states have {len(st.cores)}")
    if any(c.shape[2] != 2 for c in st.cores):
        raise DimensionError("layers expect site dimension 2 everywhere")


def _gate_matrix(gate: np.ndarray) -> np.ndarray:
    gate = np.asarray(gate, dtype=np.float64)
    if gate.shape != (4, 4):
        raise DimensionError(f"two-site gates must be 4x4, got {gate.shape}")
    return gate


def _apply_gate_adjacent(st: MPSStack, gate: np.ndarray, j: int, delta: float,
                         chi_max: int | None) -> np.ndarray:
    """Gate on the pair (j, j + 1) of every sample, then a truncated re-split."""
    _canonicalize(st, j)
    pair = _merge(st.cores[j], st.cores[j + 1])
    n, bl, _, _, br = pair.shape
    gated = gate.T @ pair.reshape(n, bl, 4, br)
    return _split(st, j, gated.reshape(n, bl, 2, 2, br), delta, chi_max, j + 1)


def _end_operator_pairs(gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Factor a two-site gate into per-end operator pairs.

    Returns arrays (r, 2, 2): entry r acts on one end as in->out, and the
    gate equals sum_r left_ops[r] (x) right_ops[r].
    """
    k = gate.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(k)
    keep = s > 1e-14 * max(s[0], 1.0)
    root = np.sqrt(s[keep])
    left_ops = (u[:, keep] * root).T.reshape(-1, 2, 2)
    right_ops = (root[:, None] * vh[keep]).reshape(-1, 2, 2)
    return left_ops, right_ops


def _compress(st: MPSStack, k: int, delta: float, chi_max: int | None) -> np.ndarray:
    """Close a chain whose two boundary bonds carry one loop index of extent
    ``k`` and compress it to minimal bonds, centered at site 0.

    The closed chain has cores A_0 = C_0 with the loop index moved to its
    right bond and A_j = C_j (x) I_k after it, each bond indexed (bond,
    loop). No A_j is formed. Pass 1, left to right, keeps only the R
    factor of each left part A_0 ... A_{j-1}; pass 2, right to left, cuts
    at j by a one-site SVD of R_j F_j, where F_j is A_j times what the sweep
    carried in from the right: Vh becomes the right-orthogonal core j and
    F_j Vh^T moves into site j - 1. Each left part is Q_j R_j with
    orthonormal Q_j, so these are the chain's own Schmidt values and the
    kept bonds are minimal. Updates ``st`` in place and returns each
    sample's truncation error; ``k = 1`` compresses an open chain.
    """
    cores, bonds = st.cores, st.bonds
    n, last = len(bonds), len(cores) - 1
    first = cores[0].transpose(0, 2, 3, 1).reshape(n, 2, -1)  # A_0: (s, (bond, loop))
    rs = [np.linalg.qr(first, mode="r")]
    ranks = [np.minimum(2, k * bonds[:, 1])]  # each sample's own rows of R_1
    bonds[:, [0, -1]] = 1
    for j in range(1, last):
        c = cores[j]
        bl, br = c.shape[1], c.shape[3]
        # R_j (C_j (x) I_k): the loop index rides along the product
        r = rs[-1].reshape(n, -1, bl, k).transpose(0, 1, 3, 2).reshape(n, -1, bl)
        m = (r @ c.reshape(n, bl, -1)).reshape(n, -1, k, 2, br).transpose(0, 1, 3, 4, 2)
        rs.append(np.linalg.qr(m.reshape(n, -1, br * k), mode="r"))
        ranks.append(np.minimum(2 * ranks[-1], k * bonds[:, j + 1]))
    err = np.zeros(n)
    f = cores[last].transpose(0, 1, 3, 2).reshape(n, -1, 2)  # F_last: ((bond, loop), s)
    for j in range(last, 0, -1):
        size = np.minimum(ranks[j - 1], 2 * bonds[:, j + 1])
        _, _, vh, keep, e = svd_split(rs[j - 1] @ f, delta, chi_max, size)
        err += e
        core = vh.reshape(n, -1, 2, f.shape[2] // 2)
        _trim_left(core, keep)
        _trim_right(core, bonds[:, j + 1])
        cores[j], bonds[:, j] = core, keep
        g = f @ core.reshape(n, core.shape[1], -1).transpose(0, 2, 1)
        if j > 1:  # (C_{j-1} (x) I_k) G, the loop index again riding along
            c = cores[j - 1]
            bl, bm = c.shape[1], c.shape[3]
            f = (c.reshape(n, -1, bm) @ g.reshape(n, bm, -1)).reshape(n, bl, 2, k, -1)
            f = f.transpose(0, 1, 3, 2, 4).reshape(n, bl * k, -1)
    cores[0] = (first @ g).reshape(n, 1, 2, -1)
    st.center = 0
    return err


def _apply_gate_straddling(st: MPSStack, gate: np.ndarray, delta: float,
                           chi_max: int | None, layer: WaveletMeraLayer | None = None
                           ) -> tuple[MPSStack, np.ndarray]:
    """Gate on the (last, first) pair, then one compression; with a
    ``layer``, its isometries run in between.

    A joint re-split of the two end sites would thread a bond around the
    loop, so every state becomes a sum over the gate's per-end operator
    pairs. The end operators leave the pair index on the two boundary bonds,
    where the isometries pass it through, and :func:`_compress` closes the
    loop and restores minimal bonds, over the N/2 coarse sites when there
    is a layer. Returns the stack and each sample's truncation error.
    """
    left_ops, right_ops = _end_operator_pairs(gate)
    k = len(left_ops)
    st.cores[0] = np.einsum("btu,nltr->nbur", right_ops, st.cores[0])
    st.cores[-1] = np.einsum("bsa,nlsr->nlab", left_ops, st.cores[-1])
    st.bonds[:, [0, -1]] = k
    if layer is not None:
        st = apply_isometries(st, layer)
    return st, _compress(st, k, delta, chi_max)


def _apply_pair_gates(st: MPSStack, gate: np.ndarray, delta: float, chi_max: int | None,
                      layer: WaveletMeraLayer | None = None) -> tuple[MPSStack, np.ndarray]:
    """Apply ``gate`` to every pair (2i+1, 2i+2 mod N) of every sample; with
    a ``layer``, contract its even pairs into coarse sites as well.

    The adjacent gates update ``st`` in place, all samples at once; the wrap
    gate runs once per :func:`_chunks` range of rows. Returns
    the resulting stack and each sample's summed truncation error. The
    identity gate is skipped.
    """
    n_sites = len(st.cores)
    if n_sites < 4 or n_sites % 2:
        raise DimensionError(f"pair gates need an even chain of >= 4 sites, got {n_sites}")
    gate = _gate_matrix(gate)
    err = np.zeros(len(st.bonds))
    if np.array_equal(gate, _IDENTITY4):
        return (st if layer is None else apply_isometries(st, layer)), err
    for i in range(n_sites // 2 - 1):
        err += _apply_gate_adjacent(st, gate, 2 * i + 1, delta, chi_max)
    # the bonds the wrap gate enlarges: the isometries keep the even cuts
    grown = (st.bonds if layer is None else st.bonds[:, ::2]).copy()
    grown[:, 1:-1] *= len(_end_operator_pairs(gate)[0])
    ranges = _chunks(grown)
    if len(ranges) == 1:
        st, wrap_err = _apply_gate_straddling(st, gate, delta, chi_max, layer)
        return st, err + wrap_err
    parts = [_apply_gate_straddling(st.rows(lo, hi), gate, delta, chi_max, layer)
             for lo, hi in ranges]
    return (MPSStack.concatenate([part for part, _ in parts]),
            err + np.concatenate([wrap_err for _, wrap_err in parts]))


def apply_pair_gates(m: MPS, gate: np.ndarray, delta: float,
                     chi_max: int | None) -> tuple[MPS, float]:
    """Apply ``gate`` to every pair (2i+1, 2i+2 mod N), wrapping periodically.

    Returns the new state and the summed truncation error. The identity gate
    short-circuits to an equal state.
    """
    st = MPSStack.from_states([m])
    _check_sites(st, len(m))
    st, err = _apply_pair_gates(st, gate, delta, chi_max)
    return st.states()[0], float(err[0])


def apply_isometries(st: MPSStack, layer: WaveletMeraLayer) -> MPSStack:
    """Contract every even pair (2i, 2i+1) of every sample into one coarse site."""
    cores = []
    for j in range(0, len(st.cores), 2):
        pair = _merge(st.cores[j], st.cores[j + 1])
        n, bl, _, _, br = pair.shape
        cores.append(layer.isometry @ pair.reshape(n, bl, 4, br))
    return MPSStack(cores, st.bonds[:, ::2].copy())


def _chunks(bonds: np.ndarray) -> list[tuple[int, int]]:
    """Row ranges [lo, hi) of consecutive samples whose stack, with the
    given per-sample ``bonds`` (n, L + 1) and site dimension 2, fits
    _CHUNK_BYTES when padded to the widest of them; a range holds at least
    one sample. The wrap stage passes the bonds of its enlarged chain,
    which it never builds: the R factors it holds instead take at most half
    of that stack's bytes."""
    chunks, start = [], 0
    extent = bonds[0]
    for i in range(1, len(bonds)):
        wider = np.maximum(extent, bonds[i])
        if (i - start + 1) * 16 * int(wider[:-1] @ wider[1:]) > _CHUNK_BYTES:
            chunks.append((start, i))
            start, wider = i, bonds[i]
        extent = wider
    chunks.append((start, len(bonds)))
    return chunks


def _layer_states(st: MPSStack, layer: WaveletMeraLayer, delta: float,
                  chi_max: int | None) -> MPSStack:
    """Every sample of ``st`` one layer coarser; ``st`` is left as it was."""
    _check_sites(st, layer.n_sites_in)
    # kernel steps replace cores and never write into them, so a new list
    # and a copy of the bonds keep ``st`` intact
    own = MPSStack(list(st.cores), st.bonds.copy(), st.center)
    return _apply_pair_gates(own, layer.disentangler, delta, chi_max, layer)[0]


def apply_layer(m: MPS, layer: WaveletMeraLayer, delta_data: float = 1e-12,
                chi_data: int | None = 16) -> MPS:
    return _layer_states(MPSStack.from_states([m]), layer, delta_data, chi_data).states()[0]


def _ladder(st: MPSStack, n_layers: int, delta_data: float,
            chi_data: int | None) -> list[MPSStack]:
    n_sites = len(st.cores)
    if n_layers < 0:
        raise ArgumentError("n_layers must be >= 0")
    if n_layers:
        if n_sites % (1 << n_layers):
            raise ArgumentError(f"{n_sites} sites not divisible by 2**{n_layers}")
        if n_sites >> (n_layers - 1) < 4:
            raise ArgumentError(f"{n_layers} layers on {n_sites} sites would leave "
                                "fewer than two coarse sites")
    scales = [st]
    for _ in range(n_layers):
        layer = build_daub4_layer(len(scales[-1].cores))
        scales.append(_layer_states(scales[-1], layer, delta_data, chi_data))
    return scales


def coarse_grain_sample(m: MPS, n_layers: int, delta_data: float = 1e-12,
                        chi_data: int | None = 16) -> list[MPS]:
    """Full ladder [input, one layer coarser, ..., n_layers coarser].

    The chain length must be divisible by 2**n_layers and the coarsest chain
    must keep at least two sites.
    """
    return [scale.states()[0] for scale in
            _ladder(MPSStack.from_states([m]), n_layers, delta_data, chi_data)]


def single_particle_response(layer: WaveletMeraLayer, n: int | None = None) -> np.ndarray:
    """Linear response matrix of one layer, shape (n/2, n).

    Entry (i, j) is the coarse amplitude on the excited component of site i
    when the input is a product state excited at fine site j only. Rows are
    shifted copies of the layer's 4-tap stencil at stride 2, periodic.
    """
    if n is None:
        n = layer.n_sites_in
    if n != layer.n_sites_in:
        raise ArgumentError(f"n={n} does not match the layer ({layer.n_sites_in})")
    ground = np.array([1.0, 0.0])
    excited = np.array([0.0, 1.0])
    probes = [product_state([excited if i == k else ground for i in range(n // 2)])
              for k in range(n // 2)]
    fines = [product_state([excited if i == j else ground for i in range(n)])
             for j in range(n)]
    coarse = _layer_states(MPSStack.from_states(fines), layer, 0.0, None).states()
    resp = np.zeros((n // 2, n))
    for j in range(n):
        for k, probe in enumerate(probes):
            resp[k, j] = inner(probe, coarse[j])
    return resp


class ScaleData:
    """Samples and labels at one coarse-graining depth.

    The samples are held as one read-only :class:`MPSStack`, ``stack``,
    which training, outputs, evaluation and the cache all use. It is given
    directly (its arrays are then made read-only) or stacked from a list of
    states; ``samples`` views each sample as its own MPS.
    """

    __slots__ = ("stack", "labels")

    def __init__(self, samples: MPSStack | Sequence[MPS], labels):
        if not isinstance(samples, MPSStack):
            samples = MPSStack.from_states(list(samples))
        self.labels = np.asarray(labels, dtype=np.float64)
        if self.labels.ndim != 1 or len(self.labels) != len(samples.bonds):
            raise DimensionError("labels must be one scalar per sample")
        for c in samples.cores:
            c.flags.writeable = False
        self.stack = samples

    @property
    def samples(self) -> list[MPS]:
        return self.stack.states()

    @property
    def n_samples(self) -> int:
        return len(self.stack.bonds)

    @property
    def n_sites(self) -> int:
        return len(self.stack.cores)


@dataclass
class ScaleCache:
    """Ladder of ScaleData from finest (index 0) to coarsest, plus settings."""

    scales: list[ScaleData]
    delta_data: float = 1e-12
    chi_data: int | None = 16
    fingerprint: str = ""
    test_samples: int | None = None  # size of the test split, kept with a train split

    def __post_init__(self):
        if not self.scales:
            raise ArgumentError("a cache needs at least one scale")
        for i in range(len(self.scales) - 1):
            if self.scales[i].n_sites != 2 * self.scales[i + 1].n_sites:
                raise DimensionError("scale widths must halve at each level")
            if not np.array_equal(self.scales[i].labels, self.scales[i + 1].labels):
                raise DataError("labels must be identical across scales")

    @property
    def n_scales(self) -> int:
        return len(self.scales)


def coarse_grain_dataset(samples: MPSStack | Sequence[MPS], labels, n_layers: int,
                         delta_data: float = 1e-12, chi_data: int | None = 16,
                         fingerprint: str = "") -> ScaleCache:
    """Coarse-grain every sample through n_layers and collect the ladder.

    A given stack becomes the read-only finest scale of the result.
    """
    labels = np.asarray(labels, dtype=np.float64)
    st = samples if isinstance(samples, MPSStack) else MPSStack.from_states(list(samples))
    if len(labels) != len(st.bonds):
        raise DimensionError("labels must be one scalar per sample")
    scales = _ladder(st, n_layers, delta_data, chi_data)
    return ScaleCache([ScaleData(scale, labels.copy()) for scale in scales],
                      delta_data, chi_data, fingerprint)


# On-disk layout: manifest.json plus one binary file per scale holding the
# sample states in chain order.
_CACHE_FORMAT = "wmera-cache"
_CACHE_VERSION = 1


def save_cache(cache: ScaleCache, directory) -> None:
    """Write the scale files, then the manifest that vouches for them.

    Each scale file is written straight from the scale's stack and hashed
    from the bytes written. An existing manifest is removed first and the
    new one is moved into place only after every scale file is written, so
    an interrupted save leaves no manifest and the next load fails with
    StateError.
    """
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    manifest_path = directory / "manifest.json"
    manifest_path.unlink(missing_ok=True)
    scales_meta = []
    for level, sd in enumerate(cache.scales):
        name = f"scale_{level:03d}.bin"
        digest = hashlib.sha256()
        with open(directory / name, "wb") as f:
            write_mps_records(f, sd.stack, digest)
        scales_meta.append({
            "file": name,
            "n_sites": sd.n_sites,
            "n_samples": sd.n_samples,
            "sha256": digest.hexdigest(),
        })
    manifest = {
        "format": _CACHE_FORMAT,
        "version": _CACHE_VERSION,
        "fingerprint": cache.fingerprint,
        "delta_data": cache.delta_data,
        "chi_data": cache.chi_data,
        "labels": [float(y) for y in cache.scales[0].labels],
        "scales": scales_meta,
    }
    if cache.test_samples is not None:
        manifest["test_samples"] = cache.test_samples
    with atomic_write(manifest_path, text=True) as f:
        json.dump(manifest, f, indent=1, sort_keys=True)
        f.write("\n")


def _is_int(v) -> bool:
    return type(v) is int  # JSON integers load as int, true/false as bool


def _is_number(v) -> bool:
    return type(v) in (int, float) and math.isfinite(v)


def _check_manifest(path: Path, manifest) -> None:
    """FormatError unless every field that :func:`load_cache` reads is sound."""
    def bad(what: str):
        raise FormatError(f"{path}: {what}")

    if not isinstance(manifest, dict) or manifest.get("format") != _CACHE_FORMAT:
        bad("not a cache manifest")
    if manifest.get("version") != _CACHE_VERSION:
        bad(f"unsupported cache version {manifest.get('version')}")
    if not isinstance(manifest.get("fingerprint", ""), str):
        bad("fingerprint must be a string")
    labels = manifest.get("labels")
    if not isinstance(labels, list) or not all(_is_number(y) for y in labels):
        bad("labels must be a list of finite numbers")
    scales = manifest.get("scales")
    if not isinstance(scales, list) or not scales:
        bad("scales must be a nonempty list")
    for level, meta in enumerate(scales):
        if not isinstance(meta, dict):
            bad(f"scale {level} must be an object")
        name = meta.get("file")
        if (not isinstance(name, str) or not re.fullmatch(r"[\w.-]+", name)
                or name in (".", "..")):
            bad(f"scale {level}: file must be a plain file name")
        n_sites = meta.get("n_sites")
        if not _is_int(n_sites) or n_sites < 1:
            bad(f"scale {level}: n_sites must be a positive integer")
        if level and 2 * n_sites != scales[level - 1]["n_sites"]:
            bad(f"scale {level}: n_sites must halve from scale to scale")
        n_samples = meta.get("n_samples")
        if not _is_int(n_samples) or n_samples < 1 or n_samples != len(labels):
            bad(f"scale {level}: n_samples must be a positive integer, one per label")
        digest = meta.get("sha256")
        if not isinstance(digest, str) or not re.fullmatch("[0-9a-f]{64}", digest):
            bad(f"scale {level}: sha256 must be 64 hex digits")
    if not _is_number(manifest.get("delta_data")) or manifest["delta_data"] < 0:
        bad("delta_data must be a number >= 0")
    chi = manifest.get("chi_data", 0)
    if chi is not None and (not _is_int(chi) or chi < 1):
        bad("chi_data must be null or an integer >= 1")
    count = manifest.get("test_samples")
    if count is not None and (not _is_int(count) or count < 0):
        bad("test_samples must be an integer >= 0")


def read_cache_manifest(directory) -> dict:
    """The manifest of the cache at ``directory``, checked field by field;
    StateError when it is absent, as after an unfinished build."""
    path = Path(directory) / "manifest.json"
    manifest = read_json(path, StateError, f"no preprocessing cache at {directory}; "
                                           "run 'wmera preprocess' first")
    _check_manifest(path, manifest)
    return manifest


def load_cache(directory, manifest: dict | None = None) -> ScaleCache:
    """Load and verify a cache; checksum mismatches are hard errors.

    ``manifest`` is the one :func:`read_cache_manifest` returned for
    ``directory``, read here when not given. Each scale file is read once:
    its bytes are hashed, then parsed straight into the scale's stack.
    """
    directory = Path(directory)
    if manifest is None:
        manifest = read_cache_manifest(directory)
    labels = np.asarray(manifest["labels"], dtype=np.float64)
    scales = []
    for meta in manifest["scales"]:
        path = directory / meta["file"]
        data = read_file(path, StateError, f"cache file missing: {path}")
        digest = sha256_hex(data)
        if digest != meta["sha256"]:
            raise DataError(f"checksum mismatch for {path}: manifest says "
                            f"{meta['sha256'][:12]}..., file is {digest[:12]}...")
        try:
            st = read_mps_records(data, meta["n_samples"])
        except FormatError as exc:
            raise FormatError(f"{path}: {exc}") from None
        if len(st.cores) != meta["n_sites"]:
            raise FormatError(f"{path}: sample width disagrees with manifest")
        scales.append(ScaleData(st, labels.copy()))
    return ScaleCache(scales, float(manifest["delta_data"]), manifest["chi_data"],
                      manifest.get("fingerprint", ""), manifest.get("test_samples"))
