"""Raw data ingestion: WAV and CSV readers, zero padding, sliding windows,
Haar pre-passes, feature scaling, and the product-state feature map.

A split travels from the readers to the encoder as one (samples, sites)
array and one label vector; windowing, Haar passes and scaling act on the
whole array. The readers reject what no later step could use (non-finite
CSV cells, clips without frames, undecodable text), naming line or byte.

The feature map sends each scalar x to the site vector (1, x); the leading
component is a constant channel that survives every coarse-graining layer
unchanged and acts as the model's bias. Features are therefore expected in
[0, 1], which :func:`fit_scaler` / :func:`apply_scaler` arrange.
"""

from __future__ import annotations

import csv
import io
import math
import struct
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError, DataError, FormatError, NumericError
from .mps import MPSStack
from .util import read_file
from .wavelet import haar_step

_LOG_MAX = math.log(np.finfo(np.float64).max)  # log of the largest finite float64


@dataclass(frozen=True)
class FeatureScaler:
    """Affine map sending the training range [lo, hi] onto [0, 1]."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (np.isfinite(self.lo) and np.isfinite(self.hi)) or self.hi <= self.lo:
            raise DataError(f"degenerate feature range [{self.lo}, {self.hi}]")


def read_wav(path) -> np.ndarray:
    """Decode a 16-bit PCM RIFF/WAVE file to float64 in [-1, 1).

    Multi-channel audio is averaged to mono. Malformed files raise a format
    error naming the offending byte offset.
    """
    data = read_file(path, DataError)
    if len(data) < 12:
        raise FormatError(f"{path}: file ends at byte {len(data)}, before the RIFF header")
    if data[0:4] != b"RIFF":
        raise FormatError(f"{path}: missing RIFF tag at byte 0")
    if data[8:12] != b"WAVE":
        raise FormatError(f"{path}: missing WAVE tag at byte 8")
    fmt = None
    payload = None
    pos = 12
    while pos + 8 <= len(data):
        chunk_id = data[pos:pos + 4]
        (size,) = struct.unpack_from("<I", data, pos + 4)
        body = pos + 8
        if body + size > len(data):
            raise FormatError(f"{path}: chunk {chunk_id!r} at byte {pos} overruns the file")
        if chunk_id == b"fmt ":
            if size < 16:
                raise FormatError(f"{path}: fmt chunk at byte {pos} too short ({size} bytes)")
            fmt = struct.unpack_from("<HHIIHH", data, body)
        elif chunk_id == b"data":
            payload = (body, size)
        pos = body + size + (size & 1)  # chunks are word-aligned
    if fmt is None:
        raise FormatError(f"{path}: no fmt chunk")
    if payload is None:
        raise FormatError(f"{path}: no data chunk")
    audio_format, channels, _rate, _byte_rate, _block_align, bits = fmt
    if audio_format != 1:
        raise FormatError(f"{path}: unsupported codec {audio_format}, need PCM")
    if bits != 16:
        raise FormatError(f"{path}: unsupported sample width {bits}, need 16-bit")
    if channels < 1:
        raise FormatError(f"{path}: zero channels")
    body, size = payload
    count = size // (2 * channels) * channels
    if count == 0:
        raise DataError(f"{path}: data chunk at byte {body - 8} holds no audio frames")
    frames = np.frombuffer(data, dtype="<i2", count=count, offset=body).astype(np.float64)
    return frames.reshape(-1, channels).mean(axis=1) / 32768.0


def read_series_csv(path, column: str | None = None) -> np.ndarray:
    """Read one numeric series from a CSV file.

    With ``column=None`` each non-blank line must hold exactly one value;
    otherwise the named column of a headered file is used. Non-numeric and
    non-finite cells are hard errors naming the line; bytes that are not
    UTF-8 are a format error naming their offset.
    """
    text = read_file(path, DataError, text=True)
    rows = csv.reader(io.StringIO(text, newline=""))
    values = []
    try:
        index = 0
        if column is not None:
            header = next(rows, None)
            if header is None:
                raise FormatError(f"{path}: empty file, expected a header row")
            try:
                index = [h.strip() for h in header].index(column)
            except ValueError:
                raise FormatError(f"{path}: no column named {column!r} in header") from None
        for row in rows:
            if not row or all(not cell.strip() for cell in row):
                continue
            if column is None and len(row) != 1:
                raise FormatError(f"{path}: line {rows.line_num} has {len(row)} fields, "
                                  "expected one value per line")
            if index >= len(row):
                raise FormatError(f"{path}: line {rows.line_num} has no field {index}")
            cell = row[index].strip()
            try:
                value = float(cell)
            except ValueError:
                raise DataError(f"{path}: non-numeric value {cell!r} "
                                f"on line {rows.line_num}") from None
            if not math.isfinite(value):
                raise DataError(f"{path}: non-finite value {cell!r} on line {rows.line_num}")
            values.append(value)
    except csv.Error as exc:
        raise FormatError(f"{path}: line {rows.line_num}: {exc}") from None
    if not values:
        raise DataError(f"{path}: no values found")
    return np.array(values)


def pad_to_pow2(v, target: int) -> np.ndarray:
    """Zero-pad a series on the right up to ``target``, a power of two."""
    x = np.asarray(v, dtype=np.float64)
    if x.ndim != 1:
        raise ArgumentError("pad_to_pow2 expects a 1-d series")
    if target < 1 or target & (target - 1):
        raise ArgumentError(f"target {target} is not a power of two")
    if x.size > target:
        raise ArgumentError(f"series of length {x.size} exceeds target {target}")
    return np.concatenate([x, np.zeros(target - x.size)])


def haar_preprocess(v, n_h2: int) -> np.ndarray:
    """Apply ``n_h2`` Haar passes along the last axis, whose length must be
    divisible by 2**n_h2."""
    x = np.asarray(v, dtype=np.float64)
    if n_h2 < 0:
        raise ArgumentError("n_h2 must be >= 0")
    if n_h2 and x.shape[-1] % (1 << n_h2):
        raise ArgumentError(f"length {x.shape[-1]} not divisible by 2**{n_h2}")
    for _ in range(n_h2):
        x = haar_step(x)
    return x


def make_windows(series, p: int) -> tuple[np.ndarray, np.ndarray]:
    """Slide a length-p window over the series; the next value is the label.

    Returns the (length(series) - p, p) windows, row s starting at index s,
    as a read-only view of the series, and the labels ``series[p:]``.
    """
    x = np.asarray(series, dtype=np.float64)
    if p < 4 or p & (p - 1):
        raise ArgumentError(f"window size must be a power of two >= 4, got {p}")
    if x.ndim != 1 or x.size <= p:
        raise ArgumentError(f"series of length {x.size} too short for windows of {p}")
    return np.lib.stride_tricks.sliding_window_view(x[:-1], p), x[p:]


def fit_scaler(values) -> FeatureScaler:
    """Global min/max over all training values; a flat or empty range is an error."""
    x = np.asarray(values, dtype=np.float64)
    return FeatureScaler(float(x.min(initial=np.inf)), float(x.max(initial=-np.inf)))


def apply_scaler(scaler: FeatureScaler, values) -> np.ndarray:
    """Map values into [0, 1], clamping anything outside the fitted range."""
    x = np.asarray(values, dtype=np.float64)
    return np.clip((x - scaler.lo) / (scaler.hi - scaler.lo), 0.0, 1.0)


def encode_samples(values) -> MPSStack:
    """Product-state feature map of every row of a (samples, sites) array,
    as one stack: site vector (1, x) at every site, every bond of extent 1.
    A squared norm, the product of 1 + x**2 over the sites, past the float64
    range is a NumericError."""
    x = np.asarray(values, dtype=np.float64)
    if x.ndim != 2 or x.size == 0:
        raise ArgumentError("encoding expects a nonempty (samples, sites) array")
    if not np.all(np.isfinite(x)):
        raise DataError("encoding: non-finite feature value")
    with np.errstate(over="ignore"):
        log_norm2 = np.log1p(x * x).sum(axis=1)
    if log_norm2.max() >= _LOG_MAX:
        raise NumericError(f"encoding: sample {int(log_norm2.argmax())} has squared norm "
                           f"exp({log_norm2.max():.4g}), past the float64 range")
    n, n_sites = x.shape
    cores = np.empty((n_sites, n, 1, 2, 1))
    cores[:, :, 0, 0, 0] = 1.0
    cores[:, :, 0, 1, 0] = x.T
    return MPSStack(list(cores), np.ones((n, n_sites + 1), dtype=int))

