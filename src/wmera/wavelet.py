"""Discrete wavelet steps and the coarse-graining layers built from them.

A layer is the alternating pattern used throughout this package: 4x4
disentanglers act on the odd site pairs (2i+1, 2i+2 mod N), then 2x4
isometries contract the even pairs (2i, 2i+1) into single coarse sites.
Both tensors come from one-parameter closed forms:

    U(theta_u) = [[1, 0,   0,  0],          V(theta_v) = [[1, 0,   0,   0],
                  [0, c,   s,  0],                        [0, s',  c',  0]]
                  [0, -s,  c,  0],
                  [0, 0,   0,  1]]

with c, s = cos/sin(theta_u) and c', s' = cos/sin(theta_v). To linear order
in the site features a layer acts as a stride-2 convolution with the 4-tap
stencil of :func:`daub4_from_angles`; theta_u = pi/6, theta_v = pi/12 gives
the Daubechies-4 magnitudes, and theta_u = 0, theta_v = pi/4 gives plain
pairwise (Haar) averaging.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ArgumentError

DAUB4_ANGLES = (math.pi / 6, math.pi / 12)
HAAR_ANGLES = (0.0, math.pi / 4)

# Classic Daubechies-4 low-pass taps. The angle form below reproduces their
# magnitudes but flips the signs of the first and last entries; the angle
# form is the one every layer in this package realizes.
DAUB4_CLASSIC = np.array([
    (1 + math.sqrt(3)) / (4 * math.sqrt(2)),
    (3 + math.sqrt(3)) / (4 * math.sqrt(2)),
    (3 - math.sqrt(3)) / (4 * math.sqrt(2)),
    (1 - math.sqrt(3)) / (4 * math.sqrt(2)),
])


def haar_step(signal) -> np.ndarray:
    """One Haar pass along the last axis: pairwise sums scaled by 1/sqrt(2),
    halving its length."""
    x = np.asarray(signal, dtype=np.float64)
    if x.ndim == 0 or x.shape[-1] == 0 or x.shape[-1] % 2:
        raise ArgumentError("haar_step needs a nonempty even-length last axis, "
                            f"got shape {x.shape}")
    return (x[..., 0::2] + x[..., 1::2]) / math.sqrt(2)


def daub4_from_angles(theta_u: float, theta_v: float) -> np.ndarray:
    """Four-tap stencil realized by a layer with the given rotation angles."""
    su, cu = math.sin(theta_u), math.cos(theta_u)
    sv, cv = math.sin(theta_v), math.cos(theta_v)
    return np.array([-su * cv, cu * cv, cu * sv, su * sv])


def disentangler_matrix(theta_u: float) -> np.ndarray:
    """4x4 orthogonal pair mixer: a rotation on the single-particle block."""
    c, s = math.cos(theta_u), math.sin(theta_u)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, c, s, 0.0],
        [0.0, -s, c, 0.0],
        [0.0, 0.0, 0.0, 1.0],
    ])


def isometry_matrix(theta_v: float) -> np.ndarray:
    """2x4 map from a site pair to one coarse site; rows are orthonormal."""
    c, s = math.cos(theta_v), math.sin(theta_v)
    return np.array([
        [1.0, 0.0, 0.0, 0.0],
        [0.0, s, c, 0.0],
    ])


@dataclass(frozen=True)
class WaveletMeraLayer:
    """One coarse-graining layer over ``n_sites_in`` sites with periodic wrap."""

    theta_u: float
    theta_v: float
    disentangler: np.ndarray  # (4, 4), orthogonal
    isometry: np.ndarray      # (2, 4), orthonormal rows
    n_sites_in: int

    @property
    def n_sites_out(self) -> int:
        return self.n_sites_in // 2


def build_layer(theta_u: float, theta_v: float, n_sites_in: int) -> WaveletMeraLayer:
    if n_sites_in < 4 or n_sites_in % 2:
        raise ArgumentError(f"a layer needs an even site count >= 4, got {n_sites_in}")
    return WaveletMeraLayer(theta_u, theta_v, disentangler_matrix(theta_u),
                            isometry_matrix(theta_v), n_sites_in)


def build_daub4_layer(n_sites_in: int) -> WaveletMeraLayer:
    """Layer whose linear response is the angle-form Daubechies-4 stencil."""
    return build_layer(*DAUB4_ANGLES, n_sites_in)


def build_haar_layer(n_sites_in: int) -> WaveletMeraLayer:
    """Layer with identity disentanglers whose isometries average pairs."""
    return build_layer(*HAAR_ANGLES, n_sites_in)
