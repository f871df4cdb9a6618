"""Projection of trained weights back through a coarse-graining layer.

A layer maps fine states to coarse states; fine-graining applies the
transposed map to the weights, so the model output on any fine sample equals
the coarse output on its coarse-grained image, exactly when no truncation is
requested. Conjugate isometries expand each coarse site into two fine sites
(one SVD split each), then conjugate disentanglers undo the pair mixing.
"""

from __future__ import annotations

import numpy as np

from .coarsegrain import apply_pair_gates
from .errors import DimensionError
from .mps import MPS, svd_split
from .wavelet import WaveletMeraLayer


def fine_grain_weights(w: MPS, layer: WaveletMeraLayer, delta: float = 0.0,
                       chi_max: int | None = None) -> tuple[MPS, float]:
    """Map weights on N coarse sites to 2N fine sites through ``layer``.

    Returns the fine weights and the summed truncation error; with
    ``delta=0`` and unbounded ``chi_max`` the projection is exact and the
    model output is preserved sample for sample.
    """
    if layer.n_sites_in != 2 * len(w):
        raise DimensionError(f"layer covers {layer.n_sites_in} fine sites, "
                             f"weights would expand to {2 * len(w)}")
    if any(d != 2 for d in w.site_dims):
        raise DimensionError("fine-graining expects site dimension 2 everywhere")
    v3 = layer.isometry.reshape(2, 2, 2)  # (coarse, s, t)
    cores = []
    total = 0.0
    for core in w.cores:
        # conjugate isometry: expand the coarse site into a fine pair
        block = np.einsum("lcr,cst->lstr", core, v3)
        dl, _, _, dr = block.shape
        u, s, vh, _, err = svd_split(block.reshape(1, 2 * dl, 2 * dr), delta, chi_max)
        cores.append(u[0].reshape(dl, 2, -1))
        cores.append((s[0, :, None] * vh[0]).reshape(-1, 2, dr))
        total += float(err[0])
    fine = MPS(cores)
    # Conjugate disentanglers use the same pair wiring; transposing the gate
    # flips the contraction orientation, which is exactly conjugation.
    fine, err = apply_pair_gates(fine, layer.disentangler.T, delta, chi_max)
    return fine, total + err
