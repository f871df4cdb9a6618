"""Multi-scale tensor-network learning over wavelet-coarse-grained signals."""

__version__ = "0.1.0"

from .errors import (
    ArgumentError,
    DataError,
    DimensionError,
    FormatError,
    NumericError,
    StateError,
    WmeraError,
)
from .mps import MPS, canonicalize, inner, merge_bond, product_state, split_bond
from .wavelet import (
    WaveletMeraLayer,
    build_daub4_layer,
    build_haar_layer,
    daub4_from_angles,
    haar_step,
)
from .coarsegrain import (
    ScaleCache,
    ScaleData,
    coarse_grain_dataset,
    fine_grain_weights,
    single_particle_response,
)
from .trainer import TrainConfig, SweepStats, cost, evaluate, train

__all__ = [
    "ArgumentError",
    "DataError",
    "DimensionError",
    "FormatError",
    "NumericError",
    "StateError",
    "WmeraError",
    "MPS",
    "canonicalize",
    "inner",
    "merge_bond",
    "product_state",
    "split_bond",
    "WaveletMeraLayer",
    "build_daub4_layer",
    "build_haar_layer",
    "daub4_from_angles",
    "haar_step",
    "ScaleCache",
    "ScaleData",
    "coarse_grain_dataset",
    "single_particle_response",
    "TrainConfig",
    "SweepStats",
    "cost",
    "evaluate",
    "train",
    "fine_grain_weights",
]
