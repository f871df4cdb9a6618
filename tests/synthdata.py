"""Synthetic datasets shared by the trainer, pipeline, and acceptance tests."""

import numpy as np

from wmera.coarsegrain import ScaleCache, coarse_grain_dataset
from wmera.ingest import (apply_scaler, encode_samples, fit_scaler, haar_preprocess,
                          make_windows)
from wmera.mps import MPS, product_state


def two_class_signals(n_per_class: int, length: int, sigma: float,
                      seed: int, freqs=(4.0, 11.0)):
    """Sinusoid bursts of two distinct frequencies with random phase and noise.

    Returns (list of float arrays, labels array of +1/-1).
    """
    rng = np.random.default_rng(seed)
    t = np.arange(length) / length
    signals, labels = [], []
    for label, freq in ((1.0, freqs[0]), (-1.0, freqs[1])):
        for _ in range(n_per_class):
            phase = rng.uniform(0.0, 2.0 * np.pi)
            x = np.sin(2.0 * np.pi * freq * t + phase)
            x = x + sigma * rng.standard_normal(length)
            signals.append(x)
            labels.append(label)
    order = rng.permutation(len(signals))
    return [signals[i] for i in order], np.array([labels[i] for i in order])


def sine_series(n_points: int, period: float = 365.25, phase: float = 0.3) -> np.ndarray:
    """Noiseless unit-amplitude seasonal curve sampled once per step."""
    t = np.arange(n_points, dtype=np.float64)
    return np.sin(2.0 * np.pi * t / period + phase)


def encoded_dataset(signals, labels, n_h2: int, n_layers: int,
                    delta_data: float = 1e-12, chi_data: int = 16) -> ScaleCache:
    """Haar-reduce, rescale to [0, 1] on the whole set, encode, coarse-grain."""
    reduced = haar_preprocess(np.asarray(signals, dtype=np.float64), n_h2)
    states = encode_samples(apply_scaler(fit_scaler(reduced), reduced))
    return coarse_grain_dataset(states, np.asarray(labels, dtype=np.float64),
                                n_layers, delta_data, chi_data)


def _scaled_caches(splits, n_layers: int, delta_data: float, chi_data: int):
    """Encode each (values, labels) split with the scaler fitted on the first."""
    scaler = fit_scaler(splits[0][0])
    return tuple(coarse_grain_dataset(encode_samples(apply_scaler(scaler, values)),
                                      np.asarray(labels, dtype=np.float64),
                                      n_layers, delta_data, chi_data)
                 for values, labels in splits)


def classification_caches(train_signals, train_labels, test_signals, test_labels,
                          n_h2: int, n_layers: int, delta_data: float = 1e-12,
                          chi_data: int = 16):
    """Encode both splits with the feature scaler fitted on the train split."""
    splits = [(haar_preprocess(np.asarray(signals, dtype=np.float64), n_h2), labels)
              for signals, labels in ((train_signals, train_labels),
                                      (test_signals, test_labels))]
    return _scaled_caches(splits, n_layers, delta_data, chi_data)


def window_regression(series: np.ndarray, p: int, fit_lo: int, fit_hi: int,
                      n_h2: int = 0, n_layers: int = 0,
                      delta_data: float = 1e-12, chi_data: int = 16):
    """Split sliding windows into fit-range train and held-out test caches."""
    windows, labels = make_windows(series, p)
    values = haar_preprocess(windows, n_h2)
    starts = np.arange(len(labels))
    train = (fit_lo <= starts) & (starts + p <= fit_hi)
    return _scaled_caches([(values[train], labels[train]), (values[~train], labels[~train])],
                          n_layers, delta_data, chi_data)


def random_mps(n_sites: int, bond: int, rng, site_dim: int = 2) -> MPS:
    """Dense random chain with flat interior bonds."""
    dims = [1] + [bond] * (n_sites - 1) + [1]
    cores = [rng.standard_normal((dims[i], site_dim, dims[i + 1]))
             for i in range(n_sites)]
    return MPS(cores)


def random_product_state(n_sites: int, rng, normalize: bool = True) -> MPS:
    vecs = []
    for _ in range(n_sites):
        v = rng.standard_normal(2)
        while np.linalg.norm(v) < 1e-3:
            v = rng.standard_normal(2)
        vecs.append(v / np.linalg.norm(v) if normalize else v)
    return product_state(vecs)
