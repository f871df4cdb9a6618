"""Benchmark workloads: input files generated from a seed, plus the scaled
features the program should derive from them (computed here with plain
NumPy, for the output checks).

Each workload's ``build(seed, directory)`` writes ``run.cfg``,
``manifest.json`` and the data files, and returns an ``Inputs`` record. The
program only ever sees the files.

The modelled values come from the fixed ``DATA_SEED``; the benchmark seed
varies only what the program parses around them: file names and a skipped
RIFF chunk of seeded length and content in every clip, and seeded extra
columns in the regression CSV. Held-out cost depends on the values drawn
(over five data seeds: 1.1e-3 to 2.5e-3 on clf-multiscale, 2.0e-4 to
2.5e-4 on reg-short-windows), by more than a bound on ``test_cost`` between
runs could allow.

Every workload trains with a ridge term. Without it training is chaotic:
scaling the initial weights by 1 + 1e-12 moved the clf-multiscale held-out
cost between 0.088 and 0.32 and its accuracy down to 0.875, so a mere change
of summation order in the program would move ``test_cost`` and could fail
the accuracy check. With the ridge terms below the same perturbation moves
held-out cost by at most 1.3 %.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

# Seed of the modelled values (see above) and training seed handed to the
# program.
DATA_SEED = 2020
TRAIN_SEED = 5


@dataclass
class Inputs:
    """What the checks need to know about one generated workload."""

    task: str
    config: Path
    train_features: np.ndarray   # (n_train, n_sites) scaled features, scale 0
    test_features: np.ndarray    # (n_test, n_sites)
    train_labels: np.ndarray
    test_labels: np.ndarray
    trained_scales: list[int]    # coarsest first, as the pipeline visits them
    lam: float                   # ridge coefficient of the training cost


def _haar(x: np.ndarray, passes: int) -> np.ndarray:
    for _ in range(passes):
        x = (x[..., 0::2] + x[..., 1::2]) / math.sqrt(2)
    return x


def _scale(train: np.ndarray, test: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    lo, hi = float(train.min()), float(train.max())
    return ((train - lo) / (hi - lo),
            np.clip((test - lo) / (hi - lo), 0.0, 1.0))


def _write_wav(path: Path, pcm: np.ndarray, extra: bytes, rate: int = 8000) -> None:
    """16-bit mono PCM with an extra LIST chunk, which readers skip."""
    data = pcm.astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, rate, 2 * rate, 2, 16)
    pad = b"\0" * (len(extra) & 1)
    chunks = (b"fmt " + struct.pack("<I", 16) + fmt
              + b"LIST" + struct.pack("<I", len(extra)) + extra + pad
              + b"data" + struct.pack("<I", len(data)) + data)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def _write_config(directory: Path, settings: dict) -> Path:
    lines = ["manifest = manifest.json", "output = out"]
    lines += [f"{k} = {v}" for k, v in settings.items()]
    path = directory / "run.cfg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@dataclass(frozen=True)
class Classification:
    """Two-tone WAV clips, one tone per class, random phase and noise."""

    per_class: int      # clips per class in each split
    length: int = 256
    n_h2: int = 2
    n_layers: int = 2
    n_sweeps: int = 3
    chi_max: int = 16
    freqs: tuple[float, float] = (4.0, 11.0)   # cycles per clip
    noise: float = 0.1
    lam: float = 1e-3

    def build(self, seed: int, directory: Path) -> Inputs:
        rng = np.random.default_rng(DATA_SEED)
        names = np.random.default_rng(seed)
        data = directory / "clips"
        data.mkdir(parents=True)
        t = np.arange(self.length) / self.length
        entries, values = [], {"train": [], "test": []}
        labels = {"train": [], "test": []}
        for split in ("train", "test"):
            rows = [(label, freq) for label, freq in ((1, self.freqs[0]), (-1, self.freqs[1]))
                    for _ in range(self.per_class)]
            for k in rng.permutation(len(rows)):
                label, freq = rows[k]
                phase = rng.uniform(0.0, 2.0 * math.pi)
                x = 0.5 * np.sin(2.0 * math.pi * freq * t + phase)
                x += 0.5 * self.noise * rng.standard_normal(self.length)
                pcm = np.clip(np.round(x * 32767), -32768, 32767).astype(np.int16)
                name = f"{split}{len(entries):04d}-{names.integers(1 << 32):08x}.wav"
                _write_wav(data / name, pcm, names.bytes(int(names.integers(1, 256))))
                entries.append({"path": f"clips/{name}", "label": label, "split": split})
                values[split].append(pcm / 32768.0)
                labels[split].append(float(label))
        (directory / "manifest.json").write_text(
            json.dumps({"task": "classification", "samples": entries}), encoding="utf-8")
        config = _write_config(directory, {
            "pad_to": self.length, "n_h2": self.n_h2, "n_d4_layers": self.n_layers,
            "chi_data": 16, "n_sweeps": self.n_sweeps, "chi_max": self.chi_max,
            "lambda": self.lam, "seed": TRAIN_SEED})
        train, test = _scale(_haar(np.array(values["train"]), self.n_h2),
                             _haar(np.array(values["test"]), self.n_h2))
        return Inputs("classification", config, train, test,
                      np.array(labels["train"]), np.array(labels["test"]),
                      list(range(self.n_layers, -1, -1)), self.lam)


@dataclass(frozen=True)
class Regression:
    """Next-value prediction on a noisy seasonal series stored as CSV.

    Windows lying inside ``fit_range`` train the model; all other windows are
    held out, as in the program's manifest semantics.
    """

    n_points: int
    p: int
    n_h2: int
    n_layers: int
    fine_grain_to: int
    n_sweeps: int
    fit_range: tuple[int, int]
    chi_max: int = 8
    period: float = 365.25
    noise: float = 0.02
    phase: float = 0.3
    lam: float = 1e-3

    def build(self, seed: int, directory: Path) -> Inputs:
        directory.mkdir(parents=True)
        rng = np.random.default_rng(DATA_SEED)
        t = np.arange(self.n_points, dtype=np.float64)
        series = (np.sin(2.0 * math.pi * t / self.period + self.phase)
                  + self.noise * rng.standard_normal(self.n_points))
        # The modelled column sits among 1-3 seeded extra columns.
        extra = np.random.default_rng(seed)
        table = extra.normal(size=(self.n_points, 1 + int(extra.integers(1, 4))))
        column = int(extra.integers(table.shape[1]))
        table[:, column] = series
        header = [f"x{k}" for k in range(table.shape[1])]
        header[column] = "value"
        (directory / "series.csv").write_text(
            ",".join(header) + "\n"
            + "".join(",".join(repr(float(v)) for v in row) + "\n" for row in table),
            encoding="utf-8")
        lo, hi = self.fit_range
        (directory / "manifest.json").write_text(json.dumps({
            "task": "regression", "series": "series.csv", "column": "value",
            "p": self.p, "fit_range": [lo, hi]}), encoding="utf-8")
        config = _write_config(directory, {
            "n_h2": self.n_h2, "n_d4_layers": self.n_layers,
            "fine_grain_to": self.fine_grain_to, "chi_data": 16,
            "n_sweeps": self.n_sweeps, "chi_max": self.chi_max,
            "delta_weights": 1e-9, "lambda": self.lam, "seed": TRAIN_SEED})
        starts = np.arange(self.n_points - self.p)
        windows = _haar(series[starts[:, None] + np.arange(self.p)], self.n_h2)
        labels = series[starts + self.p]
        fit = (starts >= lo) & (starts + self.p <= hi)
        train, test = _scale(windows[fit], windows[~fit])
        return Inputs("regression", config, train, test, labels[fit], labels[~fit],
                      list(range(self.n_layers, self.fine_grain_to - 1, -1)), self.lam)


WORKLOADS = {
    "clf-multiscale": Classification(per_class=24, n_sweeps=3),
    "reg-short-windows": Regression(n_points=600, p=64, n_h2=2, n_layers=1,
                                    fine_grain_to=0, n_sweeps=2, fit_range=(300, 599),
                                    period=100.0),
    "reg-long-windows": Regression(n_points=256 + 12, p=256, n_h2=0, n_layers=3,
                                   fine_grain_to=1, n_sweeps=3, fit_range=(0, 256 + 8),
                                   period=256.0, noise=0.0, lam=1e-4),
}
