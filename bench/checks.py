"""Output checks computed apart from the program.

Model and cache files are parsed here from their documented binary layout
(little-endian u32 core count; per tensor a u32 rank, u64 extents and f64
data) and contracted with plain NumPy, so a fault in the program's own
readers or contractions cannot hide a fault in its outputs.

``run_checks`` returns one ``Check`` per property:

- ``encoding``: every cached sample, at every scale, has amplitude 1 on the
  all-ground configuration, and its one-excitation amplitudes equal the
  periodic stride-2 Daub4 stencil applied ``scale`` times to the scaled
  features the benchmark derived from its own generated inputs;
- ``reported``: ``summary.json`` train/test metrics and final cost (ridge
  term included) agree with this module's contraction of each saved
  ``model_scale*.mps``;
- ``finegrain``: exactly fine-graining ``model_scale{s+1}`` through the layer
  preserves its output on every scale-``s`` sample;
- ``threshold``: held-out accuracy >= 0.90 (classification) or held-out mean
  absolute error <= 0.05 (regression) at the finest trained scale.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

THETA_U, THETA_V = math.pi / 6, math.pi / 12
TAPS = np.array([-math.sin(THETA_U) * math.cos(THETA_V),
                 math.cos(THETA_U) * math.cos(THETA_V),
                 math.cos(THETA_U) * math.sin(THETA_V),
                 math.sin(THETA_U) * math.sin(THETA_V)])
# Disentangler and isometry of a Daub4 layer, in the gate orientation
# out[ab] = sum_st in[st] G[st, ab] and coarse[c] = sum_st pair[st] V[c, st].
_C, _S = math.cos(THETA_U), math.sin(THETA_U)
GATE = np.array([[1, 0, 0, 0], [0, _C, _S, 0], [0, -_S, _C, 0], [0, 0, 0, 1]], dtype=float)
ISOMETRY = np.array([[1, 0, 0, 0],
                     [0, math.sin(THETA_V), math.cos(THETA_V), 0]]).reshape(2, 2, 2)

# Tolerances. Amplitudes and preserved outputs carry the data truncation of
# coarse-graining (delta_data = 1e-12) plus roundoff; the reported metrics
# differ from this module's only by contraction order.
AMPLITUDE_TOL = 1e-8
FINEGRAIN_TOL = 1e-8
REPORT_RTOL = 1e-9
REPORT_ATOL = 1e-12   # labels are O(1)
MIN_ACCURACY = 0.90
MAX_MAE = 0.05

MPS_MAGIC = b"WMERA-MPS"


@dataclass
class Check:
    name: str
    ok: bool
    detail: str


def read_cores(buf: bytes, pos: int) -> tuple[list[np.ndarray], int]:
    (count,) = np.frombuffer(buf, "<u4", 1, pos)
    pos += 4
    cores = []
    for _ in range(int(count)):
        (rank,) = np.frombuffer(buf, "<u4", 1, pos)
        shape = tuple(int(e) for e in np.frombuffer(buf, "<u8", int(rank), pos + 4))
        pos += 4 + 8 * int(rank)
        size = int(np.prod(shape))
        cores.append(np.frombuffer(buf, "<f8", size, pos).reshape(shape))
        pos += 8 * size
    return cores, pos


def read_model(path: Path) -> list[np.ndarray]:
    buf = Path(path).read_bytes()
    if buf[:len(MPS_MAGIC)] != MPS_MAGIC:
        raise ValueError(f"{path}: not a model file")
    cores, end = read_cores(buf, len(MPS_MAGIC) + 4)
    if end != len(buf):
        raise ValueError(f"{path}: {len(buf) - end} trailing bytes")
    return cores


def read_cache(directory: Path) -> tuple[np.ndarray, list[list[list[np.ndarray]]]]:
    """Labels and, per scale, the list of sample core lists."""
    manifest = json.loads((Path(directory) / "manifest.json").read_text())
    scales = []
    for meta in manifest["scales"]:
        buf = (Path(directory) / meta["file"]).read_bytes()
        pos, samples = 0, []
        for _ in range(meta["n_samples"]):
            cores, pos = read_cores(buf, pos)
            samples.append(cores)
        if pos != len(buf):
            raise ValueError(f"{directory}/{meta['file']}: {len(buf) - pos} trailing bytes")
        scales.append(samples)
    return np.array(manifest["labels"], dtype=float), scales


def overlap(w: list[np.ndarray], x: list[np.ndarray]) -> float:
    """<W, x>: contract the two chains site by site."""
    env = np.ones((1, 1))
    for wc, xc in zip(w, x, strict=True):
        env = np.einsum("ab,asc,bsd->cd", env, wc, xc)
    return float(env[0, 0])


def outputs(w: list[np.ndarray], samples: list[list[np.ndarray]]) -> np.ndarray:
    return np.array([overlap(w, x) for x in samples])


def metric(f: np.ndarray, y: np.ndarray, task: str) -> float:
    """Accuracy (sign match, ties to +1) or mean absolute error."""
    if task == "classification":
        return float(np.mean(np.where(f >= 0, 1.0, -1.0) == np.where(y >= 0, 1.0, -1.0)))
    return float(np.mean(np.abs(f - y)))


def half_mse(f: np.ndarray, y: np.ndarray) -> float:
    """1/(2n) sum (f - y)^2: the training objective without its ridge term."""
    return 0.5 * float(np.mean((f - y) ** 2))


def low_amplitudes(cores: list[np.ndarray]) -> tuple[float, np.ndarray]:
    """Amplitude on the all-ground configuration and on each one-excitation one."""
    ground = [c[:, 0, :] for c in cores]
    n = len(cores)
    left = [np.ones((1, 1))]
    for g in ground:
        left.append(left[-1] @ g)
    right = [np.ones((1, 1))]
    for g in reversed(ground):
        right.append(g @ right[-1])
    right.reverse()
    singles = np.array([(left[i] @ cores[i][:, 1, :] @ right[i + 1])[0, 0] for i in range(n)])
    return float(left[n][0, 0]), singles


def stencil(x: np.ndarray) -> np.ndarray:
    """One layer's linear response: y[i] = sum_k taps[k] x[(2i - 1 + k) mod n]."""
    n = x.shape[-1]
    idx = (2 * np.arange(n // 2)[:, None] - 1 + np.arange(4)) % n
    return x[..., idx] @ TAPS


def _operator_pairs(gate: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """gate[s t, a b] = sum_r first[r, s, a] * second[r, t, b]."""
    k = gate.reshape(2, 2, 2, 2).transpose(0, 2, 1, 3).reshape(4, 4)
    u, s, vh = np.linalg.svd(k)
    keep = s > 1e-14 * s[0]
    root = np.sqrt(s[keep])
    return ((u[:, keep] * root).T.reshape(-1, 2, 2),
            (root[:, None] * vh[keep]).reshape(-1, 2, 2))


_FIRST, _SECOND = _operator_pairs(GATE)


def finegrained_overlap(w: list[np.ndarray], x: list[np.ndarray]) -> float:
    """<L^T W, x> = <W, L x> for one Daub4 layer L, contracted exactly.

    Disentanglers on the pairs (2j+1, 2j+2 mod 2N) are split into operator
    pairs; the bond they thread through the periodic pair (2N-1, 0) is kept
    open as index q and traced at the end. Isometries fuse the pairs
    (2j, 2j+1) into coarse site j, where they meet weight core j.
    """
    r = _FIRST.shape[0]
    env = np.einsum("rq,ab->abrq", np.eye(r), np.ones((1, 1)))  # (w, x, r, q)
    for j, wc in enumerate(w):
        a = np.einsum("ltm,rtb->rlbm", x[2 * j], _SECOND)        # (r, xl, t', xm)
        b = np.einsum("msn,psa->pman", x[2 * j + 1], _FIRST)     # (r', xm, a, xr)
        env = np.einsum("wxrq,rxtm,pman,cta,wcv->vnpq", env, a, b, ISOMETRY, wc,
                        optimize=True)
    return float(np.einsum("aarr->", env))


def run_checks(inputs, out_dir: Path) -> tuple[list[Check], float]:
    """Run every check on a finished pipeline output; returns them and test_cost."""
    task = inputs.task
    train_y, train_scales = read_cache(out_dir / "cache" / "train")
    test_y, test_scales = read_cache(out_dir / "cache" / "test")
    checks = []

    worst, bad_labels = 0.0, False
    for features, labels, y, scales in ((inputs.train_features, inputs.train_labels,
                                         train_y, train_scales),
                                        (inputs.test_features, inputs.test_labels,
                                         test_y, test_scales)):
        bad_labels |= not np.array_equal(labels, y)
        expected = features
        for samples in scales:
            if len(samples) != len(expected):
                worst = math.inf
                break
            for cores, want in zip(samples, expected):
                ground, singles = low_amplitudes(cores)
                dev = max(abs(ground - 1.0), float(np.max(np.abs(singles - want)))
                          if singles.shape == want.shape else math.inf)
                worst = max(worst, dev)
            expected = stencil(expected)
    checks.append(Check("encoding", worst <= AMPLITUDE_TOL and not bad_labels,
                        f"max amplitude deviation {worst:.1e}, labels "
                        f"{'differ' if bad_labels else 'match'}"))

    summary = json.loads((out_dir / "summary.json").read_text())
    reported = {rep["scale"]: rep for rep in summary["scales"]}
    models = {s: read_model(out_dir / f"model_scale{s}.mps") for s in inputs.trained_scales}
    worst_rel, problems = 0.0, []
    if sorted(reported) != sorted(models):
        problems.append(f"summary scales {sorted(reported)}")
    own = {}
    for s, w in models.items():
        f_train = outputs(w, train_scales[s])
        f_test = outputs(w, test_scales[s])
        own[s] = (f_train, f_test)
        rep = reported.get(s, {})
        for key, mine in (("train_metric", metric(f_train, train_y, task)),
                          ("test_metric", metric(f_test, test_y, task)),
                          ("final_cost", half_mse(f_train, train_y)
                           + inputs.lam * overlap(w, w))):
            theirs = rep.get(key)
            if theirs is None:
                problems.append(f"scale {s} lacks {key}")
                continue
            rel = abs(theirs - mine) / max(abs(mine), 1e-300)
            if abs(theirs - mine) > REPORT_RTOL * abs(mine) + REPORT_ATOL:
                problems.append(f"scale {s} {key} {theirs!r} vs {mine!r}")
            worst_rel = max(worst_rel, rel)
    checks.append(Check("reported", not problems,
                        "; ".join(problems) or f"max relative deviation {worst_rel:.1e}"))

    worst = 0.0
    for s in inputs.trained_scales:
        if s + 1 not in models:
            continue
        coarse = own[s + 1]
        for split, samples in enumerate((train_scales[s], test_scales[s])):
            for x, fc in zip(samples, coarse[split]):
                ff = finegrained_overlap(models[s + 1], x)
                worst = max(worst, abs(ff - fc) / max(1.0, abs(fc)))
    checks.append(Check("finegrain", bool(worst <= FINEGRAIN_TOL),
                        f"max relative output change {worst:.1e}"))

    finest = inputs.trained_scales[-1]
    test_metric = metric(own[finest][1], test_y, task)
    if task == "classification":
        ok, detail = test_metric >= MIN_ACCURACY, f"test accuracy {test_metric:.3f}"
    else:
        ok, detail = test_metric <= MAX_MAE, f"test MAE {test_metric:.2e}"
    checks.append(Check("threshold", ok, detail))
    return checks, half_mse(own[finest][1], test_y)
