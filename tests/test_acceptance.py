"""Acceptance suite: one test per release criterion, one printed verdict each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines, or execute the file directly. Numbers in brackets are the criterion
indices used in the release checklist.
"""

import json
import struct
import sys
import time
from pathlib import Path

import numpy as np

from synthdata import (
    classification_caches,
    encoded_dataset,
    random_mps,
    random_product_state,
    sine_series,
    two_class_signals,
    window_regression,
)
from wmera.cli import main as cli_main
from wmera.coarsegrain import (ScaleData, apply_layer, coarse_grain_dataset, fine_grain_weights,
                               single_particle_response)
from wmera.ingest import encode_samples
from wmera.mps import canonicalize, inner, merge_bond, split_bond
from wmera.trainer import Environment, TrainConfig, cost, evaluate, local_gradient, train
from wmera.wavelet import (
    DAUB4_ANGLES,
    HAAR_ANGLES,
    build_daub4_layer,
    build_layer,
    daub4_from_angles,
)


def report(index: int, label: str, ok: bool, detail: str = "") -> None:
    line = f"[acceptance {index:02d}] {label}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line, flush=True)
    assert ok, line


def dense_vector(m) -> np.ndarray:
    v = m.cores[0]
    for c in m.cores[1:]:
        v = np.tensordot(v, c, axes=(v.ndim - 1, 0))
    return v.reshape(-1)


def test_01_daub4_stencil():
    """Each coarse site applies the closed-form 4-tap stencil at stride 2."""
    t0 = time.perf_counter()
    n = 16
    taps = daub4_from_angles(*DAUB4_ANGLES)
    resp = single_particle_response(build_daub4_layer(n))
    dev = 0.0
    for i in range(n // 2):
        want = np.zeros(n)
        for k in range(4):
            want[(2 * i - 1 + k) % n] = taps[k]
        dev = max(dev, float(np.max(np.abs(resp[i] - want))))
    published = np.array([-0.482963, 0.836516, 0.224144, 0.129410])
    dev_pub = float(np.max(np.abs(taps - published)))
    elapsed = time.perf_counter() - t0
    ok = dev <= 1e-12 and dev_pub <= 5e-7 and elapsed < 1.0
    report(1, "Daub4 stencil rows match the closed form",
           ok, f"max dev {dev:.1e}, vs 6dp table {dev_pub:.1e}, {elapsed:.2f}s")


def test_02_gate_constraints():
    """Disentanglers are orthogonal and isometries have orthonormal rows."""
    angle_pairs = [DAUB4_ANGLES, HAAR_ANGLES, (0.37, -1.2), (2.1, 0.8),
                   (-0.9, 0.33)]
    dev = 0.0
    for tu, tv in angle_pairs:
        layer = build_layer(tu, tv, 8)
        u, v = layer.disentangler, layer.isometry
        dev = max(dev,
                  float(np.max(np.abs(u.T @ u - np.eye(4)))),
                  float(np.max(np.abs(u @ u.T - np.eye(4)))),
                  float(np.max(np.abs(v @ v.T - np.eye(2)))))
    ok = dev <= 1e-14
    report(2, "gate constraint suite over five angle pairs", ok,
           f"max dev {dev:.1e}")


def test_03_dense_oracle_equivalence():
    """Chain-level coarse-graining agrees with brute-force dense application."""
    from test_coarsegrain import dense_layer_oracle

    dev = 0.0
    for n in (4, 8):
        layer = build_daub4_layer(n)
        for trial in range(20):
            rng = np.random.default_rng(1000 * n + trial)
            m = random_mps(n, 2, rng)
            scale = np.sqrt(max(float(dense_vector(m) @ dense_vector(m)), 1e-300))
            m = type(m)([m.cores[0] / scale] + list(m.cores[1:]))
            want = dense_layer_oracle(dense_vector(m), layer, n)
            got = dense_vector(apply_layer(m, layer, 0.0, None))
            dev = max(dev, float(np.max(np.abs(got - want))))
    ok = dev <= 1e-10
    report(3, "dense-oracle equivalence at N=4 and N=8", ok, f"max dev {dev:.1e}")


def test_04_gradient_check():
    """Analytic bond gradients agree with central finite differences."""
    h = 1e-5
    worst = 0.0
    for inst in range(10):
        rng = np.random.default_rng(300 + inst)
        data = ScaleData([random_product_state(8, rng) for _ in range(20)],
                         rng.uniform(-1.0, 1.0, 20))
        j = int(rng.integers(0, 7))
        w = canonicalize(random_mps(8, 3, rng), j)
        env = Environment(w, data)
        env.refresh_left(w, up_to=j)
        env.refresh_right(w, down_to=j + 2)
        b = merge_bond(w, j)
        grad = -local_gradient(env, j, b).ravel()
        flat = b.ravel()
        fd = np.empty_like(flat)
        for k in range(flat.size):
            cs = []
            for sgn in (1.0, -1.0):
                v = flat.copy()
                v[k] += sgn * h
                w2, _ = split_bond(w, j, v.reshape(b.shape), 0.0, None, j)
                cs.append(cost(w2, data))
            fd[k] = (cs[0] - cs[1]) / (2 * h)
        worst = max(worst, float(np.linalg.norm(fd - grad)
                                 / max(np.linalg.norm(grad), 1e-300)))
    ok = worst <= 1e-5
    report(4, "gradient matches finite differences on 10 instances", ok,
           f"max rel err {worst:.1e}")


def test_05_sweep_monotonicity():
    """No local solve may raise the cost; sweeps shrink it up to truncation."""
    series = sine_series(500)
    tr, _ = window_regression(series, 32, 100, 400, n_h2=2)
    events = []
    cfg = TrainConfig(n_sweeps=40, delta_weights=1e-9, chi_max=6, seed=3)
    _, stats = train(tr.scales[0], cfg, monitor=events.append)
    solve_ok = all(e.cost_solved <= e.cost_before * (1 + 1e-12) + 1e-12
                   for e in events)
    sweep_ok = all(b.cost <= a.cost + b.truncated_weight + 1e-10 * (1 + a.cost)
                   for a, b in zip(stats, stats[1:]))
    ok = solve_ok and sweep_ok and len(stats) == 40
    worst_jump = max((e.cost_solved - e.cost_before for e in events), default=0.0)
    report(5, "per-solve cost monotonicity across 40 sweeps", ok,
           f"{len(events)} solves, worst jump {worst_jump:.1e}")


def test_06_fine_grain_preservation():
    """Projecting weights to the finer scale preserves every model output."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(41)
    states = encode_samples(rng.uniform(0.0, 1.0, (200, 64)))
    cache = coarse_grain_dataset(states, rng.uniform(-1.0, 1.0, 200), 1)
    cfg = TrainConfig(n_sweeps=2, delta_weights=1e-12, chi_max=4, seed=9)
    w, _ = train(cache.scales[1], cfg)
    fine, _ = fine_grain_weights(w, build_daub4_layer(64), 0.0, None)
    worst = 0.0
    for xs_fine, xs_coarse in zip(cache.scales[0].samples, cache.scales[1].samples):
        fc = inner(w, xs_coarse)
        worst = max(worst, abs(inner(fine, xs_fine) - fc)
                    / max(1.0, abs(fc)))
    elapsed = time.perf_counter() - t0
    ok = worst <= 1e-8 and elapsed < 10.0
    report(6, "fine-grain output preservation at N=64, 200 samples", ok,
           f"worst rel dev {worst:.1e}, {elapsed:.1f}s")


def test_07_synthetic_classification():
    """Two-frequency signals: multi-scale training reaches headline accuracy."""
    t0 = time.perf_counter()
    tr_sig, tr_lab = two_class_signals(100, 256, 0.1, seed=21, freqs=(4.0, 11.0))
    te_sig, te_lab = two_class_signals(100, 256, 0.1, seed=22, freqs=(4.0, 11.0))
    tr, te = classification_caches(tr_sig, tr_lab, te_sig, te_lab,
                                   n_h2=2, n_layers=2)
    cfg = TrainConfig(n_sweeps=5, delta_weights=1e-14, chi_max=16, seed=5)
    layers = [build_daub4_layer(64), build_daub4_layer(32)]
    w, _ = train(tr.scales[2], cfg, task="classification")
    for scale in (1, 0):
        w, _ = fine_grain_weights(w, layers[scale], cfg.delta_weights, cfg.chi_max)
        w, _ = train(tr.scales[scale], cfg, w0=w, task="classification")
    train_acc = evaluate(w, tr.scales[0], "classification")
    test_acc = evaluate(w, te.scales[0], "classification")
    elapsed = time.perf_counter() - t0
    ok = train_acc >= 0.95 and test_acc >= 0.90 and elapsed < 120.0
    report(7, "synthetic classification accuracy", ok,
           f"train {train_acc:.3f}, test {test_acc:.3f}, {elapsed:.0f}s")


def test_08_synthetic_regression():
    """Next-value prediction on a pure sine stays within 5% of amplitude."""
    t0 = time.perf_counter()
    series = sine_series(1462)
    tr, te = window_regression(series, 64, 731, 1461, n_h2=2)
    cfg = TrainConfig(n_sweeps=40, delta_weights=1e-9, chi_max=8, seed=11)
    w, _ = train(tr.scales[0], cfg)
    eps = evaluate(w, te.scales[0], "regression")
    elapsed = time.perf_counter() - t0
    ok = eps <= 0.05 and elapsed < 300.0
    report(8, "synthetic regression held-out error", ok,
           f"mean abs err {eps:.4f}, {elapsed:.0f}s")


def test_09_multiscale_initialization():
    """Fine-grained warm starts beat random starts under an equal budget."""
    warm, cold = [], []
    for seed in range(7):
        sig, lab = two_class_signals(50, 64, 0.1, seed=100 + seed,
                                     freqs=(3.0, 9.0))
        cache = encoded_dataset(sig, lab, 1, 1)
        base = dict(delta_weights=1e-12, chi_max=8, cg_max_iters=3, seed=seed)
        coarse_cfg = TrainConfig(n_sweeps=3, **base)
        fine_cfg = TrainConfig(n_sweeps=1, **base)
        w1, _ = train(cache.scales[1], coarse_cfg, task="classification")
        w0, _ = fine_grain_weights(w1, build_daub4_layer(32),
                                   fine_cfg.delta_weights, fine_cfg.chi_max)
        _, sw = train(cache.scales[0], fine_cfg, w0=w0, task="classification")
        _, sc = train(cache.scales[0], fine_cfg, task="classification")
        warm.append(sw[-1].cost)
        cold.append(sc[-1].cost)
    med_warm, med_cold = float(np.median(warm)), float(np.median(cold))
    ok = med_warm <= med_cold
    report(9, "multi-scale initialization trend over 7 seeds", ok,
           f"median warm {med_warm:.2e} vs cold {med_cold:.2e}")


def _write_wav(path, values):
    pcm = np.clip(np.asarray(values) * 32767, -32768, 32767).astype("<i2").tobytes()
    fmt = struct.pack("<HHIIHH", 1, 1, 8000, 16000, 2, 16)
    chunks = (b"fmt " + struct.pack("<I", 16) + fmt
              + b"data" + struct.pack("<I", len(pcm)) + pcm)
    path.write_bytes(b"RIFF" + struct.pack("<I", 4 + len(chunks)) + b"WAVE" + chunks)


def _determinism_workspace(root: Path) -> Path:
    rng = np.random.default_rng(0)
    data = root / "data"
    data.mkdir(parents=True)
    samples = []
    for i in range(10):
        label = 1 if i % 2 == 0 else -1
        base = 0.7 if label == 1 else 0.3
        name = f"s{i}.wav"
        _write_wav(data / name, base + 0.02 * rng.standard_normal(16))
        samples.append({"path": f"data/{name}", "label": label, "split": "train"})
    (root / "manifest.json").write_text(
        json.dumps({"task": "classification", "samples": samples}))
    cfg = root / "run.cfg"
    cfg.write_text("manifest = manifest.json\noutput = out\npad_to = 16\n"
                   "n_h2 = 1\nn_d4_layers = 1\nn_sweeps = 3\nchi_max = 4\n"
                   "seed = 2\n")
    return cfg


def test_10_determinism(tmp_path):
    """Same seed, same metrics bytes, across reruns and thread counts."""
    cfg = _determinism_workspace(tmp_path)
    blobs = []
    for name, threads in [("a", "1"), ("b", "1"), ("c", "4")]:
        out = tmp_path / name
        rc = cli_main(["pipeline", "--config", str(cfg),
                       "--output", str(out), "--threads", threads])
        assert rc == 0
        blobs.append(((out / "metrics.jsonl").read_bytes(),
                      (out / "summary.json").read_bytes()))
    ok = all(b == blobs[0] for b in blobs[1:])
    report(10, "byte-identical metrics across runs and threads {1,4}", ok,
           f"{len(blobs[0][0])} metric bytes compared")


if __name__ == "__main__":
    import tempfile

    failed = 0
    for fn in (test_01_daub4_stencil, test_02_gate_constraints,
               test_03_dense_oracle_equivalence, test_04_gradient_check,
               test_05_sweep_monotonicity, test_06_fine_grain_preservation,
               test_07_synthetic_classification, test_08_synthetic_regression,
               test_09_multiscale_initialization):
        try:
            fn()
        except AssertionError:
            failed += 1
    try:
        with tempfile.TemporaryDirectory() as tmp:
            test_10_determinism(Path(tmp))
    except AssertionError:
        failed += 1
    sys.exit(1 if failed else 0)
