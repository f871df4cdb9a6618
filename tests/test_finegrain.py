"""Pushing weights back through a layer, and the multi-scale schedule of
``wmera pipeline`` built on it."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import random_mps, random_product_state, two_class_signals
from test_cli import CLASS_CONFIG, classification_workspace, run_cli
from wmera.coarsegrain import apply_layer, coarse_grain_dataset, fine_grain_weights
from wmera.errors import DimensionError
from wmera.ingest import encode_samples
from wmera.mps import inner, load_mps
from wmera.trainer import TrainConfig, cost, train
from wmera.wavelet import build_daub4_layer, build_haar_layer, build_layer


class TestConjugation:
    """<fine w, x> must equal <coarse w, layer(x)> when nothing is truncated."""

    def pairing(self, layer, seed):
        rng = np.random.default_rng(seed)
        w = random_mps(layer.n_sites_in // 2, 2, rng)
        fw, err = fine_grain_weights(w, layer, delta=0.0, chi_max=None)
        assert err <= 1e-24
        worst = 0.0
        for k in range(12):
            x = random_product_state(layer.n_sites_in, rng)
            cx = apply_layer(x, layer, delta_data=0.0, chi_data=None)
            worst = max(worst, abs(inner(fw, x) - inner(w, cx)))
        return worst

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([4, 8, 16]),
           theta_u=st.floats(-np.pi, np.pi), theta_v=st.floats(-np.pi, np.pi),
           product=st.booleans())
    def test_random_angles_are_conjugated_exactly(self, seed, n, theta_u, theta_v, product):
        """At any angles, the fine-grained weights (wrap gate on the fine chain)
        pair with x as the weights pair with the layer's image of x (wrap gate
        on the coarse chain), to 1e-10 of the Cauchy-Schwarz bound."""
        rng = np.random.default_rng(seed)
        layer = build_layer(theta_u, theta_v, n)
        w = random_mps(n // 2, 2, rng)
        x = random_product_state(n, rng) if product else random_mps(n, 2, rng)
        fw, _ = fine_grain_weights(w, layer)
        cx = apply_layer(x, layer, 0.0, None)
        bound = np.sqrt(inner(w, w) * inner(cx, cx))
        assert abs(inner(fw, x) - inner(w, cx)) <= 1e-10 * bound

    def test_daub4_layer_is_conjugated_exactly(self):
        assert self.pairing(build_daub4_layer(12), 7) < 1e-10

    def test_haar_layer_is_conjugated_exactly(self):
        assert self.pairing(build_haar_layer(8), 11) < 1e-10

    def test_generic_angles_are_conjugated_exactly(self):
        assert self.pairing(build_layer(0.53, -0.91, 8), 13) < 1e-10

    def test_fine_weights_double_the_chain(self):
        rng = np.random.default_rng(3)
        w = random_mps(4, 3, rng)
        fw, _ = fine_grain_weights(w, build_daub4_layer(8))
        assert len(fw) == 8
        assert all(d == 2 for d in fw.site_dims)

    def test_entangled_weights_are_preserved(self):
        """The identity holds for any weight chain, not just low bond."""
        rng = np.random.default_rng(17)
        layer = build_daub4_layer(8)
        w = random_mps(4, 4, rng)
        fw, _ = fine_grain_weights(w, layer, delta=0.0, chi_max=None)
        for _ in range(6):
            x = random_product_state(8, rng)
            cx = apply_layer(x, layer, delta_data=0.0, chi_data=None)
            assert abs(inner(fw, x) - inner(w, cx)) < 1e-10


class TestTruncationControls:
    def test_zero_delta_reports_no_error(self):
        rng = np.random.default_rng(5)
        w = random_mps(4, 2, rng)
        _, err = fine_grain_weights(w, build_daub4_layer(8), delta=0.0)
        assert err <= 1e-24

    def test_chi_cap_is_enforced_and_reported(self):
        rng = np.random.default_rng(19)
        w = random_mps(6, 5, rng)
        fw, err = fine_grain_weights(w, build_daub4_layer(12), delta=0.0,
                                     chi_max=2)
        assert max(fw.bond_dims) <= 2
        assert err > 0.0

    def test_wrong_layer_width_is_rejected(self):
        rng = np.random.default_rng(23)
        w = random_mps(4, 2, rng)
        with pytest.raises(DimensionError):
            fine_grain_weights(w, build_daub4_layer(12))

    def test_wide_site_dimension_is_rejected(self):
        rng = np.random.default_rng(29)
        w = random_mps(4, 2, rng, site_dim=3)
        with pytest.raises(DimensionError):
            fine_grain_weights(w, build_daub4_layer(8))


def small_cache(seed=31, n=16, n_samples=24, n_layers=1):
    """Encode short noisy sinusoids and coarse-grain them one layer."""
    rng = np.random.default_rng(seed)
    signals, labels = two_class_signals(n_samples // 2, n, 0.05, seed,
                                        freqs=(2.0, 5.0))
    return coarse_grain_dataset(encode_samples(signals), labels, n_layers, delta_data=1e-12,
                                chi_data=16)


class TestOutputPreservation:
    def test_trained_model_survives_fine_graining(self):
        """Outputs on the cached fine data match the coarse outputs."""
        cache = small_cache()
        layer = build_daub4_layer(cache.scales[0].n_sites)
        cfg = TrainConfig(n_sweeps=3, delta_weights=1e-12, chi_max=6, seed=4)
        w, _ = train(cache.scales[1], cfg)
        fw, _ = fine_grain_weights(w, layer, delta=0.0, chi_max=None)
        for xs_fine, xs_coarse in zip(cache.scales[0].samples,
                                      cache.scales[1].samples):
            fc = inner(w, xs_coarse)
            ff = inner(fw, xs_fine)
            assert abs(ff - fc) <= 1e-8 * max(1.0, abs(fc))

    def test_cost_carries_over_between_scales(self):
        cache = small_cache(seed=37)
        layer = build_daub4_layer(cache.scales[0].n_sites)
        cfg = TrainConfig(n_sweeps=3, delta_weights=1e-12, chi_max=6, seed=8)
        w, _ = train(cache.scales[1], cfg)
        fw, _ = fine_grain_weights(w, layer, delta=0.0, chi_max=None)
        c_coarse = cost(w, cache.scales[1])
        c_fine = cost(fw, cache.scales[0])
        assert abs(c_fine - c_coarse) <= 1e-8 * max(1.0, c_coarse)


class TestMultiscaleSchedule:
    """``wmera pipeline`` is the schedule: train the coarsest scale, then
    fine-grain and retrain at each finer scale down to ``fine_grain_to``."""

    def run_pipeline(self, tmp_path, extra_config):
        """One CG step per solve, so every sweep still lowers the cost and
        each scale runs its configured ``n_sweeps``."""
        cfg_path = classification_workspace(tmp_path)
        cfg_path.write_text(CLASS_CONFIG.replace("n_d4_layers = 1", "n_d4_layers = 2")
                            .replace("cg_max_iters = 20", "cg_max_iters = 1")
                            + extra_config)
        return run_cli("pipeline", "--config", cfg_path), tmp_path / "out"

    def records(self, out):
        return [json.loads(line) for line in (out / "metrics.jsonl").read_text().splitlines()]

    def metrics(self, out):
        return [(r["scale"], r["sweep"]) for r in self.records(out) if "sweep" in r]

    def test_stats_cover_every_visited_scale(self, tmp_path, capsys):
        rc, out = self.run_pipeline(tmp_path, "fine_grain_to = 0\nn_sweeps@0 = 1\n")
        assert rc == 0
        # n_sweeps = 3 at scales 2 and 1, overridden to 1 at scale 0
        assert self.metrics(out) == [(2, 0), (2, 1), (2, 2), (1, 0), (1, 1), (1, 2), (0, 0)]
        summary = json.loads((out / "summary.json").read_text())
        assert [s["scale"] for s in summary["scales"]] == [2, 1, 0]
        for entry in summary["scales"]:
            assert entry["model_file"] == f"model_scale{entry['scale']}.mps"
            assert len(load_mps(out / entry["model_file"])) == 8 >> entry["scale"]

    def test_fine_graining_is_recorded_before_each_finer_scale(self, tmp_path, capsys):
        """Each fine-grained scale opens with one record of the truncated
        weight and the train cost just before and just after fine-graining.
        Without data or weight truncation the layer preserves every output
        and the weight norm, so the two costs agree."""
        exact = "chi_data = 64\ndelta_data = 0\nchi_max = 64\ndelta_weights = 0\n"
        rc, out = self.run_pipeline(tmp_path, "fine_grain_to = 0\nlambda = 0.01\n" + exact)
        assert rc == 0
        records = self.records(out)
        fine = [r for r in records if "sweep" not in r]
        assert [(r["scale"], r["finegrain_from"]) for r in fine] == [(1, 2), (0, 1)]
        for r in fine:
            assert set(r) == {"scale", "finegrain_from", "truncated_weight",
                              "cost_before", "cost_after"}
            assert r["truncated_weight"] <= 1e-20
            assert abs(r["cost_after"] - r["cost_before"]) <= 1e-10 * r["cost_before"]
            # the record opens its scale, just after the coarser scale's sweeps
            at = records.index(r)
            assert records[at - 1]["scale"] == r["finegrain_from"]
            assert r["cost_before"] == records[at - 1]["cost"]

    def test_single_scale_degenerates_to_train(self, tmp_path, capsys):
        rc, out = self.run_pipeline(tmp_path, "fine_grain_to = 2\n")
        assert rc == 0
        assert self.metrics(out) == [(2, 0), (2, 1), (2, 2)]
        cfg_path = tmp_path / "run.cfg"
        alone = tmp_path / "alone"
        assert run_cli("preprocess", "--config", cfg_path, "--output", alone) == 0
        assert run_cli("train", "--config", cfg_path, "--output", alone) == 0
        for name in ("metrics.jsonl", "model_scale2.mps"):
            assert (alone / name).read_bytes() == (out / name).read_bytes()

    def test_per_scale_configs_are_honoured(self, tmp_path, capsys):
        rc, out = self.run_pipeline(tmp_path, "n_sweeps@2 = 1\nn_sweeps@1 = 2\n")
        assert rc == 0
        assert self.metrics(out) == [(2, 0), (1, 0), (1, 1), (0, 0), (0, 1), (0, 2)]

    def test_uncached_scale_is_rejected(self, tmp_path, capsys):
        """A cache built with one layer has no scale 2 to start from."""
        cfg_path = classification_workspace(tmp_path)
        assert run_cli("preprocess", "--config", cfg_path) == 0
        assert run_cli("train", "--config", cfg_path, "--scale", "2") == 2
        assert "not in cache" in capsys.readouterr().err

    def test_backwards_scale_range_is_rejected(self, tmp_path, capsys):
        rc, _ = self.run_pipeline(tmp_path, "fine_grain_to = 3\n")
        assert rc == 2
        assert "fine_grain_to" in capsys.readouterr().err
