"""Layer application on chains, checked against brute-force dense states."""

import json
import struct
import tempfile
import zlib
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import wmera.coarsegrain
from synthdata import random_mps, random_product_state
from wmera.coarsegrain import (
    ScaleCache,
    ScaleData,
    _apply_pair_gates,
    _compress,
    apply_layer,
    coarse_grain_dataset,
    fine_grain_weights,
    load_cache,
    read_cache_manifest,
    save_cache,
    single_particle_response,
)
from wmera.errors import ArgumentError, DataError, DimensionError, FormatError, StateError
from wmera.mps import MPS, MPSStack, inner, product_state
from wmera.wavelet import (build_daub4_layer, build_haar_layer, build_layer, daub4_from_angles,
                           DAUB4_ANGLES)


def dense_layer_oracle(vec: np.ndarray, layer, n: int) -> np.ndarray:
    """Apply one layer to a dense state vector, axis by axis.

    Gates hit pairs (2i+1, 2i+2 mod n) through their first index; the pair
    map then contracts every (2i, 2i+1) couple down to one coarse site.
    """
    psi = vec.reshape([2] * n)
    g4 = layer.disentangler.reshape(2, 2, 2, 2)
    for i in range(n // 2):
        a, b = (2 * i + 1) % n, (2 * i + 2) % n
        psi = np.tensordot(g4, psi, axes=([0, 1], [a, b]))
        psi = np.moveaxis(psi, [0, 1], [a, b])
    psi = psi.reshape([4] * (n // 2))
    for i in range(n // 2):
        psi = np.tensordot(layer.isometry, psi, axes=(1, i))
        psi = np.moveaxis(psi, 0, i)
    return psi.ravel()


def pair_gates(m: MPS, gate: np.ndarray, delta: float, chi) -> tuple[MPS, float]:
    """The pair-gate kernel, without isometries, on a stack of one."""
    st, err = _apply_pair_gates(MPSStack.from_states([m]), gate, delta, chi)
    return st.states()[0], float(err[0])


def ref_move_center(cores: list, old, new: int) -> list:
    """Per-chain gauge move by numpy QR, one core at a time; ``old = None``
    orthogonalizes every core outside ``new``."""
    cores = list(cores)
    lo, hi = (0, len(cores) - 1) if old is None else (old, old)
    for j in range(lo, new):
        dl, d, dr = cores[j].shape
        q, r = np.linalg.qr(cores[j].reshape(dl * d, dr))
        cores[j] = q.reshape(dl, d, -1)
        cores[j + 1] = np.tensordot(r, cores[j + 1], axes=(1, 0))
    for j in range(hi, new, -1):
        dl, d, dr = cores[j].shape
        q, r = np.linalg.qr(cores[j].reshape(dl, d * dr).T)  # core = R^T Q^T
        cores[j] = q.T.reshape(-1, d, dr)
        cores[j - 1] = np.tensordot(cores[j - 1], r, axes=(2, 1))
    return cores


def ref_split(cores: list, j: int, block: np.ndarray, delta: float, chi,
              absorb_left: bool = False) -> list:
    """Per-chain truncated SVD split of a (left, site, site, right) block into
    cores j and j + 1, singular values absorbed to the right, or to the left
    with ``absorb_left``. The rank rule: keep s >= delta, at most chi, at
    least one."""
    dl, d, d2, dr = block.shape
    u, s, vh = np.linalg.svd(block.reshape(dl * d, d2 * dr), full_matrices=False)
    keep = int(np.count_nonzero(s >= delta))
    if chi is not None:
        keep = min(keep, chi)
    keep = max(keep, 1)
    u, vh = u[:, :keep], vh[:keep]
    if absorb_left:
        u = u * s[:keep]
    else:
        vh = s[:keep, None] * vh
    cores = list(cores)
    cores[j] = u.reshape(dl, d, keep)
    cores[j + 1] = vh.reshape(keep, d2, dr)
    return cores


def ref_merge(cores: list, j: int) -> np.ndarray:
    return np.tensordot(cores[j], cores[j + 1], axes=(2, 0))


def ref_enlarged_chain(cores: list, g4: np.ndarray) -> list:
    """One chain's wrap gate ``g4`` as an open chain: a sum over per-end
    operator pairs, whose index runs through every interior bond, block
    diagonal there."""
    u, s, vh = np.linalg.svd(g4.transpose(0, 2, 1, 3).reshape(4, 4))
    keep = s > 1e-14
    left_ops = (u[:, keep] * np.sqrt(s[keep])).T.reshape(-1, 2, 2)
    right_ops = (np.sqrt(s[keep])[:, None] * vh[keep]).reshape(-1, 2, 2)
    eye = np.eye(len(left_ops))
    grown = [np.concatenate([np.einsum("tb,ltr->lbr", q, cores[0]) for q in right_ops],
                            axis=2)]
    grown += [np.einsum("bc,lsr->blscr", eye, c).reshape(len(eye) * c.shape[0], 2, -1)
              for c in cores[1:-1]]
    grown.append(np.concatenate([np.einsum("sa,lsr->lar", p, cores[-1]) for p in left_ops],
                                axis=0))
    return grown


def reference_layer(m: MPS, layer, delta: float, chi) -> MPS:
    """One layer applied gate by gate to one state, on the per-chain
    algebra above: the reference the stacked kernel must reproduce,
    truncation included."""
    n = len(m)
    g4 = layer.disentangler.reshape(2, 2, 2, 2)
    cores, center = m.cores, None
    for j in range(1, n - 2, 2):
        cores = ref_move_center(cores, center, j)
        gated = np.einsum("lstr,stab->labr", ref_merge(cores, j), g4)
        cores, center = ref_split(cores, j, gated, delta, chi), j + 1
    grown = ref_enlarged_chain(cores, g4)
    v3 = layer.isometry.reshape(2, 2, 2)
    cores = [np.einsum("lstr,cst->lcr", ref_merge(grown, 2 * i), v3) for i in range(n // 2)]
    # compression: center to the last site, then split leftward
    cores = ref_move_center(cores, None, n // 2 - 1)
    for j in range(n // 2 - 2, -1, -1):
        cores = ref_split(cores, j, ref_merge(cores, j), delta, chi, absorb_left=True)
    return MPS(cores)


def relative_sq_distance(a: MPS, b: MPS) -> float:
    aa, bb = inner(a, a), inner(b, b)
    return (aa + bb - 2.0 * inner(a, b)) / aa


class TestSingleParticleResponse:
    def test_daub4_stencil_rows(self):
        """Every row is the 4-tap stencil at stride 2 with periodic wrap."""
        taps = daub4_from_angles(*DAUB4_ANGLES)
        for n in (8, 16):
            resp = single_particle_response(build_daub4_layer(n))
            assert resp.shape == (n // 2, n)
            for i in range(n // 2):
                want = np.zeros(n)
                for k in range(4):
                    want[(2 * i - 1 + k) % n] = taps[k]
                np.testing.assert_allclose(resp[i], want, atol=1e-12)

    def test_haar_rows_average_pairs(self):
        resp = single_particle_response(build_haar_layer(8))
        want = np.zeros((4, 8))
        for i in range(4):
            want[i, 2 * i] = want[i, 2 * i + 1] = np.sqrt(0.5)
        np.testing.assert_allclose(resp, want, atol=1e-12)


class TestDenseEquivalence:
    def test_full_layer_matches_dense_oracle(self):
        """Gate + isometry sweep on bond-2 chains vs brute force, no cutoff."""
        rng = np.random.default_rng(21)
        for n in (4, 8):
            layer = build_daub4_layer(n)
            for _ in range(20):
                m = random_mps(n, 2, rng)
                dense_in = m.to_dense().ravel()
                want = dense_layer_oracle(dense_in, layer, n)
                out = apply_layer(m, layer, 0.0, None)
                got = out.to_dense().ravel()
                scale = max(1.0, float(np.max(np.abs(want))))
                assert np.max(np.abs(got - want)) <= 1e-10 * scale

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.sampled_from([4, 8, 16]),
           theta_u=st.floats(-np.pi, np.pi), theta_v=st.floats(-np.pi, np.pi),
           product=st.booleans())
    def test_layer_at_random_angles_matches_dense_oracle(self, seed, n, theta_u, theta_v,
                                                         product):
        """Any (theta_u, theta_v), product or bond-2 input: the untruncated
        layer is the dense layer to 1e-12 relative."""
        rng = np.random.default_rng(seed)
        layer = build_layer(theta_u, theta_v, n)
        m = random_product_state(n, rng) if product else random_mps(n, 2, rng)
        want = dense_layer_oracle(m.to_dense().ravel(), layer, n)
        got = apply_layer(m, layer, 0.0, None).to_dense().ravel()
        assert np.linalg.norm(got - want) <= 1e-12 * np.linalg.norm(want)

    def test_gates_alone_match_dense(self):
        rng = np.random.default_rng(22)
        n = 8
        layer = build_daub4_layer(n)
        g4 = layer.disentangler.reshape(2, 2, 2, 2)
        for _ in range(10):
            m = random_mps(n, 2, rng)
            psi = m.to_dense().reshape([2] * n)
            for i in range(n // 2):
                a, b = (2 * i + 1) % n, (2 * i + 2) % n
                psi = np.tensordot(g4, psi, axes=([0, 1], [a, b]))
                psi = np.moveaxis(psi, [0, 1], [a, b])
            out, err = pair_gates(m, layer.disentangler, 0.0, None)
            assert err == 0.0
            np.testing.assert_allclose(out.to_dense().reshape([2] * n), psi,
                                       atol=1e-10)

    def test_identity_gate_is_noop(self):
        rng = np.random.default_rng(23)
        m = random_mps(6, 2, rng)
        out, err = pair_gates(m, np.eye(4), 1e-12, 16)
        assert err == 0.0
        np.testing.assert_allclose(out.to_dense(), m.to_dense(), atol=1e-13)

    def test_haar_layer_on_feature_chain(self):
        """With identity gates the coarse chain encodes pairwise Haar sums in
        the excited channel when the ground channel is flat."""
        x = np.array([0.3, 0.7, 0.2, 0.9, 0.5, 0.1, 0.8, 0.4])
        m = product_state([np.array([1.0, v]) for v in x])
        out = apply_layer(m, build_haar_layer(8), 1e-12, 16)
        # coarse site amplitudes: (1, (x_2i + x_2i+1)/sqrt(2)); the vacuum
        # channel passes through untouched
        for i, core in enumerate(out.cores):
            vec = core.reshape(2)
            pair_sum = (x[2 * i] + x[2 * i + 1]) / np.sqrt(2.0)
            assert abs(vec[0] - 1.0) < 1e-12
            assert abs(vec[1] - pair_sum) < 1e-12


class TestBondGrowth:
    def test_rank_pattern_after_gates(self):
        """The wrap-around gate threads every cut, so interior bonds reach 4
        on even cuts and 2 on odd cuts; nothing exceeds that."""
        rng = np.random.default_rng(24)
        n = 12
        layer = build_daub4_layer(n)
        for _ in range(5):
            m = random_product_state(n, rng)
            out, _ = pair_gates(m, layer.disentangler, 1e-12, None)
            dims = out.bond_dims
            assert dims[0] == dims[n] == 1
            for cut in range(1, n):
                cap = 4 if cut % 2 == 0 else 2
                assert dims[cut] <= cap

    def test_chi_cap_enforced(self):
        rng = np.random.default_rng(25)
        m = random_mps(8, 4, rng)
        out, err = pair_gates(m, build_daub4_layer(8).disentangler, 0.0, 3)
        assert out.max_bond <= 3
        assert err > 0.0


class TestLadder:
    def test_ladder_shapes(self):
        rng = np.random.default_rng(26)
        m = random_product_state(16, rng)
        cache = coarse_grain_dataset([m], [0.0], 2)
        assert [sd.n_sites for sd in cache.scales] == [16, 8, 4]

    def test_rejects_indivisible_lengths(self):
        rng = np.random.default_rng(27)
        with pytest.raises(ArgumentError):
            coarse_grain_dataset([random_product_state(6, rng)], [0.0], 2)
        with pytest.raises(ArgumentError):
            coarse_grain_dataset([random_product_state(8, rng)], [0.0], 3)

    def test_wrong_layer_width_rejected(self):
        rng = np.random.default_rng(28)
        m = random_product_state(8, rng)
        with pytest.raises(DimensionError):
            apply_layer(m, build_haar_layer(16))

    def test_dataset_is_deterministic(self):
        """Two runs on one mixed batch give bitwise-equal cores."""
        rng = np.random.default_rng(29)
        samples = ([random_product_state(8, rng) for _ in range(4)]
                   + [random_mps(8, 3, rng) for _ in range(3)])
        ys = np.arange(7.0)
        a = coarse_grain_dataset(samples, ys, 2, 1e-12, 3)
        b = coarse_grain_dataset(samples, ys, 2, 1e-12, 3)
        for sa, sb in zip(a.scales, b.scales):
            for ma, mb in zip(sa.samples, sb.samples):
                assert len(ma.cores) == len(mb.cores)
                for ca, cb in zip(ma.cores, mb.cores):
                    np.testing.assert_array_equal(ca, cb)


def mixed_batch(seed: int, n_sites: int, n_products: int, n_random: int) -> list[MPS]:
    """Product states with some zero features, then random chains of bond 1-3
    with norms between 1e-13 and 1, so their ranks differ from sample to
    sample and an absolute ``delta`` cuts each spectrum in a different place."""
    rng = np.random.default_rng(seed)
    batch = []
    for _ in range(n_products):
        x = rng.uniform(0.0, 1.0, n_sites) * (rng.uniform(size=n_sites) < 0.6)
        batch.append(product_state([np.array([1.0, v]) for v in x]))
    for _ in range(n_random):
        m = random_mps(n_sites, int(rng.integers(1, 4)), rng)
        scale = (10.0 ** rng.uniform(-13.0, 0.0) / np.sqrt(inner(m, m))) ** (1.0 / n_sites)
        batch.append(MPS([c * scale for c in m.cores]))
    return batch


def assert_right_orthogonal(m: MPS) -> None:
    """Cores 1... of ``m``, each as a (left bond, site x right bond)
    matrix, have orthonormal rows."""
    for core in m.cores[1:]:
        mat = core.reshape(core.shape[0], -1)
        np.testing.assert_allclose(mat @ mat.T, np.eye(len(mat)), atol=1e-10)


class TestStackedKernel:
    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.sampled_from([4, 8]),
           two_layers=st.booleans(), n_products=st.integers(0, 4),
           n_random=st.integers(0, 4), delta=st.sampled_from([0.0, 1e-12]),
           chi=st.sampled_from([None, 1, 2, 3, 16]))
    def test_batch_matches_each_sample_alone(self, seed, n_sites, two_layers, n_products,
                                             n_random, delta, chi):
        """Every sample of a mixed batch gets the bonds and state that the
        kernel gives it alone, and that the gate-by-gate reference gives."""
        batch = mixed_batch(seed, n_sites, n_products, n_random)
        if not batch:
            batch = mixed_batch(seed, n_sites, 1, 0)
        n_layers = 2 if two_layers and n_sites == 8 else 1
        cache = coarse_grain_dataset(batch, np.zeros(len(batch)), n_layers, delta, chi)
        for i, x in enumerate(batch):
            alone = coarse_grain_dataset([x], [0.0], n_layers, delta, chi).scales
            ref = x
            for level in range(1, n_layers + 1):
                ref = reference_layer(ref, build_daub4_layer(len(ref)), delta, chi)
                got, own = cache.scales[level].samples[i], alone[level].samples[0]
                assert got.bond_dims == own.bond_dims == ref.bond_dims
                assert relative_sq_distance(got, own) <= 1e-12
                assert relative_sq_distance(got, ref) <= 1e-12

    @pytest.mark.parametrize("seed, chi", [(40, None), (41, 3), (42, 16)])
    def test_wrap_chunks_do_not_change_states(self, seed, chi, monkeypatch):
        """A wrap chunk of one sample and one chunk of all samples give every
        sample the same bonds and, within roundoff, the same state."""
        batch = mixed_batch(seed, 8, 3, 4)
        wrap = wmera.coarsegrain._apply_gate_straddling
        calls = []

        def counted(st, *args):
            calls.append(len(st.bonds))
            return wrap(st, *args)

        monkeypatch.setattr(wmera.coarsegrain, "_apply_gate_straddling", counted)
        runs = []
        for budget in (1, 1 << 40):
            monkeypatch.setattr(wmera.coarsegrain, "_CHUNK_BYTES", budget)
            calls.clear()
            runs.append(coarse_grain_dataset(batch, np.zeros(len(batch)), 2, 1e-12, chi))
            assert calls == ([1] * len(batch) * 2 if budget == 1 else [len(batch)] * 2)
        small, whole = runs
        for level in (1, 2):
            np.testing.assert_array_equal(small.scales[level].stack.bonds,
                                          whole.scales[level].stack.bonds)
            for a, b in zip(small.scales[level].samples, whole.scales[level].samples):
                assert relative_sq_distance(a, b) <= 1e-12

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.sampled_from([8, 16]),
           n_products=st.integers(0, 3), n_random=st.integers(1, 3),
           delta=st.sampled_from([0.0, 1e-12]), chi=st.sampled_from([None, 2, 3, 16]))
    def test_layer_outputs_are_centered_at_site_0(self, seed, n_sites, n_products,
                                                  n_random, delta, chi):
        """Every layer's output stack claims center 0, and its cores 1... are
        right-orthogonal within each sample's own bonds; fine-grained weights
        claim and hold the same gauge."""
        batch = mixed_batch(seed, n_sites, n_products, n_random)
        cache = coarse_grain_dataset(batch, np.zeros(len(batch)), 2, delta, chi)
        for sd in cache.scales[1:]:
            assert sd.stack.center == 0
            for x in sd.samples:
                assert_right_orthogonal(x)
        w = random_mps(n_sites // 2, 3, np.random.default_rng(seed))
        fine, _ = fine_grain_weights(w, build_daub4_layer(n_sites), delta, chi)
        assert fine.ortho_center == 0
        assert_right_orthogonal(fine)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.sampled_from([4, 8, 16]),
           isometries=st.booleans(), n_samples=st.integers(2, 5),
           n_products=st.integers(0, 5), delta=st.sampled_from([0.0, 1e-12]),
           chi=st.sampled_from([None, 2, 3]))
    def test_wrap_stage_matches_enlarged_chain_compression(self, seed, n_sites, isometries,
                                                          n_samples, n_products, delta, chi):
        """The wrap stage on a padded stack of 2 to 5 mixed samples gives
        each sample the bonds, state and truncation error of a textbook
        compression of its explicitly enlarged chain: a QR sweep to the
        last site, then one-site SVDs right to left."""
        n_products = min(n_products, n_samples)
        batch = mixed_batch(seed, n_sites, n_products, n_samples - n_products)
        layer = build_daub4_layer(n_sites)
        g4 = layer.disentangler.reshape(2, 2, 2, 2)
        v3 = layer.isometry.reshape(2, 2, 2)
        out, err = wmera.coarsegrain._apply_gate_straddling(
            MPSStack.from_states(batch), layer.disentangler, delta, chi,
            layer if isometries else None)
        assert err.shape == (n_samples,)
        for x, got, got_err in zip(batch, out.states(), err):
            cores = ref_enlarged_chain(x.cores, g4)
            if isometries:
                cores = [np.einsum("lstr,cst->lcr", ref_merge(cores, j), v3)
                         for j in range(0, n_sites, 2)]
            cores = ref_move_center(cores, None, len(cores) - 1)
            want_err = 0.0
            for j in range(len(cores) - 1, 0, -1):
                dl, d, dr = cores[j].shape
                u, s, vh = np.linalg.svd(cores[j].reshape(dl, d * dr), full_matrices=False)
                keep = max(min(int(np.count_nonzero(s >= delta)), chi or len(s)), 1)
                want_err += float(np.sum(s[keep:] ** 2))
                cores[j] = vh[:keep].reshape(keep, d, dr)
                cores[j - 1] = np.tensordot(cores[j - 1], u[:, :keep] * s[:keep], axes=(2, 0))
            want = MPS(cores)
            assert got.bond_dims == want.bond_dims
            assert relative_sq_distance(got, want) <= 1e-12
            assert abs(got_err - want_err) <= 1e-10 * want_err + 1e-24

    def test_compress_reduces_padded_bonds(self):
        rng = np.random.default_rng(10)
        base = random_product_state(6, rng)
        padded_cores = []
        for core in base.cores:
            grown = np.zeros((core.shape[0] * 2, 2, core.shape[2] * 2))
            grown[: core.shape[0], :, : core.shape[2]] = core
            padded_cores.append(grown)
        padded_cores[0] = padded_cores[0][:1]
        padded_cores[-1] = padded_cores[-1][:, :, :1]
        stack = MPSStack.from_states([MPS(padded_cores)])
        err = _compress(stack, 1, 1e-12, None)
        out = stack.states()[0]
        assert out.max_bond == 1
        assert err[0] < 1e-20
        np.testing.assert_allclose(out.to_dense(), base.to_dense(), atol=1e-12)


def load_scales(directory) -> list[ScaleData]:
    """Every scale of the cache at ``directory``, finest first, read as the
    commands read them: the manifest once, then one scale at a time."""
    manifest = read_cache_manifest(directory)
    return [load_cache(directory, manifest, level) for level in range(len(manifest["scales"]))]


class TestCachePersistence:
    def _make_cache(self):
        rng = np.random.default_rng(30)
        samples = [random_product_state(8, rng) for _ in range(4)]
        return coarse_grain_dataset(samples, np.array([1.0, -1.0, 1.0, -1.0]), 1)

    def test_round_trip(self, tmp_path):
        cache = self._make_cache()
        save_cache(cache, tmp_path / "c", fingerprint="abc123")
        assert read_cache_manifest(tmp_path / "c")["fingerprint"] == "abc123"
        loaded = load_scales(tmp_path / "c")
        assert len(loaded) == 2
        np.testing.assert_array_equal(loaded[0].labels, cache.scales[0].labels)
        for sa, sb in zip(cache.scales, loaded):
            for ma, mb in zip(sa.samples, sb.samples):
                for ca, cb in zip(ma.cores, mb.cores):
                    np.testing.assert_array_equal(ca, cb)

    def test_checksum_tamper_detected(self, tmp_path):
        save_cache(self._make_cache(), tmp_path / "c")
        victim = tmp_path / "c" / "scale_001.bin"
        data = bytearray(victim.read_bytes())
        data[-1] ^= 0x01
        victim.write_bytes(bytes(data))
        with pytest.raises(DataError):
            load_scales(tmp_path / "c")

    def test_missing_cache_is_state_error(self, tmp_path):
        with pytest.raises(StateError):
            load_scales(tmp_path / "nope")

    def test_bad_manifest_json(self, tmp_path):
        d = tmp_path / "c"
        save_cache(self._make_cache(), d)
        (d / "manifest.json").write_text("{broken", encoding="utf-8")
        with pytest.raises(FormatError):
            load_scales(d)

    def test_foreign_manifest_rejected(self, tmp_path):
        d = tmp_path / "c"
        d.mkdir()
        (d / "manifest.json").write_text(json.dumps({"format": "other"}),
                                         encoding="utf-8")
        with pytest.raises(FormatError):
            load_scales(d)

    def test_scale_width_validation(self):
        rng = np.random.default_rng(31)
        fine = ScaleData([random_product_state(8, rng)], np.array([1.0]))
        coarse = ScaleData([random_product_state(6, rng)], np.array([1.0]))
        with pytest.raises(DimensionError):
            ScaleCache([fine, coarse])


def random_stack(seed: int, n_samples: int, n_sites: int) -> MPSStack:
    """Random chains padded into one stack: site dimensions 1-3 shared site
    by site, interior bonds 1-5 drawn for every sample on its own."""
    rng = np.random.default_rng(seed)
    dims = rng.integers(1, 4, n_sites)
    bonds = np.ones((n_samples, n_sites + 1), dtype=int)
    bonds[:, 1:-1] = rng.integers(1, 6, (n_samples, n_sites - 1))
    cores = []
    for j, d in enumerate(dims):
        core = np.zeros((n_samples, bonds[:, j].max(), d, bonds[:, j + 1].max()))
        for i, b in enumerate(bonds):
            core[i, :b[j], :, :b[j + 1]] = rng.standard_normal((b[j], d, b[j + 1]))
        cores.append(core)
    return MPSStack(cores, bonds)


def reference_records(st: MPSStack) -> tuple[bytes, list[int]]:
    """The version-1 scale file of ``st``, written field by field from the
    documented layout (per sample: core count u32; per core: rank u32, three
    extents u64, little-endian f64 data), and the offsets of its header bytes."""
    out, headers = bytearray(), []
    for i, b in enumerate(st.bonds):
        headers += range(len(out), len(out) + 4)
        out += struct.pack("<I", len(st.cores))
        for j, c in enumerate(st.cores):
            core = c[i, :b[j], :, :b[j + 1]]
            headers += range(len(out), len(out) + 28)
            out += struct.pack("<IQQQ", 3, *core.shape)
            out += core.astype("<f8").tobytes()
    return bytes(out), headers


class TestCacheReader:
    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 6),
           n_sites=st.integers(2, 8))
    def test_round_trip_of_padded_stacks(self, seed, n_samples, n_sites):
        """A saved stack loads back with equal arrays and bonds, from a file
        whose bytes equal the per-record reference writer's."""
        st_in = random_stack(seed, n_samples, n_sites)
        want, _ = reference_records(st_in)
        with tempfile.TemporaryDirectory() as tmp:
            save_cache(ScaleCache([ScaleData(st_in, np.arange(n_samples))]), tmp)
            assert (Path(tmp) / "scale_000.bin").read_bytes() == want
            got = load_scales(tmp)[0].stack
        np.testing.assert_array_equal(got.bonds, st_in.bonds)
        assert len(got.cores) == n_sites
        for a, b in zip(got.cores, st_in.cores):
            assert a.shape == b.shape
            np.testing.assert_array_equal(a, b)

    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 4),
           n_sites=st.integers(2, 6), data=st.data(),
           kind=st.sampled_from(["truncate", "append", "edit", "edit-header"]))
    def test_damaged_scale_file_fails_cleanly(self, seed, n_samples, n_sites, data, kind):
        """A truncated scale file, or one with bytes after its last record, is a
        FormatError naming the defect; edited bytes either load or end in FormatError or
        DataError. The manifest's checksum is rewritten to match each time, so
        the checksum cannot catch the damage first."""
        st_in = random_stack(seed, n_samples, n_sites)
        blob, headers = reference_records(st_in)
        blob = bytearray(blob)
        if kind == "truncate":
            del blob[data.draw(st.integers(0, len(blob) - 1)):]
        elif kind == "append":
            blob += data.draw(st.binary(min_size=1, max_size=64))
        else:
            where = st.sampled_from(headers) if kind == "edit-header" else st.integers(
                0, len(blob) - 1)
            for _ in range(data.draw(st.integers(1, 6))):
                blob[data.draw(where)] = data.draw(st.integers(0, 255))
        with tempfile.TemporaryDirectory() as tmp:
            save_cache(ScaleCache([ScaleData(st_in, np.zeros(n_samples))]), tmp)
            (Path(tmp) / "scale_000.bin").write_bytes(bytes(blob))
            manifest_path = Path(tmp) / "manifest.json"
            manifest = json.loads(manifest_path.read_text())
            manifest["scales"][0]["crc32"] = f"{zlib.crc32(blob):08x}"
            manifest_path.write_text(json.dumps(manifest))
            if kind in ("truncate", "append"):
                with pytest.raises(FormatError, match="truncated" if kind == "truncate"
                                   else "after the last state record"):
                    load_scales(tmp)
            else:
                try:
                    load_scales(tmp)
                except (FormatError, DataError):
                    pass
