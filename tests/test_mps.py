"""Chain construction, gauges, two-site merge/split, and model files."""

import numpy as np
import pytest

from synthdata import random_mps
from wmera.errors import DimensionError, FormatError, StateError
from wmera.mps import (
    MPS,
    canonicalize,
    inner,
    load_mps,
    merge_bond,
    product_state,
    save_mps,
    split_bond,
)


def kron_state(vectors):
    out = np.array([1.0])
    for v in vectors:
        out = np.kron(out, v)
    return out


class TestConstruction:
    def test_product_state_dense_is_kronecker(self):
        vecs = [np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.array([3.0, 1.0])]
        m = product_state(vecs)
        np.testing.assert_allclose(m.to_dense().ravel(), kron_state(vecs), atol=1e-14)
        assert m.bond_dims == [1, 1, 1, 1]

    def test_rejects_mismatched_bonds(self):
        with pytest.raises(DimensionError):
            MPS([np.zeros((1, 2, 3)), np.zeros((2, 2, 1))])

    def test_rejects_open_boundary_violation(self):
        with pytest.raises(DimensionError):
            MPS([np.zeros((2, 2, 1))])

    def test_inner_matches_dense(self):
        rng = np.random.default_rng(0)
        for _ in range(5):
            a = random_mps(5, 3, rng)
            b = random_mps(5, 2, rng)
            dense = float(a.to_dense().ravel() @ b.to_dense().ravel())
            assert abs(inner(a, b) - dense) < 1e-10 * max(1.0, abs(dense))

    def test_norm_sq(self):
        rng = np.random.default_rng(1)
        m = random_mps(4, 3, rng)
        dense = m.to_dense().ravel()
        assert abs(inner(m, m) - dense @ dense) < 1e-10 * (dense @ dense)


class TestCanonicalize:
    def test_preserves_state(self):
        rng = np.random.default_rng(2)
        m = random_mps(6, 4, rng)
        dense = m.to_dense()
        for center in (0, 3, 5):
            c = canonicalize(m, center)
            np.testing.assert_allclose(c.to_dense(), dense, atol=1e-10)
            assert c.ortho_center == center

    def test_orthonormality_left_and_right(self):
        rng = np.random.default_rng(3)
        m = canonicalize(random_mps(6, 4, rng), 3)
        for j in range(3):
            a = m.cores[j].reshape(-1, m.cores[j].shape[2])
            np.testing.assert_allclose(a.T @ a, np.eye(a.shape[1]), atol=1e-12)
        for j in range(4, 6):
            a = m.cores[j].reshape(m.cores[j].shape[0], -1)
            np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-12)

    def test_center_carries_full_norm(self):
        rng = np.random.default_rng(4)
        m = canonicalize(random_mps(5, 3, rng), 2)
        c = m.cores[2].ravel()
        assert abs(float(c @ c) - inner(m, m)) < 1e-10 * float(c @ c)

    def test_incremental_shift_equals_fresh(self):
        """Moving the center one bond at a time lands on the same gauge."""
        rng = np.random.default_rng(5)
        m = canonicalize(random_mps(6, 3, rng), 0)
        stepped = m
        for center in range(1, 6):
            stepped = canonicalize(stepped, center)
        fresh = canonicalize(m, 5)
        np.testing.assert_allclose(stepped.to_dense(), fresh.to_dense(), atol=1e-10)
        for j in range(5):
            a = stepped.cores[j].reshape(-1, stepped.cores[j].shape[2])
            np.testing.assert_allclose(a.T @ a, np.eye(a.shape[1]), atol=1e-12)


class TestMergeSplit:
    def test_round_trip_identity(self):
        rng = np.random.default_rng(6)
        m = canonicalize(random_mps(5, 3, rng), 2)
        dense = m.to_dense()
        b = merge_bond(m, 2)
        # economy QR during canonicalization trims the edge-adjacent bond to 2
        assert b.value.shape == (3, 2, 2, 2)
        out, err = split_bond(m, b, 0.0, None, new_center=3)
        assert err == 0.0
        np.testing.assert_allclose(out.to_dense(), dense, atol=1e-12)
        assert out.ortho_center == 3

    def test_merge_requires_center_on_window(self):
        rng = np.random.default_rng(7)
        m = canonicalize(random_mps(5, 3, rng), 0)
        with pytest.raises(StateError):
            merge_bond(m, 3)

    def test_split_truncation_matches_dense_svd(self):
        """Cutting the merged block to chi=1 must equal the dense best rank-1."""
        rng = np.random.default_rng(8)
        m = canonicalize(random_mps(4, 2, rng), 1)
        b = merge_bond(m, 1)
        theta = b.value.reshape(b.value.shape[0] * 2, -1)
        s = np.linalg.svd(theta, compute_uv=False)
        out, err = split_bond(m, b, 0.0, 1, new_center=1)
        assert abs(err - np.sum(s[1:] ** 2)) < 1e-12
        assert out.bond_dims[2] == 1

    def test_split_absorbs_toward_center(self):
        rng = np.random.default_rng(9)
        m = canonicalize(random_mps(5, 3, rng), 2)
        b = merge_bond(m, 2)
        left, _ = split_bond(m, b, 0.0, None, new_center=2)
        a = left.cores[3].reshape(left.cores[3].shape[0], -1)
        np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-12)


class TestModelFiles:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(11)
        m = random_mps(5, 3, rng)
        path = tmp_path / "w.mps"
        save_mps(path, m)
        loaded = load_mps(path)
        assert len(loaded) == 5
        for a, b in zip(loaded.cores, m.cores):
            np.testing.assert_array_equal(a, b)

    def test_bad_magic_rejected(self, tmp_path):
        path = tmp_path / "w.mps"
        rng = np.random.default_rng(12)
        save_mps(path, random_mps(3, 2, rng))
        data = bytearray(path.read_bytes())
        data[0] ^= 0xFF
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_mps(path)

    def test_unknown_version_rejected(self, tmp_path):
        path = tmp_path / "w.mps"
        rng = np.random.default_rng(13)
        save_mps(path, random_mps(3, 2, rng))
        data = bytearray(path.read_bytes())
        data[9:13] = (99).to_bytes(4, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError):
            load_mps(path)

    def test_truncated_file_rejected(self, tmp_path):
        path = tmp_path / "w.mps"
        rng = np.random.default_rng(14)
        save_mps(path, random_mps(3, 2, rng))
        path.write_bytes(path.read_bytes()[:-4])
        with pytest.raises(FormatError):
            load_mps(path)
