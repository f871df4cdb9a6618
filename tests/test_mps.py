"""Chain construction, gauges, two-site merge/split, the truncated SVD rank
rule (``svd_split``) on stacks of matrices, and model files."""

import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import random_mps
from test_coarsegrain import reference_records
from wmera.errors import ArgumentError, DimensionError, FormatError, NumericError, StateError
from wmera.mps import (
    MPS,
    MPS_FORMAT_VERSION,
    MPS_MAGIC,
    MPSStack,
    _canonicalize,
    _merge,
    _split,
    canonicalize,
    inner,
    load_mps,
    merge_bond,
    product_state,
    save_mps,
    split_bond,
    svd_split,
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
        assert b.shape == (3, 2, 2, 2)
        out, err = split_bond(m, 2, b, 0.0, None, new_center=3)
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
        theta = b.reshape(b.shape[0] * 2, -1)
        s = np.linalg.svd(theta, compute_uv=False)
        out, err = split_bond(m, 1, b, 0.0, 1, new_center=1)
        assert abs(err - np.sum(s[1:] ** 2)) < 1e-12
        assert out.bond_dims[2] == 1

    def test_split_absorbs_toward_center(self):
        rng = np.random.default_rng(9)
        m = canonicalize(random_mps(5, 3, rng), 2)
        b = merge_bond(m, 2)
        left, _ = split_bond(m, 2, b, 0.0, None, new_center=2)
        a = left.cores[3].reshape(left.cores[3].shape[0], -1)
        np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-12)


def mixed_states(seed: int, n_sites: int, n_samples: int) -> list[MPS]:
    """Chains of one length and shared site dimensions (1-3), with every
    interior bond drawn from 1-4 and norms from 1e-13 to 1, so that their
    stack pads and their scales differ."""
    rng = np.random.default_rng(seed)
    sites = rng.integers(1, 4, n_sites)
    states = []
    for _ in range(n_samples):
        dims = [1] + list(rng.integers(1, 5, n_sites - 1)) + [1]
        m = MPS([rng.standard_normal((dims[i], sites[i], dims[i + 1]))
                 for i in range(n_sites)])
        scale = 10.0 ** rng.uniform(-13.0, 0.0) / np.sqrt(inner(m, m))
        states.append(MPS([m.cores[0] * scale] + m.cores[1:]))
    return states


def relative_sq_distance(a: MPS, b: MPS) -> float:
    aa, bb = inner(a, a), inner(b, b)
    return (aa + bb - 2.0 * inner(a, b)) / aa


def own_core(stack: MPSStack, i: int, j: int) -> np.ndarray:
    """Sample i's own core j, after checking that the stack is padded to the
    largest bonds with zeros only."""
    bonds = stack.bonds
    core = stack.cores[j]
    assert core.shape[1] == bonds[:, j].max() and core.shape[3] == bonds[:, j + 1].max()
    outside = core[i].copy()
    outside[:bonds[i, j], :, :bonds[i, j + 1]] = 0.0
    assert not outside.any()
    return core[i, :bonds[i, j], :, :bonds[i, j + 1]]


def assert_left_orthogonal(core: np.ndarray) -> None:
    a = core.reshape(-1, core.shape[2])
    np.testing.assert_allclose(a.T @ a, np.eye(a.shape[1]), atol=1e-12)


def assert_right_orthogonal(core: np.ndarray) -> None:
    a = core.reshape(core.shape[0], -1)
    np.testing.assert_allclose(a @ a.T, np.eye(a.shape[0]), atol=1e-12)


stacks = dict(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.integers(2, 6),
              n_samples=st.integers(1, 5), pick=st.floats(0.0, 1.0, exclude_max=True))


class TestStackAlgebra:
    """Properties of the batched kernel on padded stacks of mixed chains."""

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(**stacks)
    def test_canonicalize_keeps_states_and_gauges_each_sample(self, seed, n_sites,
                                                              n_samples, pick):
        states = mixed_states(seed, n_sites, n_samples)
        center = int(pick * n_sites)
        stack = MPSStack.from_states(states)
        _canonicalize(stack, center)
        assert stack.center == center
        for i, (got, want) in enumerate(zip(stack.states(), states)):
            assert relative_sq_distance(got, want) <= 1e-12
            for j in range(n_sites):
                core = own_core(stack, i, j)
                if j < center:
                    assert_left_orthogonal(core)
                elif j > center:
                    assert_right_orthogonal(core)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(**stacks, absorb_left=st.booleans())
    def test_merge_then_split_reproduces_each_sample(self, seed, n_sites, n_samples,
                                                     pick, absorb_left):
        states = mixed_states(seed, n_sites, n_samples)
        j = int(pick * (n_sites - 1))
        new_center = j if absorb_left else j + 1
        stack = MPSStack.from_states(states)
        _canonicalize(stack, j)
        block = _merge(stack.cores[j], stack.cores[j + 1])
        err = _split(stack, j, block, 0.0, None, new_center)
        assert stack.center == new_center
        for i, (got, want) in enumerate(zip(stack.states(), states)):
            assert err[i] <= 1e-12 * inner(want, want)
            assert relative_sq_distance(got, want) <= 1e-12
            own_core(stack, i, j)
            own_core(stack, i, j + 1)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(**stacks, chi=st.integers(1, 4), delta=st.sampled_from([0.0, 1e-12]))
    def test_capped_split_matches_each_sample_alone(self, seed, n_sites, n_samples, pick,
                                                     chi, delta):
        """Each sample's kept rank and error are those of a numpy SVD of its
        own block: the padding of its neighbours changes neither."""
        states = mixed_states(seed, n_sites, n_samples)
        j = int(pick * (n_sites - 1))
        stack = MPSStack.from_states(states)
        _canonicalize(stack, j)
        blocks = _merge(stack.cores[j], stack.cores[j + 1])
        bonds = stack.bonds.copy()
        err = _split(stack, j, blocks, delta, chi, j + 1)
        for i in range(n_samples):
            own = blocks[i, :bonds[i, j], :, :, :bonds[i, j + 2]]
            s = np.linalg.svd(own.reshape(bonds[i, j] * own.shape[1], -1), compute_uv=False)
            keep = max(min(int(np.count_nonzero(s >= delta)), chi), 1)
            assert stack.bonds[i, j + 1] == keep
            assert abs(err[i] - np.sum(s[keep:] ** 2)) <= 1e-12 * np.sum(s ** 2)
            own_core(stack, i, j)
            own_core(stack, i, j + 1)

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=stacks["seed"], n_sites=stacks["n_sites"], pick=stacks["pick"],
           absorb_left=st.booleans())
    def test_adapters_leave_their_input_unchanged(self, seed, n_sites, pick, absorb_left):
        m = mixed_states(seed, n_sites, 1)[0]
        j = int(pick * (n_sites - 1))
        before = [c.copy() for c in m.cores]
        centered = canonicalize(m, j)
        held = [c.copy() for c in centered.cores]
        block = merge_bond(centered, j)
        kept = block.copy()
        out, _ = split_bond(centered, j, 2.0 * block, 0.0, 1, j + (not absorb_left))
        for cores, snapshot in ((m.cores, before), (centered.cores, held)):
            for c, c0 in zip(cores, snapshot):
                np.testing.assert_array_equal(c, c0)
        np.testing.assert_array_equal(block, kept)
        assert out.ortho_center == j + (not absorb_left)


def split_one(mat, delta=0.0, chi_max=None):
    """``svd_split`` of one matrix as a stack of one, unstacked."""
    u, s, vh, keep, err = svd_split(np.asarray(mat, dtype=np.float64)[None], delta, chi_max)
    return u[0], s[0], vh[0], int(keep[0]), float(err[0])


class TestSvdSplit:
    def test_exact_reconstruction(self):
        rng = np.random.default_rng(5)
        mats = rng.standard_normal((3, 12, 5))
        u, s, vh, keep, err = svd_split(mats)
        np.testing.assert_allclose(u @ (s[:, :, None] * vh), mats, atol=1e-12)
        assert list(keep) == [5, 5, 5]
        assert list(err) == [0.0, 0.0, 0.0]

    def test_left_factor_is_isometric(self):
        rng = np.random.default_rng(6)
        u, _, vh, rank, _ = split_one(rng.standard_normal((4, 18)))
        np.testing.assert_allclose(u.T @ u, np.eye(rank), atol=1e-12)
        np.testing.assert_allclose(vh @ vh.T, np.eye(rank), atol=1e-12)

    def test_rank_one_tensor(self):
        """Outer product of vectors has one singular value above threshold."""
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 0.0, 0.0])
        _, s, _, rank, _ = split_one(np.outer(u, v), delta=1e-12)
        assert rank == 1
        assert abs(s[0] - 5.0) < 1e-12

    def test_delta_zero_is_lossless(self):
        """delta=0 keeps even exact zeros: the cut is strictly below delta."""
        _, _, _, rank, err = split_one(np.outer([1.0, 0.0], [1.0, 0.0]), delta=0.0)
        assert rank == 2
        assert err == 0.0

    def test_delta_truncation_drops_small_values(self):
        _, _, _, rank, err = split_one(np.diag([1.0, 0.5, 1e-8]), delta=1e-6)
        assert rank == 2
        assert abs(err - 1e-16) < 1e-22

    def test_threshold_is_strict_less_than(self):
        """A singular value exactly at delta is kept."""
        assert split_one(np.diag([1.0, 0.5]), delta=0.5)[3] == 2

    def test_chi_max_caps_rank(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((6, 6))
        _, _, _, rank, err = split_one(t, chi_max=2)
        assert rank == 2
        s = np.linalg.svd(t, compute_uv=False)
        assert abs(err - np.sum(s[2:] ** 2)) < 1e-12

    def test_keeps_at_least_one_value(self):
        assert split_one(np.full((2, 2), 1e-20), delta=1.0)[3] == 1

    def test_size_caps_each_matrix(self):
        """A matrix zero-padded past its own size keeps at most that size,
        even at delta = 0, while its neighbour in the stack keeps its own."""
        rng = np.random.default_rng(8)
        mats = np.zeros((2, 4, 4))
        mats[0] = rng.standard_normal((4, 4))
        mats[1, :2, :3] = rng.standard_normal((2, 3))
        u, _, _, keep, err = svd_split(mats, 0.0, None, np.array([4, 2]))
        assert list(keep) == [4, 2] and u.shape == (2, 4, 4)
        assert list(err) == [0.0, 0.0]

    def test_overflowing_error_raises(self):
        """A discarded singular value whose square overflows float64 is a
        NumericError, not an infinite truncation error and a warning."""
        with pytest.raises(NumericError, match="out of floating-point range"):
            svd_split(np.diag([1e200, 1e180])[None], chi_max=1)

    def test_rejects_bad_delta_and_chi_max(self):
        mats = np.eye(2)[None]
        with pytest.raises(ArgumentError):
            svd_split(mats, delta=-1e-12)
        with pytest.raises(ArgumentError):
            svd_split(mats, chi_max=0)


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

    def test_trailing_bytes_rejected(self, tmp_path):
        """A model file holds exactly one state record."""
        path = tmp_path / "w.mps"
        rng = np.random.default_rng(15)
        save_mps(path, random_mps(3, 2, rng))
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(FormatError, match="after the last state record"):
            load_mps(path)

    def test_bytes_follow_the_record_layout(self, tmp_path):
        """A model file is the magic, the version word and the state's one
        record, byte for byte as the reference writer lays out a stack of one."""
        m = random_mps(4, 3, np.random.default_rng(16))
        path = tmp_path / "w.mps"
        save_mps(path, m)
        record, _ = reference_records(MPSStack.from_states([m]))
        assert path.read_bytes() == (MPS_MAGIC + struct.pack("<I", MPS_FORMAT_VERSION)
                                     + record)

    @pytest.mark.parametrize("field, value, match", [
        (0, 4, "rank 4"),
        (2, 0, r"extents \(1, 0, 2\)"),
        (3, 1 << 40, "claims"),
    ], ids=["rank-4", "zero-extent", "extent-past-the-end"])
    def test_bad_core_header_rejected(self, tmp_path, field, value, match):
        """The first core's header (rank, then three extents) with one field
        replaced is a FormatError."""
        path = tmp_path / "w.mps"
        save_mps(path, random_mps(3, 2, np.random.default_rng(17)))
        data = bytearray(path.read_bytes())
        head = len(MPS_MAGIC) + 4 + 4  # magic, version, core count
        if field == 0:
            struct.pack_into("<I", data, head, value)
        else:
            struct.pack_into("<Q", data, head + 4 + 8 * (field - 1), value)
        path.write_bytes(bytes(data))
        with pytest.raises(FormatError, match=match):
            load_mps(path)
