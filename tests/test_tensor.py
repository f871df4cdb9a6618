"""The truncated SVD rank rule and the binary tensor format."""

import io

import numpy as np
import pytest

from wmera.errors import ArgumentError, FormatError
from wmera.mps import svd_split
from wmera.tensor import read_tensor, write_tensor


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

    def test_rejects_bad_delta_and_chi_max(self):
        mats = np.eye(2)[None]
        with pytest.raises(ArgumentError):
            svd_split(mats, delta=-1e-12)
        with pytest.raises(ArgumentError):
            svd_split(mats, chi_max=0)


class TestTensorIO:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(9)
        for shape in [(1,), (3, 4), (2, 3, 4, 5)]:
            t = rng.standard_normal(shape)
            path = tmp_path / "t.bin"
            with open(path, "wb") as f:
                write_tensor(f, t)
            with open(path, "rb") as f:
                np.testing.assert_array_equal(read_tensor(f), t)

    def test_stream_holds_multiple_records(self):
        buf = io.BytesIO()
        a = np.arange(6.0).reshape(2, 3)
        b = np.array([7.0])
        write_tensor(buf, a)
        write_tensor(buf, b)
        buf.seek(0)
        np.testing.assert_array_equal(read_tensor(buf), a)
        np.testing.assert_array_equal(read_tensor(buf), b)

    def test_truncated_payload_raises(self):
        buf = io.BytesIO()
        write_tensor(buf, np.ones((4, 4)))
        data = buf.getvalue()
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(data[:-8]))

    def test_truncated_header_raises(self):
        with pytest.raises(FormatError):
            read_tensor(io.BytesIO(b"\x02"))

    def test_absurd_rank_rejected(self):
        bad = io.BytesIO((10 ** 6).to_bytes(4, "little"))
        with pytest.raises(FormatError):
            read_tensor(bad)
