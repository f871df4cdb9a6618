"""Truncated SVD splits and the binary tensor format."""

import io

import numpy as np
import pytest

from wmera.errors import ArgumentError, FormatError
from wmera.tensor import read_tensor, svd_split, write_tensor


class TestSvdSplit:
    def test_exact_reconstruction(self):
        rng = np.random.default_rng(5)
        t = rng.standard_normal((3, 4, 5))
        res = svd_split(t, (0, 1))
        rebuilt = np.einsum("abr,rc->abc", res.left_factor,
                            np.diag(res.singular_values) @ res.right_factor)
        np.testing.assert_allclose(rebuilt, t, atol=1e-12)
        assert res.truncation_error == 0.0

    def test_left_factor_is_isometric(self):
        rng = np.random.default_rng(6)
        t = rng.standard_normal((4, 3, 6))
        res = svd_split(t, (0,))
        q = res.left_factor.reshape(-1, res.rank)
        np.testing.assert_allclose(q.T @ q, np.eye(res.rank), atol=1e-12)
        r = res.right_factor.reshape(res.rank, -1)
        np.testing.assert_allclose(r @ r.T, np.eye(res.rank), atol=1e-12)

    def test_rank_one_tensor(self):
        """Outer product of vectors has one singular value above threshold."""
        u = np.array([3.0, 4.0])
        v = np.array([1.0, 0.0, 0.0])
        res = svd_split(np.outer(u, v), (0,), delta=1e-12)
        assert res.rank == 1
        assert abs(res.singular_values[0] - 5.0) < 1e-12

    def test_delta_zero_is_lossless(self):
        """delta=0 keeps even exact zeros: the cut is strictly below delta."""
        res = svd_split(np.outer([1.0, 0.0], [1.0, 0.0]), (0,), delta=0.0)
        assert res.rank == 2
        assert res.truncation_error == 0.0

    def test_delta_truncation_drops_small_values(self):
        u = np.diag([1.0, 0.5, 1e-8])
        res = svd_split(u, (0,), delta=1e-6)
        assert res.rank == 2
        assert abs(res.truncation_error - 1e-16) < 1e-22

    def test_threshold_is_strict_less_than(self):
        """A singular value exactly at delta is kept."""
        res = svd_split(np.diag([1.0, 0.5]), (0,), delta=0.5)
        assert res.rank == 2

    def test_chi_max_caps_rank(self):
        rng = np.random.default_rng(7)
        t = rng.standard_normal((6, 6))
        res = svd_split(t, (0,), chi_max=2)
        assert res.rank == 2
        s = np.linalg.svd(t, compute_uv=False)
        assert abs(res.truncation_error - np.sum(s[2:] ** 2)) < 1e-12

    def test_keeps_at_least_one_value(self):
        res = svd_split(np.full((2, 2), 1e-20), (0,), delta=1.0)
        assert res.rank == 1

    def test_non_adjacent_left_axes(self):
        rng = np.random.default_rng(8)
        t = rng.standard_normal((2, 3, 4))
        res = svd_split(t, (0, 2))
        rebuilt = np.einsum("acr,rb->abc",
                            res.left_factor,
                            np.diag(res.singular_values) @ res.right_factor)
        np.testing.assert_allclose(rebuilt, t, atol=1e-12)

    def test_rejects_bad_axis_sets(self):
        t = np.zeros((2, 2))
        with pytest.raises(ArgumentError):
            svd_split(t, ())
        with pytest.raises(ArgumentError):
            svd_split(t, (0, 1))
        with pytest.raises(ArgumentError):
            svd_split(t, (3,))


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
