"""Two-site alternating least squares: environments, solves, sweeps."""

from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from synthdata import random_mps, random_product_state
import wmera.trainer
from wmera.coarsegrain import ScaleData, fine_grain_weights
from wmera.errors import ArgumentError, DimensionError, NumericError, StateError
from wmera.mps import MPS, canonicalize, inner, merge_bond, product_state, split_bond
from wmera.trainer import (
    Environment,
    ProductWindow,
    TrainConfig,
    cost,
    evaluate,
    _cg_normal,
    _window_cost,
    local_gradient,
    model_outputs,
    random_weights,
    solve_local,
    sweep,
    train,
)
from wmera.wavelet import build_daub4_layer


def linear_dataset(rng, n_sites, n_samples, coeffs=None, bias=0.0):
    """Targets linear in the raw inputs, so a bond-2 chain can fit exactly."""
    if coeffs is None:
        coeffs = rng.uniform(-1.0, 1.0, n_sites)
    samples, ys = [], []
    for _ in range(n_samples):
        x = rng.uniform(0.0, 1.0, n_sites)
        samples.append(product_state([np.array([1.0, v]) for v in x]))
        ys.append(bias + float(coeffs @ x))
    return ScaleData(samples, np.array(ys))


def lr_start(w, data):
    """``w`` centered at site 0 and the environment a left-to-right pass
    reads first, as ``train`` hands them to ``sweep``."""
    w = canonicalize(w, 0)
    env = Environment(w, data)
    env.refresh_right(w)
    return w, env


def mixed_bond_mps(n_sites, rng):
    """Random chain whose every interior bond is drawn from 1-4."""
    dims = [1] + list(rng.integers(1, 5, n_sites - 1)) + [1]
    return MPS([rng.standard_normal((dims[i], 2, dims[i + 1])) for i in range(n_sites)])


def scaled(m, norm):
    """``m`` rescaled to the given norm."""
    return MPS([m.cores[0] * (norm / np.sqrt(inner(m, m)))] + m.cores[1:])


def absolute(m):
    return MPS([np.abs(c) for c in m.cores])


def reference_window_row(w, x, j):
    """One sample's window row, contracted site by site on that sample alone."""
    left = np.ones((1, 1))
    for k in range(j):
        left = np.tensordot(np.tensordot(left, w.cores[k], axes=(0, 0)), x.cores[k],
                            axes=([0, 1], [0, 1]))
    right = np.ones((1, 1))
    for k in range(len(w) - 1, j + 1, -1):
        right = np.tensordot(np.tensordot(w.cores[k], right, axes=(2, 0)), x.cores[k],
                             axes=([1, 2], [1, 2]))
    return np.einsum("ab,bsm,mtn,cn->astc", left, x.cores[j], x.cores[j + 1], right).ravel()


def sign_dataset(rng, n_sites, n_samples):
    """Labels +1/-1 decided by one coordinate, linearly separable."""
    samples, ys = [], []
    for _ in range(n_samples):
        x = rng.uniform(0.0, 1.0, n_sites)
        samples.append(product_state([np.array([1.0, v]) for v in x]))
        ys.append(1.0 if x[0] > 0.5 else -1.0)
    return ScaleData(samples, np.array(ys))


class TestConfigValidation:
    def test_rejects_bad_values(self):
        for kwargs in ({"n_sweeps": 0}, {"delta_weights": -1.0}, {"chi_max": 0},
                       {"lam": -0.1}, {"cg_max_iters": 0}, {"init_bond": 0},
                       {"cg_tol": -1e-3}, {"seed": -1}, {"chi_max": 2**63}):
            with pytest.raises(ArgumentError):
                TrainConfig(**kwargs)
        assert TrainConfig(chi_max=2**63 - 1).chi_max == 2**63 - 1

    def test_defaults_are_valid(self):
        cfg = TrainConfig()
        assert cfg.n_sweeps == 5 and cfg.lam == 0.0


class TestEnvironment:
    def test_window_rows_reproduce_model_outputs(self):
        """phi @ B.ravel() must equal the zipper inner products at any bond."""
        rng = np.random.default_rng(40)
        data = ScaleData([random_mps(6, 2, rng) for _ in range(7)],
                         rng.standard_normal(7))
        for j in (0, 2, 4):
            w = canonicalize(random_mps(6, 3, rng), j)
            env = Environment(w, data)
            env.refresh_left(w, up_to=j)
            env.refresh_right(w, down_to=j + 2)
            phi = env.window_matrix(j)
            got = phi @ merge_bond(w, j).ravel()
            want = model_outputs(w, data)
            np.testing.assert_allclose(got, want, atol=1e-10, rtol=1e-10)

    def test_advance_matches_refresh(self):
        rng = np.random.default_rng(41)
        data = ScaleData([random_mps(5, 2, rng) for _ in range(4)],
                         rng.standard_normal(4))
        w = canonicalize(random_mps(5, 2, rng), 0)
        env = Environment(w, data)
        env.refresh_left(w, up_to=2)
        fresh = Environment(w, data)
        for j in (0, 1):
            fresh.advance_left(w, j)
        np.testing.assert_allclose(env.left[2], fresh.left[2], atol=1e-12)

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.integers(2, 6),
           n_samples=st.integers(1, 6))
    def test_stacked_path_matches_each_sample(self, seed, n_sites, n_samples):
        """Samples of mixed bonds 1-4 (so the stack pads) and norms 1e-13..1:
        every window row and batched output matches the per-sample reference
        to 1e-12 of the same contraction over absolute values."""
        rng = np.random.default_rng(seed)
        samples = [scaled(mixed_bond_mps(n_sites, rng), 10.0 ** rng.uniform(-13, 0))
                   for _ in range(n_samples)]
        data = ScaleData(samples, rng.standard_normal(n_samples))
        w = mixed_bond_mps(n_sites, rng)
        env = Environment(w, data)
        env.refresh_left(w)
        env.refresh_right(w)
        for j in range(n_sites - 1):
            phi = env.window_matrix(j)
            for row, x in zip(phi, samples):
                want = reference_window_row(w, x, j)
                bound = np.linalg.norm(reference_window_row(absolute(w), absolute(x), j))
                assert np.linalg.norm(row - want) <= 1e-12 * bound
        got = model_outputs(w, data)
        for f, x in zip(got, samples):
            assert abs(f - inner(w, x)) <= 1e-12 * inner(absolute(w), absolute(x))

    def test_mismatched_sites_rejected(self):
        rng = np.random.default_rng(42)
        data = ScaleData([random_mps(4, 2, rng)], np.array([1.0]))
        with pytest.raises(DimensionError):
            Environment(random_mps(6, 2, rng), data)


class TestGradient:
    def test_matches_central_differences(self):
        """Descent direction vs finite differences of the full-chain cost."""
        rng = np.random.default_rng(43)
        step = 1e-5
        data = linear_dataset(rng, 6, 12)
        w = canonicalize(random_mps(6, 3, rng), 2)
        env = Environment(w, data)
        env.refresh_left(w, up_to=2)
        env.refresh_right(w, down_to=4)
        b = merge_bond(w, 2)
        grad = local_gradient(env, 2, b).ravel()
        fd = np.empty_like(grad)
        flat = b.ravel().copy()
        for k in range(flat.size):
            for sgn, slot in ((1.0, 0), (-1.0, 1)):
                pert = flat.copy()
                pert[k] += sgn * step
                w_pert, _ = split_bond(w, 2, pert.reshape(b.shape), 0.0, None, new_center=2)
                if slot == 0:
                    up = cost(w_pert, data)
                else:
                    down = cost(w_pert, data)
            fd[k] = (up - down) / (2.0 * step)
        # local_gradient returns the descent direction, hence the sign flip
        rel = np.max(np.abs(-fd - grad)) / max(np.max(np.abs(grad)), 1e-30)
        assert rel <= 1e-6

    def test_ridge_term_included(self):
        rng = np.random.default_rng(44)
        data = linear_dataset(rng, 4, 6)
        w = canonicalize(random_mps(4, 2, rng), 1)
        env = Environment(w, data)
        env.refresh_left(w, up_to=1)
        env.refresh_right(w, down_to=3)
        b = merge_bond(w, 1)
        g0 = local_gradient(env, 1, b, lam=0.0)
        g1 = local_gradient(env, 1, b, lam=0.5)
        np.testing.assert_allclose(g1, g0 - 1.0 * b, atol=1e-12)


class TestLocalSolve:
    def _window(self, rng, n_sites=5, n_samples=20, j=1):
        """Window matrix, labels and flattened block of bond j."""
        data = linear_dataset(rng, n_sites, n_samples)
        w = canonicalize(random_mps(n_sites, 2, rng), j)
        env = Environment(w, data)
        env.refresh_left(w, up_to=j)
        env.refresh_right(w, down_to=j + 2)
        return env.window_matrix(j), data.labels, merge_bond(w, j).ravel()

    def test_matches_dense_least_squares(self):
        rng = np.random.default_rng(45)
        phi, y, vec0 = self._window(rng)
        vec, _, c_got, steps, _ = solve_local(phi, y, vec0, cg_max_iters=200, cg_tol=1e-14)
        x_ref, *_ = np.linalg.lstsq(phi, y, rcond=None)
        c_ref = 0.5 * np.mean((phi @ x_ref - y) ** 2)
        assert c_got == _window_cost(phi, vec, y, 0.0)
        assert c_got <= c_ref + 1e-9 * max(1.0, c_ref)
        assert 1 <= steps <= 200

    @settings(max_examples=40, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_samples=st.integers(1, 12),
           j=st.integers(0, 3), lam=st.floats(0.0, 1.0),
           cg_max_iters=st.integers(1, 30))
    def test_never_worse_than_start(self, seed, n_samples, j, lam, cg_max_iters):
        phi, y, vec0 = self._window(np.random.default_rng(seed), n_samples=n_samples, j=j)
        vec, before, after, _, _ = solve_local(phi, y, vec0, lam, cg_max_iters)
        assert before == _window_cost(phi, vec0, y, lam)
        assert after == _window_cost(phi, vec, y, lam)
        assert after <= before

    def test_optimal_start_is_fixed_point(self):
        rng = np.random.default_rng(47)
        phi, y, vec0 = self._window(rng)
        first, *_ = solve_local(phi, y, vec0, cg_max_iters=400, cg_tol=1e-14)
        again, *_ = solve_local(phi, y, first, cg_max_iters=400, cg_tol=1e-14)
        np.testing.assert_allclose(again, first, atol=1e-9)

    def test_rejects_mismatched_block(self):
        phi, y, vec0 = self._window(np.random.default_rng(48))
        with pytest.raises(StateError):
            solve_local(phi, y, vec0[:-1])


def block_basis_solve(phi, y, x0, lam, max_iters, tol):
    """``_cg_normal`` held on the block, whatever the window's shape."""
    with mock.patch.object(wmera.trainer, "_sample_basis", lambda n, size: False):
        return _cg_normal(phi, y, x0, phi @ x0, lam, max_iters, tol)


def product_dataset(rng, n_sites, n_samples):
    """Product states (every bond 1) with labels linear in the raw inputs."""
    x = rng.uniform(0.0, 1.0, (n_samples, n_sites))
    samples = [product_state([np.array([1.0, v]) for v in row]) for row in x]
    return ScaleData(samples, x @ rng.uniform(-1.0, 1.0, n_sites))


class TestSampleSpaceSolve:
    """Bonds with n + 1 <= D / 2 solve in the coordinates of the samples."""

    @settings(max_examples=60, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n=st.integers(1, 12), extra=st.integers(0, 40),
           lam=st.floats(0.0, 1.0), cg_max_iters=st.integers(1, 30))
    def test_matches_the_block_loop(self, seed, n, extra, lam, cg_max_iters):
        """On well-conditioned windows (Gaussian rows, D >= 2(n + 1)) the
        sample-space iterate is the block iterate, to 1e-8 relative."""
        rng = np.random.default_rng(seed)
        size = 2 * (n + 1) + extra
        phi = rng.standard_normal((n, size))
        y, x0 = rng.standard_normal(n), rng.standard_normal(size)
        assert wmera.trainer._sample_basis(n, size)
        got, steps, _ = _cg_normal(phi, y, x0, phi @ x0, lam, cg_max_iters, 1e-10)
        want, want_steps, _ = block_basis_solve(phi, y, x0, lam, cg_max_iters, 1e-10)
        assert np.linalg.norm(got - want) <= 1e-8 * np.linalg.norm(want)
        assert abs(steps - want_steps) <= 1

    def test_nearly_dependent_samples_finish_on_the_block(self):
        """Shifted copies of one smooth window, from a start close to the ridge
        optimum: the Gram metric cannot resolve so small a residual, so the
        block finishes the solve and reaches the optimum to the tolerance."""
        rng = np.random.default_rng(70)
        t = np.linspace(0.0, 1.0, 128)
        phi = np.array([np.sin(2.0 * np.pi * (t + 0.01 * k)) + 0.5 for k in range(9)])
        y, lam = rng.standard_normal(9), 1e-4
        a = phi.T @ phi / 9 + 2.0 * lam * np.eye(128)
        best = np.linalg.solve(a, phi.T @ y / 9)
        x0 = best + 1e-6 * rng.standard_normal(128)
        got, steps, broke = _cg_normal(phi, y, x0, phi @ x0, lam, 20, 1e-10)
        excess = [_window_cost(phi, v, y, lam) - _window_cost(phi, best, y, lam)
                  for v in (x0, got)]
        assert steps < 20 and not broke
        assert excess[1] <= 1e-3 * excess[0]

    @settings(max_examples=30, derandomize=True, database=None, deadline=None)
    @given(seed=st.integers(0, 2 ** 32 - 1), n_sites=st.integers(2, 6),
           n_samples=st.integers(1, 6), bond=st.integers(3, 6))
    def test_product_window_matches_window_matrix(self, seed, n_sites, n_samples, bond):
        """Phi v, a^T Phi and Phi Phi^T from the factors match the explicit
        window matrix to 1e-12 of the same products over absolute values."""
        rng = np.random.default_rng(seed)
        data = product_dataset(rng, n_sites, n_samples)
        data_abs = ScaleData([absolute(x) for x in data.samples], data.labels)
        w = random_mps(n_sites, bond, rng)
        env, env_abs = Environment(w, data), Environment(absolute(w), data_abs)
        for e, m in ((env, w), (env_abs, absolute(w))):
            e.refresh_left(m)
            e.refresh_right(m)
        for j in range(n_sites - 1):
            window = env.window(j)
            phi, bound = env.window_matrix(j), env_abs.window_matrix(j)
            if not isinstance(window, ProductWindow):
                assert not wmera.trainer._sample_basis(*phi.shape)
                continue
            v, a = rng.standard_normal(phi.shape[1]), rng.standard_normal(phi.shape[0])
            assert np.all(np.abs(window @ v - phi @ v) <= 1e-12 * (bound @ np.abs(v)))
            assert np.all(np.abs(a @ window - a @ phi) <= 1e-12 * (np.abs(a) @ bound))
            assert np.all(np.abs(window.gram() - phi @ phi.T) <= 1e-12 * (bound @ bound.T))

    def test_product_states_get_factored_windows(self):
        """Where the middle bond is 1 for every sample and n + 1 <= D / 2 the
        window is factored; a coarse-grained stack keeps the explicit matrix."""
        rng = np.random.default_rng(71)
        w = canonicalize(random_mps(6, 4, rng), 0)
        for data, factored in ((product_dataset(rng, 6, 5), True),
                               (ScaleData([random_mps(6, 2, rng) for _ in range(5)],
                                          rng.standard_normal(5)), False)):
            env = Environment(w, data)
            env.refresh_right(w)
            assert isinstance(env.window(0), ProductWindow) == factored

    @pytest.mark.parametrize("n", [4, 40])
    def test_converged_start_takes_no_step(self, n):
        """A start whose residual is already below the tolerance comes back
        unchanged after zero steps, in sample space (4 samples) and on the
        block (40 samples) alike."""
        rng = np.random.default_rng(74)
        phi, y, lam = rng.standard_normal((n, 32)), rng.standard_normal(n), 1e-3
        assert wmera.trainer._sample_basis(n, 32) == (n == 4)
        x0 = np.linalg.solve(phi.T @ phi / n + 2.0 * lam * np.eye(32), phi.T @ y / n)
        got, steps, broke = _cg_normal(phi, y, x0, phi @ x0, lam, 20, 1e-8)
        assert np.array_equal(got, x0) and steps == 0 and not broke

    @pytest.mark.parametrize("n_samples", [4, 40])
    def test_inf_in_an_environment_is_numeric_error(self, n_samples):
        """An inf in an environment ends the solve with NumericError, in
        sample space (4 samples) and on the block (40 samples) alike."""
        rng = np.random.default_rng(72)
        data = product_dataset(rng, 5, n_samples)
        cfg = TrainConfig(init_bond=4, seed=3)
        w = canonicalize(random_weights(5, cfg), 0)
        env = Environment(w, data)
        env.refresh_right(w)
        assert isinstance(env.window(0), ProductWindow) == (n_samples == 4)
        env.right[2][1, 0, 0] = np.inf
        with pytest.raises(NumericError), np.errstate(invalid="ignore"):
            sweep(w, data, cfg, "lr", env=env)

    @pytest.mark.parametrize("n_distinct", [3, 20])
    def test_duplicate_samples_at_zero_lam_report_breaks(self, n_distinct):
        """Duplicated samples at lam = 0 leave the window rank-deficient, so
        with no tolerance CG runs out of curvature, on either basis."""
        rng = np.random.default_rng(73)
        once = product_dataset(rng, 5, n_distinct)
        data = ScaleData(once.samples * 2, np.concatenate([once.labels, -once.labels]))
        cfg = TrainConfig(n_sweeps=1, init_bond=4, chi_max=4, lam=0.0, cg_tol=0.0,
                          cg_max_iters=200, seed=4)
        _, stats = train(data, cfg)
        assert stats[0].cg_breaks > 0


class TestSweep:
    def test_cost_never_rises_at_solves(self):
        rng = np.random.default_rng(48)
        data = linear_dataset(rng, 6, 25)
        cfg = TrainConfig(n_sweeps=2, delta_weights=1e-12, chi_max=6, seed=0)
        w, env = lr_start(random_weights(6, cfg), data)
        events = []
        w, stats = sweep(w, data, cfg, "lr", env, monitor=events.append)
        for ev in events:
            assert ev.cost_solved <= ev.cost_before + 1e-12
            assert ev.cost_truncated <= ev.cost_solved + 1e-8

    def test_alternating_directions_share_environment(self):
        rng = np.random.default_rng(49)
        data = linear_dataset(rng, 5, 15)
        cfg = TrainConfig(n_sweeps=1, delta_weights=1e-12, chi_max=4, seed=1)
        w = canonicalize(random_weights(5, cfg), 0)
        env = Environment(w, data)
        env.refresh_right(w)
        w, s1 = sweep(w, data, cfg, "lr", env=env)
        w, s2 = sweep(w, data, cfg, "rl", env=env)
        # a stale environment would leave the second pass inconsistent with
        # a from-scratch evaluation of the same weights
        assert abs(s2.cost - cost(w, data)) < 1e-10 * max(1.0, s2.cost)

    def test_second_pass_in_one_direction_is_refused(self):
        """A pass drops the stacks it consumed, so a second left-to-right
        pass on one environment raises instead of solving against right
        stacks of the weights as they were before the first pass."""
        rng = np.random.default_rng(49)
        data = linear_dataset(rng, 5, 15)
        cfg = TrainConfig(n_sweeps=1, delta_weights=1e-12, chi_max=4, seed=1)
        w = canonicalize(random_weights(5, cfg), 0)
        env = Environment(w, data)
        env.refresh_right(w)
        w, _ = sweep(w, data, cfg, "lr", env=env)
        assert env.right[5] is not None and all(r is None for r in env.right[2:5])
        with pytest.raises(StateError):
            sweep(w, data, cfg, "lr", env=env)

    def test_rollbacks_counted_only_under_truncation(self):
        """Linear targets need bond 2: a cap of 1 forces rollbacks, a cap of
        8 keeps every solved block."""
        data = linear_dataset(np.random.default_rng(48), 6, 25)
        rollbacks = {}
        for chi in (1, 8):
            cfg = TrainConfig(delta_weights=1e-12, chi_max=chi, seed=0)
            w, env = lr_start(random_weights(6, cfg), data)
            _, stats = sweep(w, data, cfg, "lr", env)
            rollbacks[chi] = stats.rollbacks
            assert 0 < stats.cg_iters <= 5 * cfg.cg_max_iters
        assert rollbacks[1] > 0 and rollbacks[8] == 0

    def test_rollback_costs_no_second_split(self):
        """A bond update whose truncation raised the cost keeps its block as
        it was: one SVD per bond update, rollbacks included."""
        data = linear_dataset(np.random.default_rng(48), 6, 25)
        cfg = TrainConfig(delta_weights=1e-12, chi_max=1, seed=0)
        w, env = lr_start(random_weights(6, cfg), data)
        with mock.patch.object(np.linalg, "svd", wraps=np.linalg.svd) as svd:
            _, stats = sweep(w, data, cfg, "lr", env)
        assert stats.rollbacks > 0
        assert svd.call_count == len(w) - 1

    def test_rollbacks_keep_the_bond_cap(self):
        """A start wider than chi_max cannot be kept whole: its bonds are cut
        to the cap in the first pass, rollbacks or not."""
        data = linear_dataset(np.random.default_rng(48), 6, 25)
        w0 = random_weights(6, TrainConfig(init_bond=3, seed=1))
        cfg = TrainConfig(n_sweeps=2, delta_weights=1e-12, chi_max=1, seed=0)
        w, stats = train(data, cfg, w0=w0)
        assert w.max_bond == 1 and all(s.max_bond == 1 for s in stats)
        assert random_weights(6, cfg).max_bond == 1

    def test_rejects_unknown_direction(self):
        rng = np.random.default_rng(50)
        data = linear_dataset(rng, 4, 5)
        cfg = TrainConfig()
        w, env = lr_start(random_weights(4, cfg), data)
        with pytest.raises(ArgumentError):
            sweep(w, data, cfg, "up", env)

    @pytest.mark.parametrize("direction, center", [("lr", 5), ("lr", None), ("rl", 0)])
    def test_refuses_weights_off_the_pass_start(self, direction, center):
        """The environment holds the stacks of the weights as given, so a
        pass refuses weights not centered at its first site rather than
        move the center and solve against stale stacks."""
        data = linear_dataset(np.random.default_rng(50), 6, 8)
        cfg = TrainConfig(seed=0)
        w, env = lr_start(random_weights(6, cfg), data)
        w = MPS(w.cores) if center is None else canonicalize(w, center)
        with pytest.raises(StateError, match="orthogonality center"):
            sweep(w, data, cfg, direction, env)


class TestTrain:
    def test_linear_target_is_learned(self):
        """Targets that are sums of single-site terms sit inside the model
        class, so sweeping should drive the cost into the noise."""
        rng = np.random.default_rng(51)
        data = linear_dataset(rng, 8, 200, bias=0.3)
        cfg = TrainConfig(n_sweeps=5, delta_weights=1e-12, chi_max=8, seed=2)
        w, stats = train(data, cfg)
        assert stats[-1].cost < 1e-6
        assert evaluate(w, data, "regression") < 1e-2

    def test_capped_rank_never_thrashes(self):
        """With a bond cap below the solver's transient rank the pass must
        reject unkeepable updates instead of oscillating."""
        rng = np.random.default_rng(61)
        data = linear_dataset(rng, 8, 40, bias=0.3)
        cfg = TrainConfig(n_sweeps=5, delta_weights=1e-12, chi_max=4, seed=2,
                          cg_max_iters=200, cg_tol=1e-12)
        w, stats = train(data, cfg)
        costs = [s.cost for s in stats]
        assert all(b <= a * (1.0 + 1e-9) + 1e-12 for a, b in zip(costs, costs[1:]))
        assert stats[-1].truncated_weight < 1e-12

    def test_classification_separable(self):
        rng = np.random.default_rng(52)
        data = sign_dataset(rng, 6, 60)
        cfg = TrainConfig(n_sweeps=4, delta_weights=1e-10, chi_max=8, seed=3)
        w, stats = train(data, cfg, task="classification")
        assert stats[-1].train_metric >= 0.95

    def test_stats_shape(self):
        rng = np.random.default_rng(53)
        data = linear_dataset(rng, 4, 10)
        # one CG step per solve keeps every sweep lowering the cost; full
        # solves fit this toy exactly in one sweep, and training stops there
        cfg = TrainConfig(n_sweeps=3, chi_max=4, cg_max_iters=1, seed=4)
        w, stats = train(data, cfg)
        assert len(stats) == 3
        assert [s.sweep for s in stats] == [0, 1, 2]
        for s in stats:
            assert s.max_bond <= 4
            assert s.truncated_weight >= 0.0
            assert 0 <= s.rollbacks <= 6  # 3 bonds, both directions
            assert 0 <= s.cg_iters <= 6 * cfg.cg_max_iters
        assert stats[0].cg_iters > 0

    @pytest.mark.parametrize("n_sites, n_sweeps", [(2, 1), (3, 2), (6, 1), (6, 3)])
    def test_builds_only_the_stacks_windows_read(self, n_sites, n_sweeps):
        """Bond j reads left[j] and right[j + 2], so training an n-site scale
        takes n - 2 environment steps to start and n - 2 per pass (two per
        record), and never builds right[1] or left[n - 1]."""
        data = linear_dataset(np.random.default_rng(56), n_sites, 10)
        cfg = TrainConfig(n_sweeps=n_sweeps, chi_max=4, seed=6)
        with mock.patch.object(Environment, "advance_left", autospec=True,
                               side_effect=Environment.advance_left) as left, \
                mock.patch.object(Environment, "advance_right", autospec=True,
                                  side_effect=Environment.advance_right) as right:
            _, stats = train(data, cfg)
        assert left.call_count + right.call_count == (n_sites - 2) * (1 + 2 * len(stats))
        assert n_sites - 2 not in {call.args[2] for call in left.call_args_list}
        assert 1 not in {call.args[2] for call in right.call_args_list}

    def test_chi_cap_respected(self):
        rng = np.random.default_rng(54)
        data = linear_dataset(rng, 8, 30)
        cfg = TrainConfig(n_sweeps=2, delta_weights=0.0, chi_max=3, seed=5)
        w, _ = train(data, cfg)
        assert w.max_bond <= 3

    def test_warm_start_used(self):
        rng = np.random.default_rng(55)
        data = linear_dataset(rng, 5, 20)
        cfg = TrainConfig(n_sweeps=2, chi_max=4, seed=6)
        w1, stats1 = train(data, cfg)
        cfg2 = TrainConfig(n_sweeps=1, chi_max=4, seed=7)
        w2, stats2 = train(data, cfg2, w0=w1)
        assert stats2[-1].cost <= stats1[-1].cost + 1e-10

    def test_claimed_center_does_not_change_training(self):
        """Every start is re-gauged in full, whatever center it claims: a
        fine-grained warm start, which claims center 0, trains to the same
        bytes and stats as its cores with no claim, as a model file loads
        them."""
        rng = np.random.default_rng(57)
        data = linear_dataset(rng, 8, 20)
        warm, _ = fine_grain_weights(random_mps(4, 2, rng), build_daub4_layer(8))
        assert warm.ortho_center == 0
        cfg = TrainConfig(n_sweeps=2, chi_max=4, seed=9)
        w_a, stats_a = train(data, cfg, w0=warm)
        w_b, stats_b = train(data, cfg, w0=MPS(warm.cores))
        assert stats_a == stats_b
        assert [c.tobytes() for c in w_a.cores] == [c.tobytes() for c in w_b.cores]

    def test_deterministic_across_runs_and_threads(self):
        rng = np.random.default_rng(56)
        data = linear_dataset(rng, 6, 18)
        cfg = TrainConfig(n_sweeps=2, chi_max=4, seed=8)
        w_a, stats_a = train(data, cfg)
        w_b, stats_b = train(ScaleData(data.samples, data.labels), cfg)
        for sa, sb in zip(stats_a, stats_b):
            assert sa.cost == sb.cost
            assert sa.train_metric == sb.train_metric
            assert (sa.rollbacks, sa.cg_iters) == (sb.rollbacks, sb.cg_iters)
        for ca, cb in zip(w_a.cores, w_b.cores):
            np.testing.assert_array_equal(ca, cb)

    @pytest.mark.parametrize("n_samples", [5, 60])
    def test_one_solve_per_bond_update(self, n_samples):
        """``train`` calls ``_cg_normal`` exactly once per bond update,
        2 * (N - 1) times per record, and ``split_bond`` at least as often,
        on either basis; the benchmark counts bond updates and splits there."""
        calls = {"_cg_normal": 0, "split_bond": 0}

        def counted(name):
            fn = getattr(wmera.trainer, name)

            def wrapper(*args, **kwargs):
                calls[name] += 1
                return fn(*args, **kwargs)
            return wrapper

        data = linear_dataset(np.random.default_rng(62), 6, n_samples)
        cfg = TrainConfig(n_sweeps=2, chi_max=4, init_bond=4, seed=2)
        with mock.patch.multiple(wmera.trainer, _cg_normal=counted("_cg_normal"),
                                 split_bond=counted("split_bond")):
            _, stats = train(data, cfg)
        assert calls["_cg_normal"] == len(stats) * 2 * (6 - 1)
        assert calls["split_bond"] >= calls["_cg_normal"]

    def test_single_sample_fits_exactly(self):
        rng = np.random.default_rng(57)
        data = linear_dataset(rng, 4, 1)
        cfg = TrainConfig(n_sweeps=2, chi_max=4, seed=9)
        w, stats = train(data, cfg)
        assert stats[-1].cost < 1e-16
        assert abs(inner(w, data.samples[0]) - data.labels[0]) < 1e-7

    def test_stops_before_the_cap_once_converged(self):
        """``n_sweeps`` is a cap: a single sample is fit exactly within a
        sweep, and the next sweep cannot lower the cost, so training stops."""
        data = linear_dataset(np.random.default_rng(57), 4, 1)
        _, stats = train(data, TrainConfig(n_sweeps=5, chi_max=4, seed=9))
        assert len(stats) < 5
        assert stats[-1].cost < 1e-16

    def test_converged_warm_start_takes_one_sweep(self):
        """The ridge term keeps the minimum well above roundoff, where a
        converged sweep's relative change is far below the tolerance."""
        data = linear_dataset(np.random.default_rng(61), 6, 18)
        cfg = TrainConfig(n_sweeps=10, chi_max=4, lam=1e-3, seed=6)
        w, first = train(data, cfg)
        assert len(first) < cfg.n_sweeps
        _, stats = train(data, cfg, w0=w)
        assert len(stats) == 1

    def test_converged_exact_fit_takes_one_sweep(self):
        """Without a ridge the exact fit's cost sits at roundoff (about 1e-23),
        where relative changes are of order 1; the label-scaled floor sees a
        warm start from converged weights as converged after one sweep."""
        data = linear_dataset(np.random.default_rng(59), 4, 10)
        cfg = TrainConfig(n_sweeps=10, chi_max=4, seed=9)
        w, first = train(data, cfg)
        assert first[-1].cost < 1e-16
        _, stats = train(data, cfg, w0=w)
        assert len(stats) == 1

    def test_cap_holds_while_every_sweep_lowers_the_cost(self):
        """One CG step per solve leaves every sweep room to improve, so the
        run takes exactly ``n_sweeps`` records."""
        data = linear_dataset(np.random.default_rng(51), 8, 200, bias=0.3)
        cfg = TrainConfig(n_sweeps=3, chi_max=8, cg_max_iters=1, seed=2)
        _, stats = train(data, cfg)
        assert len(stats) == 3
        assert stats[-1].cost < stats[-2].cost < stats[-3].cost

    @pytest.mark.parametrize("forth_factor, back_over_forth, n_records", [
        (1.0, 1.01, 1),           # the returning pass raised the cost
        (1.0, 1.0, 1),            # it left the cost as it was
        (1.0, 1.0 - 1e-7, 1),     # it lowered the cost by less than the tolerance
        (1.0, 1.0 - 1e-5, 3),     # it lowered the cost by more: run to the cap
        (0.0, 1.0, 1),            # a cost of 0 counts as no drop
    ])
    def test_stop_reads_the_returning_pass_against_the_forward_pass(
            self, monkeypatch, forth_factor, back_over_forth, n_records):
        forth_cost = []

        def patched(w, data, cfg, direction, env, *rest):
            w, stats = sweep(w, data, cfg, direction, env, *rest)
            if direction == "lr":
                forth_cost.append(stats.cost * forth_factor)
                return w, replace(stats, cost=forth_cost[-1])
            return w, replace(stats, cost=forth_cost[-1] * back_over_forth)

        monkeypatch.setattr(wmera.trainer, "sweep", patched)
        data = linear_dataset(np.random.default_rng(51), 8, 200, bias=0.3)
        cfg = TrainConfig(n_sweeps=3, chi_max=8, cg_max_iters=1, seed=2)
        _, stats = train(data, cfg)
        assert len(stats) == n_records


class TestEvaluate:
    def test_regression_metric_is_mean_abs(self):
        rng = np.random.default_rng(58)
        data = linear_dataset(rng, 4, 12)
        w = random_weights(4, TrainConfig(seed=10))
        f = model_outputs(w, data)
        want = float(np.mean(np.abs(f - data.labels)))
        assert abs(evaluate(w, data, "regression") - want) < 1e-12

    def test_classification_tie_counts_as_positive(self):
        zeros = MPS([np.zeros((1, 2, 1)) for _ in range(4)])
        rng = np.random.default_rng(59)
        data = ScaleData([random_product_state(4, rng) for _ in range(8)],
                         np.array([1.0, -1.0] * 4))
        # all outputs are exactly zero, predicted class is +1
        assert evaluate(zeros, data, "classification") == 0.5

    def test_unknown_task_rejected(self):
        rng = np.random.default_rng(60)
        data = linear_dataset(rng, 4, 3)
        with pytest.raises(ArgumentError):
            evaluate(random_weights(4, TrainConfig()), data, "ranking")
