"""Two-site sweep optimization of a weight MPS over a labelled dataset.

The model output for a sample state x is the full overlap f(x) = <W, x>, and
training minimizes the ridge-regularized quadratic cost

    C(W) = 1/(2n) sum_j (f(x_j) - y_j)^2 + lam * |W|^2.

Each bond update merges two weight cores into a block, solves the local
least-squares problem with conjugate gradient on the normal equations, and
re-splits with a truncated SVD, absorbing the singular values toward the
next bond. Environment stacks keep one full sweep linear in the chain
length.

Every contraction with the data is batched over samples on the scale's
zero-padded ``ScaleData.stack``: each environment step, window matrix and
output pass is one chain of batched matmuls, exact because padding is zero.
No work runs on worker threads.
"""

from __future__ import annotations

import time
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from .coarsegrain import ScaleData
from .errors import ArgumentError, DimensionError, NumericError, StateError
from .mps import MPS, MPSStack, canonicalize, inner, merge_bond, split_bond


@dataclass
class TrainConfig:
    """Hyperparameters of sweep training.

    ``delta_weights`` is the absolute singular-value threshold of weight
    splits and ``chi_max`` the hard bond cap; ``lam`` is the ridge
    coefficient. A "sweep" is one full back-and-forth pass.
    """

    n_sweeps: int = 5
    delta_weights: float = 1e-14
    chi_max: int = 64
    lam: float = 0.0
    cg_max_iters: int = 20
    cg_tol: float = 1e-10
    init_bond: int = 2
    init_scale: float = 0.01
    seed: int = 0

    def __post_init__(self):
        if self.n_sweeps < 1:
            raise ArgumentError("n_sweeps must be >= 1")
        if self.delta_weights < 0:
            raise ArgumentError("delta_weights must be >= 0")
        if self.chi_max < 1:
            raise ArgumentError("chi_max must be >= 1")
        if self.lam < 0:
            raise ArgumentError("lam must be >= 0")
        if self.cg_max_iters < 1:
            raise ArgumentError("cg_max_iters must be >= 1")
        if self.cg_tol < 0:
            raise ArgumentError("cg_tol must be >= 0")
        if self.init_bond < 1 or self.init_scale <= 0:
            raise ArgumentError("init_bond must be >= 1 and init_scale > 0")


@dataclass
class SweepStats:
    """Telemetry for one pass (or one full sweep, when emitted by train).

    ``rollbacks`` counts bond updates that re-split the original block after
    truncation raised the window cost; ``cg_iters`` sums their CG steps.
    """

    sweep_index: int
    cost: float
    max_bond: int
    train_metric: float
    wall_time: float
    truncated_weight: float = 0.0
    rollbacks: int = 0
    cg_iters: int = 0


@dataclass
class SweepEvent:
    """Per-bond record handed to a monitor callback during a sweep."""

    direction: str
    bond: int
    cost_before: float
    cost_solved: float
    cost_truncated: float
    truncation_error: float


class Environment:
    """Partial contractions of the weight chain with every sample at once.

    ``left[j]`` contracts sites < j and ``right[j]`` contracts sites >= j,
    each as an (n, weight bond, sample bond) array over the scale's stacked
    samples, whose sample bonds carry trailing zero padding. Stacks are
    refreshed lazily in the direction a sweep consumes them.
    """

    def __init__(self, w: MPS, data: ScaleData):
        self.stack = _data_stack(w, data)
        self.data = data
        self.n_sites = len(w)
        edge = np.ones((data.n_samples, 1, 1))
        self.left: list[np.ndarray | None] = [None] * (self.n_sites + 1)
        self.right: list[np.ndarray | None] = [None] * (self.n_sites + 1)
        self.left[0] = edge
        self.right[self.n_sites] = edge

    def refresh_right(self, w: MPS, down_to: int = 1) -> None:
        """Recompute right[j] for all j >= down_to from the current cores."""
        for j in range(self.n_sites - 1, down_to - 1, -1):
            self.right[j] = _extend_right(w.cores[j], self.stack.cores[j], self.right[j + 1])

    def refresh_left(self, w: MPS, up_to: int | None = None) -> None:
        """Recompute left[j] for all j <= up_to from the current cores."""
        if up_to is None:
            up_to = self.n_sites - 1
        for j in range(up_to):
            self.left[j + 1] = _extend_left(self.left[j], w.cores[j], self.stack.cores[j])

    def advance_left(self, w: MPS, j: int) -> None:
        """Update left[j+1] after core j changed during a rightward pass."""
        self.left[j + 1] = _extend_left(self.left[j], w.cores[j], self.stack.cores[j])

    def advance_right(self, w: MPS, j: int) -> None:
        """Update right[j] after core j changed during a leftward pass."""
        self.right[j] = _extend_right(w.cores[j], self.stack.cores[j], self.right[j + 1])

    def window_matrix(self, j: int) -> np.ndarray:
        """Every sample's projection into the (j, j+1) window, one row each.

        Row s flattens a (left bond, site, site, right bond) tensor in the
        same order as the ``merge_bond`` block's ravel(), so
        ``rows @ block.ravel()`` are the model outputs.
        """
        lm = self.left[j]
        rm = self.right[j + 2]
        if lm is None or rm is None:
            raise StateError(f"environment stacks not built for bond {j}")
        xj, xj1 = self.stack.cores[j], self.stack.cores[j + 1]
        n = len(lm)
        t = lm @ xj.reshape(n, xj.shape[1], -1)
        t = t.reshape(n, -1, xj.shape[3]) @ xj1.reshape(n, xj1.shape[1], -1)
        return (t.reshape(n, -1, rm.shape[2]) @ rm.transpose(0, 2, 1)).reshape(n, -1)


def _data_stack(w: MPS, data: ScaleData) -> MPSStack:
    """The scale's sample stack, checked against the weight chain."""
    if data.n_samples == 0:
        raise ArgumentError("empty dataset")
    if data.n_sites != len(w):
        raise DimensionError(f"weights cover {len(w)} sites, samples {data.n_sites}")
    stack = data.stack
    if [c.shape[2] for c in stack.cores] != w.site_dims:
        raise DimensionError("sample site dimensions do not match the weights")
    return stack


def _extend_left(left: np.ndarray, wc: np.ndarray, xc: np.ndarray) -> np.ndarray:
    """(n, bw, bx) contraction of sites < j to the one of sites <= j."""
    n, bw, _ = left.shape
    t = (left @ xc.reshape(n, xc.shape[1], -1)).reshape(n, bw * wc.shape[1], -1)
    return wc.reshape(bw * wc.shape[1], -1).T @ t


def _extend_right(wc: np.ndarray, xc: np.ndarray, right: np.ndarray) -> np.ndarray:
    """(n, bw, bx) contraction of sites > j to the one of sites >= j."""
    n, bx = xc.shape[:2]
    t = (xc.reshape(n, -1, xc.shape[3]) @ right.transpose(0, 2, 1)).reshape(n, bx, -1)
    return wc.reshape(wc.shape[0], -1) @ t.transpose(0, 2, 1)


def model_outputs(w: MPS, data: ScaleData) -> np.ndarray:
    """Overlaps <W, x> of every sample, one batched left-to-right pass."""
    stack = _data_stack(w, data)
    env = np.ones((data.n_samples, 1, 1))
    for wc, xc in zip(w.cores, stack.cores):
        env = _extend_left(env, wc, xc)
    return env[:, 0, 0]


def cost(w: MPS, data: ScaleData, lam: float = 0.0) -> float:
    """Mean squared error halved, plus the ridge term lam * |W|^2."""
    resid = model_outputs(w, data) - data.labels
    value = 0.5 * float(resid @ resid) / data.n_samples
    if lam:
        value += lam * inner(w, w)
    return value


def _window_cost(phi: np.ndarray, vec: np.ndarray, y: np.ndarray, lam: float) -> float:
    resid = phi @ vec - y
    value = 0.5 * float(resid @ resid) / len(y)
    if lam:
        value += lam * float(vec @ vec)
    return value


def local_gradient(env: Environment, j: int, block: np.ndarray,
                   lam: float = 0.0) -> np.ndarray:
    """Negative cost gradient with respect to the merged block of bond ``j``.

    Valid when the weights are canonical around the window, so that the
    ridge term reduces to lam * |block|^2.
    """
    phi = env.window_matrix(j)
    vec = block.ravel()
    if phi.shape[1] != vec.size:
        raise StateError("environment stacks disagree with the bond tensor shape")
    resid = env.data.labels - phi @ vec
    grad = phi.T @ resid / env.data.n_samples - 2.0 * lam * vec
    return grad.reshape(block.shape)


def _cg_normal(phi: np.ndarray, y: np.ndarray, x0: np.ndarray, lam: float,
               max_iters: int, tol: float) -> tuple[np.ndarray, int]:
    """Conjugate gradient on (Phi^T Phi / n + 2 lam I) x = Phi^T y / n.

    The iterate monotonically decreases the quadratic objective, so the
    window cost never rises above its value at x0. Returns the iterate and
    the number of steps taken.
    """
    n = len(y)

    def matvec(v):
        out = phi.T @ (phi @ v) / n
        if lam:
            out += 2.0 * lam * v
        return out

    rhs = phi.T @ y / n
    anorm = float(np.sum(phi * phi)) / n + 2.0 * lam
    x = x0.copy()
    r = rhs - matvec(x)
    stop = tol * max(float(np.linalg.norm(rhs)), np.finfo(np.float64).tiny)
    rr = float(r @ r)
    if rr ** 0.5 <= stop:
        return x, 0
    p = r.copy()
    steps = 0
    for _ in range(max_iters):
        ap = matvec(p)
        pap = float(p @ ap)
        if not np.isfinite(pap):
            raise NumericError("conjugate gradient produced non-finite values; "
                               "try a larger lam or smaller chi_max")
        if pap <= 1e-14 * anorm * float(p @ p):
            # curvature along p is zero up to roundoff (rank-deficient
            # window): stepping further only amplifies null-space noise
            break
        alpha = rr / pap
        x += alpha * p
        r -= alpha * ap
        steps += 1
        rr_new = float(r @ r)
        if not np.isfinite(rr_new):
            raise NumericError("conjugate gradient diverged; "
                               "try a larger lam or smaller chi_max")
        if rr_new ** 0.5 <= stop:
            break
        p = r + (rr_new / rr) * p
        rr = rr_new
    return x, steps


def solve_local(phi: np.ndarray, y: np.ndarray, vec0: np.ndarray, lam: float = 0.0,
                cg_max_iters: int = 20, cg_tol: float = 1e-10,
                ) -> tuple[np.ndarray, float, float, int]:
    """Minimize the window cost over the merged block, starting from ``vec0``.

    ``phi`` is the window matrix of the bond and ``vec0`` the flattened
    block. Returns the solved block, the window cost before and after, and
    the CG steps taken; never returns a block with higher window cost than
    ``vec0``.
    """
    if phi.shape[1] != vec0.size:
        raise StateError("environment stacks out of step with the weights")
    c_before = _window_cost(phi, vec0, y, lam)
    vec, steps = _cg_normal(phi, y, vec0, lam, cg_max_iters, cg_tol)
    c_solved = _window_cost(phi, vec, y, lam)
    if c_solved > c_before:
        return vec0, c_before, c_before, steps  # roundoff ascent: keep the starting block
    return vec, c_before, c_solved, steps


def _metric_from_outputs(f: np.ndarray, y: np.ndarray, task: str) -> float:
    if task == "classification":
        pred = np.where(f >= 0, 1.0, -1.0)
        truth = np.where(y >= 0, 1.0, -1.0)
        return float(np.mean(pred == truth))
    if task == "regression":
        return float(np.mean(np.abs(f - y)))
    raise ArgumentError(f"unknown task {task!r}")


def sweep(w: MPS, data: ScaleData, cfg: TrainConfig, direction: str = "lr",
          env: Environment | None = None, task: str = "regression",
          monitor: Callable[[SweepEvent], None] | None = None) -> tuple[MPS, SweepStats]:
    """One optimization pass over all bonds, left-to-right or right-to-left.

    With a persistent ``env``, alternating passes reuse the stacks built by
    the previous pass; a fresh environment is filled for the direction.
    """
    if direction not in ("lr", "rl"):
        raise ArgumentError(f"direction must be 'lr' or 'rl', got {direction!r}")
    n_sites = len(w)
    if n_sites < 2:
        raise ArgumentError("sweeping needs at least two sites")
    t0 = time.perf_counter()
    start = 0 if direction == "lr" else n_sites - 1
    w = canonicalize(w, start)
    if env is None:
        env = Environment(w, data)
        if direction == "lr":
            env.refresh_right(w)
        else:
            env.refresh_left(w)
    y = data.labels
    lam = cfg.lam
    trunc_total = 0.0
    rollbacks = cg_iters = 0
    final_cost = np.nan
    final_resid = None
    bonds = range(n_sites - 1) if direction == "lr" else range(n_sites - 2, -1, -1)
    for j in bonds:
        block = merge_bond(w, j)
        phi = env.window_matrix(j)
        vec, c_before, c_solved, steps = solve_local(phi, y, block.ravel(), lam,
                                                     cfg.cg_max_iters, cfg.cg_tol)
        cg_iters += steps
        new_center = j + 1 if direction == "lr" else j
        slack = 1e-12 * (c_before + float(y @ y) / len(y))
        w_new, err = split_bond(w, j, vec.reshape(block.shape), cfg.delta_weights,
                                cfg.chi_max, new_center)
        merged = merge_bond(w_new, j).ravel()
        c_trunc = _window_cost(phi, merged, y, lam)
        if c_trunc > c_before + slack:
            # the solve only helped in directions the bond cap cannot keep;
            # re-split the original block so the pass stays monotone
            w_new, err = split_bond(w, j, block, cfg.delta_weights, cfg.chi_max,
                                    new_center)
            merged = merge_bond(w_new, j).ravel()
            c_trunc = _window_cost(phi, merged, y, lam)
            rollbacks += 1
        w = w_new
        trunc_total += err
        if monitor is not None:
            monitor(SweepEvent(direction, j, c_before, c_solved, c_trunc, err))
        if direction == "lr":
            env.advance_left(w, j)
        else:
            env.advance_right(w, j + 1)
        final_cost = c_trunc
        final_resid = phi @ merged - y
    stats = SweepStats(
        sweep_index=0,
        cost=final_cost,
        max_bond=w.max_bond,
        train_metric=_metric_from_outputs(final_resid + y, y, task),
        wall_time=time.perf_counter() - t0,
        truncated_weight=trunc_total,
        rollbacks=rollbacks,
        cg_iters=cg_iters,
    )
    return w, stats


def random_weights(n_sites: int, cfg: TrainConfig, site_dim: int = 2) -> MPS:
    """Small zero-mean random start, so initial outputs are close to zero."""
    if n_sites < 2:
        raise ArgumentError("weights need at least two sites")
    rng = np.random.default_rng(cfg.seed)
    bonds = [1] + [cfg.init_bond] * (n_sites - 1) + [1]
    cores = [rng.normal(size=(bonds[j], site_dim, bonds[j + 1])) * cfg.init_scale
             for j in range(n_sites)]
    return MPS(cores)


def train(data: ScaleData, cfg: TrainConfig, w0: MPS | None = None,
          task: str = "regression",
          monitor: Callable[[SweepEvent], None] | None = None) -> tuple[MPS, list[SweepStats]]:
    """Run cfg.n_sweeps full back-and-forth sweeps; returns weights and stats.

    Starts from ``w0`` when given, otherwise from a seeded random chain.
    One SweepStats entry is emitted per full sweep, measured after its
    returning pass. An overflow anywhere in training, as from a label whose
    square is past the float64 range, is a NumericError.
    """
    if data.n_samples == 0:
        raise ArgumentError("empty dataset")
    _metric_from_outputs(np.zeros(1), np.zeros(1), task)  # validate the task name
    w = w0 if w0 is not None else random_weights(data.n_sites, cfg)
    w = canonicalize(w, 0)
    stats: list[SweepStats] = []
    with _overflow_is_numeric_error("training"):
        env = Environment(w, data)
        env.refresh_right(w)
        for k in range(cfg.n_sweeps):
            t0 = time.perf_counter()
            w, forth = sweep(w, data, cfg, "lr", env, task, monitor)
            w, back = sweep(w, data, cfg, "rl", env, task, monitor)
            stats.append(SweepStats(
                sweep_index=k,
                cost=back.cost,
                max_bond=back.max_bond,
                train_metric=back.train_metric,
                wall_time=time.perf_counter() - t0,
                truncated_weight=forth.truncated_weight + back.truncated_weight,
                rollbacks=forth.rollbacks + back.rollbacks,
                cg_iters=forth.cg_iters + back.cg_iters,
            ))
    return w, stats


def evaluate(w: MPS, data: ScaleData, task: str) -> float:
    """Accuracy for classification (sign match, ties to +1), mean absolute
    deviation for regression. An overflow, as from weights or samples too
    large for their overlaps, is a NumericError."""
    with _overflow_is_numeric_error("evaluation"):
        return _metric_from_outputs(model_outputs(w, data), data.labels, task)


@contextmanager
def _overflow_is_numeric_error(what: str) -> Iterator[None]:
    """Raise NumericError at the first floating-point overflow inside."""
    try:
        with np.errstate(over="raise"):
            yield
    except FloatingPointError as exc:
        raise NumericError(f"{what} left the float64 range ({exc}); labels, weights or "
                           "sample norms are too large") from None
