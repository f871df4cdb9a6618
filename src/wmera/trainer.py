"""Two-site sweep optimization of a weight MPS over a labelled dataset.

The model output for a sample state x is the full overlap f(x) = <W, x>, and
training minimizes the ridge-regularized quadratic cost

    C(W) = 1/(2n) sum_j (f(x_j) - y_j)^2 + lam * |W|^2.

Each bond update merges two weight cores into a block, solves the local
least-squares problem with conjugate gradient on the normal equations, and
re-splits with a truncated SVD, absorbing the singular values toward the
next bond. Environment stacks keep one full sweep linear in the chain
length. Training sweeps back and forth until a sweep's returning pass stops
lowering the cost, at most ``n_sweeps`` times.

The solve runs in sample space when a bond's n samples have at most half as
many coordinates (n + 1) as the block has entries D: every CG iterate is
x0 + Phi^T a plus a multiple of x0, so the same iteration runs on those n + 1
coordinates with the Gram matrix of (x0, rows of Phi) as its metric, the dual
form of ridge regression, at O(n^2) per step instead of O(n D). Where that
metric can no longer resolve the residual (nearly dependent samples), the
block finishes the solve. Where every sample's bond between the window's two
sites is 1, as on product states, the window is never formed: each row is
the Kronecker product of a left and a right factor (:class:`ProductWindow`),
and its Gram matrix is the elementwise product of the factors' Gram matrices.

Every contraction with the data is batched over samples on the scale's
zero-padded ``ScaleData.stack``: each environment step, window and output
pass is one chain of batched matmuls, exact because padding is zero. No work
runs on worker threads.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
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
    coefficient. A "sweep" is one full back-and-forth pass, and
    ``n_sweeps`` caps their number: training stops earlier once a sweep
    converges (see :func:`train`).
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
        if not 1 <= self.chi_max < 2**63:  # a bond extent is int64
            raise ArgumentError("chi_max must lie in [1, 2**63)")
        if self.lam < 0:
            raise ArgumentError("lam must be >= 0")
        if self.cg_max_iters < 1:
            raise ArgumentError("cg_max_iters must be >= 1")
        if self.cg_tol < 0:
            raise ArgumentError("cg_tol must be >= 0")
        if self.init_bond < 1 or self.init_scale <= 0:
            raise ArgumentError("init_bond must be >= 1 and init_scale > 0")
        if self.seed < 0:
            raise ArgumentError("seed must be >= 0")


@dataclass
class SweepStats:
    """Telemetry for one pass (or one full sweep, when emitted by train).

    ``rollbacks`` counts bond updates that kept the original block after
    truncation raised the window cost; ``cg_iters`` sums their CG steps and
    ``cg_breaks`` counts the solves a curvature break ended.
    """

    sweep: int
    cost: float
    max_bond: int
    train_metric: float
    truncated_weight: float = 0.0
    rollbacks: int = 0
    cg_iters: int = 0
    cg_breaks: int = 0


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
    refreshed lazily in the direction a sweep consumes them, and a sweep
    sets each to None once it has consumed it; ``left[0]`` and
    ``right[n_sites]``, the edges, stay. Bond j reads ``left[j]`` and
    ``right[j + 2]``, so ``left[n_sites - 1]`` and ``right[1]`` are never
    built.
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

    def refresh_right(self, w: MPS, down_to: int = 2) -> None:
        """Recompute right[j] for all j >= down_to from the current cores;
        by default every entry a window reads."""
        for j in range(self.n_sites - 1, down_to - 1, -1):
            self.advance_right(w, j)

    def refresh_left(self, w: MPS, up_to: int | None = None) -> None:
        """Recompute left[j] for all j <= up_to from the current cores;
        by default every entry a window reads."""
        if up_to is None:
            up_to = self.n_sites - 2
        for j in range(up_to):
            self.advance_left(w, j)

    def advance_left(self, w: MPS, j: int) -> None:
        """Update left[j+1] after core j changed during a rightward pass."""
        self.left[j + 1] = _extend_left(self.left[j], w.cores[j], self.stack.cores[j])

    def advance_right(self, w: MPS, j: int) -> None:
        """Update right[j] after core j changed during a leftward pass."""
        self.right[j] = _extend_right(w.cores[j], self.stack.cores[j], self.right[j + 1])

    def _ends(self, j: int) -> tuple[np.ndarray, np.ndarray]:
        lm, rm = self.left[j], self.right[j + 2]
        if lm is None or rm is None:
            raise StateError(f"environment stacks not built for bond {j}")
        return lm, rm

    def window_matrix(self, j: int) -> np.ndarray:
        """Every sample's projection into the (j, j+1) window, one row each.

        Row s flattens a (left bond, site, site, right bond) tensor in the
        same order as the ``merge_bond`` block's ravel(), so
        ``rows @ block.ravel()`` are the model outputs.
        """
        lm, rm = self._ends(j)
        xj, xj1 = self.stack.cores[j], self.stack.cores[j + 1]
        n = len(lm)
        t = lm @ xj.reshape(n, xj.shape[1], -1)
        t = t.reshape(n, -1, xj.shape[3]) @ xj1.reshape(n, xj1.shape[1], -1)
        return (t.reshape(n, -1, rm.shape[2]) @ rm.transpose(0, 2, 1)).reshape(n, -1)

    def window(self, j: int):
        """The window of bond ``j`` as the local solve takes it.

        Where every sample's bond between sites j and j + 1 is 1 and the
        solve runs in sample space, this is a :class:`ProductWindow` and the
        window matrix is never formed; otherwise it is ``window_matrix(j)``.
        """
        lm, rm = self._ends(j)
        xj, xj1 = self.stack.cores[j], self.stack.cores[j + 1]
        n, size = len(lm), lm.shape[1] * xj.shape[2] * xj1.shape[2] * rm.shape[1]
        if xj.shape[3] > 1 or not _sample_basis(n, size):
            return self.window_matrix(j)
        left = lm @ xj.reshape(n, xj.shape[1], -1)
        right = xj1.reshape(n, -1, xj1.shape[3]) @ rm.transpose(0, 2, 1)
        return ProductWindow(left.reshape(n, -1), right.reshape(n, -1))


class ProductWindow:
    """The window matrix of a bond where every sample's bond between its
    two sites is 1, kept as two factors.

    Row s is the Kronecker product of ``left[s]`` (left weight bond, site j)
    and ``right[s]`` (site j + 1, right weight bond), a face-splitting
    product, so Phi v, a^T Phi and Phi Phi^T = (L L^T) * (R R^T) are small
    matmuls. ``window @ vec`` and ``a @ window`` act as they would on the
    explicit matrix.
    """

    __array_ufunc__ = None  # NumPy defers ``a @ window`` to __rmatmul__

    def __init__(self, left: np.ndarray, right: np.ndarray):
        self.left, self.right = left, right
        self.shape = (len(left), left.shape[1] * right.shape[1])

    def __matmul__(self, vec: np.ndarray) -> np.ndarray:
        return np.vecdot(self.left.dot(vec.reshape(self.left.shape[1], -1)), self.right)

    def __rmatmul__(self, a: np.ndarray) -> np.ndarray:
        return (self.left.T * a).dot(self.right).ravel()

    def gram(self) -> np.ndarray:
        return self.left.dot(self.left.T) * self.right.dot(self.right.T)


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


def _outputs_cost(out: np.ndarray, vec: np.ndarray, y: np.ndarray, lam: float) -> float:
    """The window cost of ``vec`` from its outputs ``out = Phi vec``."""
    resid = out - y
    value = 0.5 * float(resid @ resid) / len(y)
    if lam:
        value += lam * float(vec @ vec)
    return value


def _window_cost(phi, vec: np.ndarray, y: np.ndarray, lam: float) -> float:
    return _outputs_cost(phi @ vec, vec, y, lam)


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


def _sample_basis(n: int, size: int) -> bool:
    """Whether a bond of ``n`` samples and a block of ``size`` entries is
    solved in sample space: its n + 1 coordinates are at most half the block."""
    return 2 * (n + 1) <= size


# Rounding in r . (M r) is about eps * tr(M) * |r|^2 in coordinates: sample-space
# steps stop once a residual norm is within six digits of that floor, and the
# block finishes the solve.
_RESOLVED = 1e6 * np.finfo(np.float64).eps

# train stops after a sweep whose returning pass lowered the cost by no more
# than this fraction of the cost its forward pass left (plus a roundoff floor
# scaled by the labels)
_SWEEP_TOL = 1e-6


def _cg(op, metric: np.ndarray | None, r: np.ndarray, rr_stop: float, anorm: float,
        max_iters: int) -> tuple[np.ndarray, int, str]:
    """Conjugate gradient from residual ``r`` in the inner product a . (M b).

    ``op(p)`` returns K p and the curvature p . (M K p) for the operator K,
    self-adjoint in that inner product; ``metric`` is M, or None for the
    identity. Every residual norm is r . (M r) of the current residual, never
    a recurrence. Returns the step to add to the starting point, the steps
    taken and why the loop ended: "tol", "cap", "break" (curvature) or
    "floor" (a residual norm near the rounding floor of the metric, see
    ``_RESOLVED``). ``r`` is updated in place.
    """
    floor = 0.0 if metric is None else _RESOLVED * float(np.trace(metric))
    dx = np.zeros_like(r)
    for steps in range(max_iters + 1):  # each residual is tested once, before its step
        rr_new = float(r.dot(r if metric is None else metric.dot(r)))
        if not math.isfinite(rr_new):
            raise NumericError("conjugate gradient reached non-finite values; check the labels "
                               "and sample norms, or try a larger lam or smaller chi_max")
        if floor and rr_new <= floor * float(r.dot(r)):
            return dx, steps, "floor"
        if rr_new <= rr_stop:
            return dx, steps, "tol"
        if steps == max_iters:
            return dx, steps, "cap"
        if steps:
            beta = rr_new / rr
            p = r + beta * p
            pp = rr_new + beta * beta * pp  # p . (M p): p is M-orthogonal to the new r
        else:
            p, pp = r.copy(), rr_new
        rr = rr_new
        kp, pap = op(p)
        if not (math.isfinite(pap) and math.isfinite(pp)):
            raise NumericError("conjugate gradient produced non-finite values; "
                               "try a larger lam or smaller chi_max")
        if pap <= 1e-14 * anorm * pp:
            # curvature along p is zero up to roundoff (rank-deficient
            # window): stepping further only amplifies null-space noise
            return dx, steps, "break"
        alpha = rr / pap
        dx += alpha * p
        r -= alpha * kp


def _cg_normal(phi, y: np.ndarray, x0: np.ndarray, out0: np.ndarray, lam: float,
               max_iters: int, tol: float) -> tuple[np.ndarray, int, bool]:
    """Conjugate gradient on (Phi^T Phi / n + 2 lam I) x = Phi^T y / n from
    ``x0``, whose outputs Phi x0 are ``out0``.

    Every iterate lies in x0 + span(rows of Phi). When the n + 1 coordinates
    z = (c, a) of v = c x0 + Phi^T a are at most half the block
    (:func:`_sample_basis`), the iteration runs on z: the operator is
    K = [[mu, 0], [u / n, G / n + mu I]] and the metric is the Gram matrix
    of (x0, rows of Phi), with G = Phi Phi^T, u = Phi x0 and mu = 2 lam, so
    a step costs O(n^2) instead of O(n D). Otherwise it runs on the block
    (K = Phi^T Phi / n + mu I, metric I), and so do the steps left once the
    metric no longer resolves the residual, as with nearly dependent
    samples. Both are one loop, :func:`_cg`, so they take the same steps up
    to roundoff. ``phi`` is a window matrix, or a :class:`ProductWindow` where
    the sample-space rule holds.

    The iterate monotonically decreases the quadratic objective, so the
    window cost never rises above its value at x0. Returns the iterate, the
    steps taken and whether a curvature break ended the solve.
    """
    n = len(y)
    mu = 2.0 * lam

    def op(p):
        ap = (phi @ p) @ phi / n + mu * p
        return ap, float(p.dot(ap))

    rhs = y @ phi / n
    stop = tol * max(float(rhs.dot(rhs)) ** 0.5, np.finfo(np.float64).tiny)
    if not math.isfinite(stop):
        raise NumericError("the local solve's right-hand side left the float64 range; "
                           "labels or sample norms are too large")
    r = rhs - out0 @ phi / n - mu * x0
    # _cg makes this test too, but in sample space only once the Gram matrix is formed
    if float(r.dot(r)) <= stop * stop:
        return x0, 0, False
    v, steps = x0, 0
    if _sample_basis(n, x0.size):
        gram = phi.gram() if isinstance(phi, ProductWindow) else phi.dot(phi.T)
        n1 = n + 1
        metric = np.empty((n1, n1))
        metric[0, 0] = x0.dot(x0)
        metric[0, 1:] = metric[1:, 0] = out0
        metric[1:, 1:] = gram
        k = metric / n
        k[0] = 0.0
        k.flat[::n1 + 1] += mu
        rz = -k[:, 0]  # residual at z = (1, 0): (0, y / n) - K (1, 0)
        rz[1:] += y / n
        if not np.isfinite(metric).all():
            raise NumericError("non-finite window or outputs in the local solve; "
                               "check the sample norms")
        km = np.concatenate((k, metric))
        anorm = float(np.trace(gram)) / n + mu

        def op_z(p):
            # p . (M K p) as |Phi p|^2 / n + mu |p|^2, where (M p)[1:] = Phi p:
            # a sum of squares keeps digits that the product with M K loses
            t = km.dot(p)
            out = t[n1 + 1:]
            return t[:n1], float(out.dot(out)) / n + mu * float(p.dot(t[n1:]))

        dz, steps, ended = _cg(op_z, metric, rz, stop * stop, anorm, max_iters)
        v = (1.0 + dz[0]) * x0 + dz[1:] @ phi
        if ended != "floor":
            return v, steps, ended == "break"
        r = rhs - op(v)[0]
    else:
        anorm = float(np.vdot(phi, phi)) / n + mu
    dv, more, ended = _cg(op, None, r, stop * stop, anorm, max_iters - steps)
    return v + dv, steps + more, ended == "break"


def solve_local(phi, y: np.ndarray, vec0: np.ndarray, lam: float = 0.0,
                cg_max_iters: int = TrainConfig.cg_max_iters, cg_tol: float = TrainConfig.cg_tol
                ) -> tuple[np.ndarray, float, float, int, bool]:
    """Minimize the window cost over the merged block, starting from ``vec0``.

    ``phi`` is the window of the bond (a matrix, or a :class:`ProductWindow`
    where the sample-space rule holds) and ``vec0`` the flattened block.
    Returns the solved block, the window cost before and after, the CG steps
    taken and whether a curvature break ended them; never returns a block
    with higher window cost than ``vec0``.
    """
    if phi.shape[1] != vec0.size:
        raise StateError("environment stacks out of step with the weights")
    out0 = phi @ vec0
    c_before = _outputs_cost(out0, vec0, y, lam)
    vec, steps, broke = _cg_normal(phi, y, vec0, out0, lam, cg_max_iters, cg_tol)
    c_solved = _window_cost(phi, vec, y, lam)
    if c_solved > c_before:  # roundoff ascent: keep the starting block
        return vec0, c_before, c_before, steps, broke
    return vec, c_before, c_solved, steps, broke


def _metric_from_outputs(f: np.ndarray, y: np.ndarray, task: str) -> float:
    if task == "classification":
        pred = np.where(f >= 0, 1.0, -1.0)
        truth = np.where(y >= 0, 1.0, -1.0)
        return float(np.mean(pred == truth))
    if task == "regression":
        return float(np.mean(np.abs(f - y)))
    raise ArgumentError(f"unknown task {task!r}")


def sweep(w: MPS, data: ScaleData, cfg: TrainConfig, direction: str, env: Environment,
          task: str = "regression",
          monitor: Callable[[SweepEvent], None] | None = None) -> tuple[MPS, SweepStats]:
    """One optimization pass over all bonds, left-to-right or right-to-left.

    ``w`` must be centered at the pass's first site (0 for "lr", the last
    for "rl"), else StateError, and ``env`` must hold the stacks of ``w``
    that the pass reads first, as alternating passes leave them. A pass
    builds only the stacks the next window reads and drops each stack on
    the far side of a bond once that bond is done, so the environment holds
    one stack per bond, and a second pass in the same direction on one
    ``env`` finds them gone (StateError).
    """
    if direction not in ("lr", "rl"):
        raise ArgumentError(f"direction must be 'lr' or 'rl', got {direction!r}")
    n_sites = len(w)
    if n_sites < 2:
        raise ArgumentError("sweeping needs at least two sites")
    start = 0 if direction == "lr" else n_sites - 1
    if w.ortho_center != start:
        raise StateError(f"a {direction!r} pass needs the orthogonality center at "
                         f"{start}, found {w.ortho_center}")
    y = data.labels
    lam = cfg.lam
    y_scale = float(y.dot(y)) / len(y)
    trunc_total = 0.0
    rollbacks = cg_iters = cg_breaks = 0
    final_cost = np.nan
    bonds = range(n_sites - 1) if direction == "lr" else range(n_sites - 2, -1, -1)
    for j in bonds:
        block = merge_bond(w, j)
        phi = env.window(j)
        vec, c_before, c_solved, steps, broke = solve_local(phi, y, block.ravel(), lam,
                                                            cfg.cg_max_iters, cfg.cg_tol)
        cg_iters += steps
        cg_breaks += broke
        new_center = j + 1 if direction == "lr" else j
        slack = 1e-12 * (c_before + y_scale)
        w_new, err = split_bond(w, j, vec.reshape(block.shape), cfg.delta_weights,
                                cfg.chi_max, new_center)
        merged = merge_bond(w_new, j).ravel()
        c_trunc = _window_cost(phi, merged, y, lam)
        if c_trunc > c_before + slack and w.cores[j].shape[2] <= cfg.chi_max:
            # the solve only helped in directions the bond cap cannot keep;
            # keep the original block, whose bond fits the cap, and only move
            # the center, so the pass stays monotone
            w_new, err = canonicalize(w, new_center), 0.0
            merged, c_trunc = block.ravel(), c_before
            rollbacks += 1
        w = w_new
        trunc_total += err
        if monitor is not None:
            monitor(SweepEvent(direction, j, c_before, c_solved, c_trunc, err))
        # extend the near side for the next bond and drop the far-side entry
        # this bond consumed; the last bond of a pass does neither
        if direction == "lr" and j + 2 < n_sites:
            env.advance_left(w, j)
            env.right[j + 2] = None
        elif direction == "rl" and j:
            env.advance_right(w, j + 1)
            env.left[j] = None
        final_cost = c_trunc
    stats = SweepStats(
        sweep=0,
        cost=final_cost,
        max_bond=w.max_bond,
        train_metric=_metric_from_outputs(phi @ merged, y, task),
        truncated_weight=trunc_total,
        rollbacks=rollbacks,
        cg_iters=cg_iters,
        cg_breaks=cg_breaks,
    )
    return w, stats


def random_weights(n_sites: int, cfg: TrainConfig, site_dim: int = 2) -> MPS:
    """Small zero-mean random start, so initial outputs are close to zero,
    with bonds of ``init_bond`` but at most ``chi_max``."""
    if n_sites < 2:
        raise ArgumentError("weights need at least two sites")
    rng = np.random.default_rng(cfg.seed)
    bonds = [1] + [min(cfg.init_bond, cfg.chi_max)] * (n_sites - 1) + [1]
    cores = [rng.normal(size=(bonds[j], site_dim, bonds[j + 1])) * cfg.init_scale
             for j in range(n_sites)]
    return MPS(cores)


def train(data: ScaleData, cfg: TrainConfig, w0: MPS | None = None,
          task: str = "regression",
          monitor: Callable[[SweepEvent], None] | None = None) -> tuple[MPS, list[SweepStats]]:
    """Run full back-and-forth sweeps until one converges, at most
    cfg.n_sweeps; returns weights centered at site 0 and stats.

    A sweep has converged when its returning pass lowered the cost by no
    more than ``_SWEEP_TOL`` relative to the cost its forward pass left plus
    1e-12 of the mean squared label, the roundoff scale of :func:`sweep`'s
    rollback slack; a rise, or a drop within roundoff of a cost near 0,
    counts as no drop. Starts from ``w0`` when given, otherwise from a
    seeded random chain, re-gauged by a full QR sweep to center 0 whatever
    center it claims, so a warm start trains the same from memory as from a
    model file. One SweepStats entry is emitted per full sweep, measured
    after its returning pass, so fewer entries than ``n_sweeps`` mean the
    run stopped on convergence. An overflow anywhere in training, as from a
    label whose square is past the float64 range, is a NumericError.
    """
    _metric_from_outputs(np.zeros(1), np.zeros(1), task)  # validate the task name
    w = w0 if w0 is not None else random_weights(data.n_sites, cfg)
    w = canonicalize(MPS(w.cores), 0)
    stats: list[SweepStats] = []
    y = data.labels
    with _overflow_is_numeric_error("training"):
        floor = 1e-12 * float(y.dot(y)) / len(y)
        env = Environment(w, data)
        env.refresh_right(w)
        for k in range(cfg.n_sweeps):
            w, forth = sweep(w, data, cfg, "lr", env, task, monitor)
            w, back = sweep(w, data, cfg, "rl", env, task, monitor)
            stats.append(replace(
                back, sweep=k,
                truncated_weight=forth.truncated_weight + back.truncated_weight,
                rollbacks=forth.rollbacks + back.rollbacks,
                cg_iters=forth.cg_iters + back.cg_iters,
                cg_breaks=forth.cg_breaks + back.cg_breaks))
            if not back.cost < forth.cost * (1.0 - _SWEEP_TOL) - floor:
                break
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
