"""Bimarginal entropic optimal transport (Schrödinger bridge) solver.

Solves  min_{M in Pi(mu1, mu2)}  <C + eta log M, M>,  equivalently the KL
projection  min eta * D_KL(M || K)  with Gibbs kernel K = exp(-C / eta).
The optimizer factors as M = K ⊙ (u1 ⊗ u2).  The classical alternating
scalings run as stabilized scaling sweeps (Schmitzer 2019, Alg. 2): log
duals f, g are absorbed into a kernel K~ = exp(f ⊕ g - C/eta), and a sweep
is two matrix-vector products, a = mu / (K~ b) and b = nu / (K~^T a).  When
a scaling leaves [1e-50, 1e50], its log is absorbed into the duals and K~
is rebuilt; a half sweep whose product would underflow runs in the log
domain instead.  The first a update is such a log-domain half sweep, from
f = g = 0.  The iterates are those of the log-domain (log-sum-exp)
recursion, without the underflow that raw exp(-C/eta) suffers for small
eta.  The caller builds gibbs_kernel's log K = -C/eta once per edge.

The optimal value reported for an edge, which may be negative since K is
unnormalized, is read off the returned log duals f, g:

    sb_value = D_KL(M || K) = sum_ij M_ij log(M_ij / K_ij) = <f, M 1> + <g, M^T 1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import COST_KINDS, DEFAULT_MAX_ITER, DEFAULT_TOL, check_solver_params
from .errors import ValidationError
from .measures import DiscreteMeasure

# A scaling outside [1/_SCALE_BOUND, _SCALE_BOUND] is absorbed into the log
# duals.  Kernel entries below exp(_LOG_FLOOR) relative to the absorbed
# duals are stored as exact zeros, and a half sweep whose product has an
# entry below _MIN_PRODUCT runs in the log domain.  These keep every
# product, quotient and exponential of a sweep in the normal float range.
_SCALE_BOUND = 1e50
_LOG_FLOOR = -400.0
_MIN_PRODUCT = 1e-200
_LOWEST = np.finfo(float).min


@dataclass(frozen=True, eq=False)
class PairwiseCost:
    """Nonnegative ground-cost matrix between two supports."""

    matrix: np.ndarray  # (n1, n2)

    def __post_init__(self):
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2:
            raise ValidationError(f"cost matrix must be 2-d, got shape {m.shape}")
        if not np.all(np.isfinite(m)):
            raise ValidationError("cost matrix contains non-finite entries")
        if np.any(m < 0):
            i, j = np.argwhere(m < 0)[0]
            raise ValidationError(f"negative cost at ({i}, {j}): {m[i, j]}")
        m = np.ascontiguousarray(m)
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)


def build_cost(
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    kind: str = "sqeuclidean",
    matrix=None,
) -> PairwiseCost:
    """Ground cost between two supports.

    kind "sqeuclidean" or "euclidean" computes c(x, y) from the support
    points; kind "matrix" wraps a caller-supplied (n1, n2) matrix.
    """
    if kind not in COST_KINDS:
        raise ValidationError(f"unknown cost kind {kind!r}; expected one of {COST_KINDS}")
    if kind == "matrix":
        if matrix is None:
            raise ValidationError("cost kind 'matrix' requires an explicit matrix")
        m = np.asarray(matrix, dtype=float)
        if m.shape != (m1.n, m2.n):
            raise ValidationError(
                f"cost matrix shape {m.shape} does not match supports ({m1.n}, {m2.n})"
            )
        return PairwiseCost(m)
    if m1.dim != m2.dim:
        raise ValidationError(f"support dimensions differ: {m1.dim} vs {m2.dim}")
    diff = m1.support[:, None, :] - m2.support[None, :, :]
    sq = np.einsum("ijk,ijk->ij", diff, diff)
    if kind == "euclidean":
        return PairwiseCost(np.sqrt(sq))
    return PairwiseCost(sq)


def gibbs_kernel(cost: PairwiseCost, eta: float) -> np.ndarray:
    """Gibbs kernel K = exp(-C/eta) as the read-only array log K = -C/eta.

    The log form is exact for any scale, where exp(-C/eta) underflows to 0
    for C/eta beyond ~745, so all KL arithmetic in this package uses it.
    An eta so small that C/eta overflows is refused; division rounds
    monotonically, so some entry overflows exactly when the largest does.
    """
    check_solver_params(eta)
    c_max = float(cost.matrix.max(initial=0.0))
    if math.isinf(c_max / eta):  # a Python float quotient: inf, no warning
        raise ValidationError(f"eta={eta} is too small: C/eta overflows at the top cost {c_max}")
    log_k = -cost.matrix / eta
    log_k.flags.writeable = False
    return log_k


def total_variation(p, q) -> float:
    """TV distance between two nonnegative vectors: half the L1 deviation."""
    return 0.5 * float(np.abs(np.asarray(p) - np.asarray(q)).sum())


@dataclass(frozen=True, eq=False)
class BimarginalCoupling:
    """Converged (or best-effort) transport plan with its dual scalings.

    plan = K ⊙ (u1 ⊗ u2) re-expanded to the full support sizes; log_u1 and
    log_u2 carry -inf at pruned zero-weight entries; wherever plan > 0,
    log plan = log_u1 ⊕ log_u2 + log K.  residual is the max over both
    marginals of the TV deviation after the last sweep.  absorptions counts
    the times a scaling left [1e-50, 1e50] and both were absorbed into the
    log duals.
    """

    plan: np.ndarray
    log_u1: np.ndarray
    log_u2: np.ndarray
    iterations: int
    residual: float
    converged: bool
    residual_history: tuple[float, ...] | None = None
    absorptions: int = 0


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries below _LOG_FLOOR set to exact zeros."""
    x[x < _LOG_FLOOR] = -np.inf
    return np.exp(x, out=x)


def _reset(log_k: np.ndarray, f: np.ndarray, g: np.ndarray):
    """Scalings a = b = 1 and the kernel K~ = exp(f ⊕ g + log K) rebuilt."""
    kernel = f[:, None] + log_k
    kernel += g[None, :]  # in place: one n1 x n2 temporary, not two
    return np.ones(f.size), np.ones(g.size), _exp(kernel)


def _row_lse(x: np.ndarray) -> np.ndarray:
    """log sum_j exp(x_ij) for each row i."""
    top = x.max(axis=1)
    return top + np.log(_exp(x - top[:, None]).sum(axis=1))


def sinkhorn_solve(
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    log_kernel: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    record_history: bool = False,
) -> BimarginalCoupling:
    """Alternating KL projections onto the two marginal constraints.

    One sweep updates u1 then u2 (cyclic order).  Stops when the larger of
    the two marginal TV residuals drops to tol; on max_iter the last iterate
    is returned with converged=False and the caller decides.  log_kernel is
    log K = -C/eta as gibbs_kernel returns it.
    """
    if log_kernel.shape != (m1.n, m2.n):
        raise ValidationError(
            f"log kernel shape {log_kernel.shape} does not match marginal sizes ({m1.n}, {m2.n})"
        )
    if not np.isfinite(log_kernel).all():
        raise ValidationError("log kernel has non-finite entries")
    check_solver_params(tol=tol, max_iter=max_iter)

    keep1 = m1.weights > 0
    keep2 = m2.weights > 0
    mu = m1.weights[keep1]
    nu = m2.weights[keep2]
    log_k = log_kernel[np.ix_(keep1, keep2)]
    log_mu = np.log(mu)
    log_nu = np.log(nu)

    # u1 = exp(f) * a and u2 = exp(g) * b; the plan is kernel * (a ⊗ b).
    f = np.zeros(mu.size)
    g = np.zeros(nu.size)
    b = np.ones(nu.size)
    kb = np.zeros(mu.size)
    residual = np.inf
    history: list[float] = []
    iterations = 0
    absorptions = 0
    # kb = 0 sends the first row half down the log-domain branch, so every
    # kernel row keeps its largest entry however small eta is.  After the
    # column half the column marginal equals nu, so the residual is the row
    # deviation a * (K~ b), and K~ b is the product the next row half needs.
    while residual > tol and iterations < max_iter:
        if kb.min() < _MIN_PRODUCT:  # a row underflows: log-domain half sweep
            g += np.log(b)
            f = log_mu - _row_lse(log_k + g[None, :])
            a, b, kernel = _reset(log_k, f, g)
        else:
            a = mu / kb
        ktb = kernel.T @ a
        if ktb.min() < _MIN_PRODUCT:  # a column underflows: log-domain half sweep
            f += np.log(a)
            g = log_nu - _row_lse((log_k + f[:, None]).T)
            a, b, kernel = _reset(log_k, f, g)
        else:
            b = nu / ktb
        iterations += 1
        if max(a.max(), b.max()) > _SCALE_BOUND or min(a.min(), b.min()) < 1 / _SCALE_BOUND:
            f += np.log(a)
            g += np.log(b)
            a, b, kernel = _reset(log_k, f, g)
            absorptions += 1
        kb = kernel @ b
        residual = total_variation(a * kb, mu)
        if record_history:
            history.append(residual)

    f += np.log(a)
    g += np.log(b)
    plan = np.zeros((m1.n, m2.n))
    plan[np.ix_(keep1, keep2)] = _reset(log_k, f, g)[2]
    log_u1 = np.full(m1.n, -np.inf)
    log_u1[keep1] = f
    log_u2 = np.full(m2.n, -np.inf)
    log_u2[keep2] = g
    return BimarginalCoupling(
        plan=plan,
        log_u1=log_u1,
        log_u2=log_u2,
        iterations=iterations,
        residual=float(residual),
        converged=residual <= tol,
        residual_history=tuple(history) if record_history else None,
        absorptions=absorptions,
    )


def sb_value(coupling: BimarginalCoupling) -> float:
    """Optimal value D_KL(plan || K) = <log_u1, plan 1> + <log_u2, plan^T 1>.

    Exact for the returned plan, because log plan = log_u1 ⊕ log_u2 + log K
    wherever plan > 0.  A pruned point carries no mass and a -inf dual;
    clipping its dual to the lowest float makes its term 0 rather than nan.
    """
    plan = coupling.plan
    return float(plan.sum(axis=1) @ np.maximum(coupling.log_u1, _LOWEST)
                 + plan.sum(axis=0) @ np.maximum(coupling.log_u2, _LOWEST))


def kl_divergence(p, q) -> float:
    """D_KL(P || Q) = sum P log(P/Q) over arrays of equal shape.

    Requires Q > 0 wherever P > 0; a violation means the divergence is
    infinite and raises ValidationError rather than returning a sentinel.
    """
    p = np.asarray(p, dtype=float)
    q = np.asarray(q, dtype=float)
    if p.shape != q.shape:
        raise ValidationError(f"shape mismatch: {p.shape} vs {q.shape}")
    if np.any(p < 0):
        raise ValidationError("P must be nonnegative")
    mask = p > 0
    if np.any(q[mask] <= 0):
        raise ValidationError("KL divergence is infinite: P carries mass where Q vanishes")
    pm = p[mask]
    return float((pm * np.log(pm / q[mask])).sum())
