"""Bimarginal entropic optimal transport (Schrödinger bridge) solver.

Solves  min_{M in Pi(mu1, mu2)}  <C + eta log M, M>,  equivalently the KL
projection  min eta * D_KL(M || K)  with Gibbs kernel K = exp(-C / eta).
The optimizer factors as M = K ⊙ (u1 ⊗ u2).  The classical alternating
scalings run as stabilized scaling sweeps (Schmitzer 2019, Alg. 2) on a
SweepState: log duals f, g are absorbed into a kernel K~ = exp(f ⊕ g - C/eta),
and a plain sweep is a = mu / (K~ b), b = nu / (K~^T a).  A solve runs
_PROBE plain sweeps, reads the contraction rate r of the residual over the
last one, and overrelaxes every later sweep by omega = min(_OMEGA_MAX,
2 / (1 + sqrt(1 - r))): a' = a (mu / (a K~ b))^omega, then b' likewise
(Thibault, Chizat, Dossal, Papadakis 2017).  The fixed point is the plain
one, and on 200-point GMM edges at eta 20 the sweeps halve.  The relaxed
column marginal is not exact, so the residual is the larger of the row and
column TV deviations.  Each sweep then passes one guard: every new scaling in
[1e-50, top], top = min(1e50, smallest weight / 1e-199), and for a relaxed
sweep the safeguard, a test on its largest ratio that proves that both
halves raise the dual objective (Lehmann, von Renesse, Sambale, Uschmajew
2021), so the relaxed iteration ascends as the plain one does.  A pass
proves the sweep ordinary; otherwise plain half sweeps that check each
product redo it.  There a scaling outside [1e-50, 1e50] is absorbed into
the duals, and a half sweep whose product would underflow runs in the log
domain.  Each ends in the state's one rebuild of K~, over the spent K~,
whose buffer the log-domain half sweeps also use as their temporary.  That
buffer starts on a 64-byte boundary, so a sweep's two products do not run
at the speed of wherever the allocator placed it.  The state starts at
f = g = 0 and K~ = K, one exp of log K, so the first sweep is like any
other: ordinary unless a row of K underflows.  A state advanced, read and
advanced again gives the bits of one straight solve.  With _OMEGA_MAX = 1 every
sweep is plain and the iterates are those of the log-domain (log-sum-exp)
recursion, without the underflow that raw exp(-C/eta) suffers for small eta.
The caller builds gibbs_kernel's log K = -C/eta once per edge.

A solve holds one n1 x n2 array beyond log K, K~, and forms no plan.  K~ is
a new array, or lies in the edge workspace that _workspace lays out.  The
solve returns the log duals f, g with O(n) data of the final iterate: the
plan's marginals M 1 = a * (K~ b) and M^T 1 = b * (K~^T a), and <M, -log K>,
summed over K~ once it is spent.  The plan M = exp(f ⊕ g + log K) is formed
when it is first read.  The optimal value reported for an edge, which may be
negative since K is unnormalized, is read off the duals and the marginals:

    sb_value = D_KL(M || K) = sum_ij M_ij log(M_ij / K_ij) = <f, M 1> + <g, M^T 1>.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .config import DEFAULT_MAX_ITER, DEFAULT_TOL, check_cost_kind, check_cost_matrix
from .config import check_cost_scale, check_shape, check_solver_params
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
# A solve runs _PROBE plain sweeps, then relaxes its sweeps by a factor
# omega <= _OMEGA_MAX set from the probe's contraction rate.  _OMEGA_MAX = 1
# keeps every sweep plain: the unrelaxed loop, bit for bit.
_PROBE = 6
_OMEGA_MAX = 1.7


@dataclass(frozen=True, eq=False)
class PairwiseCost:
    """Nonnegative ground-cost matrix between two supports, read-only."""

    matrix: np.ndarray  # (n1, n2)

    def __post_init__(self):
        object.__setattr__(self, "matrix", check_cost_matrix(self.matrix))

    @classmethod
    def _trusted(cls, matrix: np.ndarray) -> PairwiseCost:
        """A cost over a read-only C-ordered finite nonnegative matrix, unchecked."""
        cost = object.__new__(cls)
        object.__setattr__(cost, "matrix", matrix)
        return cost


def build_cost(
    m1: DiscreteMeasure, m2: DiscreteMeasure, cost="sqeuclidean", *, workspace=None
) -> PairwiseCost:
    """Ground cost between two supports.

    A kind from COST_KINDS, "sqeuclidean" or "euclidean", computes c(x, y)
    from the support points; an (n1, n2) array is the cost matrix itself.
    A computed matrix is the caller's own, or lies in workspace, a _workspace.
    """
    if not isinstance(cost, str):
        check_shape(cost, (m1.n, m2.n), "cost matrix")
        return PairwiseCost(cost)
    check_cost_kind(cost)
    if m1.dim != m2.dim:
        raise ValidationError(f"support dimensions differ: {m1.dim} vs {m2.dim}")
    # sum over coordinates k, in order, of (x_k - y_k)^2, holding at most two
    # n1 x n2 arrays.  At d <= 2 these are the bits of an einsum over the
    # (n1, n2, d) difference; from d = 3 on einsum pairs terms by SIMD lane.
    x, y = m1.support.T, m2.support.T  # one row per coordinate
    matrix, scratch = ((np.empty((m1.n, m2.n)), None) if workspace is None
                       else (_aligned_empty(m1.n, m2.n, row) for row in workspace))
    with np.errstate(over="ignore"):  # an overflow is an inf entry, refused below
        if m1.dim:
            _difference(x[0], y[0], matrix, scratch)
        else:
            matrix.fill(0.0)
        matrix *= matrix
        for xk, yk in zip(x[1:], y[1:]):
            if scratch is None:
                scratch = np.empty_like(matrix)
            matrix += np.square(_difference(xk, yk, scratch), out=scratch)
    if cost == "euclidean":
        np.sqrt(matrix, out=matrix)
    if not np.isfinite(matrix.max(initial=0.0)):  # squares of finite coordinates: >= 0
        raise ValidationError("cost matrix contains non-finite entries")
    matrix.flags.writeable = False
    return PairwiseCost._trusted(matrix)


def _difference(xk: np.ndarray, yk: np.ndarray, out: np.ndarray, scratch=None) -> np.ndarray:
    """out = xk_i - yk_j, the bits of np.subtract.outer.  A broadcast operand
    takes an iterator buffer of up to 64 kB; copying xk and yk into the rows of
    out and scratch first takes none."""
    out[...] = xk[:, None]
    if scratch is not None:
        scratch[...] = yk
    return np.subtract(out, yk if scratch is None else scratch, out=out)


def gibbs_kernel(cost: PairwiseCost, eta: float, *, workspace=None) -> np.ndarray:
    """Gibbs kernel K = exp(-C/eta) as the read-only array log K = -C/eta.

    The log form is exact for any scale, where exp(-C/eta) underflows to 0
    for C/eta beyond ~745, so all KL arithmetic in this package uses it.
    An eta so small that C/eta overflows is refused.  log K is the caller's
    own, or lies in workspace, a _workspace, where it may overwrite C.
    """
    check_solver_params(eta)
    check_cost_scale(float(cost.matrix.max(initial=0.0)), eta)
    out = None if workspace is None else _aligned_empty(*cost.matrix.shape, workspace[0])
    log_k = np.divide(cost.matrix, -eta, out=out)  # one pass, the bits of -C/eta
    log_k.flags.writeable = False
    return log_k


@dataclass(frozen=True, eq=False)
class BimarginalCoupling:
    """Converged (or best-effort) transport plan, held as its dual scalings.

    log_u1 and log_u2 carry -inf at pruned zero-weight entries, and log_kernel
    is the log K they scale.  residual is the max over both marginals of the
    TV deviation after the last sweep.  absorptions counts the times a
    scaling left [1e-50, 1e50] and both were absorbed into the log duals.

    plan, marginals and kernel_cost are computed when first read, each from
    the plan.  sinkhorn_solve supplies marginals, and kernel_cost when no
    point is pruned, from its final iterate instead, so an unread plan is
    never formed.
    """

    log_u1: np.ndarray
    log_u2: np.ndarray
    iterations: int
    residual: float
    converged: bool
    absorptions: int
    log_kernel: np.ndarray = field(repr=False)

    @cached_property
    def plan(self) -> np.ndarray:
        """exp(log_u1 ⊕ log_u2 + log K) at the full support sizes: zero rows and
        columns at pruned points, bit-identical to rebuild_coupling's plan."""
        return _plan_from_duals(self.log_kernel, self.log_u1, self.log_u2)

    @cached_property
    def marginals(self) -> tuple[np.ndarray, np.ndarray]:
        """The plan's row and column sums, plan 1 and plan^T 1."""
        return self.plan.sum(axis=1), self.plan.sum(axis=0)

    @cached_property
    def kernel_cost(self) -> float:
        """<plan, -log K> = <plan, C> / eta."""
        return -float(np.vdot(self.plan, self.log_kernel))


def _aligned_empty(n1: int, n2: int, row: np.ndarray | None = None) -> np.ndarray:
    """An uninitialized n1 x n2 array whose data start on a 64-byte boundary:
    the head of row, a flat float64 row of a _workspace, or a new one.

    numpy aligns to 16 bytes, and a gemv over a 200 x 200 kernel took 2.9
    against 4.1 us (K b) and 2.4 against 4.2 us (K^T a) aligned and not
    (OpenBLAS, one thread), so the cost of a sweep would depend on where the
    allocator put K~.
    """
    size = n1 * n2
    if row is None:
        raw = np.empty(size + 7)
        row = raw[-raw.__array_interface__["data"][0] % 64 // 8:]
    elif not (isinstance(row, np.ndarray) and row.ndim == 1 and row.dtype == np.float64
              and row.size >= size):
        raise ValidationError(f"the {n1} x {n2} block needs a flat float64 workspace row of "
                              f"{size} or more entries, got {np.asarray(row).dtype} "
                              f"of shape {np.shape(row)}")
    return row[:size].reshape(n1, n2)


def _workspace(entries: int) -> np.ndarray:
    """The edge workspace, and the one description of its layout: a (2, N)
    float array, N = entries rounded up to 8, each row on 64 bytes.  Row 0
    holds the cost and then log K over it, row 1 build_cost's scratch and
    then K~.  build_cost, gibbs_kernel, SweepState and sinkhorn_solve take
    the pair whole as workspace= and carve their arrays from the head of
    their own row, so an edge solved in it allocates no n1 x n2 array."""
    return _aligned_empty(2, entries + -entries % 8)


def _exp(x: np.ndarray) -> np.ndarray:
    """exp(x) in place, with entries below _LOG_FLOOR set to exact zeros."""
    x[x < _LOG_FLOOR] = -np.inf
    return np.exp(x, out=x)


def _plan_from_duals(log_kernel: np.ndarray, log_u1: np.ndarray, log_u2: np.ndarray, out=None):
    """The plan exp(log_u1 ⊕ log_u2 + log K), as sinkhorn_solve returns it.

    Every entry is formed on its own, so a -inf dual gives an exact zero row
    or column and the other entries are bit-identical to a solve over the
    kept points only.  This is how a plan is rebuilt from O(n) duals, and
    how a sweep state rebuilds K~ over its old one (out=).
    """
    plan = np.add(log_u1[:, None], log_kernel, out=out)
    plan += log_u2[None, :]  # in place: one n1 x n2 temporary, not two
    return _exp(plan)


def rebuild_coupling(
    m1: DiscreteMeasure, m2: DiscreteMeasure, cost, eta: float,
    log_u1: np.ndarray, log_u2: np.ndarray, **diagnostics,
) -> tuple[PairwiseCost, BimarginalCoupling]:
    """The cost and coupling of a solved pair, rebuilt from its log duals.

    cost and eta are those of the solve; the cost and log K are built as the
    solve built them, so the plan is bit-identical to the one it returned.
    diagnostics are the solve's iterations, residual, converged and
    absorptions.  The marginals and kernel cost are read off the plan.
    """
    pairwise = build_cost(m1, m2, cost)
    return pairwise, BimarginalCoupling(
        log_u1=log_u1, log_u2=log_u2, log_kernel=gibbs_kernel(pairwise, eta), **diagnostics)


def _row_lse(x: np.ndarray) -> np.ndarray:
    """log sum_j exp(x_ij) for each row i; x is a temporary and is overwritten."""
    top = x.max(axis=1)
    x -= top[:, None]
    return top + np.log(_exp(x).sum(axis=1))


def _reset(kernel: np.ndarray, log_k: np.ndarray, f: np.ndarray, g: np.ndarray, ab: np.ndarray):
    """Scalings ab = (a, b) = 1, with K~ = exp(f ⊕ g + log K) rebuilt over the spent K~."""
    _plan_from_duals(log_k, f, g, out=kernel)
    ab.fill(1.0)


def _ascends(y: float, omega: float) -> bool:
    """Whether a half sweep relaxed by omega raises the dual objective, given
    y, the largest ratio (new scaling / old) over the sweep.

    The dual <f, mu> + <g, nu> - plan mass rises on each entry whose plain
    ratio x = y^(1/omega) has psi(x) = omega x log x - x^omega + 1 >= 0, which
    holds on (0, x*] with x* > 1 (Lehmann, von Renesse, Sambale, Uschmajew
    2021), so testing the largest ratio tests them all.  psi is read as
    x log y >= y - 1, whose right side is exact near y = 1.
    """
    log_y = math.log(y)
    return math.exp(log_y / omega) * log_y >= y - 1.0


class SweepState:
    """The loop variables of one solve, over the kept block of a pair.

    u1 = exp(f) * a, u2 = exp(g) * b with ab = (a, b), and the plan is
    K~ * (a ⊗ b), whose row marginal is a * kb with kb = K~ b.  The state
    starts at f = g = 0, ab = 1, K~ = K and omega = 1; residual, iterations
    and absorptions can be read between calls to advance.  log K is read as
    given, and refused unless finite; with a zero-weight point, its kept block
    is gathered into K~'s buffer for K~'s first build, and inside a checked
    half sweep that needs it, and freed after.  K~ lies in workspace, a
    _workspace, if one is given.
    """

    def __init__(self, m1: DiscreteMeasure, m2: DiscreteMeasure, log_kernel: np.ndarray,
                 *, workspace: np.ndarray | None = None):
        self.keep1 = m1.weights > 0
        self.keep2 = m2.weights > 0
        # a gather copies, so weights and kernel are read as given when nothing is pruned
        self.mu = m1.weights if self.keep1.all() else m1.weights[self.keep1]
        self.nu = m2.weights if self.keep2.all() else m2.weights[self.keep2]
        self.pruned = self.mu.size < m1.n or self.nu.size < m2.n
        self.log_kernel = log_kernel
        self.f = np.zeros(self.mu.size)
        self.g = np.zeros(self.nu.size)
        self.ab = np.ones(self.mu.size + self.nu.size)  # a, then b
        low, high = log_kernel.min(), log_kernel.max()  # a nan or an inf shows here
        if not (math.isfinite(low) and math.isfinite(high)):
            raise ValidationError("log kernel has non-finite entries")
        # K~ = K, its entries below exp(_LOG_FLOOR) exact zeros, and kb = K~ b
        self.kernel = _aligned_empty(
            self.mu.size, self.nu.size, None if workspace is None else workspace[1])
        if self.pruned or low < _LOG_FLOOR:
            _exp(self.kept_log_kernel(out=self.kernel))
        else:  # nothing to floor: one exp, straight into the buffer
            np.exp(log_kernel, out=self.kernel)
        self.kb = np.dot(self.kernel, self.ab[self.mu.size:])
        self.row_marginal = self.kb.copy()  # a * kb at a = 1
        # a weight over a product < _MIN_PRODUCT is a scaling > 10 * top, so a sweep in
        # [1/_SCALE_BOUND, top] had no underflow (10 for rounding) and no absorption due
        self.top = min(_SCALE_BOUND, min(self.mu.min(), self.nu.min()) / (10 * _MIN_PRODUCT))
        self.residual = np.inf
        self.iterations = 0
        self.absorptions = 0
        self.omega = 1.0  # set by the probe's last sweep

    def kept_log_kernel(self, out: np.ndarray | None = None) -> np.ndarray:
        """log K over the kept points: log K itself if none is pruned, else a
        gathered copy; with out, always copied into out.

        Pruning one side is a take, which writes straight into out in "clip"
        mode (the indices are in range); both sides take np.ix_, whose
        iterator holds ~130 kB more and whose gather is then copied into out.
        """
        prune1, prune2 = self.mu.size < self.keep1.size, self.nu.size < self.keep2.size
        if prune1 != prune2:
            axis, keep = (0, self.keep1) if prune1 else (1, self.keep2)
            return np.take(self.log_kernel, np.flatnonzero(keep), axis, out=out, mode="clip")
        block = self.log_kernel[np.ix_(self.keep1, self.keep2)] if prune1 else self.log_kernel
        if out is None:
            return block
        np.copyto(out, block)
        return out

    def advance(self, sweeps: int, tol: float) -> None:
        """Run sweeps until the residual is <= tol or `sweeps` more have run.

        One sweep updates u1 then u2 (cyclic order).  The first _PROBE sweeps
        are plain: a = mu / (K~ b), b = nu / (K~^T a).  After the column half
        of a plain sweep the column marginal equals nu, so the residual is the
        row TV deviation a * (K~ b), and K~ b is the product the next row half
        needs.  The probe's last sweep reads the contraction rate r of the
        residual over that sweep and sets omega = min(_OMEGA_MAX,
        2 / (1 + sqrt(1 - r))), the optimal factor of the linearized
        iteration.  From then on each sweep is overrelaxed:
        a' = a * (mu / (a * K~ b))^omega, then b' = b * (nu / (b * K~^T a'))^omega,
        which has the plain sweep's fixed point.  Its column marginal
        b' * (K~^T a') is no longer exact, so the residual is the larger of
        the two TV deviations; the column one is taken once the row one is
        <= tol, and after the last sweep of a call.

        A sweep runs unchecked into spare vectors, and one guard proves it
        ordinary: every new scaling in [1e-50, top], where top is 1e50 when
        every weight is at least 1e-149, and lower under smaller weights (and
        lowered again when omega is set, so that a relaxed scaling above an
        underflowed product still fails).  The safeguard of a relaxed sweep
        is part of the guard: its largest ratio must show that both halves
        raise the dual objective (_ascends), so the relaxed iteration ascends
        as the plain one does.  A sweep that fails the guard is redone as a
        plain sweep by half sweeps that check each product, under the
        caller's floating-point handling, from the untouched state.  The
        first sweep of a solve is no different.

        On small blocks an ordinary sweep costs numpy's per-call dispatch, so
        it takes the cheapest call of the same bits.  Products are
        np.dot(K~, v, out), the BLAS gemv that `@` calls, at less dispatch
        cost.  Ufuncs take out positionally.  The guard reads the
        min and max as x[x.argmin()] and x[x.argmax()], which skip the ufunc
        reduction machinery, and the residual sums with np.add.reduce,
        ndarray.sum's own pairwise sum, without the method's wrapper.
        """
        kernel, mu, nu, kb, n1, top = self.kernel, self.mu, self.nu, self.kb, self.mu.size, self.top
        row_marginal, omega = self.row_marginal, self.omega
        # K~ is rebuilt in place, so its transposed view stays valid all along
        kernel_t, dot, divide, multiply, power = kernel.T, np.dot, np.divide, np.multiply, np.power
        total = np.add.reduce
        # a, b view one buffer and a', b' a spare: one min and one max read both
        cur, new = self.ab, np.empty(self.ab.size)
        a, b, a2, b2 = cur[:n1], cur[n1:], new[:n1], new[n1:]
        # a relaxed sweep's ratios a' / a, b' / b, one max reads both; and its K~^T a'
        ratio, ktb = np.empty(self.ab.size), np.empty(nu.size)
        ratio_a, ratio_b = ratio[:n1], ratio[n1:]
        residual, iterations, absorptions = self.residual, self.iterations, self.absorptions
        stop = iterations + sweeps
        caller = np.geterr()
        with np.errstate(all="ignore"):  # the unchecked sweep may divide by an underflowed kb
            while residual > tol and iterations < stop:
                relaxed = omega != 1.0
                if relaxed:  # a' = a (mu / (a K~ b))^omega, then b' = b (nu / (b K~^T a'))^omega
                    multiply(a, power(divide(mu, row_marginal, ratio_a), omega, ratio_a), a2)
                    divide(nu, multiply(b, dot(kernel_t, a2, ktb), ratio_b), ratio_b)
                    multiply(b, power(ratio_b, omega, ratio_b), b2)
                else:
                    divide(mu, kb, a2)
                    divide(nu, dot(kernel_t, a2, b2), b2)
                if (1 / _SCALE_BOUND <= new[new.argmin()] and new[new.argmax()] <= top
                        and (not relaxed or _ascends(ratio[ratio.argmax()], omega))):
                    cur, new, a, b, a2, b2 = new, cur, a2, b2, a, b
                else:
                    relaxed = False
                    with np.errstate(**caller):  # checked half sweeps: the caller's handling
                        absorptions += self._checked_sweep(cur)
                iterations += 1
                # a2 is spent: it takes the row deviation
                deviation = np.subtract(multiply(a, dot(kernel, b, kb), row_marginal), mu, a2)
                row = 0.5 * float(total(np.absolute(deviation, deviation)))
                if iterations == _PROBE:  # residual is still the sweep before's
                    omega = min(_OMEGA_MAX, 2 / (1 + math.sqrt(1 - min(row / residual, 1.0))))
                    top = min(top, _SCALE_BOUND * (10 * top / _SCALE_BOUND) ** omega)
                residual = row
                if relaxed and (row <= tol or iterations == stop):
                    deviation = np.subtract(multiply(b, ktb, b2), nu, b2)  # b2 is spent
                    residual = max(row, 0.5 * float(total(np.absolute(deviation, deviation))))

        self.ab = cur  # f, g, kb and row_marginal were updated in place
        self.residual, self.iterations, self.absorptions = residual, iterations, absorptions
        self.omega, self.top = omega, top

    def _checked_sweep(self, cur: np.ndarray) -> bool:
        """Redo a sweep over the scalings cur = (a, b) as plain half sweeps
        that check each product; True if it absorbed.

        A half sweep whose product underflows runs in the log domain, and a
        scaling outside [1e-50, 1e50] is absorbed into f, g.  Each of these
        reads the kept block of log K, gathered for it alone.
        """
        kernel, mu, nu, f, g = self.kernel, self.mu, self.nu, self.f, self.g
        a, b = cur[:mu.size], cur[mu.size:]
        if self.kb.min() < _MIN_PRODUCT:  # a row underflows: log-domain half sweep
            log_k = self.kept_log_kernel()
            g += np.log(b)
            np.negative(_row_lse(np.add(log_k, g[None, :], out=kernel)), out=f)
            f += np.log(mu)  # f = log mu - lse bit for bit, in its own buffer
            _reset(kernel, log_k, f, g, cur)
        else:
            np.divide(mu, self.kb, out=a)
        with np.errstate(under="ignore"):  # the test below handles an underflow
            ktb = np.dot(kernel.T, a, out=b)  # b is spent
        if ktb.min() < _MIN_PRODUCT:  # a column underflows: log-domain half sweep
            log_k = self.kept_log_kernel()
            f += np.log(a)
            np.negative(_row_lse(np.add(log_k, f[:, None], out=kernel).T), out=g)
            g += np.log(nu)
            _reset(kernel, log_k, f, g, cur)
        else:
            np.divide(nu, ktb, out=b)
        if cur.max() > _SCALE_BOUND or cur.min() < 1 / _SCALE_BOUND:
            f += np.log(a)
            g += np.log(b)
            _reset(kernel, self.kept_log_kernel(), f, g, cur)
            return True
        return False

    def finish(self) -> tuple[tuple[np.ndarray, np.ndarray], float | None]:
        """The plan's full-size marginals a * K~ b and b * K~^T a, zero at
        pruned points, and <plan, -log K> = -a . ((K~ * log K) b), summed over
        K~, which is spent after.  With a pruned point the last is None: its
        kept block of log K would be one more n1 x n2 array.
        """
        kernel, n1 = self.kernel, self.mu.size
        a, b = self.ab[:n1], self.ab[n1:]
        col = np.dot(kernel.T, a)
        col *= b
        self.kernel = None
        if self.pruned:
            full = np.zeros(self.keep1.size), np.zeros(self.keep2.size)
            full[0][self.keep1], full[1][self.keep2] = self.row_marginal, col
            return full, None
        with np.errstate(under="ignore"):  # a term below the normal range adds nothing
            np.multiply(kernel, self.log_kernel, out=kernel)
            return (self.row_marginal, col), -float(a @ np.dot(kernel, b))

    def log_duals(self) -> tuple[np.ndarray, np.ndarray]:
        """Full-size log u1 = f + log a and log u2 = g + log b, -inf at pruned points."""
        duals = self.f + np.log(self.ab[:self.f.size]), self.g + np.log(self.ab[self.f.size:])
        if not self.pruned:
            return duals
        full = np.full(self.keep1.size, -np.inf), np.full(self.keep2.size, -np.inf)
        full[0][self.keep1], full[1][self.keep2] = duals
        return full


def sinkhorn_solve(
    m1: DiscreteMeasure,
    m2: DiscreteMeasure,
    log_kernel: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    *,
    workspace: np.ndarray | None = None,
) -> BimarginalCoupling:
    """Alternating KL projections onto the two marginal constraints.

    Runs a SweepState until the larger of the two marginal TV residuals drops
    to tol; on max_iter the last iterate is returned with converged=False and
    the caller decides.  log_kernel is log K = -C/eta as gibbs_kernel
    returns it, and must be finite.  The coupling's marginals and, when no
    point is pruned, its kernel_cost are those of the final iterate; its plan
    is formed only when read.  K~ lies in workspace, a _workspace, if one is
    given, and is spent after.
    """
    check_shape(log_kernel, (m1.n, m2.n), "log kernel")
    check_solver_params(tol=tol, max_iter=max_iter)

    state = SweepState(m1, m2, log_kernel, workspace=workspace)
    state.advance(max_iter, tol)
    log_u1, log_u2 = state.log_duals()
    marginals, kernel_cost = state.finish()
    coupling = BimarginalCoupling(
        log_u1=log_u1,
        log_u2=log_u2,
        iterations=state.iterations,
        residual=float(state.residual),
        converged=state.residual <= tol,
        absorptions=state.absorptions,
        log_kernel=log_kernel,
    )
    # the final iterate's values stand in for those the plan would give
    vars(coupling)["marginals"] = marginals
    if kernel_cost is not None:
        vars(coupling)["kernel_cost"] = kernel_cost
    return coupling


def sb_value(coupling: BimarginalCoupling) -> float:
    """Optimal value D_KL(plan || K) = <log_u1, plan 1> + <log_u2, plan^T 1>,
    read off the coupling's marginals.

    Exact for the plan, because log plan = log_u1 ⊕ log_u2 + log K wherever
    plan > 0; for a solve's coupling the marginals are those of its final
    iterate, equal to the plan's sums to rounding.  A pruned point carries
    no mass and a -inf dual; clipping its dual to the lowest float makes its
    term 0 rather than nan.
    """
    row, col = coupling.marginals
    return float(row @ np.maximum(coupling.log_u1, _LOWEST)
                 + col @ np.maximum(coupling.log_u2, _LOWEST))
