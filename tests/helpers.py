"""Graph constructors, reductions, constants, reference solvers and the edge-decomposed tree cost that only the tests call."""

import decimal
import heapq
import itertools
import math

import numpy as np

from bridgetree import DiscreteMeasure, GraphStructure, ValidationError, cost_tensor, total_variation
from bridgetree.config import as_float_array
from bridgetree.dense import MultimarginalResult, _log_marginal
from bridgetree.sinkhorn import _MIN_PRODUCT, _SCALE_BOUND, _ascends, _plan_from_duals, _row_lse
from bridgetree.trees import on_axes

# three measures of OVER_CAP_N points make a dense tensor just past the tensor
# cap (216^3 = 10077696 > 10^7 entries); OVER_CAP is its refusal
OVER_CAP_N = 216
OVER_CAP = "tensor with 10077696 entries exceeds the cap of 10000000"


def path_graph(s: int) -> GraphStructure:
    """Chain 1-2-...-s."""
    return GraphStructure(s, [(i, i + 1) for i in range(1, s)])


def star_graph(s: int, center: int = 1) -> GraphStructure:
    """All vertices attached to `center`."""
    if not 1 <= center <= s:
        raise ValidationError(f"star center {center} out of range for s={s}")
    return GraphStructure(s, [(center, v) for v in range(1, s + 1) if v != center])


def complete_graph(s: int) -> GraphStructure:
    return GraphStructure(s, [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)])


def prufer_codes(s: int) -> np.ndarray:
    """All s^(s-2) Prüfer codes in lexicographic order, one per row."""
    return np.array(list(itertools.product(range(1, s + 1), repeat=s - 2)), dtype=int).reshape(
        s ** (s - 2), s - 2)


def reference_decode(code, s: int) -> tuple[tuple, list]:
    """Prüfer decode with a heap of the current leaves: the canonical sorted
    edges of the tree, and its steps as (leaf, parent) pairs in the order the
    leaves are removed, the last joining the two vertices left."""
    deg = [1] * (s + 1)
    for c in code:
        deg[c] += 1
    leaves = [v for v in range(1, s + 1) if deg[v] == 1]
    heapq.heapify(leaves)
    steps = []
    for c in code:
        steps.append((heapq.heappop(leaves), c))
        deg[c] -= 1
        if deg[c] == 1:
            heapq.heappush(leaves, c)
    steps.append((heapq.heappop(leaves), heapq.heappop(leaves)))  # ascending pops
    return tuple(sorted((min(e), max(e)) for e in steps)), steps


def degrees(tree) -> np.ndarray:
    """Degree of each vertex; index i holds the degree of vertex i+1."""
    deg = np.zeros(tree.s, dtype=int)
    for a, b in tree.edges:
        deg[a - 1] += 1
        deg[b - 1] += 1
    return deg


def tree_cost_decomposed(tree, sb_values, entropies) -> float:
    """KL cost of a tree via its edges: sum sb_edge + sum (deg-1) * H, the
    edge decomposition of a tree-structured bridge (Haasler, Ringh, Chen,
    Karlsson 2021, arXiv:2004.06909).  The reference that tree_cost_additive,
    sum g_edge - sum H with g = sb + H_a + H_b, is checked against."""
    if len(entropies) != tree.s:
        raise ValidationError(f"need {tree.s} entropies, got {len(entropies)}")
    missing = [edge for edge in tree.edges if edge not in sb_values]
    if missing:
        raise ValidationError(f"missing sb value for tree edge {missing[0]}")
    total = sum(float(sb_values[edge]) for edge in tree.edges)
    deg = degrees(tree)
    total += float(((deg - 1) * as_float_array(entropies, "entropies")).sum())
    return total


def project(tensor: np.ndarray, sigma: int) -> np.ndarray:
    """Marginal of a coupling tensor on axis sigma (1-based vertex index)."""
    if not 1 <= sigma <= tensor.ndim:
        raise ValidationError(f"marginal index {sigma} out of range for ndim={tensor.ndim}")
    axes = tuple(ax for ax in range(tensor.ndim) if ax != sigma - 1)
    return tensor.sum(axis=axes)


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


def gaussian_on_grid(mean: float, sd: float, n: int = 100) -> DiscreteMeasure:
    """N(mean, sd^2) on n evenly spaced points over mean +- 7 sd, with weights
    proportional to the density."""
    x = np.linspace(mean - 7 * sd, mean + 7 * sd, n)
    return DiscreteMeasure(x[:, None], np.exp(-0.5 * ((x - mean) / sd) ** 2))


def gaussian_g(mean_a: float, sd_a: float, mean_b: float, sd_b: float, eta: float) -> float:
    """Closed-form edge weight g = <C, M>/eta + I(M) between N(mean_a, sd_a^2)
    and N(mean_b, sd_b^2) under the squared Euclidean cost: the 1-d case of
    the entropic OT formula of Janati, Muzellec, Peyre, Cuturi 2020
    (arXiv:2006.02572) and Mallasto, Gerolin, Minh 2021 (arXiv:2006.03416).
    The optimal coupling is Gaussian with cross-covariance c, so its
    transport cost is (mean_a - mean_b)^2 + sd_a^2 + sd_b^2 - 2c and its
    mutual information 1/2 log(a^2 b^2 / (a^2 b^2 - c^2))."""
    var = eta / 2
    ab2 = (sd_a * sd_b) ** 2
    c = (math.sqrt(4 * ab2 + var**2) - var) / 2
    transport = (mean_a - mean_b) ** 2 + sd_a**2 + sd_b**2 - 2 * c
    return transport / eta + 0.5 * math.log(ab2 / (ab2 - c**2))


_REFERENCE_SWEEPS = 200  # sb_reference's Sinkhorn sweeps before Newton
_NEWTON_STEPS = 40  # and its most Newton steps


def sb_reference(mu, nu, cost, eta, digits: int, residual=None) -> tuple[float, float]:
    """sb = D_KL(M || K) of one bimarginal problem, computed in stdlib
    decimal arithmetic at `digits` significant digits, and the TV residual
    max(TV(M 1, mu), TV(M^T 1, nu)) of its final plan, as (sb, residual).

    The float weights are taken exactly, points of zero weight dropped (they
    carry no mass) and each measure scaled to sum 1; K = exp(-C/eta) is
    formed once.  _REFERENCE_SWEEPS plain Sinkhorn sweeps u = mu / K v,
    v = nu / K^T u bring the scalings near the optimum, with no underflow at
    any scale.
    Newton on the log duals f = log u, g = log v, with the gauge g_m = 0,
    then solves the n + m - 1 marginal equations: its matrix is the dual
    Hessian [[diag(M 1), M[:, :-1]], [M[:, :-1]^T, diag(M^T 1)[:-1]]],
    solved by Gaussian elimination with partial pivoting.  sb is
    <f, M 1> + <g, M^T 1>, as sinkhorn.sb_value reads it off the plan.

    Raises ArithmeticError when the residual does not reach `residual`
    (default 10^-(digits // 2)), or when a pivot vanishes to the working
    precision: there the Hessian is singular at these digits, and more
    digits or sweeps are needed; no value is guessed.
    """
    with decimal.localcontext(decimal.Context(prec=digits, Emin=-10**9, Emax=10**9)):
        dec = decimal.Decimal
        target = dec(10) ** -(digits // 2) if residual is None else dec(residual)
        tiny = dec(10) ** -(digits - 5)
        rows = [i for i, w in enumerate(mu) if w > 0]
        cols = [j for j, w in enumerate(nu) if w > 0]
        a = [dec(float(mu[i])) for i in rows]
        b = [dec(float(nu[j])) for j in cols]
        a = [x / sum(a) for x in a]
        b = [x / sum(b) for x in b]
        scale = dec(float(eta))
        kernel = [[(-dec(float(cost[i][j])) / scale).exp() for j in cols] for i in rows]
        n, m = len(a), len(b)
        u, v = [dec(1)] * n, [dec(1)] * m
        for _ in range(_REFERENCE_SWEEPS):
            u = [a[i] / sum(kernel[i][j] * v[j] for j in range(m)) for i in range(n)]
            v = [b[j] / sum(kernel[i][j] * u[i] for i in range(n)) for j in range(m)]
        u, v = [x * v[-1] for x in u], [x / v[-1] for x in v]  # the gauge g_m = 0

        def state(u, v):
            p = [[u[i] * kernel[i][j] * v[j] for j in range(m)] for i in range(n)]
            r = [sum(p[i]) for i in range(n)]
            c = [sum(p[i][j] for i in range(n)) for j in range(m)]
            tv = max(sum(abs(r[i] - a[i]) for i in range(n)),
                     sum(abs(c[j] - b[j]) for j in range(m))) / 2
            return u, v, p, r, c, tv

        u, v, p, r, c, tv = state(u, v)
        for _ in range(_NEWTON_STEPS):
            if tv <= target:
                break
            size = n + m - 1
            hessian = [[dec(0)] * size + [a[i] - r[i]] for i in range(n)]
            hessian += [[dec(0)] * size + [b[j] - c[j]] for j in range(m - 1)]
            for i in range(n):
                hessian[i][i] = r[i]
                for j in range(m - 1):
                    hessian[i][n + j] = hessian[n + j][i] = p[i][j]
            for j in range(m - 1):
                hessian[n + j][n + j] = c[j]
            step = _eliminate(hessian, tiny)
            # damped: the step is halved until the residual falls, as a full
            # step overshoots where the plan is nearly block-diagonal
            fraction = dec(1)
            while True:
                tried = state([u[i] * (fraction * step[i]).exp() for i in range(n)],
                              [v[j] * (fraction * step[n + j]).exp() for j in range(m - 1)]
                              + [v[-1]])
                if tried[-1] < tv:
                    break
                fraction /= 2
                if fraction < tiny:
                    raise ArithmeticError(f"no Newton step lowers the residual {tv:.3e}")
            u, v, p, r, c, tv = tried
        if not tv <= target:
            raise ArithmeticError(f"residual {tv:.3e} above {target:.1e} after {_NEWTON_STEPS} "
                                  f"Newton steps at {digits} digits")
        sb = sum(r[i] * u[i].ln() for i in range(n)) + sum(c[j] * v[j].ln() for j in range(m))
        return float(sb), float(tv)


def _eliminate(augmented, tiny) -> list:
    """The solution x of A x = y for the augmented rows [A | y], by Gaussian
    elimination with partial pivoting, in the rows' own number type; raises
    ArithmeticError at a pivot of magnitude below tiny times the largest
    entry of A."""
    rows = [list(row) for row in augmented]
    size = len(rows)
    floor = tiny * max(abs(x) for row in rows for x in row[:size])
    for k in range(size):
        pivot = max(range(k, size), key=lambda i: abs(rows[i][k]))
        if abs(rows[pivot][k]) <= floor:
            raise ArithmeticError(f"the Hessian is singular at this precision (pivot {k})")
        rows[k], rows[pivot] = rows[pivot], rows[k]
        for i in range(k + 1, size):
            factor = rows[i][k] / rows[k][k]
            rows[i] = [x - factor * y for x, y in zip(rows[i], rows[k])]
    x = [None] * size
    for k in reversed(range(size)):
        x[k] = (rows[k][size] - sum(rows[k][j] * x[j] for j in range(k + 1, size))) / rows[k][k]
    return x


def mm_sinkhorn_log_domain(measures, graph, costs, eta, tol, max_iter=100_000):
    """Reference for mm_sinkhorn: the same cyclic multimarginal Sinkhorn sweeps
    and stopping rule, with every projection a log-sum-exp of the log tensor
    and every update an addition to it, so no scaling, floor or absorption
    is involved."""
    s = graph.s
    keeps = [m.weights > 0 for m in measures]
    mus = [m.weights[k] for m, k in zip(measures, keeps)]
    full_shape = tuple(m.n for m in measures)
    scaled = {e: -np.asarray(c, dtype=float) / eta for e, c in costs.items()}
    log_m = cost_tensor(graph, scaled, shape=full_shape)[np.ix_(*keeps)]
    log_mus = [np.log(mu) for mu in mus]
    iterations, residual, converged = 0, np.inf, False
    log_marginals = [_log_marginal(log_m, 0)]
    for iterations in range(1, max_iter + 1):
        for ax in range(s):
            log_marginal = log_marginals[0] if ax == 0 else _log_marginal(log_m, ax)
            log_m += on_axes(log_mus[ax] - log_marginal, s, ax + 1)
        log_marginals = [_log_marginal(log_m, ax) for ax in range(s)]
        residual = max(total_variation(np.exp(lm), mu) for lm, mu in zip(log_marginals, mus))
        if residual <= tol:
            converged = True
            break
    tensor = np.zeros(full_shape)
    tensor[np.ix_(*keeps)] = np.exp(log_m)
    return MultimarginalResult(tensor, iterations, float(residual), converged)


def _reset_reference(kernel, log_k, f, g):
    _plan_from_duals(log_k, f, g, out=kernel)
    return np.ones(f.size), np.ones(g.size)


def sweep_reference(self, sweeps, tol):
    """Reference for SweepState.advance in the plain form (omega capped at 1),
    advancing the state `self`: the loop before the guarded sweep, kept
    verbatim but for reading and writing the scalings as the one vector ab
    and gathering the kept block of log K itself.  Every half sweep checks
    its product for underflow, every sweep checks both scalings for
    absorption and takes its residual with total_variation, and no sweep is
    tried twice."""
    log_k = self.log_kernel[np.ix_(self.keep1, self.keep2)]
    kernel, mu, nu = self.kernel, self.mu, self.nu
    log_mu, log_nu = np.log(mu), np.log(nu)
    f, g, kb = self.f, self.g, self.kb
    a, b = self.ab[:mu.size], self.ab[mu.size:]
    residual, iterations, absorptions = self.residual, self.iterations, self.absorptions
    stop = iterations + sweeps
    while residual > tol and iterations < stop:
        if kb.min() < _MIN_PRODUCT:  # a row underflows: log-domain half sweep
            g += np.log(b)
            f = log_mu - _row_lse(np.add(log_k, g[None, :], out=kernel))
            a, b = _reset_reference(kernel, log_k, f, g)
        else:
            a = mu / kb
        ktb = kernel.T @ a
        if ktb.min() < _MIN_PRODUCT:  # a column underflows: log-domain half sweep
            f += np.log(a)
            g = log_nu - _row_lse(np.add(log_k, f[:, None], out=kernel).T)
            a, b = _reset_reference(kernel, log_k, f, g)
        else:
            b = nu / ktb
        iterations += 1
        if max(a.max(), b.max()) > _SCALE_BOUND or min(a.min(), b.min()) < 1 / _SCALE_BOUND:
            f += np.log(a)
            g += np.log(b)
            a, b = _reset_reference(kernel, log_k, f, g)
            absorptions += 1
        kb = kernel @ b
        residual = total_variation(a * kb, mu)

    self.f, self.g, self.ab, self.kb = f, g, np.concatenate((a, b)), kb
    self.residual, self.iterations, self.absorptions = residual, iterations, absorptions


def relaxed_sweep_reference(self, sweeps, tol, probe, omega_max):
    """Reference for SweepState.advance with relaxation on, advancing the
    state `self` one sweep at a time from fresh arrays.  A relaxed sweep is
    kept when every new scaling lies in [1e-50, top] and its largest ratio
    passes _ascends; otherwise, and in the first `probe` sweeps, the sweep
    is sweep_reference's plain one.  The probe's last sweep sets omega from
    the ratio of its residual to the one before, and a kept relaxed sweep's
    residual takes in the column TV once the row TV is <= tol, and after the
    last sweep."""
    stop = self.iterations + sweeps
    while self.residual > tol and self.iterations < stop:
        mu, nu, n1, omega = self.mu, self.nu, self.mu.size, self.omega
        a, b = self.ab[:n1], self.ab[n1:]
        previous, relaxed = self.residual, False
        if omega != 1.0:
            with np.errstate(all="ignore"):  # a product may underflow: the guard refuses it
                ratio_a = np.power(mu / (a * self.kb), omega)
                a2 = a * ratio_a
                ktb = self.kernel.T @ a2
                ratio_b = np.power(nu / (b * ktb), omega)
                b2 = b * ratio_b
                new = np.concatenate((a2, b2))
                relaxed = (1 / _SCALE_BOUND <= new.min() and new.max() <= self.top
                           and _ascends(max(ratio_a.max(), ratio_b.max()), omega))
        if relaxed:
            self.ab, self.kb = new, self.kernel @ b2
            self.iterations += 1
            self.residual = total_variation(a2 * self.kb, mu)
        else:
            sweep_reference(self, 1, tol)
        row = self.residual
        if self.iterations == probe:
            omega = min(omega_max, 2 / (1 + math.sqrt(1 - min(row / previous, 1.0))))
            self.omega = omega
            self.top = min(self.top, _SCALE_BOUND * (10 * self.top / _SCALE_BOUND) ** omega)
        if relaxed and (row <= tol or self.iterations == stop):
            self.residual = max(row, total_variation(b2 * ktb, nu))
