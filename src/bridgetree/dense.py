"""Dense multimarginal reference solver (exponential in s, for verification).

Multimarginal Sinkhorn (Benamou et al. 2015) on the s-way coupling tensor
of the positive-weight points, held as a fixed kernel K = exp(log M) beside
one scaling vector per axis, stabilized as in Schmitzer 2019: large scalings
are absorbed into log M and underflowing marginals are taken in log space.
Each marginal is read as a contraction of K with the other axes' scalings,
which holds for any dense tensor scaled by a rank-one product; no message
passing and no factorization along the graph, so this path stays
independent of the pairwise machinery it checks.  A hard cap bounds the
full shape's prod(n_sigma), the size of the tensor returned.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    as_float_array,
    check_cost_scale,
    check_edges,
    check_shape,
    check_solver_params,
    check_tensor_cap,
)
from .errors import ValidationError
from .measures import DiscreteMeasure
from .trees import DisjointSet, Edge, on_axes

# mm_sinkhorn's bounds: the pairwise solver's, restated as dense.py shares no code
_LOG_SCALE_BOUND = np.log(1e50)
_FLOOR = np.exp(-400.0)
_MIN_MARGINAL = 1e-200


@dataclass(frozen=True)
class GraphStructure:
    """Undirected graph on vertices 1..s given by its edge set."""

    s: int
    edges: tuple[Edge, ...]

    def __post_init__(self):
        object.__setattr__(self, "edges", check_edges(self.s, self.edges))

    def is_connected(self) -> bool:
        components = DisjointSet(self.s + 1)
        merges = sum(components.union(a, b) for a, b in self.edges)
        return merges == self.s - 1


def graph_from_edges(s: int, edges: Iterable[tuple[int, int]]) -> GraphStructure:
    return GraphStructure(s, edges)


def cost_tensor(
    graph: GraphStructure,
    costs: Mapping[Edge, np.ndarray],
    shape: Sequence[int],
) -> np.ndarray:
    """Ground-cost tensor C[i_1..i_s] = sum over edges of C_edge[i_a, i_b].

    A path edge set gives the chain sum, a star gives the barycenter sum;
    any edge set is the general form.  shape sizes every axis, so each edge
    matrix must be (shape[a-1], shape[b-1]).
    """
    mats = {}
    for edge in graph.edges:
        if edge not in costs:
            raise ValidationError(f"missing cost matrix for edge {edge}")
        mats[edge] = as_float_array(costs[edge], f"cost matrix for edge {edge}")
        if not np.isfinite(mats[edge]).all():
            raise ValidationError(f"cost matrix for edge {edge} has non-finite entries")
    if len(shape) != graph.s:
        raise ValidationError(f"shape has {len(shape)} axes but graph has s={graph.s}")
    shape = check_tensor_cap(shape)
    out = np.zeros(shape)
    for (a, b), m in mats.items():
        check_shape(m, (shape[a - 1], shape[b - 1]), f"cost matrix for edge {(a, b)}")
        out += on_axes(m, graph.s, a, b)
    return out


def msb_objective(tensor: np.ndarray, cost: np.ndarray, eta: float) -> float:
    """Entropic transport objective <C + eta log M, M> with 0 log 0 = 0.

    Equals eta * D_KL(M || exp(-C/eta)) identically.
    """
    check_shape(cost, tensor.shape, "cost tensor")
    check_solver_params(eta)
    log_m = np.zeros_like(tensor)
    np.log(tensor, out=log_m, where=tensor > 0)
    return float(np.vdot(tensor, cost) + eta * np.vdot(tensor, log_m))


def _log_marginal(log_m: np.ndarray, ax: int, out: np.ndarray | None = None) -> np.ndarray:
    """log of the marginal of exp(log_m) on axis ax (0-based).

    A log-sum-exp over the other axes, each slice shifted by its own max, for
    mm_sinkhorn's log-domain fallback only.  The slices are first copied out
    as contiguous rows, into out (log_m's size) if given: a reduction over
    strided axes costs several times the copy.  An all -inf slice gives -inf.
    """
    moved = np.moveaxis(log_m, ax, 0)
    buffer = np.empty(moved.shape) if out is None else out.reshape(moved.shape)
    np.copyto(buffer, moved)
    rows = buffer.reshape(log_m.shape[ax], -1)
    top = rows.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    rows -= top
    np.exp(rows, out=rows)
    with np.errstate(divide="ignore"):
        return np.log(rows.sum(axis=1)) + top[:, 0]


def _outer(u: np.ndarray, tail: np.ndarray) -> np.ndarray:
    """u ⊗ tail flattened in C order.  A rank-one np.dot: a broadcast
    multiply would allocate iterator buffers of up to 64 kB."""
    return np.dot(u[:, None], tail[None, :]).reshape(-1)


def _tails(scalings: Sequence[np.ndarray]) -> list:
    """tails[ax] = scalings[ax + 1] ⊗ ... ⊗ scalings[-1] for ax >= 1 (a single
    1 for the last axis); tails[0], of N / n_0 entries, is left out."""
    tails = [np.ones(1)]
    for u in scalings[:1:-1]:
        tails.append(_outer(u, tails[-1]))
    return [None] + tails[::-1]


@dataclass(frozen=True, eq=False)
class MultimarginalResult:
    """Dense coupling tensor plus the solve report."""

    tensor: np.ndarray
    iterations: int
    residual: float
    converged: bool


def mm_sinkhorn(
    measures: Sequence[DiscreteMeasure],
    graph: GraphStructure,
    costs: Mapping[Edge, np.ndarray],
    eta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> MultimarginalResult:
    """Multimarginal Sinkhorn on the dense tensor, cyclic sweep order.

    The coupling is M = K * (u_1 ⊗ ... ⊗ u_s) with K = exp(log_m) fixed
    between absorptions; M itself is formed once, over K, after the last
    sweep.  The update of axis sigma sets u_sigma = mu_sigma / c_sigma, where
    c_sigma is K contracted with every other scaling: a running contraction
    of K with the scalings of the earlier axes, advanced by one vector-matrix
    product after each update, meets the outer product of the later ones.
    The contraction is the same identity for any rank-one scaling of a dense
    tensor; it reads no graph structure and no code of the pairwise solver.
    Past sum_sigma max |log u_sigma| = log 1e50 the log u are absorbed into
    log_m and K = exp(log_m), entries below exp(-400) as zeros.  A marginal
    u_sigma * c_sigma under 1e-200 is not divided by: its axis takes the
    log-domain update log_m += log mu_sigma - log proj_sigma(M) after an
    absorption.  Stops when all marginals are within TV `tol` after a sweep.
    log_m spans the kept points only; M takes the full shape in one scatter.
    """
    measures = list(measures)
    s = graph.s
    if len(measures) != s:
        raise ValidationError(f"graph has s={s} vertices but {len(measures)} measures given")
    if not graph.is_connected():
        raise ValidationError("graph must be connected")
    check_solver_params(eta, tol, max_iter)

    full_shape = check_tensor_cap([m.n for m in measures])  # the returned tensor's
    keeps = [m.weights > 0 for m in measures]
    mus = [m.weights[k] for m, k in zip(measures, keeps)]
    shape = tuple(mu.size for mu in mus)  # nothing is gathered or scattered at full_shape
    # log K = sum of -C_e/eta over the kept points, each edge scaled before the
    # sum (scaling the summed C instead rounds differently)
    scaled = {}
    for a, b in (e for e in graph.edges if e in costs):  # cost_tensor names a missing one
        m = as_float_array(costs[a, b], f"cost matrix for edge {(a, b)}")
        c_max = float(np.abs(m).max(initial=0.0))
        check_cost_scale(c_max, eta)  # over the whole matrix: a pruned point's cost too
        if shape != full_shape and math.isfinite(c_max):  # cost_tensor refuses non-finite m whole
            check_shape(m, (full_shape[a - 1], full_shape[b - 1]), f"cost matrix for edge {(a, b)}")
            m = m[np.ix_(keeps[a - 1], keeps[b - 1])]
        scaled[a, b] = -m / eta
    log_m = cost_tensor(graph, scaled, shape)
    kernel = np.empty(shape)  # exp(log_m), fixed between absorptions
    # each per-axis vector kind in one buffer, axis after axis, so that one call
    # spans all axes: the scalings u, the end-of-sweep contractions (zero: the
    # first update is a log-domain one) and the marginals' deviations from mu
    splits = np.cumsum(shape)[:-1]
    scalings, ends, deviations = np.ones(sum(shape)), np.zeros(sum(shape)), np.empty(sum(shape))
    u = np.split(scalings, splits)  # the coupling is kernel * (u[0] ⊗ ... ⊗ u[s-1])
    end_parts, parts = np.split(ends, splits), np.split(deviations, splits)
    mu_all = np.concatenate(mus)
    spread = [0.0] * s  # max |log u[ax]|
    # rows[ax]: the kernel contracted with u[0..ax-1], as (shape[ax], rest) rows
    flat = [kernel.reshape(-1)] + [np.empty(int(np.prod(shape[ax:]))) for ax in range(1, s)]
    rows = [f.reshape(n, -1) for f, n in zip(flat, shape)]
    tails = _tails(u)  # axis 0's is formed at each sweep's end, where it is read
    for iterations in range(1, max_iter + 1):
        for ax in range(s):
            # axis 0's is the end-of-sweep contraction: nothing changed since
            contracted = rows[ax] @ tails[ax] if ax else end_parts[0]
            # x[x.argmin()] is x.min() without a ufunc reduction
            product = np.multiply(u[ax], contracted, out=parts[ax])
            underflow = product[product.argmin()] < _MIN_MARGINAL  # then no division
            if not underflow:
                v = np.divide(mus[ax], contracted, out=u[ax])
                spread[ax] = math.log(max(v[v.argmax()], 1.0 / v[v.argmin()]))
            start = ax
            if underflow or sum(spread) > _LOG_SCALE_BOUND:
                for pending in np.flatnonzero(spread):  # absorb
                    log_m += on_axes(np.log(u[pending]), s, pending + 1)
                    u[pending][:], spread[pending] = 1.0, 0.0
                if underflow:  # the log-domain update
                    log_m += on_axes(np.log(mus[ax]) - _log_marginal(log_m, ax, kernel), s, ax + 1)
                np.exp(log_m, out=kernel)
                kernel[kernel < _FLOOR] = 0.0
                # rows[1..ax] are rebuilt below as sums of the new kernel
                tails, start = _tails(u), 0
            for before in range(start, min(ax + 1, s - 1)):  # advance the rows past ax
                np.dot(u[before], rows[before], out=flat[before + 1])
        # each axis's contraction with every other end-of-sweep scaling
        tails = _tails(u)
        tails[0] = _outer(u[1], tails[1])
        for r, t, end in zip(rows, tails, end_parts):
            np.dot(r, t, out=end)
        np.multiply(scalings, ends, out=deviations)
        np.subtract(deviations, mu_all, out=deviations)
        np.absolute(deviations, out=deviations)
        # each marginal's TV distance, summed pairwise as measures.total_variation sums
        residual = max(0.5 * float(np.add.reduce(part)) for part in parts)
        if residual <= tol:
            break

    log_m = None  # spent: released before the coupling is formed over the kernel
    rows[0] *= tails[0]
    rows[0] *= u[0][:, None]
    if shape != full_shape:  # one scatter, zeros at the pruned points
        kernel, kept = np.zeros(full_shape), kernel
        kernel[np.ix_(*keeps)] = kept
    return MultimarginalResult(kernel, iterations, float(residual), residual <= tol)
