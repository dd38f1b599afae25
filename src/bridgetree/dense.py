"""Dense multimarginal reference solver (exponential in s, for verification).

Multimarginal Sinkhorn in scaling form (Benamou et al. 2015) on the full
s-way coupling tensor, stabilized as in Schmitzer 2019: large scalings are
absorbed into log M and underflowing marginals are taken in log space.  No
message passing, no factorization: this path is deliberately independent of
the pairwise machinery it checks; a hard cap bounds its prod(n_sigma) cost.
"""

from __future__ import annotations

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
from .sinkhorn import total_variation
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


def _marginal(view: np.ndarray) -> np.ndarray:
    """Marginal on the middle axis of a (pre, n, post) view, as two products with ones."""
    pre, n, post = view.shape
    rows = view.reshape(pre * n, post) @ np.ones(post) if post > 1 else view.reshape(pre * n)
    return np.ones(pre) @ rows.reshape(pre, n)


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

    The tensor M = exp(log_m) * prod u_sigma is rescaled one marginal at a
    time: r = mu_sigma / proj_sigma(M), M *= r on axis sigma, log u_sigma += log r.
    Past sum_sigma max |log u_sigma| = log 1e50 the log u are absorbed into
    log_m and M = exp(log_m), entries below exp(-400) as zeros.  A marginal
    under 1e-200 is not divided by: its axis takes the log-domain update
    log_m += log mu_sigma - log proj_sigma(M) after an absorption.  Stops when all
    marginals are within TV `tol` after a sweep; zero-weight points are pruned.
    """
    measures = list(measures)
    s = graph.s
    if len(measures) != s:
        raise ValidationError(f"graph has s={s} vertices but {len(measures)} measures given")
    if not graph.is_connected():
        raise ValidationError("graph must be connected")
    check_solver_params(eta, tol, max_iter)

    keeps = [m.weights > 0 for m in measures]
    mus = [m.weights[k] for m, k in zip(measures, keeps)]
    full_shape = tuple(m.n for m in measures)
    # log K = sum of -C_e/eta, each edge scaled before the sum (scaling the
    # summed C instead rounds differently), restricted to the kept points
    mats = {e: as_float_array(costs[e], f"cost matrix for edge {e}")
            for e in graph.edges if e in costs}
    for m in mats.values():
        check_cost_scale(float(np.abs(m).max(initial=0.0)), eta)
    scaled = {e: -m / eta for e, m in mats.items()}
    log_m = cost_tensor(graph, scaled, shape=full_shape)
    for ax, keep in enumerate(keeps):
        if not keep.all():  # gathered axis by axis: read as given when nothing is pruned
            log_m = log_m.compress(keep, axis=ax)
    shape = log_m.shape
    tensor = np.empty(shape)  # exp(log_m) times the pending scalings exp(log_u)
    views = [tensor.reshape(int(np.prod(shape[:ax])), n, -1) for ax, n in enumerate(shape)]
    log_u = [np.zeros(n) for n in shape]
    spread = [0.0] * s  # max |log_u[ax]|
    marginals = [np.zeros(shape[0])]  # zero: the first update is a log-domain one
    for iterations in range(1, max_iter + 1):
        for ax in range(s):
            # the axis-0 marginal of the unchanged tensor is already known
            marginal = marginals[0] if ax == 0 else _marginal(views[ax])
            underflow = marginal.min() < _MIN_MARGINAL  # then no division
            if not underflow:
                ratio = mus[ax] / marginal
                views[ax] *= ratio[:, None]
                log_u[ax] += np.log(ratio)
                spread[ax] = float(np.abs(log_u[ax]).max())
            if underflow or sum(spread) > _LOG_SCALE_BOUND:
                for pending in np.flatnonzero(spread):  # absorb
                    log_m += on_axes(log_u[pending], s, pending + 1)
                    log_u[pending][:] = spread[pending] = 0.0
                if underflow:  # the log-domain update
                    log_m += on_axes(np.log(mus[ax]) - _log_marginal(log_m, ax, tensor), s, ax + 1)
                np.exp(log_m, out=tensor)
                tensor[tensor < _FLOOR] = 0.0
        # fresh projections of the end-of-sweep tensor, all s marginals
        marginals = [_marginal(view) for view in views]
        residual = max(total_variation(m, mu) for m, mu in zip(marginals, mus))
        if residual <= tol:
            break

    log_m = None  # spent: released before zero slices are put back, axis by axis
    for ax, keep in enumerate(keeps):
        if not keep.all():
            full = np.zeros(tensor.shape[:ax] + keep.shape + tensor.shape[ax + 1:])
            full[(slice(None),) * ax + (keep,)] = tensor
            tensor = full
    return MultimarginalResult(tensor, iterations, float(residual), residual <= tol)
