"""Dense multimarginal reference solver (exponential in s, for verification).

Materializes the full s-way coupling tensor and runs the multimarginal
Sinkhorn recursion with projections taken by direct summation over the
tensor (in log space).  No message passing, no factorization: this path is
deliberately independent of the pairwise machinery it is used to check,
and it is gated by a hard entry cap because the cost is prod(n_sigma).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Mapping, Sequence

import numpy as np

from .config import (
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
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
        mats[edge] = np.asarray(costs[edge], dtype=float)
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


def _log_marginal(log_m: np.ndarray, ax: int) -> np.ndarray:
    """log of the marginal of exp(log_m) on axis ax (0-based).

    A log-sum-exp over the other axes, each slice shifted by its own max.
    The slices are copied out as contiguous rows first, in one copy for any
    axis: reducing a 5**6 tensor over five strided axes costs several times
    the copy.  An all -inf slice gives -inf, as scipy.special.logsumexp does.
    """
    rows = np.array(np.moveaxis(log_m, ax, 0), order="C").reshape(log_m.shape[ax], -1)
    top = rows.max(axis=1, keepdims=True)
    top[~np.isfinite(top)] = 0.0
    rows -= top
    np.exp(rows, out=rows)
    with np.errstate(divide="ignore"):
        return np.log(rows.sum(axis=1)) + top[:, 0]


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

    Maintains log M = log K + sum_sigma phi_sigma and rescales one marginal
    at a time: phi_sigma += log mu_sigma - log proj_sigma(M).  Stops when
    every marginal matches within TV tolerance `tol` after a full sweep.
    Zero-weight support points are pruned up front and restored as zero
    slices in the returned tensor.
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
    mats = {e: np.asarray(costs[e], dtype=float) for e in graph.edges if e in costs}
    for m in mats.values():
        check_cost_scale(float(np.abs(m).max(initial=0.0)), eta)
    scaled = {e: -m / eta for e, m in mats.items()}
    log_m = cost_tensor(graph, scaled, shape=full_shape)[np.ix_(*keeps)]
    log_mus = [np.log(mu) for mu in mus]
    iterations = 0
    residual = np.inf
    converged = False
    log_marginals = [_log_marginal(log_m, 0)]
    for iterations in range(1, max_iter + 1):
        for ax in range(s):
            # the axis-0 marginal of the unchanged tensor is already known
            log_marginal = log_marginals[0] if ax == 0 else _log_marginal(log_m, ax)
            log_m += on_axes(log_mus[ax] - log_marginal, s, ax + 1)
        # fresh projections of the end-of-sweep tensor, all s marginals
        log_marginals = [_log_marginal(log_m, ax) for ax in range(s)]
        residual = 0.0
        for ax in range(s):
            residual = max(residual, total_variation(np.exp(log_marginals[ax]), mus[ax]))
        if residual <= tol:
            converged = True
            break

    tensor = np.zeros(full_shape)
    tensor[np.ix_(*keeps)] = np.exp(log_m)
    return MultimarginalResult(
        tensor=tensor,
        iterations=iterations,
        residual=float(residual),
        converged=converged,
    )
