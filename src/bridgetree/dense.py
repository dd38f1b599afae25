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
    DEFAULT_TENSOR_CAP,
    DEFAULT_TOL,
    check_edges,
    check_solver_params,
    check_tensor_cap,
)
from .errors import ValidationError
from .measures import DiscreteMeasure
from .sinkhorn import PairwiseCost, total_variation
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


def path_graph(s: int) -> GraphStructure:
    """Chain 1-2-...-s."""
    return graph_from_edges(s, [(i, i + 1) for i in range(1, s)])


def star_graph(s: int, center: int = 1) -> GraphStructure:
    """All vertices attached to `center`."""
    if not 1 <= center <= s:
        raise ValidationError(f"star center {center} out of range for s={s}")
    return graph_from_edges(s, [(center, v) for v in range(1, s + 1) if v != center])


def complete_graph(s: int) -> GraphStructure:
    return graph_from_edges(s, [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)])


def _edge_matrix(value) -> np.ndarray:
    return value.matrix if isinstance(value, PairwiseCost) else np.asarray(value, dtype=float)


def _infer_shape(graph: GraphStructure, costs: Mapping[Edge, np.ndarray]) -> tuple[int, ...]:
    sizes: dict[int, int] = {}
    for a, b in graph.edges:
        m = costs[(a, b)]
        for vertex, n in ((a, m.shape[0]), (b, m.shape[1])):
            if sizes.setdefault(vertex, n) != n:
                raise ValidationError(
                    f"inconsistent size for vertex {vertex}: {sizes[vertex]} vs {n}"
                )
    missing = [v for v in range(1, graph.s + 1) if v not in sizes]
    if missing:
        raise ValidationError(
            f"cannot infer tensor shape: vertices {missing} touch no edge; pass shape="
        )
    return tuple(sizes[v] for v in range(1, graph.s + 1))


def cost_tensor(
    graph: GraphStructure,
    costs: Mapping[Edge, "np.ndarray | PairwiseCost"],
    shape: Sequence[int] | None = None,
    cap: int = DEFAULT_TENSOR_CAP,
) -> np.ndarray:
    """Ground-cost tensor C[i_1..i_s] = sum over edges of C_edge[i_a, i_b].

    A path edge set gives the chain sum, a star gives the barycenter sum;
    any edge set is the general form.
    """
    mats = {}
    for edge in graph.edges:
        if edge not in costs:
            raise ValidationError(f"missing cost matrix for edge {edge}")
        mats[edge] = _edge_matrix(costs[edge])
        if not np.isfinite(mats[edge]).all():
            raise ValidationError(f"cost matrix for edge {edge} has non-finite entries")
    if shape is None:
        shape = _infer_shape(graph, mats)
    shape = tuple(int(n) for n in shape)
    if len(shape) != graph.s:
        raise ValidationError(f"shape has {len(shape)} axes but graph has s={graph.s}")
    check_tensor_cap(shape, cap)
    out = np.zeros(shape)
    for (a, b), m in mats.items():
        if m.shape != (shape[a - 1], shape[b - 1]):
            raise ValidationError(
                f"edge {(a, b)} matrix shape {m.shape} inconsistent with tensor shape"
            )
        out += on_axes(m, graph.s, a, b)
    return out


def project(tensor: np.ndarray, sigma: int) -> np.ndarray:
    """Marginal of a coupling tensor on axis sigma (1-based vertex index)."""
    if not 1 <= sigma <= tensor.ndim:
        raise ValidationError(f"marginal index {sigma} out of range for ndim={tensor.ndim}")
    axes = tuple(ax for ax in range(tensor.ndim) if ax != sigma - 1)
    return tensor.sum(axis=axes)


def msb_objective(tensor: np.ndarray, cost: np.ndarray, eta: float) -> float:
    """Entropic transport objective <C + eta log M, M> with 0 log 0 = 0.

    Equals eta * D_KL(M || exp(-C/eta)) identically.
    """
    if tensor.shape != cost.shape:
        raise ValidationError(f"shape mismatch: {tensor.shape} vs {cost.shape}")
    check_solver_params(eta)
    log_m = np.zeros_like(tensor)
    np.log(tensor, out=log_m, where=tensor > 0)
    return float(np.vdot(tensor, cost) + eta * np.vdot(tensor, log_m))


def _log_marginal(log_m: np.ndarray, ax: int) -> np.ndarray:
    """log of the marginal of exp(log_m) on axis ax (0-based).

    A log-sum-exp over the other axes, each slice shifted by its own max.
    The slices are copied out as contiguous rows first: reducing a 5**6
    tensor over five strided axes costs several times the copy.  An all
    -inf slice gives -inf, as scipy.special.logsumexp does.
    """
    rows = np.moveaxis(log_m, ax, 0).reshape(log_m.shape[ax], -1).copy()
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
    costs: Mapping[Edge, "np.ndarray | PairwiseCost"],
    eta: float,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
    cap: int = DEFAULT_TENSOR_CAP,
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
    scaled = {e: -_edge_matrix(costs[e]) / eta for e in graph.edges if e in costs}
    log_m = cost_tensor(graph, scaled, shape=full_shape, cap=cap)[np.ix_(*keeps)]
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
