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
from scipy.special import logsumexp

from .config import DEFAULT_TENSOR_CAP, check_solver_params
from .errors import ValidationError
from .measures import DiscreteMeasure
from .sinkhorn import PairwiseCost, total_variation

Edge = tuple[int, int]


def canonical_edge(a: int, b: int) -> Edge:
    """Unordered vertex pair as a sorted tuple of 1-based indices."""
    if a == b:
        raise ValidationError(f"self-loop ({a}, {b}) is not a valid edge")
    return (a, b) if a < b else (b, a)


@dataclass(frozen=True)
class GraphStructure:
    """Undirected graph on vertices 1..s given by its edge set."""

    s: int
    edges: frozenset[Edge]

    def __post_init__(self):
        if self.s < 2:
            raise ValidationError(f"graph needs at least 2 vertices, got s={self.s}")
        raw = list(self.edges)
        canon = {canonical_edge(a, b) for a, b in raw}
        if len(canon) != len(raw):
            raise ValidationError("duplicate edges in graph")
        for a, b in canon:
            if not (1 <= a <= self.s and 1 <= b <= self.s):
                raise ValidationError(f"edge ({a}, {b}) out of range for s={self.s}")
        object.__setattr__(self, "edges", frozenset(canon))

    def is_connected(self) -> bool:
        parent = list(range(self.s + 1))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        comps = self.s
        for a, b in self.edges:
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                comps -= 1
        return comps == 1

    def sorted_edges(self) -> list[Edge]:
        return sorted(self.edges)


def graph_from_edges(s: int, edges: Iterable[tuple[int, int]]) -> GraphStructure:
    return GraphStructure(s, frozenset(canonical_edge(a, b) for a, b in edges))


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


def _check_cap(shape: Sequence[int], cap: int) -> None:
    total = int(np.prod([int(n) for n in shape], dtype=np.int64))
    if total > cap:
        raise ValidationError(
            f"tensor with {total} entries exceeds the configured cap of {cap}"
        )


def _infer_shape(graph: GraphStructure, costs: Mapping[Edge, np.ndarray]) -> tuple[int, ...]:
    sizes: dict[int, int] = {}
    for a, b in graph.sorted_edges():
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


def _broadcast_pair(matrix: np.ndarray, a: int, b: int, s: int) -> np.ndarray:
    """View of an (n_a, n_b) matrix shaped for s-way broadcasting (a < b)."""
    shape = [1] * s
    shape[a - 1] = matrix.shape[0]
    shape[b - 1] = matrix.shape[1]
    return matrix.reshape(shape)


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
    for edge in graph.sorted_edges():
        if edge not in costs:
            raise ValidationError(f"missing cost matrix for edge {edge}")
        mats[edge] = _edge_matrix(costs[edge])
    if shape is None:
        shape = _infer_shape(graph, mats)
    shape = tuple(int(n) for n in shape)
    if len(shape) != graph.s:
        raise ValidationError(f"shape has {len(shape)} axes but graph has s={graph.s}")
    _check_cap(shape, cap)
    out = np.zeros(shape)
    for (a, b), m in sorted(mats.items()):
        if m.shape != (shape[a - 1], shape[b - 1]):
            raise ValidationError(
                f"edge {(a, b)} matrix shape {m.shape} inconsistent with tensor shape"
            )
        out += _broadcast_pair(m, a, b, graph.s)
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
    tol: float = 1e-9,
    max_iter: int = 100_000,
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
    _check_cap(full_shape, cap)

    pruned_costs: dict[Edge, np.ndarray] = {}
    for edge in graph.sorted_edges():
        if edge not in costs:
            raise ValidationError(f"missing cost matrix for edge {edge}")
        a, b = edge
        m = _edge_matrix(costs[edge])
        if m.shape != (full_shape[a - 1], full_shape[b - 1]):
            raise ValidationError(
                f"edge {edge} matrix shape {m.shape} does not match marginal sizes"
            )
        pruned_costs[edge] = m[np.ix_(keeps[a - 1], keeps[b - 1])]

    shape = tuple(int(k.sum()) for k in keeps)
    log_k = np.zeros(shape)
    for (a, b), m in sorted(pruned_costs.items()):
        log_k += _broadcast_pair(-m / eta, a, b, s)

    log_mus = [np.log(mu) for mu in mus]
    log_m = log_k.copy()
    iterations = 0
    residual = np.inf
    converged = False
    for iterations in range(1, max_iter + 1):
        for ax in range(s):
            others = tuple(o for o in range(s) if o != ax)
            delta = log_mus[ax] - logsumexp(log_m, axis=others)
            shape_vec = [1] * s
            shape_vec[ax] = delta.size
            log_m += delta.reshape(shape_vec)
        # fresh projections of the end-of-sweep tensor, all s marginals
        residual = 0.0
        for ax in range(s):
            others = tuple(o for o in range(s) if o != ax)
            marginal = np.exp(logsumexp(log_m, axis=others))
            residual = max(residual, total_variation(marginal, mus[ax]))
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
