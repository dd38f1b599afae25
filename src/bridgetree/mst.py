"""Optimal coupling structure as a minimum spanning tree.

The structure search over all connected correlation graphs collapses to a
classical MST: the optimum is always a spanning tree (removing a cycle edge
only lowers the decoupled cost), and the KL cost of any tree is
sum_edges g_edge - sum_v H(mu_v) with the tree-independent entropy sum,
where

    g[a, b] = sb_value(mu_a, mu_b) + H(mu_a) + H(mu_b)

is symmetric, nonnegative, and computable from one bimarginal solve per
vertex pair.  So: fill the s(s-1)/2 weights, run an MST algorithm, done.

Both MST routines use the same strict total order on edges,
(weight, min index, max index), so results are deterministic under ties
and the two algorithms always return the identical tree.
"""

from __future__ import annotations

import math
import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping, Sequence

import numpy as np

from .config import DEFAULT_TENSOR_CAP, SolverConfig, check_tensor_cap
from .errors import SolverError, ValidationError
from .measures import DiscreteMeasure, MeasureCollection, entropy
from .sinkhorn import (
    BimarginalCoupling,
    PairwiseCost,
    build_cost,
    gibbs_kernel,
    sb_value,
    sinkhorn_solve,
)
from .trees import (
    ENUMERATION_CAP,
    DisjointSet,
    Edge,
    SpanningTree,
    _prufer_codes,
    enumerate_trees,
    on_axes,
    rooted_walk,
    tree_cost_additive,
)


@dataclass(frozen=True, eq=False)
class EdgeSolve:
    """One pairwise solve: weight g, its sb value, and the full coupling.

    seconds is the wall time of the whole edge: cost build, Gibbs kernel,
    Sinkhorn solve and sb value.
    """

    g: float
    sb: float
    coupling: BimarginalCoupling
    cost: PairwiseCost
    seconds: float


@dataclass(frozen=True, eq=False)
class EdgeWeightMatrix:
    """Symmetric s x s weight matrix with per-edge solve attachments."""

    g: np.ndarray
    edges: Mapping[Edge, EdgeSolve]


def edge_weight(m1: DiscreteMeasure, m2: DiscreteMeasure, config: SolverConfig) -> EdgeSolve:
    """Solve one bimarginal bridge and return g = sb + H(m1) + H(m2)."""
    start = time.perf_counter()
    cost = build_cost(m1, m2, config.cost_kind, matrix=config.cost_matrix)
    log_kernel = gibbs_kernel(cost, config.eta)
    coupling = sinkhorn_solve(m1, m2, cost, config.eta, tol=config.tol, max_iter=config.max_iter)
    if not coupling.converged:
        message = (
            f"Sinkhorn stopped at max_iter={config.max_iter} with residual "
            f"{coupling.residual:.3e} > tol={config.tol:.1e}"
        )
        if config.on_nonconverged == "error":
            raise SolverError(message)
        warnings.warn(message, stacklevel=2)
    sb = sb_value(coupling, log_kernel)
    g = sb + entropy(m1) + entropy(m2)
    elapsed = time.perf_counter() - start
    return EdgeSolve(g=g, sb=sb, coupling=coupling, cost=cost, seconds=elapsed)


def solve_edges(
    collection: MeasureCollection, config: SolverConfig, edges: Sequence[Edge]
) -> dict[Edge, EdgeSolve]:
    """One EdgeSolve per (a, b) edge, keyed by edge; an error names its edge.

    Edge solves are independent, so with config.threads > 1 they run on a
    thread pool; results are keyed by edge, making the output independent
    of completion order.
    """

    def solve(edge: Edge) -> tuple[Edge, EdgeSolve]:
        a, b = edge
        try:
            return edge, edge_weight(collection[a - 1], collection[b - 1], config)
        except (SolverError, ValidationError) as exc:
            raise type(exc)(f"edge ({a}, {b}): {exc}") from exc

    if config.threads > 1 and len(edges) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            return dict(pool.map(solve, edges))
    return dict(solve(edge) for edge in edges)


def build_weight_matrix(measures, config: SolverConfig) -> EdgeWeightMatrix:
    """Fill all s(s-1)/2 edge weights."""
    collection = MeasureCollection(measures)
    s = collection.s
    pairs = [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)]
    results = solve_edges(collection, config, pairs)
    g = np.zeros((s, s))
    for (a, b), es in results.items():
        g[a - 1, b - 1] = es.g
        g[b - 1, a - 1] = es.g
    return EdgeWeightMatrix(g=g, edges=results)


# ---------------------------------------------------------------------------
# MST over a dense symmetric weight matrix.
# ---------------------------------------------------------------------------


def _as_weight_matrix(weights) -> np.ndarray:
    w = weights.g if isinstance(weights, EdgeWeightMatrix) else np.asarray(weights, dtype=float)
    if w.ndim != 2 or w.shape[0] != w.shape[1]:
        raise ValidationError(f"weight matrix must be square, got shape {w.shape}")
    if w.shape[0] < 2:
        raise ValidationError("need at least 2 vertices")
    off = ~np.eye(w.shape[0], dtype=bool)
    if not np.all(np.isfinite(w[off])):
        raise ValidationError("weight matrix has non-finite off-diagonal entries")
    if not np.allclose(w, w.T, rtol=0.0, atol=1e-10):
        raise ValidationError("weight matrix must be symmetric")
    return w


def _edge_key(w: np.ndarray, a: int, b: int) -> tuple[float, int, int]:
    """Strict total order on edges: (weight, min, max) with 1-based indices."""
    lo, hi = (a, b) if a < b else (b, a)
    return (float(w[lo, hi]), lo + 1, hi + 1)


def mst_prim_dense(weights) -> SpanningTree:
    """Dijkstra-Jarnik-Prim on a dense complete graph, O(s^2).

    Deterministic under ties: the lexicographically smaller edge wins.
    """
    w = _as_weight_matrix(weights)
    s = w.shape[0]
    in_tree = [False] * s
    in_tree[0] = True
    best_from = [0] * s  # tree endpoint currently giving the best edge to v
    edges: list[Edge] = []
    for _ in range(s - 1):
        chosen = None
        chosen_key = None
        for v in range(s):
            if in_tree[v]:
                continue
            key = _edge_key(w, best_from[v], v)
            if chosen_key is None or key < chosen_key:
                chosen_key, chosen = key, v
        edges.append((chosen_key[1], chosen_key[2]))
        in_tree[chosen] = True
        for v in range(s):
            if in_tree[v] or v == chosen:
                continue
            if _edge_key(w, chosen, v) < _edge_key(w, best_from[v], v):
                best_from[v] = chosen
    return SpanningTree(s, tuple(edges))


def mst_boruvka(weights) -> SpanningTree:
    """Boruvka's algorithm: every component grabs its cheapest incident edge.

    Uses the same strict edge order as mst_prim_dense, so the two always
    agree (the order makes the MST unique even with tied weights).
    """
    w = _as_weight_matrix(weights)
    s = w.shape[0]
    components = DisjointSet(s)
    edges: list[Edge] = []
    while len(edges) < s - 1:
        cheapest: dict[int, tuple[tuple[float, int, int], Edge]] = {}
        for a in range(s):
            for b in range(a + 1, s):
                ra, rb = components.find(a), components.find(b)
                if ra == rb:
                    continue
                key = _edge_key(w, a, b)
                for root in (ra, rb):
                    if root not in cheapest or key < cheapest[root][0]:
                        cheapest[root] = (key, (a, b))
        merged = False
        for root in sorted(cheapest):
            _, (a, b) = cheapest[root]
            if components.union(a, b):
                edges.append((a + 1, b + 1))
                merged = True
        if not merged:
            raise SolverError("weight graph is disconnected")  # unreachable for finite input
    return SpanningTree(s, tuple(edges))


MST_ALGORITHMS = {"prim": mst_prim_dense, "boruvka": mst_boruvka}


# ---------------------------------------------------------------------------
# End-to-end solve.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class OptimalMsbResult:
    """Optimal tree plus everything needed to audit it."""

    tree: SpanningTree
    total_cost: float
    weight_matrix: EdgeWeightMatrix
    entropies: np.ndarray
    seconds_weights: float
    seconds_mst: float


def optimal_msb(
    measures,
    config: SolverConfig,
    mst_algorithm: str = "prim",
) -> OptimalMsbResult:
    """Weight construction followed by an MST: the full structure solve.

    The result carries only the pairwise plans, which is all the tree cost
    needs.  The dense coupling tensor of the winning tree is
    compose_tree_coupling(result.tree, plans, measures), with plans the
    coupling.plan of each edge in result.weight_matrix.edges.
    """
    collection = MeasureCollection(measures)
    if mst_algorithm not in MST_ALGORITHMS:
        raise ValidationError(
            f"unknown MST algorithm {mst_algorithm!r}; expected one of {sorted(MST_ALGORITHMS)}"
        )
    entropies = np.array([entropy(m) for m in collection])

    start = time.perf_counter()
    ewm = build_weight_matrix(collection, config)
    t_weights = time.perf_counter() - start

    start = time.perf_counter()
    tree = MST_ALGORITHMS[mst_algorithm](ewm.g)
    t_mst = time.perf_counter() - start

    total = tree_cost_additive(tree, ewm.g, entropies)
    return OptimalMsbResult(
        tree=tree,
        total_cost=float(total),
        weight_matrix=ewm,
        entropies=entropies,
        seconds_weights=t_weights,
        seconds_mst=t_mst,
    )


# ---------------------------------------------------------------------------
# Exhaustive ranking of all trees (Table-style listings and verification).
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RankedTree:
    """One row of an exhaustive tree ranking."""

    prufer: tuple[int, ...]
    edges: tuple[Edge, ...]
    cost_additive: float
    cost_direct: float | None


def rank_trees(
    measures,
    config: SolverConfig,
    ewm: EdgeWeightMatrix | None = None,
    direct: str = "auto",
    enumeration_cap: int = ENUMERATION_CAP,
    cap: int = DEFAULT_TENSOR_CAP,
) -> list[RankedTree]:
    """Cost every spanning tree, cheapest first.

    cost_additive is the degree-free edge-weight sum minus the entropy sum.
    cost_direct re-evaluates each tree without that shortcut, from the
    pairwise plans and costs alone: the dense coupling
    P = prod M_e / prod mu_v^(deg v - 1) and the integrand W = C/eta + log P
    are grown one axis per tree edge from a root vertex, and
    cost_direct = <P, W> summed over the full tensor (see _direct_evaluator).
    direct="auto" computes it when the tensor has at most cap entries,
    "never" skips it, "always" refuses if it cannot be computed.

    Ties in cost keep lexicographic Prüfer order (the enumeration order,
    via stable sort).
    """
    if direct not in ("auto", "never", "always"):
        raise ValidationError(f"direct must be auto/never/always, got {direct!r}")
    if cap < 1:
        raise ValidationError(f"cap must be >= 1, got {cap}")
    collection = MeasureCollection(measures)
    if ewm is None:
        ewm = build_weight_matrix(collection, config)
    entropies = np.array([entropy(m) for m in collection])
    s = collection.s
    if direct == "always":
        check_tensor_cap(collection.sizes, cap)
    elif direct == "auto" and math.prod(collection.sizes) > cap:
        direct = "never"
    direct_cost = _direct_evaluator(collection, ewm, config.eta) if direct != "never" else None

    rows = []
    # enumerate_trees checks the cap; the codes it decoded come alongside
    for tree, code in zip(enumerate_trees(s, cap=enumeration_cap), _prufer_codes(s)):
        rows.append(
            RankedTree(
                prufer=code,
                edges=tree.edges,
                cost_additive=tree_cost_additive(tree, ewm.g, entropies),
                cost_direct=direct_cost(tree) if direct_cost is not None else None,
            )
        )
    rows.sort(key=lambda r: r.cost_additive)
    return rows


def _direct_evaluator(collection: MeasureCollection, ewm: EdgeWeightMatrix, eta: float):
    """Dense direct tree cost <P, C/eta + log P>, one axis per tree edge.

    Rooted at r, the vertex rooted_walk starts from, a tree coupling factors as
    P = mu_r * prod over edges p -> c of Q_pc,  Q_pc = M_e / mu_p,
    the conditional of c given its parent p, and so
    W = C/eta + log P = log mu_r + sum over edges of (C_e/eta + log Q_pc).
    Q_pc and its term are precomputed once per edge and direction; a tree
    then costs one broadcast multiply and one broadcast add per edge, each
    adding an axis, and only the last pair is full size.  Logs are taken
    where the argument is positive and are 0 elsewhere: P vanishes there,
    so the entry contributes 0 log 0 = 0.
    """
    s = collection.s

    def masked_log(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        np.log(x, out=out, where=x > 0)
        return out

    weights = [m.weights for m in collection]
    log_weights = [masked_log(w) for w in weights]
    # steps[(p, c)]: Q_pc and C_e/eta + log Q_pc, both stored on the
    # canonical (a, b) axes of the edge whichever end is the parent
    steps = {}
    for (a, b), es in ewm.edges.items():
        plan, cost = es.coupling.plan, es.cost.matrix
        rows_mu, cols_mu = weights[a - 1][:, None], weights[b - 1][None, :]
        for parent, child, mu in ((a, b, rows_mu), (b, a, cols_mu)):
            q = np.divide(plan, mu, out=np.zeros_like(plan), where=mu > 0)
            term = np.where(q > 0, cost / eta + masked_log(q), 0.0)
            steps[(parent, child)] = (on_axes(q, s, a, b), on_axes(term, s, a, b))
    plan_buf = np.empty(collection.sizes)
    term_buf = np.empty(collection.sizes)

    def direct_cost(tree: SpanningTree) -> float:
        walk = rooted_walk(tree)
        root = walk[0][0]
        plan = on_axes(weights[root - 1], s, root)
        term = on_axes(log_weights[root - 1], s, root)
        for step in walk[:-1]:
            q, t = steps[step]
            plan = plan * q
            term = term + t
        q, t = steps[walk[-1]]
        np.multiply(plan, q, out=plan_buf)
        np.add(term, t, out=term_buf)
        return float(np.vdot(plan_buf, term_buf))

    return direct_cost
