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

import time
import warnings
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Mapping

import numpy as np

from .config import SolverConfig
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
    SpanningTree,
    compose_tree_coupling,
    enumerate_trees,
    prufer_encode,
    tree_cost_additive,
)

Edge = tuple[int, int]


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

    @property
    def s(self) -> int:
        return self.g.shape[0]

    def plans(self) -> dict[Edge, np.ndarray]:
        return {e: solve.coupling.plan for e, solve in self.edges.items()}

    def cost_matrices(self) -> dict[Edge, np.ndarray]:
        return {e: solve.cost.matrix for e, solve in self.edges.items()}

    def sb_values(self) -> dict[Edge, float]:
        return {e: solve.sb for e, solve in self.edges.items()}


def _resolve_cost(m1: DiscreteMeasure, m2: DiscreteMeasure, config: SolverConfig) -> PairwiseCost:
    if config.cost_kind == "matrix":
        return build_cost(m1, m2, "matrix", matrix=config.cost_matrix)
    return build_cost(m1, m2, config.cost_kind)


def edge_weight(m1: DiscreteMeasure, m2: DiscreteMeasure, config: SolverConfig) -> EdgeSolve:
    """Solve one bimarginal bridge and return g = sb + H(m1) + H(m2)."""
    start = time.perf_counter()
    cost = _resolve_cost(m1, m2, config)
    kernel = gibbs_kernel(cost, config.eta)
    coupling = sinkhorn_solve(m1, m2, cost, config.eta, tol=config.tol, max_iter=config.max_iter)
    if not coupling.converged:
        message = (
            f"Sinkhorn stopped at max_iter={config.max_iter} with residual "
            f"{coupling.residual:.3e} > tol={config.tol:.1e}"
        )
        if config.on_nonconverged == "error":
            raise SolverError(message)
        warnings.warn(message, stacklevel=2)
    sb = sb_value(coupling, kernel)
    g = sb + entropy(m1) + entropy(m2)
    elapsed = time.perf_counter() - start
    return EdgeSolve(g=g, sb=sb, coupling=coupling, cost=cost, seconds=elapsed)


def build_weight_matrix(measures, config: SolverConfig) -> EdgeWeightMatrix:
    """Fill all s(s-1)/2 edge weights.

    Edge solves are independent, so with config.threads > 1 they run on a
    thread pool; results are keyed by edge index, making the output
    independent of completion order.
    """
    collection = measures if isinstance(measures, MeasureCollection) else MeasureCollection(measures)
    s = collection.s
    pairs = [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)]

    def solve(pair: Edge) -> tuple[Edge, EdgeSolve]:
        a, b = pair
        try:
            return pair, edge_weight(collection[a - 1], collection[b - 1], config)
        except (SolverError, ValidationError) as exc:
            raise type(exc)(f"edge ({a}, {b}): {exc}") from exc

    if config.threads > 1 and len(pairs) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            results = dict(pool.map(solve, pairs))
    else:
        results = dict(solve(pair) for pair in pairs)

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
    parent = list(range(s))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    edges: list[Edge] = []
    components = s
    while components > 1:
        cheapest: dict[int, tuple[tuple[float, int, int], Edge]] = {}
        for a in range(s):
            for b in range(a + 1, s):
                ra, rb = find(a), find(b)
                if ra == rb:
                    continue
                key = _edge_key(w, a, b)
                for root in (ra, rb):
                    if root not in cheapest or key < cheapest[root][0]:
                        cheapest[root] = (key, (a, b))
        merged = False
        for root in sorted(cheapest):
            _, (a, b) = cheapest[root]
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[ra] = rb
                edges.append((a + 1, b + 1))
                components -= 1
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
    tensor: np.ndarray | None
    tensor_note: str
    seconds_weights: float
    seconds_mst: float


def optimal_msb(
    measures,
    config: SolverConfig,
    mst_algorithm: str = "prim",
    compose: bool = False,
) -> OptimalMsbResult:
    """Weight construction followed by an MST: the full structure solve.

    With compose=True the dense coupling tensor of the winning tree is
    built as well (refused past config.tensor_cap); by default only the
    pairwise plans are carried, which is all the tree cost needs.
    """
    collection = measures if isinstance(measures, MeasureCollection) else MeasureCollection(measures)
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

    tensor = None
    note = "tensor not composed (compose=False); pairwise plans attached instead"
    if compose:
        tensor = compose_tree_coupling(tree, ewm.plans(), list(collection), cap=config.tensor_cap)
        note = "tensor composed from pairwise plans"
    return OptimalMsbResult(
        tree=tree,
        total_cost=float(total),
        weight_matrix=ewm,
        entropies=entropies,
        tensor=tensor,
        tensor_note=note,
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
    enumeration_cap: int = 8,
) -> list[RankedTree]:
    """Cost every spanning tree, cheapest first.

    cost_additive is the degree-free edge-weight sum minus the entropy sum.
    cost_direct re-evaluates each tree without that shortcut: the dense
    coupling is composed from the pairwise plans and the transport-plus-
    entropy objective is integrated over the full tensor, divided by eta.
    direct="auto" computes it when the tensor fits config.tensor_cap,
    "never" skips it, "always" refuses if it cannot be computed.

    Ties in cost keep lexicographic Prüfer order (the enumeration order,
    via stable sort).
    """
    if direct not in ("auto", "never", "always"):
        raise ValidationError(f"direct must be auto/never/always, got {direct!r}")
    collection = measures if isinstance(measures, MeasureCollection) else MeasureCollection(measures)
    if ewm is None:
        ewm = build_weight_matrix(collection, config)
    entropies = np.array([entropy(m) for m in collection])
    s = collection.s
    shape = collection.sizes
    total_entries = int(np.prod([int(n) for n in shape], dtype=np.int64))
    feasible = total_entries <= config.tensor_cap
    if direct == "always" and not feasible:
        raise ValidationError(
            f"direct tree evaluation needs {total_entries} tensor entries, "
            f"over the cap of {config.tensor_cap}"
        )
    want_direct = direct == "always" or (direct == "auto" and feasible)

    plans = ewm.plans()
    cost_mats = ewm.cost_matrices()
    weights = [m.weights for m in collection]

    # reusable buffers for the dense per-tree evaluation
    if want_direct:
        cost_buf = np.empty(shape)
        plan_buf = np.empty(shape)
        log_buf = np.empty(shape)

    def direct_cost(tree: SpanningTree) -> float:
        cost_buf.fill(0.0)
        plan_buf.fill(1.0)
        for a, b in tree.edges:
            view = [1] * s
            view[a - 1] = shape[a - 1]
            view[b - 1] = shape[b - 1]
            np.add(cost_buf, cost_mats[(a, b)].reshape(view), out=cost_buf)
            np.multiply(plan_buf, plans[(a, b)].reshape(view), out=plan_buf)
        deg = tree.degrees()
        for idx in range(s):
            if deg[idx] <= 1:
                continue
            wv = (weights[idx] ** (deg[idx] - 1)).reshape(
                [shape[idx] if k == idx else 1 for k in range(s)]
            )
            np.divide(plan_buf, wv, out=plan_buf, where=wv > 0)
        log_buf.fill(0.0)
        np.log(plan_buf, out=log_buf, where=plan_buf > 0)
        value = np.vdot(plan_buf, cost_buf) + config.eta * np.vdot(plan_buf, log_buf)
        return float(value) / config.eta

    rows = []
    for tree in enumerate_trees(s, cap=enumeration_cap):
        rows.append(
            RankedTree(
                prufer=prufer_encode(tree),
                edges=tree.edges,
                cost_additive=tree_cost_additive(tree, ewm.g, entropies),
                cost_direct=direct_cost(tree) if want_direct else None,
            )
        )
    rows.sort(key=lambda r: r.cost_additive)
    return rows
