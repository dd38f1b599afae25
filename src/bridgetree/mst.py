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
    coupling = sinkhorn_solve(m1, m2, log_kernel, tol=config.tol, max_iter=config.max_iter)
    if not coupling.converged:
        message = (
            f"Sinkhorn stopped at max_iter={config.max_iter} with residual "
            f"{coupling.residual:.3e} > tol={config.tol:.1e}"
        )
        if config.on_nonconverged == "error":
            raise SolverError(message)
        warnings.warn(message, stacklevel=2)
    sb = sb_value(coupling)
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
    w = np.asarray(weights, dtype=float)
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


@dataclass(frozen=True, slots=True)
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
    P = prod M_e / prod mu_v^(deg v - 1) is formed over every entry and
    cost_direct = <P, C/eta + log P> (see _direct_costs, which evaluates
    all trees at once, grouped by the last step of their walk).
    direct="auto" computes it when the tensor has at most cap entries,
    "never" skips it, "always" refuses if it cannot be computed.  A
    supplied ewm must hold an (n_a, n_b) plan and cost for every pair
    a < b and an s x s g.

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
    else:
        _check_edge_solves(ewm, collection.sizes)
    entropies = np.array([entropy(m) for m in collection])
    s = collection.s
    if direct == "always":
        check_tensor_cap(collection.sizes, cap)
    elif direct == "auto" and math.prod(collection.sizes) > cap:
        direct = "never"

    # enumerate_trees checks the cap; the codes it decoded come alongside
    trees = list(enumerate_trees(s, cap=enumeration_cap))
    if direct == "never":
        direct_costs = [None] * len(trees)
    else:
        direct_costs = _direct_costs(collection, ewm, config.eta, trees).tolist()
    rows = [
        RankedTree(
            prufer=code,
            edges=tree.edges,
            cost_additive=tree_cost_additive(tree, ewm.g, entropies),
            cost_direct=cost,
        )
        for tree, code, cost in zip(trees, _prufer_codes(s), direct_costs)
    ]
    rows.sort(key=lambda r: r.cost_additive)
    return rows


def _check_edge_solves(ewm: EdgeWeightMatrix, sizes: tuple[int, ...]) -> None:
    """Refuse an ewm that does not belong to measures of these sizes."""
    s = len(sizes)
    for a in range(1, s + 1):
        for b in range(a + 1, s + 1):
            if (a, b) not in ewm.edges:
                raise ValidationError(f"edge ({a}, {b}) has no pairwise solve")
            es = ewm.edges[(a, b)]
            expected = (sizes[a - 1], sizes[b - 1])
            for name, matrix in (("plan", es.coupling.plan), ("cost", es.cost.matrix)):
                if matrix.shape != expected:
                    raise ValidationError(
                        f"edge ({a}, {b}): {name} has shape {matrix.shape}, expected {expected}"
                    )
    if np.shape(ewm.g) != (s, s):
        raise ValidationError(f"weight matrix shape {np.shape(ewm.g)} != ({s}, {s})")


def _direct_costs(
    collection: MeasureCollection,
    ewm: EdgeWeightMatrix,
    eta: float,
    trees: Sequence[SpanningTree],
) -> np.ndarray:
    """Dense direct cost <P, C/eta + log P> of each tree, in input order.

    Rooted at vertex 1, where rooted_walk starts, a tree coupling factors as
    P = mu_1 * prod over edges p -> c of Q_pc,  Q_pc = M_e / mu_p,
    the conditional of c given its parent p, and so
    W = C/eta + log P = log mu_1 + sum over edges of (C_e/eta + log Q_pc).
    Q_pc and its term T_pc are precomputed once per edge and direction.

    The last child c of a breadth-first walk is a leaf, so every step but
    the last grows P' and W' over all axes but c, N / n_c entries.  The
    trees are grouped by that last step (p, c); per group, Q_pc and T_pc
    are expanded once into full-size buffers with c's axis outermost, so
    that a tree forms P = P' * Q_pc as one contiguous (n_c, N / n_c)
    product and returns
    <P, W> = sum_c P[c, :] . W'  +  <P, T_pc>,
    one matrix-vector product and one dot product; W itself is never
    formed.  Three full-size buffers serve the whole call.  The walks are
    recomputed rather than held.  Logs are taken where the argument is
    positive and are 0 elsewhere: P vanishes there, so the entry
    contributes 0 log 0 = 0.
    """
    s = collection.s
    shape = collection.sizes

    def masked_log(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        np.log(x, out=out, where=x > 0)
        return out

    weights = [m.weights for m in collection]
    # steps[(p, c)]: Q_pc and C_e/eta + log Q_pc, both on the canonical
    # (a, b) axes of the edge whichever end is the parent
    steps = {}
    for (a, b), es in ewm.edges.items():
        plan, cost = es.coupling.plan, es.cost.matrix
        rows_mu, cols_mu = weights[a - 1][:, None], weights[b - 1][None, :]
        for parent, child, mu in ((a, b, rows_mu), (b, a, cols_mu)):
            q = np.divide(plan, mu, out=np.zeros_like(plan), where=mu > 0)
            term = np.where(q > 0, cost / eta + masked_log(q), 0.0)
            steps[(parent, child)] = (on_axes(q, s, a, b), on_axes(term, s, a, b))
    root_plan = on_axes(weights[0], s, 1)
    root_term = on_axes(masked_log(weights[0]), s, 1)

    groups: dict[Edge, list[int]] = {}
    for i, tree in enumerate(trees):
        groups.setdefault(rooted_walk(tree)[-1], []).append(i)
    size = math.prod(shape)
    plan_buf, q_buf, term_buf = np.empty(size), np.empty(size), np.empty(size)
    costs = np.empty(len(trees))
    for last, members in groups.items():
        child = last[1]
        n_c = shape[child - 1]
        # the full tensor with the child's axis moved outermost
        moved = (n_c,) + shape[: child - 1] + shape[child:]
        for buf, factor in zip((q_buf, term_buf), steps[last]):
            np.copyto(buf.reshape(moved), np.moveaxis(np.broadcast_to(factor, shape), child - 1, 0))
        q_mat, t_mat, p_mat = (buf.reshape(n_c, -1) for buf in (q_buf, term_buf, plan_buf))
        for i in members:
            plan, term = root_plan, root_term
            for step in rooted_walk(trees[i])[:-1]:
                q, t = steps[step]
                plan = plan * q
                term = term + t
            np.multiply(q_mat, plan.reshape(1, -1), out=p_mat)
            costs[i] = (p_mat @ term.reshape(-1)).sum() + np.vdot(p_mat, t_mat)
    return costs
