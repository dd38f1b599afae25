"""Optimal coupling structure as a minimum spanning tree.

The structure search over all connected correlation graphs collapses to a
classical MST: the optimum is always a spanning tree (removing a cycle edge
only lowers the decoupled cost), and the KL cost of any tree is
sum_edges g_edge - sum_v H(mu_v) with the tree-independent entropy sum,
where

    g[a, b] = sb_value(mu_a, mu_b) + H(mu_a) + H(mu_b)

is symmetric, nonnegative, and computable from one bimarginal solve per
vertex pair.  So: fill the s(s-1)/2 weights, run an MST algorithm, done.

Both MST routines read one strict total order on edges, (weight, min
index, max index), computed once per call as one integer rank per edge
(_edge_order).  Ranks are distinct, so results are deterministic under ties
and the two algorithms always return the identical tree.
"""

from __future__ import annotations

import itertools
import math
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable, Mapping, Sequence

import numpy as np

from .config import TENSOR_CAP, SolverConfig, as_float_array, check_shape, check_tensor_cap
from .config import check_vertex_count
from .errors import ValidationError
from .measures import DiscreteMeasure, MeasureCollection, entropy
from .sinkhorn import (
    BimarginalCoupling,
    PairwiseCost,
    _aligned_empty,
    build_cost,
    gibbs_kernel,
    rebuild_coupling,
    sb_value,
    sinkhorn_solve,
)
from .trees import (
    DisjointSet,
    Edge,
    SpanningTree,
    _BLOCK,
    _codes,
    _decode_codes,
    enumerate_trees,
    tree_cost_additive,
)

# The smallest edge block n_a * n_b that solve_edges sends to the thread pool:
# on 2 cores, 2 workers beat 1 on every measured draw from 300 x 300 up, and
# lost on every draw up to 150 x 150 (ROADMAP item 8 has the table).
_POOL_MIN_ENTRIES = 300 * 300


@dataclass(frozen=True, eq=False)
class EdgeSolve:
    """One pairwise solve as an O(n) record: weight g, its sb value, the two
    log duals of the plan and the solve's diagnostics.

    seconds is the wall time of the whole edge: cost build, Gibbs kernel,
    Sinkhorn solve and sb value.  transport_cost is <C, P> of the solved
    plan, as eta times the solve's kernel_cost <P, -log K>.  No n1 x n2
    array is kept: cost and coupling rebuild the cost, and the coupling over
    log K, from the measures, config and duals on every access; the
    coupling's plan is bit-identical to the solved one
    (sinkhorn.rebuild_coupling).  The six solve fields are copied, not held
    as one log-K-free coupling record: that would keep its two marginals too,
    about 0.6 kB more an edge at 8 points, alive while a report is encoded.
    """

    g: float
    sb: float
    seconds: float
    log_u1: np.ndarray  # (n1,), -inf at zero-weight points
    log_u2: np.ndarray  # (n2,)
    iterations: int
    residual: float
    converged: bool
    absorptions: int
    transport_cost: float
    m1: DiscreteMeasure
    m2: DiscreteMeasure
    config: SolverConfig

    def rebuild(self) -> tuple[PairwiseCost, BimarginalCoupling]:
        """The cost and the coupling, rebuilt together from one cost build."""
        return rebuild_coupling(
            self.m1, self.m2, self.config.cost, self.config.eta, self.log_u1, self.log_u2,
            iterations=self.iterations, residual=self.residual, converged=self.converged,
            absorptions=self.absorptions,
        )

    @property
    def cost(self) -> PairwiseCost:
        return self.rebuild()[0]

    @property
    def coupling(self) -> BimarginalCoupling:
        return self.rebuild()[1]


@dataclass(frozen=True, eq=False)
class EdgeWeightMatrix:
    """Symmetric s x s weight matrix with per-edge solve attachments."""

    g: np.ndarray
    edges: Mapping[Edge, EdgeSolve]


def edge_weight(
    m1: DiscreteMeasure, m2: DiscreteMeasure, config: SolverConfig, *, workspace=None
) -> EdgeSolve:
    """Solve one bimarginal bridge and return g = sb + H(m1) + H(m2).

    Reads eta, cost, tol and max_iter only: a solve that stops above tol is
    returned with converged=False, and a direct caller checks es.converged.

    The cost is built in workspace[0] and log K written over it (transport_cost
    is eta times the solve's kernel_cost, so the cost is not read again), and K~
    lives in workspace[1]: two n1 x n2 arrays, in a _workspace made here if none
    is given.  No result views it; EdgeSolve.rebuild builds its own arrays.
    """
    start = time.perf_counter()
    work = _workspace(m1.n * m2.n) if workspace is None else workspace
    cost = build_cost(m1, m2, config.cost, workspace=work)
    log_kernel = gibbs_kernel(cost, config.eta, workspace=work[0])
    coupling = sinkhorn_solve(m1, m2, log_kernel, tol=config.tol, max_iter=config.max_iter,
                              workspace=work[1])
    sb = sb_value(coupling)
    g = sb + entropy(m1) + entropy(m2)
    transport_cost = config.eta * coupling.kernel_cost  # with a pruned point, off the plan
    elapsed = time.perf_counter() - start
    return EdgeSolve(
        g=g, sb=sb, seconds=elapsed, log_u1=coupling.log_u1, log_u2=coupling.log_u2,
        iterations=coupling.iterations, residual=coupling.residual,
        converged=coupling.converged, absorptions=coupling.absorptions,
        transport_cost=transport_cost, m1=m1, m2=m2, config=config,
    )


def _workspace(entries: int) -> np.ndarray:
    """Two flat buffers of at least entries floats, the rows of one array, each
    starting on a 64-byte boundary."""
    return _aligned_empty(2, entries + -entries % 8)


def solve_edges(
    collection: MeasureCollection, config: SolverConfig, edges: Sequence[Edge]
) -> dict[Edge, EdgeSolve]:
    """One EdgeSolve per (a, b) edge, keyed by edge in the order of edges.

    Edge solves are independent.  With config.threads > 1, the edges whose
    block n_a * n_b has at least _POOL_MIN_ENTRIES entries run on a pool of
    up to config.threads threads; every smaller edge runs serially in the
    calling thread.  A small block's numpy calls are too short to release
    the GIL for long, so two threads would only hand it back and forth.
    Each edge is solved alone either way, so g is bit-identical at any
    thread count.

    Each worker, the calling thread and each pool thread, solves its edges
    in a workspace of its own (edge_weight), made at its first edge for the
    largest block of the pool's or the caller's edges and freed on return.
    On five 200-point measures the call peaks at 2.18 n x n blocks, not
    3.18, and a loop of such calls takes 0.1 minor page faults each, not
    about 2030 (scripts/fault_loop.py).

    An invalid edge raises a ValidationError that names it.  Edges that stop
    above tol do not stop the others: one message names each, in the order
    of edges, with its residual, and handle_nonconverged judges it once, in
    the calling thread (a SolverError under "error", one warning under "warn").
    """
    local = threading.local()  # this call's workspace in each thread

    def solve(edge: Edge, entries: int) -> EdgeSolve:
        a, b = edge
        if not hasattr(local, "work"):
            local.work = _workspace(entries)
        try:
            return edge_weight(collection[a - 1], collection[b - 1], config, workspace=local.work)
        except ValidationError as exc:
            raise ValidationError(f"edge ({a}, {b}): {exc}") from exc

    entries = {(a, b): collection[a - 1].n * collection[b - 1].n for a, b in edges}
    large = [edge for edge in edges if entries[edge] >= _POOL_MIN_ENTRIES]
    solved = {}
    if config.threads > 1 and len(large) > 1:
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            largest = itertools.repeat(max(entries[edge] for edge in large))
            solved = dict(zip(large, pool.map(solve, large, largest)))
    serial = [edge for edge in edges if edge not in solved]
    largest = max((entries[edge] for edge in serial), default=0)
    solved.update((edge, solve(edge, largest)) for edge in serial)
    failed = [f"edge ({a}, {b}): Sinkhorn stopped at max_iter={config.max_iter} with "
              f"residual {solved[a, b].residual:.3e} > tol={config.tol:.1e}"
              for a, b in edges if not solved[a, b].converged]
    if failed:
        config.handle_nonconverged("; ".join(failed))
    return {edge: solved[edge] for edge in edges}


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
    w = as_float_array(weights, "weight matrix")
    s = len(w) if w.ndim else 0
    check_shape(w, (s, s), "weight matrix")
    off = ~np.eye(check_vertex_count(s), dtype=bool)
    if not np.all(np.isfinite(w[off])):
        raise ValidationError("weight matrix has non-finite off-diagonal entries")
    if not np.allclose(w[off], w.T[off], rtol=0.0, atol=1e-10):  # no MST reads the diagonal
        raise ValidationError("weight matrix must be symmetric")
    return w


def _edge_order(weights) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """(rank, lo, hi): the strict edge order (weight, min index, max index)
    as the symmetric s x s matrix of distinct ranks 0..m-1, m = s(s-1)/2,
    with m on the diagonal; edge r joins the 0-based vertices lo[r] < hi[r]."""
    w = _as_weight_matrix(weights)
    lo, hi = np.triu_indices(len(w), 1)
    order = np.lexsort((hi, lo, w[lo, hi]))
    lo, hi = lo[order], hi[order]
    rank = np.full(w.shape, len(order))
    rank[lo, hi] = rank[hi, lo] = np.arange(len(order))
    return rank, lo, hi


def mst_prim_dense(weights) -> SpanningTree:
    """Dijkstra-Jarnik-Prim on a dense complete graph, O(s^2), grown from
    vertex 1 over the ranks of _edge_order: best holds each vertex's least
    rank to the tree, and m once it is in the tree."""
    rank, lo, hi = _edge_order(weights)
    best = rank[0].copy()  # rank[0, 0] is m: vertex 1 is in the tree
    picked = []
    for _ in range(len(best) - 1):
        v = best.argmin()
        picked.append(best[v])
        best[v] = len(lo)
        np.minimum(best, rank[v], out=best, where=best < len(lo))
    return SpanningTree(len(best), tuple(zip(lo[picked] + 1, hi[picked] + 1)))


def mst_boruvka(weights) -> SpanningTree:
    """Boruvka's algorithm: every component grabs its cheapest incident edge.

    Uses the edge ranks of _edge_order, as mst_prim_dense does, so the two
    always agree (the ranks make the MST unique even with tied weights).
    """
    rank, lo, hi = _edge_order(weights)
    s = len(rank)
    components = DisjointSet(s)
    picked: list[int] = []
    while len(picked) < s - 1:
        root = np.array([components.find(v) for v in range(s)])
        ra, rb = root[lo], root[hi]
        cross = np.flatnonzero(ra != rb)  # the ranks of the edges between components
        cheapest = np.full(s, len(lo))
        np.minimum.at(cheapest, ra[cross], cross)
        np.minimum.at(cheapest, rb[cross], cross)
        chosen = sorted(set(cheapest[root].tolist()))  # each component's edge, once
        for r in chosen:  # all in the unique MST, so each joins two components
            components.union(int(lo[r]), int(hi[r]))
        picked += chosen
    return SpanningTree(s, tuple(zip(lo[picked] + 1, hi[picked] + 1)))


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

    The result carries each pair's weight and O(n) log duals, not its plan:
    the tree cost needs only the weights.  The dense coupling tensor of the
    winning tree is compose_tree_coupling(result.tree, plans, measures),
    with plans the coupling.plan of each tree edge in
    result.weight_matrix.edges, rebuilt from its duals on access.
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


DIRECT_MODES = ("auto", "never", "always")  # rank_trees' direct, and enumerate --direct


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
) -> list[RankedTree]:
    """Cost every spanning tree, cheapest first.

    cost_additive is the degree-free edge-weight sum minus the entropy sum,
    the same value as tree_cost_additive.  cost_direct re-evaluates each
    tree without that shortcut, from the pairwise plans and costs alone:
    cost_direct = <P, C/eta + log P> for the tree coupling
    P = prod M_e / prod mu_v^(deg v - 1), summed by a leaves-first
    recursion over each tree that never forms P (see _direct_evaluator).
    direct="auto" computes it when the tensor is within the tensor cap
    (TENSOR_CAP entries), "never" skips it, "always" refuses if it is not.  A
    supplied ewm must hold, for every pair a < b, a solve of measures a and
    b at config's eta and cost with (n_a,) and (n_b,) duals, and an s x s
    g; each edge's plan and cost are rebuilt once.

    Ties in cost keep lexicographic Prüfer order (the enumeration order,
    via stable sort).
    """
    if direct not in DIRECT_MODES:
        raise ValidationError(f"direct must be {'/'.join(DIRECT_MODES)}, got {direct!r}")
    collection = MeasureCollection(measures)
    s = collection.s
    # enumerate_trees checks its cap at the call, so both caps refuse before
    # any edge is solved; its trees stream into the rows below
    trees = enumerate_trees(s)
    if direct == "always":
        check_tensor_cap(collection.sizes)
    elif direct == "auto" and math.prod(collection.sizes) > TENSOR_CAP:
        direct = "never"
    if ewm is None:
        ewm = build_weight_matrix(collection, config)
    else:
        _check_edge_solves(ewm, collection, config)
    entropies = np.array([entropy(m) for m in collection])
    g = np.asarray(ewm.g, dtype=float).ravel()
    evaluate = None if direct == "never" else _direct_evaluator(collection, ewm, config.eta)

    def blocks():
        # each block is decoded once.  Its keys gather g, and each row sums in
        # canonical edge order, as tree_cost_additive does, so that ties sort
        # alike (a test compares every row bit for bit); its steps are costed
        for start in range(0, s ** (s - 2), _BLOCK):
            codes = _codes(s, start, start + _BLOCK)
            steps, keys = _decode_codes(codes, s)
            additive = (g[keys].sum(axis=1) - entropies.sum()).tolist()
            direct_costs = [None] * len(codes) if evaluate is None else evaluate(steps).tolist()
            yield from zip(codes.tolist(), additive, direct_costs)

    # the trees come last, so that zip takes none past the last code
    rows = [
        RankedTree(prufer=tuple(code), edges=tree.edges, cost_additive=add, cost_direct=cost)
        for (code, add, cost), tree in zip(blocks(), trees)
    ]
    rows.sort(key=lambda r: r.cost_additive)
    return rows


def _same_measure(a: DiscreteMeasure, b: DiscreteMeasure) -> bool:
    return a is b or (np.array_equal(a.support, b.support)
                      and np.array_equal(a.weights, b.weights))


def _check_edge_solves(
    ewm: EdgeWeightMatrix, collection: MeasureCollection, config: SolverConfig
) -> None:
    """Refuse an ewm that was not solved on these measures at config's eta
    and cost; the first offending edge is named."""
    s, sizes = collection.s, collection.sizes
    pairs = [(a, b) for a in range(1, s + 1) for b in range(a + 1, s + 1)]
    for a, b in pairs:
        if (a, b) not in ewm.edges:
            raise ValidationError(f"edge ({a}, {b}) has no pairwise solve")
    for a, b in pairs:
        es = ewm.edges[(a, b)]
        check_shape(es.log_u1, (sizes[a - 1],), f"edge ({a}, {b}): log_u1")
        check_shape(es.log_u2, (sizes[b - 1],), f"edge ({a}, {b}): log_u2")
        if es.config.eta != config.eta:
            raise ValidationError(
                f"edge ({a}, {b}) was solved at eta={es.config.eta}, not at eta={config.eta}"
            )
        if not np.array_equal(es.config.cost, config.cost):  # a kind or a matrix
            raise ValidationError(f"edge ({a}, {b}) was solved with another cost")
        if not (_same_measure(es.m1, collection[a - 1])
                and _same_measure(es.m2, collection[b - 1])):
            raise ValidationError(f"edge ({a}, {b}) was solved on other measures than {a} and {b}")
    check_shape(ewm.g, (s, s), "weight matrix")


def _direct_evaluator(
    collection: MeasureCollection,
    ewm: EdgeWeightMatrix,
    eta: float,
) -> Callable[[np.ndarray], np.ndarray]:
    """The evaluation of one block of peel steps (trees._decode_codes) to
    the dense direct cost <P, C/eta + log P> of each of its trees, in order.

    Rooted at vertex s, a tree coupling factors as
    P = mu_s * prod over edges p -> c of Q_pc,  Q_pc = M_e / mu_p,
    the conditional of c given its parent p, and so
    W = C/eta + log P = log mu_s + sum over edges of T_pc,
    T_pc = C_e/eta + log Q_pc.  Neither P nor W is formed: a sum-product
    recursion runs from the leaves to the root.  Each vertex v carries,
    over the entries of its subtree with i_v = i fixed,
    Z_v(i) = sum prod Q and S_v(i) = sum prod Q * sum T; a leaf has Z = 1
    and S = 0.  A child c sends its parent z = Q_pc Z_c and
    x = (Q_pc * T_pc) Z_c + Q_pc S_c, which the parent folds in as
    (Z_p, S_p) <- (Z_p z, S_p z + Z_p x), and
    <P, W> = sum_i mu_s(i) (log mu_s(i) Z_s(i) + S_s(i)).
    Z is taken from the plans, not assumed to be 1.

    Q_pc and Q_pc * T_pc are formed once per edge and direction, when the
    evaluator is made.  The steps peel each tree leaves-first toward the
    root s, and each peel step makes one contraction per directed edge over
    all trees of the block whose step it is, so no Python runs per tree
    and no array covers the N = prod n entries.  The contractions use
    einsum, whose bits in a row do not depend on the other rows, so each
    tree's cost does not depend on the trees around it.  Logs are taken
    where the argument is positive and are 0 elsewhere: P vanishes there,
    so the entry contributes 0 log 0 = 0.
    """
    s = collection.s

    def masked_log(x: np.ndarray) -> np.ndarray:
        out = np.zeros_like(x)
        np.log(x, out=out, where=x > 0)
        return out

    weights = [m.weights for m in collection]
    # messages[(c - 1) * s + p - 1]: the (2 n_p, 2 n_c) map [[Q, 0], [Q T, Q]]
    # from a child's [Z_c, S_c] to its message [z, x]
    messages = {}
    for (a, b), es in ewm.edges.items():
        pairwise, coupling = es.rebuild()  # one cost build and one plan per edge
        plan, cost = coupling.plan, pairwise.matrix
        for parent, child, joint, c_e in ((a, b, plan, cost), (b, a, plan.T, cost.T)):
            mu = weights[parent - 1][:, None]
            q = np.divide(joint, mu, out=np.zeros_like(joint), where=mu > 0)
            n_p, n_c = q.shape
            message = np.zeros((2 * n_p, 2 * n_c))
            message[:n_p, :n_c] = q
            message[n_p:, :n_c] = np.where(q > 0, q * (c_e / eta + masked_log(q)), 0.0)
            message[n_p:, n_c:] = q
            messages[(child - 1) * s + parent - 1] = message
    mu_s = weights[s - 1]
    at_root = np.concatenate([mu_s * masked_log(mu_s), mu_s])
    return lambda steps: np.einsum("tj,j->t", _sum_product(steps, weights, messages), at_root)


def _sum_product(
    steps: np.ndarray,
    weights: Sequence[np.ndarray],
    messages: Mapping[int, np.ndarray],
) -> np.ndarray:
    """The root's [Z_s, S_s] of each tree peeled as steps, a (trees, 2 n_s)
    array: one einsum per directed edge and step, over the trees whose step
    it is.

    Vertex v keeps one (2, n_v) state [Z_v, S_v] per tree in which it is a
    parent, and row 0, the leaf's [1, 0], which every other tree reads and
    none writes.
    """
    s = len(weights)
    inner = np.zeros((steps.shape[1], s), dtype=bool)
    inner[np.arange(steps.shape[1]), steps % s] = True  # the parents: the code and s
    slots, states = [], []
    for v, w in enumerate(weights):
        rank = np.cumsum(inner[:, v], dtype=np.int32)
        slots.append(np.where(inner[:, v], rank, 0))
        state = np.zeros((int(rank[-1]) + 1, 2, len(w)))
        state[:, 0] = 1.0
        states.append(state)
    for codes in steps:
        # the codes present, ascending; np.unique would cost ~6 ms on its first call
        for code in np.flatnonzero(np.bincount(codes)).tolist():
            group = np.flatnonzero(codes == code)
            c, p = divmod(code, s)
            below, above = slots[c][group], slots[p][group]
            sent = np.einsum("ij,gj->gi", messages[code],
                             states[c][below].reshape(len(group), -1))
            held = states[p][above]
            folded = held * sent[:, None, :len(weights[p])]
            folded[:, 1] += held[:, 0] * sent[:, len(weights[p]):]
            states[p][above] = folded
    return states[-1][1:].reshape(steps.shape[1], -1)
