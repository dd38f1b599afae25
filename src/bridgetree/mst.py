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

import array
import itertools
import math
import threading
import time
from collections.abc import Callable, Iterable, Mapping, Sequence
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .config import TENSOR_CAP, SolverConfig, as_float_array, check_shape, check_tensor_cap
from .config import check_edges, check_vertex_count
from .errors import ValidationError
from .measures import DiscreteMeasure, MeasureCollection, entropy
from .sinkhorn import (
    BimarginalCoupling,
    PairwiseCost,
    _workspace,
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
    (sinkhorn.rebuild_coupling).

    edge_weight returns one record.  The records of a solve_edges call are
    not kept: EdgeStore holds their fields as columns and builds a record,
    with Python scalars and read-only views of its duals, each time one is
    read.
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


class EdgeStore(Mapping):
    """The EdgeSolves of one solve_edges call, held as columns: a read-only
    Mapping[Edge, EdgeSolve] in the order of its edges.

    Each scalar field of EdgeSolve is one typed array over the edges, and
    both log duals of every edge lie in one flat read-only float array, edge
    i's log_u1 and then its log_u2 from offset i.  The measures and config
    are the solve's own, shared by every edge.  store[edge], items() and
    values() build each EdgeSolve when it is read, with Python scalars and
    with log_u1 and log_u2 read-only views of the flat array; in and len
    build none.  An edge keeps 8 (n1 + n2) bytes of duals, 57 of columns, 8
    of offset and its key in the index: about 0.26 kB at 4-12 points in
    2-d, where a kept EdgeSolve costs about 0.72 kB.  A record is built in
    about 2 us.
    """

    __slots__ = ("_index", "_measures", "_config", "_offsets", "_duals", "_g", "_sb",
                 "_seconds", "_iterations", "_residual", "_converged", "_absorptions",
                 "_transport_cost")

    def __init__(self, collection: MeasureCollection, config: SolverConfig,
                 edges: Iterable[Edge]):
        """Columns for the distinct edges, to be filled by _put and then frozen."""
        self._index: dict[Edge, int] = {}
        for edge in edges:
            self._index.setdefault(edge, len(self._index))
        check_edges(collection.s, self._index)
        self._measures = collection
        self._config = config
        sizes = collection.sizes
        self._offsets = array.array("q", itertools.accumulate(
            (sizes[a - 1] + sizes[b - 1] for a, b in self._index), initial=0))
        self._duals = np.empty(self._offsets[-1])
        count = len(self._index)
        self._g, self._sb, self._seconds, self._residual, self._transport_cost = (
            array.array("d", [0.0]) * count for _ in range(5))
        self._iterations, self._absorptions = (array.array("q", [0]) * count for _ in range(2))
        self._converged = array.array("b", [0]) * count

    def _put(self, i: int, es: EdgeSolve) -> None:
        """Copy edge i's record into the columns."""
        self._g[i], self._sb[i], self._seconds[i] = es.g, es.sb, es.seconds
        self._iterations[i], self._residual[i] = es.iterations, es.residual
        self._converged[i], self._absorptions[i] = es.converged, es.absorptions
        self._transport_cost[i] = es.transport_cost
        start = self._offsets[i]
        mid = start + len(es.log_u1)
        self._duals[start:mid] = es.log_u1
        self._duals[mid:self._offsets[i + 1]] = es.log_u2

    def _freeze(self) -> EdgeStore:
        """The store, with its duals, and so every view of them, read-only."""
        self._duals.flags.writeable = False
        return self

    def __getitem__(self, edge: Edge) -> EdgeSolve:
        i = self._index[edge]
        m1, m2 = self._measures[edge[0] - 1], self._measures[edge[1] - 1]
        start = self._offsets[i]
        mid = start + m1.n
        # filled in place of EdgeSolve.__init__, whose frozen setattr of each
        # of the 13 fields alone takes about 2.4 us
        es = object.__new__(EdgeSolve)
        vars(es).update(
            g=self._g[i], sb=self._sb[i], seconds=self._seconds[i],
            log_u1=self._duals[start:mid], log_u2=self._duals[mid:self._offsets[i + 1]],
            iterations=self._iterations[i], residual=self._residual[i],
            converged=self._converged[i] != 0, absorptions=self._absorptions[i],
            transport_cost=self._transport_cost[i], m1=m1, m2=m2, config=self._config,
        )
        return es

    def __contains__(self, edge) -> bool:
        return edge in self._index

    def __iter__(self):
        return iter(self._index)

    def __len__(self) -> int:
        return len(self._index)

    def __repr__(self) -> str:
        return f"EdgeStore({len(self)} edges)"


@dataclass(frozen=True, eq=False)
class EdgeWeightMatrix:
    """Symmetric s x s weight matrix with per-edge solve attachments.

    edges maps each edge to its EdgeSolve.  build_weight_matrix gives the
    EdgeStore of its solve, which builds each record as it is read; any
    mapping with the same records serves rank_trees as well.
    """

    g: np.ndarray
    edges: Mapping[Edge, EdgeSolve]


def edge_weight(
    m1: DiscreteMeasure, m2: DiscreteMeasure, config: SolverConfig, *, workspace=None
) -> EdgeSolve:
    """Solve one bimarginal bridge and return g = sb + H(m1) + H(m2).

    Reads eta, cost, tol and max_iter only: a solve that stops above tol is
    returned with converged=False, and a direct caller checks es.converged.

    The cost, log K and K~ lie in workspace, a sinkhorn._workspace, made here
    if none is given.  transport_cost is eta times the solve's kernel_cost, so
    the cost is not read again, and no result views the workspace:
    EdgeSolve.rebuild builds its own arrays.
    """
    start = time.perf_counter()
    work = _workspace(m1.n * m2.n) if workspace is None else workspace
    cost = build_cost(m1, m2, config.cost, workspace=work)
    log_kernel = gibbs_kernel(cost, config.eta, workspace=work)
    coupling = sinkhorn_solve(m1, m2, log_kernel, tol=config.tol, max_iter=config.max_iter,
                              workspace=work)
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


def solve_edges(
    collection: MeasureCollection, config: SolverConfig, edges: Iterable[Edge]
) -> EdgeStore:
    """The EdgeSolve of each distinct (a, b) edge, as an EdgeStore in the
    order of edges: each record edge_weight returns is copied into its
    columns and dropped, so the call keeps O(n) numbers an edge and no
    record.  An edge that check_edges refuses is refused before any solve.

    Edge solves are independent.  With config.threads > 1, the edges whose
    block n_a * n_b has at least _POOL_MIN_ENTRIES entries, if two or more,
    run on a pool of up to config.threads threads; every other edge runs
    serially in the calling thread.  A small block's numpy calls are too
    short to release the GIL for long, so two threads would only hand it
    back and forth.  Each edge is solved alone either way, so g is
    bit-identical at any thread count.  The store is filled from the
    calling thread only.

    Each thread keeps one sinkhorn._workspace, made for its first edge and
    made again, the old one freed first, only for an edge it cannot hold:
    it ends sized to the largest block that thread solved, and is freed on
    return.  On five 200-point measures the call peaks at 2.18 n x n blocks,
    and a loop of such calls takes 0.1 minor page faults each
    (scripts/fault_loop.py).  Edges that stop above tol do not stop the
    others: one message names each, in the order of edges, with its
    residual, and handle_nonconverged judges it once, in the calling thread
    (a SolverError under "error", one warning under "warn").
    """
    local = threading.local()  # this call's workspace in each thread

    def solve(edge: Edge) -> EdgeSolve:
        a, b = edge
        m1, m2 = collection[a - 1], collection[b - 1]
        work = getattr(local, "work", None)
        if work is None or work[0].size < m1.n * m2.n:  # a row holds too few entries
            work = local.work = None  # the old pair is freed before the new one is made
            work = local.work = _workspace(m1.n * m2.n)
        try:
            return edge_weight(m1, m2, config, workspace=work)
        except ValidationError as exc:
            raise ValidationError(f"edge ({a}, {b}): {exc}") from exc

    store = EdgeStore(collection, config, edges)
    sizes = collection.sizes
    pooled = {i: (a, b) for i, (a, b) in enumerate(store)
              if sizes[a - 1] * sizes[b - 1] >= _POOL_MIN_ENTRIES}
    if config.threads > 1 and len(pooled) > 1:  # the pool takes them if two or more
        with ThreadPoolExecutor(max_workers=config.threads) as pool:
            for i, es in zip(pooled, pool.map(solve, pooled.values())):
                store._put(i, es)
    else:
        pooled = {}
    for i, edge in enumerate(store):
        if i not in pooled:
            store._put(i, solve(edge))
    failed = [f"edge ({a}, {b}): Sinkhorn stopped at max_iter={config.max_iter} with "
              f"residual {store._residual[i]:.3e} > tol={config.tol:.1e}"
              for i, (a, b) in enumerate(store) if not store._converged[i]]
    if failed:
        config.handle_nonconverged("; ".join(failed))
    return store._freeze()


def build_weight_matrix(measures, config: SolverConfig) -> EdgeWeightMatrix:
    """Fill all s(s-1)/2 edge weights; edges is the solve's EdgeStore."""
    collection = MeasureCollection(measures)
    s = collection.s
    store = solve_edges(collection, config, itertools.combinations(range(1, s + 1), 2))
    g = np.zeros((s, s))
    for (a, b), weight in zip(store, store._g):
        g[a - 1, b - 1] = g[b - 1, a - 1] = weight
    return EdgeWeightMatrix(g=g, edges=store)


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
