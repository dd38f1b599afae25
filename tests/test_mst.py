import math
import sys
import threading
import time
import tracemalloc
import warnings
from dataclasses import fields, replace

import numpy as np
import pytest

from bridgetree import (
    DiscreteMeasure,
    SolverConfig,
    SolverError,
    SpanningTree,
    ValidationError,
    build_weight_matrix,
    build_cost,
    compose_tree_coupling,
    cost_tensor,
    edge_weight,
    entropy,
    enumerate_trees,
    gibbs_kernel,
    graph_from_edges,
    mm_sinkhorn,
    msb_objective,
    mst_boruvka,
    mst_prim_dense,
    optimal_msb,
    prufer_decode,
    prufer_encode,
    rank_trees,
    sb_value,
    sinkhorn_solve,
    tree_cost_additive,
)
from bridgetree import mst, sinkhorn
from bridgetree.measures import MeasureCollection
from bridgetree.mst import EdgeSolve, EdgeWeightMatrix
from bridgetree.trees import DisjointSet, _decode_codes
from conftest import random_measure, random_measures
from helpers import (OVER_CAP, OVER_CAP_N, complete_graph, degrees, gaussian_g,
                     gaussian_on_grid, prufer_codes, sb_reference)


def exhaustive_mst(weights):
    """Independent oracle: scan all spanning trees for the minimum total
    weight, breaking ties lexicographically on the sorted edge tuples."""
    s = weights.shape[0]
    best = None
    for tree in enumerate_trees(s):
        total = sum(weights[a - 1, b - 1] for a, b in tree.edges)
        key = (total, tree.edges)
        if best is None or key < best[0]:
            best = (key, tree)
    return best[1]


def kruskal_mst(weights):
    """Independent oracle: Kruskal on DisjointSet over the strict edge order
    (w[a, b], a, b), a < b."""
    s = len(weights)
    components = DisjointSet(s)
    order = sorted((float(weights[a, b]), a, b) for a in range(s) for b in range(a + 1, s))
    return SpanningTree(s, [(a + 1, b + 1) for _, a, b in order if components.union(a, b)])


def direct_costs(collection, ewm, eta, codes):
    """The direct cost of each code's tree, in order: the evaluator applied to
    each _BLOCK of the codes' peel steps."""
    evaluate = mst._direct_evaluator(collection, ewm, eta)
    steps = _decode_codes(codes, collection.s)[0]
    return np.concatenate([evaluate(steps[:, start:start + mst._BLOCK])
                           for start in range(0, len(codes), mst._BLOCK)])


def tree_plans(res):
    """Pairwise plans on the edges of an optimal_msb result's tree."""
    return {e: res.weight_matrix.edges[e].coupling.plan for e in res.tree.edges}


def reference_direct_cost(tree, ewm, measures, eta):
    """The buffered full-tensor evaluator the axis-growing one must reproduce:
    compose prod M_e / prod mu^(deg-1) and the cost sum over every entry,
    then integrate <P, C> + eta <P, log P> and divide by eta."""
    s = tree.s
    shape = tuple(m.n for m in measures)
    plans = {e: es.coupling.plan for e, es in ewm.edges.items()}
    cost_mats = {e: es.cost.matrix for e, es in ewm.edges.items()}
    weights = [m.weights for m in measures]
    cost_buf = np.empty(shape)
    plan_buf = np.empty(shape)
    log_buf = np.empty(shape)
    cost_buf.fill(0.0)
    plan_buf.fill(1.0)
    for a, b in tree.edges:
        view = [1] * s
        view[a - 1] = shape[a - 1]
        view[b - 1] = shape[b - 1]
        np.add(cost_buf, cost_mats[(a, b)].reshape(view), out=cost_buf)
        np.multiply(plan_buf, plans[(a, b)].reshape(view), out=plan_buf)
    deg = degrees(tree)
    for idx in range(s):
        if deg[idx] <= 1:
            continue
        wv = (weights[idx] ** (deg[idx] - 1)).reshape(
            [shape[idx] if k == idx else 1 for k in range(s)]
        )
        np.divide(plan_buf, wv, out=plan_buf, where=wv > 0)
    log_buf.fill(0.0)
    np.log(plan_buf, out=log_buf, where=plan_buf > 0)
    value = np.vdot(plan_buf, cost_buf) + eta * np.vdot(plan_buf, log_buf)
    return float(value) / eta


def dirac(point):
    return DiscreteMeasure([list(point)], [1.0])


class TestEdgeWeight:
    def test_zero_cost_weight_vanishes(self, rng):
        m1 = random_measure(rng, 4)
        m2 = random_measure(rng, 5)
        cfg = SolverConfig(eta=1.0, cost=np.zeros((4, 5)))
        es = edge_weight(m1, m2, cfg)
        assert abs(es.g) <= 1e-10
        assert es.sb == pytest.approx(-entropy(m1) - entropy(m2), abs=1e-10)

    def test_dirac_pair_distance_over_eta(self):
        eta = 0.7
        es = edge_weight(dirac((0.0, 0.0)), dirac((3.0, 4.0)),
                         SolverConfig(eta=eta, cost="euclidean"))
        assert es.g == pytest.approx(5.0 / eta, abs=1e-12)

    def test_uniform_swap_cost_instance(self):
        # frozen from the segment-scan oracle of the 2x2 instance:
        # sb = log(e / (2(1+e))), entropies log 2 each
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        cfg = SolverConfig(eta=1.0, cost=np.array([[0.0, 1.0], [1.0, 0.0]]))
        es = edge_weight(m, m, cfg)
        assert es.sb == pytest.approx(-1.0064088680781682, abs=1e-12)
        assert es.g == pytest.approx(0.3798854930417224, abs=1e-12)

    @pytest.mark.parametrize("eta", [0.5, 2.0, 10.0])
    def test_gaussian_weights_match_closed_form(self, eta):
        # eight 1-d Gaussians, (mean, sd), each on a 100-point grid: every
        # pair's g is within 1e-6 of the continuous closed form
        gaussians = [(0.0, 1.0), (3.0, 2.0), (-2.5, 0.5), (1.0, 1.5),
                     (-1.0, 0.8), (2.0, 0.6), (-3.0, 1.7), (0.5, 1.2)]
        ms = [gaussian_on_grid(mean, sd) for mean, sd in gaussians]
        cfg = SolverConfig(eta=eta)
        errors = {}
        for a in range(len(ms)):
            for b in range(a + 1, len(ms)):
                g = edge_weight(ms[a], ms[b], cfg).g
                errors[(a + 1, b + 1)] = abs(g - gaussian_g(*gaussians[a], *gaussians[b], eta))
        assert {edge: err for edge, err in errors.items() if not err <= 1e-6} == {}

    def test_nonconvergence_raises_by_default(self):
        m1 = DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6])
        m2 = DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])
        cfg = SolverConfig(eta=1.0, max_iter=2)
        with pytest.raises(SolverError, match=r"edge \(1, 2\): .*max_iter"):
            build_weight_matrix([m1, m2], cfg)

    def test_nonconvergence_warn_mode_returns(self):
        m1 = DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6])
        m2 = DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])
        cfg = SolverConfig(eta=1.0, max_iter=2, on_nonconverged="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            ewm = build_weight_matrix([m1, m2], cfg)
        assert len(caught) == 1
        assert not ewm.edges[1, 2].converged

    def test_nonconvergence_warning_names_the_callers_file(self):
        # the warning points at the first frame outside the package, however
        # deep in it the stall is judged
        ms = [DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
              DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])]
        cfg = SolverConfig(eta=1.0, max_iter=2, on_nonconverged="warn")
        for solve in (optimal_msb, build_weight_matrix,
                      lambda ms, cfg: rank_trees(ms, cfg, direct="never")):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                solve(ms, cfg)
            assert [(w.category, w.filename) for w in caught] == [(UserWarning, __file__)]

    def test_stalled_edge_is_returned_under_the_default_error_mode(self):
        # edge_weight leaves on_nonconverged to solve_edges: it returns the
        # stalled solve as it stands, for its caller to judge
        m1 = DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6])
        m2 = DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])
        cfg = SolverConfig(eta=1.0, max_iter=2)
        es = edge_weight(m1, m2, cfg)
        assert not es.converged
        assert es.iterations == 2
        assert es.residual > cfg.tol
        assert math.isfinite(es.g)


class TestSbAgainstADecimalReference:
    """edge_weight's sb against sb_reference, a 50-digit solve of the same edge."""

    def test_sb_is_within_the_residual_times_the_dual_spread(self):
        # 45 edges in criterion 1's shape on [-3, 3]^2, eta 0.5, 1 and 5 in
        # turn.  To first order sb moves by <f, dr> + <g, dc> when the
        # marginals move by (dr, dc), and a TV residual R bounds
        # |<f, dr>| by R (max f - min f) for dr summing to 0; the errors read
        # 2.0e-11 to 2.8e-8, at most 0.57 of that bound.  1e-12 covers the
        # rounding of sb itself.
        rng = np.random.default_rng(777)
        start = time.perf_counter()
        over, skipped = {}, {}
        for k in range(45):
            eta = (0.5, 1.0, 5.0)[k % 3]
            n1, n2 = (int(n) for n in rng.integers(2, 7, size=2))
            m1, m2 = random_measures(rng, [n1, n2], low=-3.0, high=3.0)
            es = edge_weight(m1, m2, SolverConfig(eta=eta))
            try:
                sb, residual = sb_reference(m1.weights, m2.weights, build_cost(m1, m2).matrix,
                                            eta, digits=50)
            except ArithmeticError as exc:
                skipped[k, n1, n2, eta] = str(exc)
                continue
            assert residual <= 1e-25
            bound = es.residual * (np.ptp(es.log_u1) + np.ptp(es.log_u2)) + 1e-12
            if not (es.converged and abs(es.sb - sb) <= bound):
                over[k, n1, n2, eta] = (es.sb, sb, bound)
        assert skipped == {}  # an edge the reference cannot reach is named, never guessed
        assert over == {}
        assert time.perf_counter() - start < 5.0

    def test_reference_values_and_refusals(self):
        # a Dirac pair has one coupling, and sb = C / eta; a 30-digit solve
        # cannot reach a residual of 1e-40 and says so
        sb, residual = sb_reference([1.0], [1.0], [[6.25]], 2.0, digits=40)
        assert sb == 3.125 and residual <= 1e-35
        ms = random_measures(np.random.default_rng(5), [3, 4], low=-3.0, high=3.0)
        cost = build_cost(ms[0], ms[1]).matrix
        with pytest.raises(ArithmeticError, match="residual"):
            sb_reference(ms[0].weights, ms[1].weights, cost, 1.0, digits=30, residual=1e-40)


BAD_TOL_OR_MAX_ITER = [
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"max_iter": float("nan")},
    {"max_iter": float("inf")},
    {"max_iter": 2.5},
    {"tol": None},
    {"max_iter": None},
    {"tol": "1e-9"},
    {"tol": True},
]


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0},
    {"max_iter": 0},
    {"cost": "manhattan"},
    {"cost": "matrix"},
    {"threads": 0},
    {"on_nonconverged": "ignore"},
    *BAD_TOL_OR_MAX_ITER,
    {"threads": 2.5},
    {"threads": float("nan")},
    {"eta": None},
    {"eta": "1"},
    {"eta": 1j},
    {"eta": True},
])
def test_solver_config_rejects(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(**{"eta": 1.0, **kwargs})


@pytest.mark.parametrize("matrix, match", [
    ([[0.0, -1.0], [1.0, 0.0]], "negative cost"),
    ([[0.0, np.inf], [1.0, 0.0]], "non-finite"),
    ([0.0, 1.0], "2-d"),
    ([[0.0, 1.0], [1.0]], "rectangular array of numbers"),
    ([["a", "b"], ["c", "d"]], "rectangular array of numbers"),
])
def test_solver_config_refuses_a_bad_cost_matrix(matrix, match):
    # at construction, before any edge is solved
    with pytest.raises(ValidationError, match=match):
        SolverConfig(eta=1.0, cost=matrix)


def test_cost_matrix_is_held_as_a_read_only_copy():
    matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
    cfg = SolverConfig(eta=1.0, cost=matrix)
    m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
    before = edge_weight(m, m, cfg).g
    assert matrix.flags.writeable
    assert not cfg.cost.flags.writeable
    matrix[0, 1] = 5.0  # the caller's later edit does not reach the config
    assert edge_weight(m, m, cfg).g == before


def test_config_holding_a_cost_matrix_compares_and_hashes_by_identity():
    # field-wise == would compare arrays: "truth value of an array is ambiguous"
    cfg = SolverConfig(eta=1.0, cost=np.zeros((2, 2)))
    twin = SolverConfig(eta=1.0, cost=np.zeros((2, 2)))
    assert cfg == cfg and cfg != twin
    assert len({cfg, twin, cfg}) == 2


@pytest.mark.parametrize("kwargs", BAD_TOL_OR_MAX_ITER)
def test_solvers_reject_bad_tol_and_max_iter(kwargs):
    # unchecked, nan or inf as max_iter never stops the bimarginal loop, and
    # mm_sinkhorn's range() raises a raw TypeError
    ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2
    cost = build_cost(ms[0], ms[1])
    with pytest.raises(ValidationError):
        sinkhorn_solve(ms[0], ms[1], gibbs_kernel(cost, 1.0), **kwargs)
    with pytest.raises(ValidationError):
        mm_sinkhorn(ms, complete_graph(2), {(1, 2): cost.matrix}, eta=1.0, **kwargs)


@pytest.mark.parametrize("eta", [None, "1", 1j, True])
def test_eta_checks_refuse_what_is_not_a_positive_real(eta):
    ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2
    cost = build_cost(ms[0], ms[1])
    with pytest.raises(ValidationError, match="eta must be a positive finite real"):
        gibbs_kernel(cost, eta)
    with pytest.raises(ValidationError, match="eta must be a positive finite real"):
        msb_objective(np.full((2, 2), 0.25), cost.matrix, eta)
    with pytest.raises(ValidationError, match="eta must be a positive finite real"):
        mm_sinkhorn(ms, complete_graph(2), {(1, 2): cost.matrix}, eta=eta)


class TestBuildWeightMatrix:
    def test_pair_counts(self, rng):
        cfg = SolverConfig(eta=2.0)
        assert len(build_weight_matrix(random_measures(rng, [3, 3]), cfg).edges) == 1
        ewm = build_weight_matrix(random_measures(rng, [3] * 5), cfg)
        assert len(ewm.edges) == 10

    def test_matrix_symmetric_nonnegative(self, rng):
        ewm = build_weight_matrix(random_measures(rng, [3, 4, 5]), SolverConfig(eta=1.0))
        assert np.array_equal(ewm.g, ewm.g.T)
        off = ~np.eye(3, dtype=bool)
        assert np.all(ewm.g[off] >= -1e-10)

    def test_permutation_equivariance(self, rng):
        ms = random_measures(rng, [3, 4, 5])
        cfg = SolverConfig(eta=1.5)
        g = build_weight_matrix(ms, cfg).g
        perm = [2, 0, 1]
        g_perm = build_weight_matrix([ms[i] for i in perm], cfg).g
        assert np.allclose(g_perm, g[np.ix_(perm, perm)], atol=1e-12)

    def test_threads_match_serial(self, rng, monkeypatch):
        # at a gate of 0 every edge runs on the pool; at the real one none does
        ms = random_measures(rng, [3, 4, 3, 4])
        serial = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=1))
        for pool_min in (0, mst._POOL_MIN_ENTRIES):
            monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", pool_min)
            threaded = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=4))
            assert np.array_equal(serial.g, threaded.g)

    @pytest.mark.parametrize("threads", [1, 2, 4])
    def test_mixed_blocks_split_between_pool_and_caller(self, rng, monkeypatch, threads):
        # the three blocks between the large measures reach the gate and run on
        # the pool; the seven that involve a small one run in the calling
        # thread.  Neither the split nor the worker count shows in the result.
        n = math.isqrt(mst._POOL_MIN_ENTRIES)
        ms = random_measures(rng, [n, 4, n + 1, 5, n + 2])
        serial = build_weight_matrix(ms, SolverConfig(eta=50.0))
        on_caller = {}
        solve = mst.edge_weight

        def recording(m1, m2, config, **kwargs):
            on_caller[m1.n, m2.n] = threading.current_thread() is threading.main_thread()
            return solve(m1, m2, config, **kwargs)

        monkeypatch.setattr(mst, "edge_weight", recording)
        ewm = build_weight_matrix(ms, SolverConfig(eta=50.0, threads=threads))
        assert list(ewm.edges) == list(serial.edges)
        assert np.array_equal(ewm.g, serial.g)
        for edge, es in ewm.edges.items():
            assert np.array_equal(es.log_u1, serial.edges[edge].log_u1)
            assert np.array_equal(es.log_u2, serial.edges[edge].log_u2)
        pooled = {key for key, caller in on_caller.items() if not caller}
        large = {key for key in on_caller if key[0] * key[1] >= mst._POOL_MIN_ENTRIES}
        assert len(on_caller) == 10 and len(large) == 3
        assert pooled == (large if threads > 1 else set())

    @pytest.mark.parametrize("large", [0, 2])
    def test_blocks_under_the_gate_start_no_pool(self, rng, monkeypatch, large):
        # swarm-sized blocks are GIL-bound, and a lone block over the gate has
        # no other to run beside: at threads=4 both are solved serially
        n = math.isqrt(mst._POOL_MIN_ENTRIES)
        ms = random_measures(rng, [n] * large + [4, 12, 8, 12, 5][large:])
        serial = build_weight_matrix(ms, SolverConfig(eta=50.0))

        def no_pool(*args, **kwargs):
            raise AssertionError("a thread pool was constructed")

        monkeypatch.setattr(mst, "ThreadPoolExecutor", no_pool)
        assert np.array_equal(build_weight_matrix(ms, SolverConfig(eta=50.0, threads=4)).g,
                              serial.g)

    def test_one_log_kernel_per_edge(self, rng, monkeypatch):
        # edge_weight builds log K once and hands it to the solver, which
        # never forms -C/eta itself
        calls = []
        kernel = mst.gibbs_kernel
        monkeypatch.setattr(mst, "gibbs_kernel",
                            lambda *a, **kw: calls.append(a) or kernel(*a, **kw))

        def inside_solver(*args):
            raise AssertionError("sinkhorn.gibbs_kernel called from inside the solver")

        monkeypatch.setattr(sinkhorn, "gibbs_kernel", inside_solver)
        optimal_msb(random_measures(rng, [3, 4, 3, 4]), SolverConfig(eta=1.0))
        assert len(calls) == 6

    def test_failure_names_pair(self):
        ms = [
            DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
            DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3]),
            DiscreteMeasure([[0.0]], [1.0]),
        ]
        with pytest.raises(SolverError, match=r"edge \(1, 2\)"):
            build_weight_matrix(ms, SolverConfig(eta=1.0, max_iter=2))

    @pytest.mark.parametrize("threads", [1, 2])
    def test_failure_names_every_failed_edge(self, monkeypatch, threads):
        # three of the six edges stall at max_iter=2; the error names each
        # with its residual, in edge order, on the serial path and the pool
        # path (every edge reaches a gate of 0)
        ms = [
            DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
            DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3]),
            DiscreteMeasure([[0.0]], [1.0]),
            DiscreteMeasure([[-8.5], [9.5]], [0.2, 0.8]),
        ]
        config = SolverConfig(eta=1.0, max_iter=2, threads=threads)
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            solved = build_weight_matrix(ms, replace(config, on_nonconverged="warn")).edges
        failed = [edge for edge, es in solved.items() if not es.converged]
        assert failed == [(1, 2), (1, 4), (2, 4)]
        monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", 0)
        with pytest.raises(SolverError) as info:
            build_weight_matrix(ms, config)
        assert str(info.value) == "; ".join(
            f"edge ({a}, {b}): Sinkhorn stopped at max_iter=2 with residual "
            f"{solved[a, b].residual:.3e} > tol=1.0e-09" for a, b in failed)

    @pytest.mark.parametrize("threads", [1, 2])
    def test_warn_mode_names_every_stalled_edge_once(self, monkeypatch, threads):
        # the same three stalled edges: warn mode emits one warning per call,
        # with error mode's text, on the serial path and the pool path
        ms = [
            DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
            DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3]),
            DiscreteMeasure([[0.0]], [1.0]),
            DiscreteMeasure([[-8.5], [9.5]], [0.2, 0.8]),
        ]
        config = SolverConfig(eta=1.0, max_iter=2, threads=threads)
        monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", 0)
        with pytest.raises(SolverError) as info:
            build_weight_matrix(ms, config)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            solved = build_weight_matrix(ms, replace(config, on_nonconverged="warn")).edges
        assert [(w.category, str(w.message)) for w in caught] == [(UserWarning, str(info.value))]
        assert [edge for edge, es in solved.items() if not es.converged] == [
            (1, 2), (1, 4), (2, 4)]


class TestLeanEdgeRecords:
    """An EdgeSolve keeps O(n) duals; its cost and plan are rebuilt on access."""

    def test_no_field_is_a_matrix(self, rng):
        es = edge_weight(*random_measures(rng, [4, 5]), SolverConfig(eta=1.0))
        for field in fields(es):
            value = getattr(es, field.name)
            if isinstance(value, np.ndarray):
                assert value.ndim == 1, field.name
            else:  # the measures and config are shared references, not copies
                assert isinstance(value, (int, float, DiscreteMeasure, SolverConfig)), field.name

    @pytest.mark.parametrize("threads", [1, 2])
    def test_rebuilt_plan_is_the_solved_plan(self, rng, threads):
        ms = random_measures(rng, [4, 5, 3])
        w = ms[1].weights.copy()
        w[2] = 0.0  # a zero-weight point: the solve prunes it
        ms[1] = DiscreteMeasure(ms[1].support, w)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=threads))
        for (a, b), es in ewm.edges.items():
            cost = build_cost(ms[a - 1], ms[b - 1])
            solved = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0))
            coupling = es.coupling
            assert np.array_equal(coupling.plan, solved.plan)
            assert np.array_equal(es.cost.matrix, cost.matrix)
            for name in ("log_u1", "log_u2"):
                assert np.array_equal(getattr(coupling, name), getattr(solved, name))
            for name in ("iterations", "residual", "converged", "absorptions"):
                assert getattr(coupling, name) == getattr(solved, name) == getattr(es, name)
            assert es.transport_cost == 1.0 * solved.kernel_cost
            assert es.transport_cost == pytest.approx(
                float((cost.matrix * solved.plan).sum()), rel=1e-12)

    def test_rank_trees_rebuilds_each_edge_once(self, rng, monkeypatch):
        # edge solves build their costs through mst.build_cost; a rebuild
        # goes through sinkhorn.build_cost
        ms = random_measures(rng, [3, 2, 3, 2])
        cfg = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(ms, cfg)
        calls = []
        original = sinkhorn.build_cost
        monkeypatch.setattr(sinkhorn, "build_cost", lambda *a: calls.append(a) or original(*a))
        rank_trees(ms, cfg, ewm=ewm, direct="always")
        assert len(calls) == len(ewm.edges) == 6

    def test_peak_memory_is_one_edge_not_all(self):
        # s=6 uniform 2-d measures at eta 50: what the records keep is O(n),
        # and the peak is one edge's n x n working set, not all 15 plans
        rng = np.random.default_rng(0)
        start = time.perf_counter()
        kept, peak = {}, {}
        for n in (50, 200):
            ms = [DiscreteMeasure(rng.uniform(-10, 10, (n, 2)), np.ones(n)) for _ in range(6)]
            tracemalloc.start()
            try:
                ewm = build_weight_matrix(ms, SolverConfig(eta=50.0))
                kept[n], peak[n] = tracemalloc.get_traced_memory()
                tracemalloc.reset_peak()
                edge_weight(ms[0], ms[1], SolverConfig(eta=50.0))
                one_edge = tracemalloc.get_traced_memory()[1] - kept[n]
            finally:
                tracemalloc.stop()
            del ewm
        assert kept[200] < 6 * kept[50]  # records holding plans grow about 16x
        assert peak[200] < 2 * one_edge  # records holding plans peak at about 7x
        elapsed = time.perf_counter() - start
        assert elapsed < 10.0, f"{elapsed:.1f}s over the 10 s budget"


class TestEdgeStore:
    """solve_edges keeps its records as columns and builds each on access."""

    def test_a_solve_keeps_its_duals_and_a_quarter_kilobyte_an_edge(self):
        # s=48, 4-12 points in 2-d, eta 50: kept EdgeSolves held about 0.72 kB
        # an edge (0.60 kB beyond the duals); the store holds about 0.26 kB
        # (0.14 beyond the duals)
        rng = np.random.default_rng(48)
        ms = [DiscreteMeasure(rng.uniform(-10, 10, (n, 2)), rng.uniform(0.5, 1.5, n))
              for n in rng.integers(4, 13, size=48)]
        config = SolverConfig(eta=50.0)
        build_weight_matrix(ms, config)
        tracemalloc.start()
        try:
            ewm = build_weight_matrix(ms, config)
            kept = tracemalloc.get_traced_memory()[0]
        finally:
            tracemalloc.stop()
        budget = sum(8 * (ms[a - 1].n + ms[b - 1].n) + 256 for a, b in ewm.edges)
        assert len(ewm.edges) == 48 * 47 // 2
        assert kept <= budget, (kept, budget)

    def test_duals_are_read_only_views(self, rng):
        ewm = build_weight_matrix(random_measures(rng, [3, 4, 2]), SolverConfig(eta=1.0))
        es = ewm.edges[1, 2]
        for duals in (es.log_u1, es.log_u2):
            with pytest.raises(ValueError, match="read-only"):
                duals[0] = 0.0
        assert es.log_u1.shape == (3,) and es.log_u2.shape == (4,)

    @pytest.mark.parametrize("threads", [1, 3])
    def test_keys_and_values_keep_the_order_of_edges(self, rng, monkeypatch, threads):
        # with a gate of 0 every edge runs on the pool at threads=3, and its
        # results come back in any order of completion
        ms = random_measures(rng, [5, 2, 7, 3, 6])
        monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", 0)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=threads))
        pairs = [(a, b) for a in range(1, 6) for b in range(a + 1, 6)]
        assert list(ewm.edges) == list(ewm.edges.keys()) == pairs
        assert [edge for edge, _ in ewm.edges.items()] == pairs
        assert [es.g for es in ewm.edges.values()] == [ewm.g[a - 1, b - 1] for a, b in pairs]
        for (a, b), es in ewm.edges.items():
            assert (es.m1, es.m2) == (ms[a - 1], ms[b - 1])
            assert es.log_u1.shape == (ms[a - 1].n,) and es.log_u2.shape == (ms[b - 1].n,)
        tree = prufer_decode([3, 3, 5], 5)
        solved = mst.solve_edges(MeasureCollection(ms), SolverConfig(eta=1.0, threads=threads),
                                 tree.edges[::-1] + tree.edges[:1])
        assert list(solved) == list(tree.edges[::-1])  # a repeated edge is solved once

    def test_records_hold_python_scalars_and_match_edge_weight(self, rng):
        ms = random_measures(rng, [4, 3, 5])
        config = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(ms, config)
        types = {"g": float, "sb": float, "seconds": float, "iterations": int,
                 "residual": float, "converged": bool, "absorptions": int,
                 "transport_cost": float}
        for (a, b), es in ewm.edges.items():
            alone = edge_weight(ms[a - 1], ms[b - 1], config)
            for name, kind in types.items():
                assert type(getattr(es, name)) is kind, name
                if name != "seconds":
                    assert getattr(es, name) == getattr(alone, name), name
            assert np.array_equal(es.log_u1, alone.log_u1)
            assert np.array_equal(es.log_u2, alone.log_u2)
            assert es.config is config

    @pytest.mark.parametrize("edge, message", [
        ((0, 2), r"edge \(0, 2\) out of range for s=3"),
        ((2, 2), r"self-loop \(2, 2\)"),
        ((True, 2), "edge vertex must be an integer, got True"),
        ((1, 4), r"edge \(1, 4\) out of range for s=3"),
        ((1.0, 2), "edge vertex must be an integer, got 1.0"),
    ], ids=["zero", "self-loop", "bool", "above-s", "float"])
    def test_invalid_edges_are_refused_before_any_solve(self, rng, monkeypatch, edge, message):
        solved = []
        monkeypatch.setattr(mst, "edge_weight", lambda *args, **kwargs: solved.append(args))
        collection = MeasureCollection(random_measures(rng, [3, 2, 4]))
        with pytest.raises(ValidationError, match=message):
            mst.solve_edges(collection, SolverConfig(eta=1.0), [(1, 3), edge])
        assert solved == []

    def test_in_and_len_build_no_record(self, rng, monkeypatch):
        ewm = build_weight_matrix(random_measures(rng, [3, 2, 4]), SolverConfig(eta=1.0))
        built = []
        getitem = mst.EdgeStore.__getitem__
        monkeypatch.setattr(mst.EdgeStore, "__getitem__",
                            lambda store, edge: built.append(edge) or getitem(store, edge))
        assert len(ewm.edges) == 3 and (1, 3) in ewm.edges and (3, 1) not in ewm.edges
        assert built == []
        with pytest.raises(KeyError):
            ewm.edges[3, 1]


class TestEdgeWorkspace:
    """solve_edges solves each worker's edges in one two-buffer workspace."""

    @pytest.mark.parametrize("pool_min", [None, 0])
    def test_mixed_sizes_match_owned_solves(self, rng, monkeypatch, pool_min):
        # in edge order a small block follows a larger one, so stale entries
        # lie beyond its slice; two measures have zero-weight points.  With
        # a gate of 0 every edge runs on the pool, one workspace per thread.
        ms = random_measures(rng, [12, 3, 9, 2, 7, 1])
        for v, zero in ((0, 4), (2, 0)):
            w = ms[v].weights.copy()
            w[zero] = 0.0
            ms[v] = DiscreteMeasure(ms[v].support, w)
        config = SolverConfig(eta=0.5, threads=1 if pool_min is None else 3)
        if pool_min is not None:
            monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", pool_min)
        ewm = build_weight_matrix(ms, config)
        for (a, b), es in ewm.edges.items():
            m1, m2 = ms[a - 1], ms[b - 1]
            owned = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), config.eta))
            assert es.g == sb_value(owned) + entropy(m1) + entropy(m2)
            assert np.array_equal(es.log_u1, owned.log_u1)
            assert np.array_equal(es.log_u2, owned.log_u2)
            assert es.transport_cost == config.eta * owned.kernel_cost

    def test_pool_threads_never_share_a_workspace(self, rng, monkeypatch):
        # 28 edges of mixed sizes on 4 threads (more than the cores), with the
        # interpreter switching threads every microsecond: a workspace shared
        # between two threads would mix their blocks and move some weight
        ms = random_measures(rng, [9, 3, 12, 5, 2, 11, 7, 4])
        serial = build_weight_matrix(ms, SolverConfig(eta=1.0))
        monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", 0)
        interval = sys.getswitchinterval()
        start = time.perf_counter()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                threaded = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=4))
                assert np.array_equal(threaded.g, serial.g)
        finally:
            sys.setswitchinterval(interval)
        assert time.perf_counter() - start < 30.0

    @pytest.mark.parametrize("threads, pool_min", [(1, 0), (2, 0), (3, 0), (3, 30)])
    def test_each_threads_workspace_fits_the_blocks_it_solved(self, rng, monkeypatch,
                                                              threads, pool_min):
        # every request of a thread is for an edge its pair could not hold, so
        # requests grow, and its last pair is the one its largest block needs
        # (rows padded to 8 entries).  A gate of 30 splits the edges between
        # the pool and the calling thread.
        ms = random_measures(rng, [12, 3, 9, 2, 7, 1, 10, 5])
        serial = build_weight_matrix(ms, SolverConfig(eta=1.0))
        requests, blocks = {}, {}
        workspace, solve = mst._workspace, mst.edge_weight

        def recorded_workspace(entries):
            work = workspace(entries)
            requests.setdefault(threading.get_ident(), []).append((entries, work.shape[1]))
            return work

        def recorded_solve(m1, m2, config, *, workspace):
            blocks.setdefault(threading.get_ident(), []).append(m1.n * m2.n)
            assert workspace[0].size >= m1.n * m2.n
            return solve(m1, m2, config, workspace=workspace)

        monkeypatch.setattr(mst, "_workspace", recorded_workspace)
        monkeypatch.setattr(mst, "edge_weight", recorded_solve)
        monkeypatch.setattr(mst, "_POOL_MIN_ENTRIES", pool_min)
        threaded = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=threads))
        assert np.array_equal(threaded.g, serial.g)
        assert requests.keys() == blocks.keys()
        assert (threading.get_ident() in blocks) == (threads == 1 or pool_min > 0)
        for thread, solved in blocks.items():
            held, expected = 0, []
            for entries in solved:
                if entries > held:
                    expected.append(entries)
                    held = entries + -entries % 8
            got = [entries for entries, _ in requests[thread]]
            assert got == expected and got == sorted(set(got))
            assert got[-1] <= max(solved) <= requests[thread][-1][1]
            assert requests[thread][-1][1] == workspace(max(solved)).shape[1]

    @pytest.mark.parametrize("sizes, threads, bound", [
        ((100, 200, 300, 400), 1, 2.1e6),
        ((400, 400, 100, 300, 300), 2, 4.8e6),
    ], ids=["growing-serial", "pool-of-two"])
    def test_a_regrow_frees_the_old_pair_first(self, sizes, threads, bound):
        # serial, each edge is larger than the last: one 120 000-entry pair,
        # 1.92 MB, with the old pair kept alongside 3.2 MB.  On two pool
        # threads the pairs fit 160 000 and 120 000 entries, 4.48 MB (4.63
        # measured); both sized to the largest pooled block read 5.27 MB.
        rng = np.random.default_rng(13)
        ms = [DiscreteMeasure(rng.uniform(-10, 10, (n, 1)), np.ones(n)) for n in sizes]
        config = SolverConfig(eta=20.0, threads=threads)
        build_weight_matrix(ms, config)
        tracemalloc.start()
        try:
            build_weight_matrix(ms, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= bound

    def test_edge_in_a_workspace_allocates_no_block(self):
        # the cost, log K and K~ all live in the workspace: what the edge
        # allocates is its O(n) vectors and records, under a tenth of one
        # 200 x 200 block (about 0.04 measured); without one it makes its own
        # two blocks
        rng = np.random.default_rng(11)
        n = 200
        m1, m2 = (DiscreteMeasure(rng.uniform(-10, 10, (n, 1)), np.ones(n)) for _ in range(2))
        config = SolverConfig(eta=20.0)
        work = sinkhorn._workspace(n * n)
        edge_weight(m1, m2, config, workspace=work)
        peaks = []
        for kwargs in ({"workspace": work}, {}):
            tracemalloc.start()
            try:
                edge_weight(m1, m2, config, **kwargs)
                peaks.append(tracemalloc.get_traced_memory()[1] / (n * n * 8))
            finally:
                tracemalloc.stop()
        assert peaks[0] < 0.1
        assert 2.0 < peaks[1] < 2.1

    def test_weight_matrix_peaks_at_two_blocks(self):
        # five 200-point 1-d measures at eta 20, the gmm_n200 shape: one
        # workspace of two n x n buffers for all ten edges reads 2.18 blocks;
        # three arrays an edge (cost, log K, K~) read 3.18.  The budget of 2.5
        # leaves 0.32 block of headroom and refuses any third block.
        rng = np.random.default_rng(12)
        n = 200
        ms = [DiscreteMeasure(rng.uniform(-10, 10, (n, 1)), np.ones(n)) for _ in range(5)]
        config = SolverConfig(eta=20.0)
        build_weight_matrix(ms, config)
        tracemalloc.start()
        try:
            build_weight_matrix(ms, config)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2.5 * n * n * 8


class TestMstAlgorithms:
    def test_three_vertex_hand_instance(self):
        w = np.array([[0.0, 1.0, 2.0], [1.0, 0.0, 3.0], [2.0, 3.0, 0.0]])
        tree = mst_prim_dense(w)
        assert tree.edges == ((1, 2), (1, 3))
        assert sum(w[a - 1, b - 1] for a, b in tree.edges) == pytest.approx(3.0)

    def test_equal_weights_tie_break_to_star_at_one(self):
        w = np.ones((4, 4))
        np.fill_diagonal(w, 0.0)
        assert mst_prim_dense(w).edges == ((1, 2), (1, 3), (1, 4))
        assert mst_boruvka(w).edges == ((1, 2), (1, 3), (1, 4))

    def test_two_vertices(self):
        w = np.array([[0.0, 2.0], [2.0, 0.0]])
        assert mst_boruvka(w).edges == ((1, 2),)
        assert mst_prim_dense(w).edges == ((1, 2),)

    def test_prim_matches_exhaustive_scan(self, rng):
        for _ in range(20):
            s = 5
            sym = rng.uniform(0, 10, (s, s))
            w = (sym + sym.T) / 2
            np.fill_diagonal(w, 0.0)
            assert mst_prim_dense(w) == exhaustive_mst(w)

    def test_boruvka_agrees_with_prim(self, rng):
        for _ in range(50):
            s = int(rng.integers(2, 9))
            sym = rng.uniform(0, 10, (s, s))
            w = (sym + sym.T) / 2
            np.fill_diagonal(w, 0.0)
            assert mst_boruvka(w) == mst_prim_dense(w)

    @pytest.mark.parametrize("diagonal", [0.0, np.inf, np.nan])
    def test_tied_weights_match_kruskal(self, rng, diagonal):
        # weights in {0, 1, 2}: most edges tie, so the index order decides
        for s in range(2, 13):
            for _ in range(10):
                w = np.triu(rng.integers(0, 3, (s, s)), 1).astype(float)
                w += w.T
                np.fill_diagonal(w, diagonal)
                expected = kruskal_mst(w)
                assert mst_prim_dense(w) == expected
                assert mst_boruvka(w) == expected

    def test_large_instance_matches_kruskal(self, rng):
        sym = rng.uniform(0, 10, (300, 300))
        w = (sym + sym.T) / 2
        assert mst_prim_dense(w) == mst_boruvka(w) == kruskal_mst(w)

    def test_shift_invariance(self, rng):
        s = 6
        sym = rng.uniform(0, 10, (s, s))
        w = (sym + sym.T) / 2
        np.fill_diagonal(w, 0.0)
        base = mst_prim_dense(w)
        for c in (-5.0, 3.0, 100.0):
            shifted = w + c
            np.fill_diagonal(shifted, 0.0)
            assert mst_prim_dense(shifted) == base
            assert mst_boruvka(shifted) == base

    def test_diagonal_is_never_read(self, rng):
        sym = rng.uniform(0, 10, (5, 5))
        w = (sym + sym.T) / 2
        trees = set()
        for diagonal in (0.0, np.inf, np.nan):
            np.fill_diagonal(w, diagonal)
            trees |= {mst_prim_dense(w), mst_boruvka(w)}
        assert len(trees) == 1

    def test_nonfinite_rejected(self):
        w = np.array([[0.0, np.inf], [np.inf, 0.0]])
        with pytest.raises(ValidationError):
            mst_prim_dense(w)

    def test_asymmetric_rejected(self):
        w = np.array([[0.0, 1.0], [2.0, 0.0]])
        with pytest.raises(ValidationError, match="symmetric"):
            mst_boruvka(w)

    @pytest.mark.parametrize("mst", [mst_prim_dense, mst_boruvka])
    @pytest.mark.parametrize("w, match", [
        (np.zeros((2, 3)), r"weight matrix has shape \(2, 3\), expected \(2, 2\)"),
        (np.zeros(4), r"weight matrix has shape \(4,\), expected \(4, 4\)"),
        (np.zeros((1, 1)), "vertex count s must be an integer >= 2, got 1"),
        ([[0.0, 1.0], [1.0]], "weight matrix must be a rectangular array of numbers"),
        ([["a", "b"], ["c", "d"]], "weight matrix must be a rectangular array of numbers"),
    ], ids=["w0-square", "w1-square", "w2-at least 2", "w3-ragged", "w4-not numbers"])
    def test_shape_rejected(self, mst, w, match):
        with pytest.raises(ValidationError, match=match):
            mst(w)


class TestOptimalMsb:
    def test_two_measures_single_edge(self, rng):
        ms = random_measures(rng, [3, 4])
        res = optimal_msb(ms, SolverConfig(eta=1.0))
        assert res.tree.edges == ((1, 2),)
        # degree terms vanish at s=2: total cost is the bare bridge value
        assert res.total_cost == pytest.approx(res.weight_matrix.edges[(1, 2)].sb, abs=1e-12)

    def test_dirac_satellites_pick_star(self):
        center = dirac((0.0, 0.0))
        satellites = [dirac((2.0, 0.0)), dirac((0.0, 2.0)), dirac((-2.0, 0.0)),
                      dirac((0.0, -2.0))]
        eta = 0.7
        res = optimal_msb([center] + satellites, SolverConfig(eta=eta, cost="euclidean"))
        assert res.tree.edges == ((1, 2), (1, 3), (1, 4), (1, 5))
        assert res.total_cost == pytest.approx(8.0 / eta, abs=1e-10)

    def test_breakdown_identity(self, rng):
        ms = random_measures(rng, [3, 4, 3, 2])
        res = optimal_msb(ms, SolverConfig(eta=2.0))
        total = sum(res.weight_matrix.g[a - 1, b - 1] for a, b in res.tree.edges)
        total -= res.entropies.sum()
        assert abs(res.total_cost - total) <= 1e-12

    def test_composed_tree_tensor(self, rng):
        ms = random_measures(rng, [3, 3, 3])
        res = optimal_msb(ms, SolverConfig(eta=1.0))
        tensor = compose_tree_coupling(res.tree, tree_plans(res), ms)
        assert tensor.shape == (3, 3, 3)
        assert tensor.sum() == pytest.approx(1.0, abs=1e-8)

    def test_compose_respects_cap(self, rng):
        # outer-product plans stand in for pairwise solves of 216-point measures
        ms = random_measures(rng, [OVER_CAP_N] * 3)
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans = {(a, b): np.outer(ms[a - 1].weights, ms[b - 1].weights) for a, b in tree.edges}
        with pytest.raises(ValidationError, match=OVER_CAP):
            compose_tree_coupling(tree, plans, ms)

    def test_total_cost_matches_dense_objective_of_composed_tensor(self, rng):
        # structure-free consistency: edge-weight total vs the transport
        # objective integrated over the composed coupling
        ms = random_measures(rng, [3, 4, 3], low=-5, high=5)
        eta = 1.5
        res = optimal_msb(ms, SolverConfig(eta=eta))
        tensor = compose_tree_coupling(res.tree, tree_plans(res), ms)
        graph = graph_from_edges(3, res.tree.edges)
        costs = {e: res.weight_matrix.edges[e].cost.matrix for e in res.tree.edges}
        direct = msb_objective(tensor, cost_tensor(graph, costs, shape=(3, 4, 3)), eta) / eta
        assert res.total_cost == pytest.approx(direct, rel=1e-5)

    def test_boruvka_variant_matches(self, rng):
        ms = random_measures(rng, [3, 3, 4, 2])
        cfg = SolverConfig(eta=1.0)
        assert optimal_msb(ms, cfg).tree == optimal_msb(ms, cfg, mst_algorithm="boruvka").tree

    def test_unknown_algorithm(self, rng):
        ms = random_measures(rng, [2, 2])
        with pytest.raises(ValidationError):
            optimal_msb(ms, SolverConfig(eta=1.0), mst_algorithm="kruskal")


class TestDenseArgminEquivalence:
    @pytest.mark.parametrize("sizes", [[3, 2, 3], [2, 3, 2, 2]])
    def test_algorithm_tree_minimizes_dense_objective(self, rng, sizes):
        # Independent oracle: solve the dense multimarginal problem on every
        # spanning tree and take the argmin of the transport objective.
        ms = random_measures(rng, sizes, low=-5, high=5)
        eta = 1.0
        cfg = SolverConfig(eta=eta)
        result = optimal_msb(ms, cfg)
        scores = []
        for tree in enumerate_trees(len(sizes)):
            graph = graph_from_edges(len(sizes), tree.edges)
            costs = {
                (a, b): build_cost(ms[a - 1], ms[b - 1]).matrix for a, b in tree.edges
            }
            mm = mm_sinkhorn(ms, graph, costs, eta)
            assert mm.converged
            value = msb_objective(mm.tensor, cost_tensor(graph, costs, shape=sizes), eta) / eta
            scores.append((value, tree.edges))
        scores.sort()
        best_value, best_edges = scores[0]
        if scores[1][0] - best_value > 1e-6:
            assert result.tree.edges == best_edges
        else:
            matches = [e for v, e in scores if v - best_value <= 1e-6]
            assert result.tree.edges in matches


def refuse_weight_matrix(monkeypatch):
    """Fail the test if rank_trees starts to solve its edges."""
    def no_solve(*args, **kwargs):
        raise AssertionError("edges solved before the caps were checked")
    monkeypatch.setattr(mst, "build_weight_matrix", no_solve)


class TestRankTrees:
    def test_rank_one_is_solver_tree(self, rng):
        ms = random_measures(rng, [3, 3, 3, 3])
        cfg = SolverConfig(eta=1.0)
        res = optimal_msb(ms, cfg)
        rows = rank_trees(ms, cfg, ewm=res.weight_matrix)
        assert len(rows) == 16
        assert rows[0].edges == res.tree.edges
        assert rows[0].cost_additive == pytest.approx(res.total_cost, abs=1e-12)

    def test_columns_agree(self, rng):
        ms = random_measures(rng, [3, 3, 3], low=-5, high=5)
        cfg = SolverConfig(eta=1.0)
        rows = rank_trees(ms, cfg)
        for row in rows:
            assert row.cost_direct is not None
            assert abs(row.cost_additive - row.cost_direct) <= 1e-6

    @pytest.mark.parametrize("sizes,eta", [
        ([2, 3, 4, 5], 1.0),
        ([3, 4, 2, 5, 3], 5.0),
        ([5, 3, 4], 0.5),
        ([3, 4], 1.0),
        ([1, 3, 2, 4], 2.0),  # a one-point measure
        ([2, 2, 3, 2, 2, 2], 1.0),  # s=6: all 25 possible peel steps c -> p, c != s, occur
        ([12, 9, 10, 11], 2.0),  # N = 11880 entries against 16 trees
        ([3, 2, 4, 2, 5], 1.0),  # the largest measure is the root, vertex s
    ])
    @pytest.mark.parametrize("zero_weight", [False, True])
    def test_direct_matches_reference_evaluator(self, rng, sizes, eta, zero_weight):
        ms = random_measures(rng, sizes)
        if zero_weight:
            # a support point of zero mass on the largest measure and on the
            # first: its conditional rows and its log terms must be masked
            for v in (0, int(np.argmax(sizes))):
                if sizes[v] == 1:
                    continue  # a single point keeps all the mass
                w = ms[v].weights.copy()
                w[1] = 0.0
                ms[v] = DiscreteMeasure(ms[v].support, w)
        cfg = SolverConfig(eta=eta)
        ewm = build_weight_matrix(ms, cfg)
        rows = rank_trees(ms, cfg, ewm=ewm, direct="always")
        assert len(rows) == len(sizes) ** (len(sizes) - 2)
        for row in rows:
            tree = SpanningTree(len(sizes), row.edges)
            assert row.prufer == prufer_encode(tree)
            expected = reference_direct_cost(tree, ewm, ms, eta)
            assert abs(row.cost_direct - expected) <= 1e-12

    def test_direct_matches_reference_evaluator_on_a_sample_at_s7(self):
        # 16807 trees, so the evaluator runs several blocks; a seeded sample
        # from all of them is checked, with a zero-weight point on the root
        rng = np.random.default_rng(7)
        ms = random_measures(rng, [2, 3, 2, 3, 2, 3, 4])
        w = ms[6].weights.copy()
        w[2] = 0.0
        ms[6] = DiscreteMeasure(ms[6].support, w)
        ewm = build_weight_matrix(ms, SolverConfig(eta=2.0))
        codes = prufer_codes(7)
        assert len(codes) > 4 * mst._BLOCK
        costs = direct_costs(MeasureCollection(ms), ewm, 2.0, codes)
        for i in rng.choice(len(codes), size=40, replace=False):
            tree = prufer_decode(codes[i].tolist(), 7)
            assert abs(costs[i] - reference_direct_cost(tree, ewm, ms, 2.0)) <= 1e-12

    def test_direct_reads_plans_and_costs_only(self, rng):
        # g and sb replaced by NaN: cost_additive is lost, cost_direct is not
        ms = random_measures(rng, [2, 3, 2, 3])
        cfg = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(ms, cfg)
        blind = EdgeWeightMatrix(
            g=np.full_like(ewm.g, np.nan),
            edges={e: replace(es, g=np.nan, sb=np.nan) for e, es in ewm.edges.items()},
        )
        rows = rank_trees(ms, cfg, ewm=ewm, direct="always")
        blind_rows = rank_trees(ms, cfg, ewm=blind, direct="always")
        assert all(np.isnan(r.cost_additive) for r in blind_rows)
        assert ({r.prufer: r.cost_direct for r in blind_rows}
                == {r.prufer: r.cost_direct for r in rows})

    def test_direct_costs_do_not_depend_on_visiting_order(self, rng):
        # each tree's recursion follows its own peel whatever the trees
        # around it, so reversing or subsetting the input moves no bit
        ms = random_measures(rng, [3, 2, 3, 2, 3])
        w = ms[2].weights.copy()
        w[0] = 0.0
        ms[2] = DiscreteMeasure(ms[2].support, w)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        collection = MeasureCollection(ms)
        codes = prufer_codes(5)
        costs = direct_costs(collection, ewm, 1.0, codes)
        reversed_costs = direct_costs(collection, ewm, 1.0, codes[::-1])
        assert np.array_equal(reversed_costs, costs[::-1])
        subset = rng.permutation(len(codes))[:40]
        subset_costs = direct_costs(collection, ewm, 1.0, codes[subset])
        assert np.array_equal(subset_costs, costs[subset])

    def test_direct_costs_hold_no_full_size_buffer(self, rng):
        # five 8-point measures: N = 32768 entries.  The evaluator holds
        # O(n^2) per edge and O(n) per tree and peaks at about 0.54 N
        # doubles; one full-size buffer would add N more
        ms = random_measures(rng, [8] * 5)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        collection = MeasureCollection(ms)
        codes = prufer_codes(5)
        full = 8 ** 5 * 8  # bytes of one N-entry float array
        tracemalloc.start()
        try:
            direct_costs(collection, ewm, 1.0, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.5 * full

    def test_direct_costs_keep_one_block_of_state(self, rng):
        # s=7: 16807 trees.  [Z_v, S_v] of every vertex and tree is 2 * sum(n)
        # doubles a tree, 5.6 MB here; held for all trees at once, even with
        # the shared leaf rows, the call peaks at about 5.3 MB, and a block
        # of trees at a time keeps it near 1.1 MB
        ms = random_measures(rng, [3] * 7)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        collection = MeasureCollection(ms)
        codes = prufer_codes(7)
        all_trees = len(codes) * 2 * 21 * 8
        tracemalloc.start()
        try:
            direct_costs(collection, ewm, 1.0, codes)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < all_trees / 2

    def test_each_code_is_decoded_once(self, rng, monkeypatch):
        # one decode per block feeds both columns and the rows;
        # enumerate_trees decodes through trees._decode_codes, not counted here
        ms = random_measures(rng, [2] * 7)
        cfg = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(ms, cfg)
        decoded, rebuilt = [], []
        decode, rebuild = mst._decode_codes, EdgeSolve.rebuild
        monkeypatch.setattr(mst, "_decode_codes",
                            lambda codes, s: decoded.append(len(codes)) or decode(codes, s))
        monkeypatch.setattr(EdgeSolve, "rebuild", lambda es: rebuilt.append(es) or rebuild(es))
        rank_trees(ms, cfg, ewm=ewm, direct="always")
        assert sum(decoded) == 7 ** 5
        assert len(rebuilt) == len(ewm.edges) == 21
        rebuilt.clear()
        rows = rank_trees(ms, cfg, ewm=ewm, direct="never")
        assert len(rows) == 7 ** 5 and rebuilt == []

    def test_ewm_from_another_solve_is_refused(self, rng):
        ms = random_measures(rng, [3, 3, 3])
        cfg = SolverConfig(eta=5.0)
        ewm = build_weight_matrix(ms, cfg)
        with pytest.raises(ValidationError,
                           match=r"edge \(1, 2\) was solved at eta=1.0, not at eta=5.0"):
            rank_trees(ms, cfg, ewm=build_weight_matrix(ms, SolverConfig(eta=1.0)),
                       direct="always")
        matrix = build_cost(ms[0], ms[1]).matrix
        by_matrix = build_weight_matrix(ms, SolverConfig(eta=5.0, cost=matrix))
        for solved, asked in ((ewm, SolverConfig(eta=5.0, cost="euclidean")),
                              (ewm, SolverConfig(eta=5.0, cost=matrix)),
                              (by_matrix, SolverConfig(eta=5.0, cost=2.0 * matrix))):
            with pytest.raises(ValidationError,
                               match=r"edge \(1, 2\) was solved with another cost"):
                rank_trees(ms, asked, ewm=solved, direct="never")
        other = random_measure(rng, 3)
        moved = DiscreteMeasure(ms[1].support + 1.0, ms[1].weights)
        reweighted = DiscreteMeasure(ms[2].support, ms[2].weights[::-1])
        for swapped, edge in (([other, ms[1], ms[2]], r"\(1, 2\)"),
                              ([ms[0], moved, ms[2]], r"\(1, 2\)"),
                              ([ms[0], ms[1], reweighted], r"\(1, 3\)")):
            with pytest.raises(ValidationError,
                               match=edge + " was solved on other measures"):
                rank_trees(swapped, cfg, ewm=ewm, direct="never")
        # equal values pass: fresh measures and fresh configs of the same eta
        # and cost, a kind or an equal matrix
        fresh = [DiscreteMeasure(m.support.copy(), m.weights.copy()) for m in ms]
        assert len(rank_trees(fresh, SolverConfig(eta=5.0), ewm=ewm, direct="always")) == 3
        rows = rank_trees(ms, SolverConfig(eta=5.0, cost=matrix.copy()), ewm=by_matrix)
        assert len(rows) == 3

    @pytest.mark.parametrize("s", [3, 5, 7])
    def test_cost_additive_is_tree_cost_additive(self, rng, s):
        # a g of mixed magnitudes: each row must carry tree_cost_additive's
        # value bit for bit, so the stable sort sees the same ties
        ms = random_measures(rng, [2] * s)
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        g = rng.uniform(0, 10, (s, s)) * 10.0 ** rng.integers(-6, 7, (s, s))
        g = g + g.T
        rows = rank_trees(ms, SolverConfig(eta=1.0), direct="never",
                          ewm=EdgeWeightMatrix(g=g, edges=ewm.edges))
        entropies = [entropy(m) for m in ms]
        assert len(rows) == s ** (s - 2)
        for row in rows:
            tree = SpanningTree(s, row.edges)
            assert row.cost_additive == tree_cost_additive(tree, g, entropies)

    def test_mismatched_ewm_names_edge(self, rng):
        cfg = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(random_measures(rng, [3, 3, 3]), cfg)
        ms = random_measures(rng, [4, 3, 3])
        with pytest.raises(ValidationError,
                           match=r"edge \(1, 2\): log_u1 has shape \(3,\), expected \(4,\)"):
            rank_trees(ms, cfg, ewm=ewm, direct="always")
        with pytest.raises(ValidationError,
                           match=r"edge \(1, 2\): log_u2 has shape \(3,\), expected \(4,\)"):
            rank_trees(random_measures(rng, [3, 4, 3]), cfg, ewm=ewm, direct="always")
        with pytest.raises(ValidationError, match=r"edge \(1, 4\) has no pairwise solve"):
            rank_trees(random_measures(rng, [3, 3, 3, 3]), cfg, ewm=ewm, direct="never")

    def test_unknown_direct_mode(self, rng):
        with pytest.raises(ValidationError, match="sometimes"):
            rank_trees(random_measures(rng, [2, 2]), SolverConfig(eta=1.0), direct="sometimes")

    def test_direct_never_skips_column(self, rng):
        ms = random_measures(rng, [2, 2, 2])
        rows = rank_trees(ms, SolverConfig(eta=1.0), direct="never")
        assert all(row.cost_direct is None for row in rows)

    def test_direct_always_refuses_over_cap(self, rng, monkeypatch):
        ms = random_measures(rng, [OVER_CAP_N] * 3)
        refuse_weight_matrix(monkeypatch)
        with pytest.raises(ValidationError, match=OVER_CAP):
            rank_trees(ms, SolverConfig(eta=1.0), direct="always")

    def test_enumeration_cap_refuses_before_any_solve(self, rng, monkeypatch):
        ms = random_measures(rng, [2] * 9)
        refuse_weight_matrix(monkeypatch)
        with pytest.raises(ValidationError, match="s=9 exceeds the enumeration cap"):
            rank_trees(ms, SolverConfig(eta=1.0))

    def test_direct_auto_over_cap_skips_column(self, rng, monkeypatch):
        ms = random_measures(rng, [3, 3, 3])
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        monkeypatch.setattr(mst, "TENSOR_CAP", 26)
        rows = rank_trees(ms, SolverConfig(eta=1.0), ewm=ewm, direct="auto")
        assert all(row.cost_direct is None for row in rows)
        monkeypatch.setattr(mst, "TENSOR_CAP", 27)
        rows = rank_trees(ms, SolverConfig(eta=1.0), ewm=ewm, direct="auto")
        assert all(row.cost_direct is not None for row in rows)

    def test_ties_keep_enumeration_order(self, rng):
        # identical measures everywhere: all trees cost the same, so the
        # ranking must preserve lexicographic Prüfer order
        m = random_measure(rng, 3)
        rows = rank_trees([m, m, m], SolverConfig(eta=1.0), direct="never")
        assert [r.prufer for r in rows] == [(1,), (2,), (3,)]

    def test_sorted_ascending(self, rng):
        ms = random_measures(rng, [3, 2, 4, 2])
        rows = rank_trees(ms, SolverConfig(eta=2.0), direct="never")
        costs = [r.cost_additive for r in rows]
        assert costs == sorted(costs)


@pytest.mark.parametrize("s", [3, 4])
@pytest.mark.parametrize("eta", [1.0, 5.0, 20.0])
def test_cycle_never_beats_a_spanning_tree_on_the_dense_oracle(s, eta):
    """The structure lemma, checked by the dense solver alone: the complete
    graph's objective is at least every spanning tree's (deleting an edge
    drops a nonnegative cost term), and optimal_msb's tree attains the tree
    minimum, with its edge-sum cost equal to the dense objective."""
    rng = np.random.default_rng(1000 * s + int(eta))
    ms = random_measures(rng, [3] * s, low=-5, high=5)
    costs = {(a, b): build_cost(ms[a - 1], ms[b - 1]).matrix
             for a in range(1, s + 1) for b in range(a + 1, s + 1)}

    def dense_value(graph):
        mm = mm_sinkhorn(ms, graph, costs, eta)
        assert mm.converged
        return msb_objective(mm.tensor, cost_tensor(graph, costs, shape=(3,) * s), eta) / eta

    tree_values = {tree.edges: dense_value(graph_from_edges(s, tree.edges))
                   for tree in enumerate_trees(s)}
    assert dense_value(complete_graph(s)) >= max(tree_values.values())
    res = optimal_msb(ms, SolverConfig(eta=eta))
    assert tree_values[res.tree.edges] <= min(tree_values.values()) + 1e-6
    assert abs(res.total_cost - tree_values[res.tree.edges]) <= 1e-6
