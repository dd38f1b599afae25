import warnings
from dataclasses import replace

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
    complete_graph,
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
    prufer_encode,
    rank_trees,
    sinkhorn_solve,
)
from bridgetree import mst, sinkhorn
from bridgetree.mst import EdgeWeightMatrix
from conftest import random_measure, random_measures


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
    value = np.vdot(plan_buf, cost_buf) + eta * np.vdot(plan_buf, log_buf)
    return float(value) / eta


def dirac(point):
    return DiscreteMeasure([list(point)], [1.0])


class TestEdgeWeight:
    def test_zero_cost_weight_vanishes(self, rng):
        m1 = random_measure(rng, 4)
        m2 = random_measure(rng, 5)
        cfg = SolverConfig(eta=1.0, cost_kind="matrix", cost_matrix=np.zeros((4, 5)))
        es = edge_weight(m1, m2, cfg)
        assert abs(es.g) <= 1e-10
        assert es.sb == pytest.approx(-entropy(m1) - entropy(m2), abs=1e-10)

    def test_dirac_pair_distance_over_eta(self):
        eta = 0.7
        es = edge_weight(dirac((0.0, 0.0)), dirac((3.0, 4.0)),
                         SolverConfig(eta=eta, cost_kind="euclidean"))
        assert es.g == pytest.approx(5.0 / eta, abs=1e-12)

    def test_uniform_swap_cost_instance(self):
        # frozen from the segment-scan oracle of the 2x2 instance:
        # sb = log(e / (2(1+e))), entropies log 2 each
        m = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        cfg = SolverConfig(eta=1.0, cost_kind="matrix",
                           cost_matrix=np.array([[0.0, 1.0], [1.0, 0.0]]))
        es = edge_weight(m, m, cfg)
        assert es.sb == pytest.approx(-1.0064088680781682, abs=1e-12)
        assert es.g == pytest.approx(0.3798854930417224, abs=1e-12)

    def test_nonconvergence_raises_by_default(self):
        m1 = DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6])
        m2 = DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])
        cfg = SolverConfig(eta=1.0, max_iter=2)
        with pytest.raises(SolverError, match="max_iter"):
            edge_weight(m1, m2, cfg)

    def test_nonconvergence_warn_mode_returns(self):
        m1 = DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6])
        m2 = DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])
        cfg = SolverConfig(eta=1.0, max_iter=2, on_nonconverged="warn")
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            es = edge_weight(m1, m2, cfg)
        assert len(caught) == 1
        assert not es.coupling.converged


BAD_TOL_OR_MAX_ITER = [
    {"tol": float("nan")},
    {"tol": float("inf")},
    {"max_iter": float("nan")},
    {"max_iter": float("inf")},
    {"max_iter": 2.5},
]


@pytest.mark.parametrize("kwargs", [
    {"tol": 0.0},
    {"max_iter": 0},
    {"cost_kind": "manhattan"},
    {"cost_kind": "matrix"},
    {"threads": 0},
    {"on_nonconverged": "ignore"},
    *BAD_TOL_OR_MAX_ITER,
    {"threads": 2.5},
    {"threads": float("nan")},
])
def test_solver_config_rejects(kwargs):
    with pytest.raises(ValidationError):
        SolverConfig(eta=1.0, **kwargs)


@pytest.mark.parametrize("kwargs", BAD_TOL_OR_MAX_ITER)
def test_solvers_reject_bad_tol_and_max_iter(kwargs):
    # unchecked, nan or inf as max_iter never stops the bimarginal loop, and
    # mm_sinkhorn's range() raises a raw TypeError
    ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2
    cost = build_cost(ms[0], ms[1])
    with pytest.raises(ValidationError):
        sinkhorn_solve(ms[0], ms[1], gibbs_kernel(cost, 1.0), **kwargs)
    with pytest.raises(ValidationError):
        mm_sinkhorn(ms, complete_graph(2), {(1, 2): cost}, eta=1.0, **kwargs)


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

    def test_threads_match_serial(self, rng):
        ms = random_measures(rng, [3, 4, 3, 4])
        serial = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=1))
        threaded = build_weight_matrix(ms, SolverConfig(eta=1.0, threads=4))
        assert np.array_equal(serial.g, threaded.g)

    def test_one_log_kernel_per_edge(self, rng, monkeypatch):
        # edge_weight builds log K once and hands it to the solver, which
        # never forms -C/eta itself
        calls = []
        kernel = mst.gibbs_kernel
        monkeypatch.setattr(mst, "gibbs_kernel", lambda *a: calls.append(a) or kernel(*a))

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
        (np.zeros((2, 3)), "square"),
        (np.zeros(4), "square"),
        (np.zeros((1, 1)), "at least 2"),
    ])
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
        res = optimal_msb([center] + satellites, SolverConfig(eta=eta, cost_kind="euclidean"))
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
        ms = random_measures(rng, [30, 30, 30])
        res = optimal_msb(ms, SolverConfig(eta=1.0))
        with pytest.raises(ValidationError, match="cap"):
            compose_tree_coupling(res.tree, tree_plans(res), ms, cap=100)

    def test_total_cost_matches_dense_objective_of_composed_tensor(self, rng):
        # structure-free consistency: edge-weight total vs the transport
        # objective integrated over the composed coupling
        ms = random_measures(rng, [3, 4, 3], low=-5, high=5)
        eta = 1.5
        res = optimal_msb(ms, SolverConfig(eta=eta))
        tensor = compose_tree_coupling(res.tree, tree_plans(res), ms)
        graph = graph_from_edges(3, res.tree.edges)
        costs = {e: res.weight_matrix.edges[e].cost.matrix for e in res.tree.edges}
        direct = msb_objective(tensor, cost_tensor(graph, costs), eta) / eta
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
                (a, b): build_cost(ms[a - 1], ms[b - 1]) for a, b in tree.edges
            }
            mm = mm_sinkhorn(ms, graph, costs, eta)
            assert mm.converged
            value = msb_objective(mm.tensor, cost_tensor(graph, costs), eta) / eta
            scores.append((value, tree.edges))
        scores.sort()
        best_value, best_edges = scores[0]
        if scores[1][0] - best_value > 1e-6:
            assert result.tree.edges == best_edges
        else:
            matches = [e for v, e in scores if v - best_value <= 1e-6]
            assert result.tree.edges in matches


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
        ([1, 3, 2, 4], 2.0),  # a length-1 axis, outermost in every layout
        ([2, 2, 3, 2, 2, 2], 1.0),  # s=6: all 21 possible last walk steps occur
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

    def test_mismatched_ewm_names_edge(self, rng):
        cfg = SolverConfig(eta=1.0)
        ewm = build_weight_matrix(random_measures(rng, [3, 3, 3]), cfg)
        ms = random_measures(rng, [4, 3, 3])
        with pytest.raises(ValidationError, match=r"edge \(1, 2\): plan has shape \(3, 3\)"):
            rank_trees(ms, cfg, ewm=ewm, direct="always")
        with pytest.raises(ValidationError, match=r"edge \(1, 4\) has no pairwise solve"):
            rank_trees(random_measures(rng, [3, 3, 3, 3]), cfg, ewm=ewm, direct="never")

    def test_unknown_direct_mode(self, rng):
        with pytest.raises(ValidationError, match="sometimes"):
            rank_trees(random_measures(rng, [2, 2]), SolverConfig(eta=1.0), direct="sometimes")

    def test_direct_never_skips_column(self, rng):
        ms = random_measures(rng, [2, 2, 2])
        rows = rank_trees(ms, SolverConfig(eta=1.0), direct="never")
        assert all(row.cost_direct is None for row in rows)

    def test_direct_always_refuses_over_cap(self, rng):
        ms = random_measures(rng, [30, 30, 30])
        with pytest.raises(ValidationError, match="cap"):
            rank_trees(ms, SolverConfig(eta=1.0), direct="always", cap=100)

    def test_direct_auto_over_cap_skips_column(self, rng):
        ms = random_measures(rng, [3, 3, 3])
        ewm = build_weight_matrix(ms, SolverConfig(eta=1.0))
        rows = rank_trees(ms, SolverConfig(eta=1.0), ewm=ewm, direct="auto", cap=26)
        assert all(row.cost_direct is None for row in rows)
        rows = rank_trees(ms, SolverConfig(eta=1.0), ewm=ewm, direct="auto", cap=27)
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
        return msb_objective(mm.tensor, cost_tensor(graph, costs), eta) / eta

    tree_values = {tree.edges: dense_value(graph_from_edges(s, tree.edges))
                   for tree in enumerate_trees(s)}
    assert dense_value(complete_graph(s)) >= max(tree_values.values())
    res = optimal_msb(ms, SolverConfig(eta=eta))
    assert tree_values[res.tree.edges] <= min(tree_values.values()) + 1e-6
    assert abs(res.total_cost - tree_values[res.tree.edges]) <= 1e-6
