import itertools

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgetree import (
    DiscreteMeasure,
    SolverConfig,
    SpanningTree,
    ValidationError,
    build_cost,
    compose_tree_coupling,
    enumerate_trees,
    format_prufer,
    gibbs_kernel,
    graph_from_edges,
    mm_sinkhorn,
    msb_objective,
    cost_tensor,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    rank_trees,
    sb_value,
    sinkhorn_solve,
    total_variation,
    tree_cost_additive,
)
from bridgetree.trees import DisjointSet, _decode_codes, on_axes
from conftest import random_measures
from helpers import OVER_CAP, OVER_CAP_N, degrees, project, prufer_codes, reference_decode
from helpers import tree_cost_decomposed


def random_tree(rng, s):
    if s == 2:
        return prufer_decode((), 2)
    return prufer_decode(tuple(rng.integers(1, s + 1, size=s - 2)), s)


class TestDisjointSet:
    def test_union_reports_merges(self):
        ds = DisjointSet(5)
        assert ds.union(0, 1) and ds.union(2, 3) and ds.union(1, 3)
        assert not ds.union(0, 2)
        assert len({ds.find(x) for x in range(4)}) == 1
        assert ds.find(4) == 4


class TestSpanningTreeValidation:
    def test_edge_count_enforced(self):
        with pytest.raises(ValidationError):
            SpanningTree(4, ((1, 2), (3, 4)))

    def test_cycle_rejected(self):
        # s-1 edges forming a triangle plus an isolated vertex
        with pytest.raises(ValidationError, match="cycle"):
            SpanningTree(4, ((1, 2), (2, 3), (1, 3)))

    def test_duplicate_edge_rejected(self):
        with pytest.raises(ValidationError):
            SpanningTree(3, ((1, 2), (2, 1)))

    def test_canonical_ordering(self):
        t = SpanningTree(3, ((3, 2), (2, 1)))
        assert t.edges == ((1, 2), (2, 3))

    @pytest.mark.parametrize("build", [SpanningTree, graph_from_edges])
    @pytest.mark.parametrize("s, edges, match", [
        (1, (), "vertex count s must be an integer >= 2, got 1"),
        (3, ((1, 1), (1, 2)), "self-loop"),
        (3, ((1, 2), (4, 2)), r"\(2, 4\) out of range"),
        (3, ((0, 1), (1, 2)), r"\(0, 1\) out of range"),
        (3, ((1, 2), (2, 1)), r"\(1, 2\) appears twice"),
        (3, ((1.0, 2.0), (2.0, 3.0)), "edge vertex must be an integer, got 1.0"),
        (3, ((1, 2, 3), (2, 3)), r"each edge must be an \(a, b\) pair"),
        (3, (1, 2), r"each edge must be an \(a, b\) pair"),
    ], ids=["one-vertex", "self-loop", "above-s", "below-1", "repeated", "float-vertex",
            "triple", "not-a-pair"])
    def test_edge_set_contract(self, build, s, edges, match):
        with pytest.raises(ValidationError, match=match):
            build(s, edges)

    def test_degree_sum_rule(self, rng):
        # sum (deg - 1) = s - 2 on every tree
        for s in range(2, 9):
            t = random_tree(rng, s)
            assert int((degrees(t) - 1).sum()) == s - 2

    def test_to_dot(self):
        dot = SpanningTree(3, ((1, 2), (2, 3))).to_dot()
        assert "1 -- 2;" in dot and "2 -- 3;" in dot

    def test_to_dot_graph_is_named_tree(self):
        dot = SpanningTree(2, ((1, 2),)).to_dot()
        assert dot == "graph tree {\n  1 -- 2;\n}\n"


class TestPruferCodes:
    def test_decode_single_entry_star(self):
        t = prufer_decode((1,), 3)
        assert t.edges == ((1, 2), (1, 3))

    def test_decode_table_shape(self):
        t = prufer_decode((3, 3, 5), 5)
        assert t.edges == ((1, 3), (2, 3), (3, 5), (4, 5))
        assert prufer_encode(t) == (3, 3, 5)

    def test_decode_two_vertices(self):
        assert prufer_decode((), 2).edges == ((1, 2),)

    def test_decode_refuses_non_integer_entry(self):
        with pytest.raises(ValidationError, match="code entry must be an integer, got 2.7"):
            prufer_decode((2.7,), 3)

    def test_decode_out_of_range(self):
        with pytest.raises(ValidationError):
            prufer_decode((4,), 3)

    def test_decode_wrong_length(self):
        with pytest.raises(ValidationError):
            prufer_decode((1, 2), 3)

    def test_decode_one_vertex(self):
        with pytest.raises(ValidationError, match="vertex count s must be an integer >= 2, got 1"):
            prufer_decode((), 1)

    def test_encode_star(self):
        t = SpanningTree(4, ((1, 2), (1, 3), (1, 4)))
        assert prufer_encode(t) == (1, 1)

    def test_encode_chain(self):
        # hand-run of leaf stripping on 1-2-3-4
        t = SpanningTree(4, ((1, 2), (2, 3), (3, 4)))
        assert prufer_encode(t) == (2, 3)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=100, deadline=None)
    def test_roundtrip_random_trees(self, seed):
        rng = np.random.default_rng(seed)
        s = int(rng.integers(2, 9))
        code = tuple(int(c) for c in rng.integers(1, s + 1, size=s - 2))
        tree = prufer_decode(code, s)
        assert prufer_encode(tree) == code
        assert prufer_decode(prufer_encode(tree), s) == tree

    def test_degree_is_multiplicity_plus_one(self, rng):
        for _ in range(20):
            s = int(rng.integers(3, 9))
            code = tuple(int(c) for c in rng.integers(1, s + 1, size=s - 2))
            tree = prufer_decode(code, s)
            deg = degrees(tree)
            for v in range(1, s + 1):
                assert deg[v - 1] == code.count(v) + 1

    def test_format_and_parse(self):
        assert format_prufer((3, 3, 5)) == "3 3 5"
        assert parse_prufer("3 3 5") == (3, 3, 5)
        assert parse_prufer("") == ()
        with pytest.raises(ValidationError):
            parse_prufer("3 x")


class TestDecodeAgainstReference:
    """prufer_decode, enumerate_trees and rank_trees all read the one
    vectorised decode; each is checked on every code against a heap decode."""

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
    def test_every_code(self, s):
        codes = prufer_codes(s)
        reference = [reference_decode(code, s) for code in codes.tolist()]
        edges = [tree_edges for tree_edges, _ in reference]
        enumerated = list(enumerate_trees(s))
        decoded = [prufer_decode(code, s) for code in codes.tolist()]
        assert [t.edges for t in enumerated] == edges
        assert [t.edges for t in decoded] == edges
        assert all(type(v) is int for t in enumerated + decoded for e in t.edges for v in e)
        # step k peels the reference's k-th leaf, and its parent is code[k];
        # the last joins the remaining leaf to the root s
        steps, keys = _decode_codes(codes, s)
        leaf_parent = np.array([steps_k for _, steps_k in reference]).transpose(1, 0, 2) - 1
        assert np.array_equal(steps, leaf_parent[..., 0] * s + leaf_parent[..., 1])
        assert np.array_equal(steps[:-1] % s, codes.T - 1)
        assert np.all(steps[-1] % s == s - 1)
        assert np.array_equal(keys, [[(a - 1) * s + b - 1 for a, b in e] for e in edges])

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6, 7])
    def test_ranked_rows_carry_python_int_codes(self, s):
        ms = [DiscreteMeasure([[float(v)]], [1.0]) for v in range(s)]
        rows = rank_trees(ms, SolverConfig(eta=1.0))
        assert sorted(r.prufer for r in rows) == [tuple(c) for c in prufer_codes(s).tolist()]
        for row in rows:
            assert type(row.prufer) is tuple and all(type(c) is int for c in row.prufer)
            assert row.edges == reference_decode(row.prufer, s)[0]

    @pytest.mark.parametrize("kind", ["star", "path", "random"])
    def test_large_s_keeps_integer_width(self, kind):
        # past the enumeration cap prufer_decode still decodes: a star centre
        # of degree 299 and edge keys up to 300^2 overflow 8- and 16-bit tables
        s = 300
        rng = np.random.default_rng(300)
        code = {"star": (s,) * (s - 2), "path": tuple(range(2, s)),
                "random": tuple(rng.integers(1, s + 1, size=s - 2).tolist())}[kind]
        tree = prufer_decode(code, s)
        assert tree.edges == reference_decode(code, s)[0]
        assert prufer_encode(tree) == code


class TestEnumeration:
    @pytest.mark.parametrize("s,count", [(2, 1), (3, 3), (4, 16), (5, 125)])
    def test_cayley_counts(self, s, count):
        trees = list(enumerate_trees(s))
        assert len(trees) == count
        assert len({t.edges for t in trees}) == count

    def test_lexicographic_order(self):
        trees = list(enumerate_trees(4))
        assert trees[0] == prufer_decode((1, 1), 4)
        assert trees[-1] == prufer_decode((4, 4), 4)

    @pytest.mark.parametrize("s", [2, 3, 4, 5, 6])
    def test_matches_checked_decode(self, s):
        # enumeration skips SpanningTree's checks; the checked path agrees
        codes = itertools.product(range(1, s + 1), repeat=s - 2)
        trees = list(enumerate_trees(s))
        assert trees == [prufer_decode(code, s) for code in codes]
        assert all(SpanningTree(s, t.edges).edges == t.edges for t in trees)

    def test_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            list(enumerate_trees(9))

    def test_one_vertex(self):
        with pytest.raises(ValidationError, match="vertex count s must be an integer >= 2, got 1"):
            list(enumerate_trees(1))


class TestComposeTreeCoupling:
    def _edge_plans(self, ms, tree, eta=1.0, tol=1e-9):
        plans, sbs, costs = {}, {}, {}
        for a, b in tree.edges:
            cost = build_cost(ms[a - 1], ms[b - 1])
            coup = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, eta), tol=tol)
            assert coup.converged
            plans[(a, b)] = coup.plan
            sbs[(a, b)] = sb_value(coup)
            costs[(a, b)] = cost.matrix
        return plans, sbs, costs

    def test_two_vertices_is_the_plan(self, rng):
        ms = random_measures(rng, [3, 4])
        tree = prufer_decode((), 2)
        plans, _, _ = self._edge_plans(ms, tree)
        composed = compose_tree_coupling(tree, plans, ms)
        assert np.array_equal(composed, plans[(1, 2)])

    def test_zero_cost_chain_composes_to_product(self, rng):
        ms = random_measures(rng, [2, 3, 2])
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans = {
            (1, 2): np.outer(ms[0].weights, ms[1].weights),
            (2, 3): np.outer(ms[1].weights, ms[2].weights),
        }
        composed = compose_tree_coupling(tree, plans, ms)
        expected = np.einsum("i,j,k->ijk", *(m.weights for m in ms))
        assert np.abs(composed - expected).max() <= 1e-15

    def test_matches_dense_solver_on_random_chain(self, rng):
        ms = random_measures(rng, [3, 3, 3], low=-5, high=5)
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans, _, costs = self._edge_plans(ms, tree)
        composed = compose_tree_coupling(tree, plans, ms)
        mm = mm_sinkhorn(ms, graph_from_edges(3, tree.edges), costs, eta=1.0)
        assert mm.converged
        assert np.abs(composed - mm.tensor).max() <= 1e-6

    def test_composed_marginals_match(self, rng):
        for _ in range(3):
            s = int(rng.integers(3, 5))
            ms = random_measures(rng, rng.integers(2, 5, size=s), low=-5, high=5)
            tree = random_tree(rng, s)
            plans, _, _ = self._edge_plans(ms, tree)
            composed = compose_tree_coupling(tree, plans, ms)
            for sigma in range(1, s + 1):
                assert total_variation(project(composed, sigma), ms[sigma - 1].weights) <= 1e-6

    def test_zero_weight_slice_is_zero(self):
        ms = [
            DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5]),
            DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5]),
            DiscreteMeasure([[0.0], [1.0]], [0.3, 0.7]),
        ]
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans = {}
        for a, b in tree.edges:
            cost = build_cost(ms[a - 1], ms[b - 1])
            plans[(a, b)] = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0)).plan
        composed = compose_tree_coupling(tree, plans, ms)
        assert np.all(composed[1] == 0.0)
        assert total_variation(project(composed, 1), ms[0].weights) <= 1e-8

    @pytest.mark.parametrize("edges, zero_vertex", [
        (((1, 2), (2, 3)), 2),  # middle of a path
        (((1, 2), (1, 3), (1, 4)), 1),  # hub of a star at the root
    ])
    def test_zero_weight_on_inner_vertex_slice_is_zero(self, edges, zero_vertex):
        tree = SpanningTree(len(edges) + 1, edges)
        ms = [DiscreteMeasure([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5]) for _ in range(tree.s)]
        ms[zero_vertex - 1] = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
        plans = {}
        for a, b in tree.edges:
            cost = build_cost(ms[a - 1], ms[b - 1])
            plans[(a, b)] = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0)).plan
        composed = compose_tree_coupling(tree, plans, ms)
        assert np.all(np.take(composed, 1, axis=zero_vertex - 1) == 0.0)
        for v in range(1, tree.s + 1):
            assert total_variation(project(composed, v), ms[v - 1].weights) <= 1e-8

    @pytest.mark.parametrize("edges, zero_vertex", [
        (((1, 2), (2, 3)), 2),
        (((1, 2), (1, 3), (1, 4)), 1),
    ])
    def test_stray_mass_on_a_zero_weight_point_is_dropped(self, edges, zero_vertex):
        # plans carrying 1e-8 at the zero-weight point, inside MARGINAL_TOL:
        # the first edge at the vertex keeps it, and every later one divides
        # by mu = 0 there, which is taken as 0, so the slice is exactly 0
        tree = SpanningTree(len(edges) + 1, edges)
        ms = [DiscreteMeasure([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5]) for _ in range(tree.s)]
        ms[zero_vertex - 1] = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
        plans = {}
        for a, b in tree.edges:
            cost = build_cost(ms[a - 1], ms[b - 1])
            plan = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0)).plan
            if a == zero_vertex:
                plan[1, :] += 1e-8
            if b == zero_vertex:
                plan[:, 1] += 1e-8
            plans[(a, b)] = plan
        composed = compose_tree_coupling(tree, plans, ms)
        assert np.all(np.take(composed, 1, axis=zero_vertex - 1) == 0.0)

    def test_every_tree_at_s5_is_the_closed_form(self, rng):
        # prod_e M_e * prod_v mu_v^(1 - deg v), mu^(1 - deg) taken as 0 where
        # mu = 0, evaluated factor by factor on the full tensor
        ms = random_measures(rng, [3, 4, 2, 3, 3], low=-3, high=3)
        for v, point in ((2, 1), (5, 0)):
            weights = ms[v - 1].weights.copy()
            weights[point] = 0.0
            ms[v - 1] = DiscreteMeasure(ms[v - 1].support, weights)
        plans = {}
        for a, b in itertools.combinations(range(1, 6), 2):
            cost = build_cost(ms[a - 1], ms[b - 1])
            coup = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0), tol=1e-9)
            assert coup.converged
            plans[(a, b)] = coup.plan
        for tree in enumerate_trees(5):
            expected = np.ones([m.n for m in ms])
            for a, b in tree.edges:
                expected = expected * on_axes(plans[(a, b)], 5, a, b)
            for v, deg in enumerate(degrees(tree), start=1):
                mu = ms[v - 1].weights
                factor = np.power(mu, 1 - deg, out=np.zeros_like(mu), where=mu > 0)
                expected = expected * on_axes(factor, 5, v)
            composed = compose_tree_coupling(tree, plans, ms)
            assert np.all(np.abs(composed - expected) <= 1e-14 * np.abs(expected))

    def test_missing_plan_rejected(self, rng):
        ms = random_measures(rng, [2, 2, 2])
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        ok_plan = np.outer(ms[0].weights, ms[1].weights)
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            compose_tree_coupling(tree, {(1, 2): ok_plan}, ms)

    def test_measure_count_must_match_tree(self, rng):
        ms = random_measures(rng, [2, 2])
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        with pytest.raises(ValidationError, match="2 measures"):
            compose_tree_coupling(tree, {}, ms)

    def test_plan_of_wrong_shape_rejected(self, rng):
        ms = random_measures(rng, [2, 3])
        tree = prufer_decode((), 2)
        with pytest.raises(ValidationError, match=r"shape \(3, 2\)"):
            compose_tree_coupling(tree, {(1, 2): np.full((3, 2), 1 / 6)}, ms)

    def test_infeasible_plan_rejected(self, rng):
        ms = random_measures(rng, [2, 2])
        tree = prufer_decode((), 2)
        bad = np.array([[0.9, 0.05], [0.03, 0.02]])
        with pytest.raises(ValidationError, match="marginal"):
            compose_tree_coupling(tree, {(1, 2): bad}, ms)

    def test_plan_with_nan_rejected(self, rng):
        ms = random_measures(rng, [2, 2])
        plan = np.outer(ms[0].weights, ms[1].weights)
        plan[0, 0] = np.nan
        with pytest.raises(ValidationError, match=r"violates its marginals \(TV nan"):
            compose_tree_coupling(prufer_decode((), 2), {(1, 2): plan}, ms)

    def test_cap_enforced(self, rng):
        ms = random_measures(rng, [OVER_CAP_N] * 3)
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans = {
            (1, 2): np.outer(ms[0].weights, ms[1].weights),
            (2, 3): np.outer(ms[1].weights, ms[2].weights),
        }
        with pytest.raises(ValidationError, match=OVER_CAP):
            compose_tree_coupling(tree, plans, ms)


class TestTreeCosts:
    def test_zero_cost_uniform_chain(self):
        # two zero-cost edges contribute -log 4 each, middle vertex degree 2
        # adds one entropy log 2: total is -2 log 4 + log 2
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        sbs = {(1, 2): -np.log(4.0), (2, 3): -np.log(4.0)}
        ent = [np.log(2.0)] * 3
        got = tree_cost_decomposed(tree, sbs, ent)
        assert got == pytest.approx(-2.0794415416798357, abs=1e-12)

    def test_two_vertex_tree_is_bare_sb(self):
        tree = prufer_decode((), 2)
        assert tree_cost_decomposed(tree, {(1, 2): 1.25}, [0.9, 0.4]) == pytest.approx(1.25)

    def test_dirac_star_sums_scaled_distances(self):
        # all entropies zero: cost is the sum of per-edge values
        tree = SpanningTree(5, ((1, 2), (1, 3), (1, 4), (1, 5)))
        sbs = {(1, v): float(v) for v in range(2, 6)}
        assert tree_cost_decomposed(tree, sbs, [0.0] * 5) == pytest.approx(14.0)

    def test_entropy_count_must_match_tree(self):
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        sbs = {(1, 2): 0.0, (2, 3): 0.0}
        with pytest.raises(ValidationError, match="need 3 entropies"):
            tree_cost_decomposed(tree, sbs, [0.0] * 2)
        with pytest.raises(ValidationError, match="need 3 entropies"):
            tree_cost_additive(tree, np.zeros((3, 3)), [0.0] * 4)

    def test_additive_weight_matrix_shape(self):
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        with pytest.raises(ValidationError, match=r"\(2, 2\)"):
            tree_cost_additive(tree, np.zeros((2, 2)), [0.0] * 3)

    def test_missing_sb_value(self):
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            tree_cost_decomposed(tree, {(1, 2): 0.0}, [0.0] * 3)

    def test_additive_equals_decomposed(self, rng):
        # identity: sum g - sum H == sum sb + sum (deg-1) H
        for _ in range(100):
            s = int(rng.integers(2, 9))
            tree = random_tree(rng, s)
            sym = rng.uniform(-2, 5, (s, s))
            g = (sym + sym.T) / 2
            ent = rng.uniform(0, 2, s)
            sbs = {
                (a, b): g[a - 1, b - 1] - ent[a - 1] - ent[b - 1]
                for a, b in tree.edges
            }
            add = tree_cost_additive(tree, g, ent)
            dec = tree_cost_decomposed(tree, sbs, ent)
            assert abs(add - dec) <= 1e-12

    def test_zero_weights_minus_entropy_sum(self, rng):
        s = 4
        tree = random_tree(rng, s)
        ent = rng.uniform(0, 2, s)
        assert tree_cost_additive(tree, np.zeros((s, s)), ent) == pytest.approx(-ent.sum())

    def test_decomposed_agrees_with_dense_objective(self, rng):
        # edge-sum route vs the full-tensor objective of the dense solution
        ms = random_measures(rng, [3, 2, 3], low=-5, high=5)
        tree = SpanningTree(3, ((1, 3), (2, 3)))
        eta = 1.5
        sbs, costs = {}, {}
        for a, b in tree.edges:
            cost = build_cost(ms[a - 1], ms[b - 1])
            coup = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, eta))
            sbs[(a, b)] = sb_value(coup)
            costs[(a, b)] = cost.matrix
        ent = [float(-(m.weights[m.weights > 0] * np.log(m.weights[m.weights > 0])).sum()) for m in ms]
        decomposed = tree_cost_decomposed(tree, sbs, ent)
        graph = graph_from_edges(3, tree.edges)
        mm = mm_sinkhorn(ms, graph, costs, eta)
        direct = msb_objective(mm.tensor, cost_tensor(graph, costs, shape=(3, 2, 3)), eta) / eta
        assert abs(decomposed - direct) <= 1e-6
