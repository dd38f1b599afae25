import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgetree import (
    DiscreteMeasure,
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
    project,
    prufer_decode,
    prufer_encode,
    sb_value,
    sinkhorn_solve,
    total_variation,
    tree_cost_additive,
    tree_cost_decomposed,
)
from bridgetree.trees import DisjointSet
from conftest import random_measures


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
        (1, (), "at least 2 vertices"),
        (3, ((1, 1), (1, 2)), "self-loop"),
        (3, ((1, 2), (4, 2)), r"\(2, 4\) out of range"),
        (3, ((0, 1), (1, 2)), r"\(0, 1\) out of range"),
        (3, ((1, 2), (2, 1)), r"\(1, 2\) appears twice"),
        (3, ((1.0, 2.0), (2.0, 3.0)), "edge vertex must be an integer, got 1.0"),
    ], ids=["one-vertex", "self-loop", "above-s", "below-1", "repeated", "float-vertex"])
    def test_edge_set_contract(self, build, s, edges, match):
        with pytest.raises(ValidationError, match=match):
            build(s, edges)

    def test_degree_sum_rule(self, rng):
        # sum (deg - 1) = s - 2 on every tree
        for s in range(2, 9):
            t = random_tree(rng, s)
            assert int((t.degrees() - 1).sum()) == s - 2

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
        with pytest.raises(ValidationError, match="s >= 2"):
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
            deg = tree.degrees()
            for v in range(1, s + 1):
                assert deg[v - 1] == code.count(v) + 1

    def test_format_and_parse(self):
        assert format_prufer((3, 3, 5)) == "3 3 5"
        assert parse_prufer("3 3 5") == (3, 3, 5)
        assert parse_prufer("") == ()
        with pytest.raises(ValidationError):
            parse_prufer("3 x")


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

    def test_cap(self):
        with pytest.raises(ValidationError, match="cap"):
            list(enumerate_trees(9))

    def test_one_vertex(self):
        with pytest.raises(ValidationError, match="s >= 2"):
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

    def test_cap_enforced(self, rng):
        ms = random_measures(rng, [50, 50, 50])
        tree = SpanningTree(3, ((1, 2), (2, 3)))
        plans = {
            (1, 2): np.outer(ms[0].weights, ms[1].weights),
            (2, 3): np.outer(ms[1].weights, ms[2].weights),
        }
        with pytest.raises(ValidationError, match="cap"):
            compose_tree_coupling(tree, plans, ms, cap=1000)


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
        direct = msb_objective(mm.tensor, cost_tensor(graph, costs), eta) / eta
        assert abs(decomposed - direct) <= 1e-6
