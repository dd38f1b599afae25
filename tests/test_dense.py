import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bridgetree import (
    DiscreteMeasure,
    ValidationError,
    build_cost,
    complete_graph,
    cost_tensor,
    gibbs_kernel,
    graph_from_edges,
    kl_divergence,
    mm_sinkhorn,
    msb_objective,
    path_graph,
    project,
    sinkhorn_solve,
    star_graph,
    total_variation,
)
from bridgetree.config import check_tensor_cap
from conftest import random_measures


def chain_cost_by_loops(c_list):
    """Oracle for the chain ground cost: explicit nested loops over
    C[i1..is] = sum_k c_list[k][i_k, i_{k+1}]."""
    shape = [c_list[0].shape[0]] + [c.shape[1] for c in c_list]
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        out[idx] = sum(c[idx[k], idx[k + 1]] for k, c in enumerate(c_list))
    return out


def star_cost_by_loops(c_list):
    """Oracle for the hub-and-spoke ground cost centered at vertex 1:
    C[i1..is] = sum_k c_list[k][i_1, i_{k+1}]."""
    shape = [c_list[0].shape[0]] + [c.shape[1] for c in c_list]
    out = np.zeros(shape)
    for idx in np.ndindex(*shape):
        out[idx] = sum(c[idx[0], idx[k + 1]] for k, c in enumerate(c_list))
    return out


class TestGraphStructure:
    def test_rejects_self_loop(self):
        with pytest.raises(ValidationError):
            graph_from_edges(3, [(1, 1)])

    def test_rejects_out_of_range(self):
        with pytest.raises(ValidationError):
            graph_from_edges(3, [(1, 4)])

    def test_connectivity(self):
        assert path_graph(4).is_connected()
        assert star_graph(5, center=2).is_connected()
        assert not graph_from_edges(4, [(1, 2), (3, 4)]).is_connected()

    def test_complete_graph_edge_count(self):
        assert len(complete_graph(5).edges) == 10

    @pytest.mark.parametrize("center", [0, 4])
    def test_star_center_out_of_range(self, center):
        with pytest.raises(ValidationError, match="center"):
            star_graph(3, center=center)


class TestCostTensor:
    def test_two_vertices_is_the_matrix(self):
        c = np.array([[0.0, 1.0], [1.0, 0.0]])
        t = cost_tensor(graph_from_edges(2, [(1, 2)]), {(1, 2): c})
        assert np.array_equal(t, c)

    def test_zero_costs_zero_tensor(self):
        costs = {(1, 2): np.zeros((2, 2)), (2, 3): np.zeros((2, 2))}
        t = cost_tensor(path_graph(3), costs)
        assert t.shape == (2, 2, 2)
        assert np.all(t == 0.0)

    def test_hand_entry_on_chain(self):
        # entry (1,2,1) in 1-based indices: C12[1,2] + C23[2,1] = 1 + 2
        c12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        c23 = np.array([[0.0, 2.0], [2.0, 0.0]])
        t = cost_tensor(path_graph(3), {(1, 2): c12, (2, 3): c23})
        assert t[0, 1, 0] == pytest.approx(3.0)

    def test_chain_matches_loop_oracle_entrywise(self, rng):
        c_list = [rng.uniform(0, 5, (2, 2)) for _ in range(2)]
        t = cost_tensor(path_graph(3), {(1, 2): c_list[0], (2, 3): c_list[1]})
        assert np.allclose(t, chain_cost_by_loops(c_list), atol=1e-14)

    def test_star_matches_loop_oracle_entrywise(self, rng):
        c_list = [rng.uniform(0, 5, (2, 2)) for _ in range(2)]
        t = cost_tensor(star_graph(3), {(1, 2): c_list[0], (1, 3): c_list[1]})
        assert np.allclose(t, star_cost_by_loops(c_list), atol=1e-14)

    def test_missing_edge_cost(self):
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            cost_tensor(path_graph(3), {(1, 2): np.zeros((2, 2))})

    def test_cap_enforced(self):
        costs = {(1, 2): np.zeros((100, 100)), (2, 3): np.zeros((100, 100))}
        with pytest.raises(ValidationError, match="cap"):
            cost_tensor(path_graph(3), costs, cap=10_000)

    def test_inconsistent_vertex_sizes(self):
        costs = {(1, 2): np.zeros((2, 3)), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match="vertex 2"):
            cost_tensor(path_graph(3), costs)

    def test_vertex_on_no_edge_needs_shape(self):
        graph = graph_from_edges(3, [(1, 2)])
        with pytest.raises(ValidationError, match=r"\[3\]"):
            cost_tensor(graph, {(1, 2): np.zeros((2, 2))})
        assert cost_tensor(graph, {(1, 2): np.zeros((2, 2))}, shape=(2, 2, 4)).shape == (2, 2, 4)

    def test_shape_with_wrong_axis_count(self):
        with pytest.raises(ValidationError, match="axes"):
            cost_tensor(path_graph(3), {(1, 2): np.zeros((2, 2)), (2, 3): np.zeros((2, 2))},
                        shape=(2, 2))

    def test_matrix_that_does_not_fit_shape(self):
        costs = {(1, 2): np.zeros((2, 2)), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match=r"edge \(1, 2\)"):
            cost_tensor(path_graph(3), costs, shape=(3, 2, 2))

    @pytest.mark.parametrize("shape", [(2**16,) * 4, (2**32, 2**32)])
    def test_tensor_cap_count_does_not_wrap(self, shape):
        # 2^64 entries: an int64 product wraps to 0 and would pass any cap
        with pytest.raises(ValidationError, match="cap"):
            check_tensor_cap(shape, 10**7)

    def test_tensor_cap_names_the_exact_count(self):
        with pytest.raises(ValidationError, match=r"with 100000000000000000000 entries"):
            check_tensor_cap((10**5,) * 4, 10**7)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_refused(self, bad):
        # unchecked, an inf entry lets mm_sinkhorn report converged on a NaN tensor
        ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 3
        costs = {(1, 2): np.array([[0.0, bad], [bad, bad]]), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match=r"edge \(1, 2\) has non-finite"):
            cost_tensor(path_graph(3), costs)
        with pytest.raises(ValidationError, match=r"edge \(1, 2\) has non-finite"):
            mm_sinkhorn(ms, path_graph(3), costs, eta=1.0)


class TestProject:
    def test_product_tensor_recovers_factor(self):
        mu1 = np.array([0.2, 0.8])
        mu2 = np.array([0.5, 0.3, 0.2])
        m = np.multiply.outer(mu1, mu2)
        assert np.allclose(project(m, 1), mu1)
        assert np.allclose(project(m, 2), mu2)

    def test_uniform_bimarginal(self):
        m = np.full((2, 2), 0.25)
        assert np.allclose(project(m, 2), [0.5, 0.5])

    def test_out_of_range(self):
        with pytest.raises(ValidationError):
            project(np.full((2, 2), 0.25), 3)

    @given(st.integers(0, 2 ** 30))
    @settings(max_examples=25, deadline=None)
    def test_every_marginal_conserves_mass(self, seed):
        rng = np.random.default_rng(seed)
        shape = tuple(rng.integers(2, 4, size=int(rng.integers(2, 5))))
        m = rng.uniform(0, 1, shape)
        m /= m.sum()
        for sigma in range(1, len(shape) + 1):
            assert project(m, sigma).sum() == pytest.approx(1.0, abs=1e-12)


class TestMmSinkhorn:
    def test_two_marginals_match_pairwise_solver(self, rng):
        for _ in range(5):
            m1, m2 = random_measures(rng, [3, 4], low=-3, high=3)
            cost = build_cost(m1, m2)
            pair = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.0), tol=1e-12)
            mm = mm_sinkhorn([m1, m2], graph_from_edges(2, [(1, 2)]), {(1, 2): cost},
                             eta=1.0, tol=1e-12)
            assert mm.converged
            assert np.abs(mm.tensor - pair.plan).max() <= 1e-10

    def test_all_dirac_unique_coupling(self):
        ms = [DiscreteMeasure([[float(i)]], [1.0]) for i in range(3)]
        graph = path_graph(3)
        costs = {(1, 2): np.array([[1.0]]), (2, 3): np.array([[2.0]])}
        mm = mm_sinkhorn(ms, graph, costs, eta=1.0)
        assert mm.tensor.shape == (1, 1, 1)
        assert mm.tensor[0, 0, 0] == pytest.approx(1.0)

    def test_zero_costs_give_product_measure(self, rng):
        ms = random_measures(rng, [2, 3, 2])
        graph = path_graph(3)
        costs = {(1, 2): np.zeros((2, 3)), (2, 3): np.zeros((3, 2))}
        mm = mm_sinkhorn(ms, graph, costs, eta=1.0)
        expected = np.einsum("i,j,k->ijk", *(m.weights for m in ms))
        assert np.abs(mm.tensor - expected).max() <= 1e-12

    def test_marginals_match_after_convergence(self, rng):
        ms = random_measures(rng, [3, 3, 2], low=-5, high=5)
        graph = star_graph(3)
        costs = {e: build_cost(ms[e[0] - 1], ms[e[1] - 1]) for e in graph.edges}
        mm = mm_sinkhorn(ms, graph, costs, eta=1.0, tol=1e-10)
        assert mm.converged
        for sigma in range(1, 4):
            assert total_variation(project(mm.tensor, sigma), ms[sigma - 1].weights) <= 1e-10

    def test_zero_weight_entries_restored_as_zero_slices(self, rng):
        m1 = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
        m2 = DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
        cost = build_cost(m1, m2)
        mm = mm_sinkhorn([m1, m2], graph_from_edges(2, [(1, 2)]), {(1, 2): cost}, eta=1.0)
        assert np.all(mm.tensor[1] == 0.0)
        assert total_variation(project(mm.tensor, 1), m1.weights) <= 1e-9

    def test_measure_count_must_match_graph(self, rng):
        ms = random_measures(rng, [2, 2])
        costs = {(1, 2): np.zeros((2, 2)), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match="2 measures"):
            mm_sinkhorn(ms, path_graph(3), costs, eta=1.0)

    def test_disconnected_graph_rejected(self, rng):
        ms = random_measures(rng, [2, 2, 2, 2])
        graph = graph_from_edges(4, [(1, 2), (3, 4)])
        costs = {(1, 2): np.zeros((2, 2)), (3, 4): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match="connected"):
            mm_sinkhorn(ms, graph, costs, eta=1.0)

    def test_cap_enforced(self, rng):
        ms = random_measures(rng, [40, 40, 40])
        graph = path_graph(3)
        costs = {e: build_cost(ms[e[0] - 1], ms[e[1] - 1]) for e in graph.edges}
        with pytest.raises(ValidationError, match="cap"):
            mm_sinkhorn(ms, graph, costs, eta=1.0, cap=1000)


class TestMsbObjective:
    def test_dirac_product_reads_cost_at_support(self):
        m = np.zeros((2, 2, 2))
        m[1, 0, 1] = 1.0
        cost = np.arange(8.0).reshape(2, 2, 2)
        assert msb_objective(m, cost, eta=3.0) == pytest.approx(cost[1, 0, 1])

    def test_zero_cost_uniform_product(self):
        m = np.full((2, 2), 0.25)
        eta = 1.7
        assert msb_objective(m, np.zeros((2, 2)), eta) == pytest.approx(
            eta * -np.log(4.0), abs=1e-12
        )

    def test_equals_scaled_kl_against_gibbs_kernel(self, rng):
        for _ in range(5):
            shape = (3, 2, 3)
            m = rng.uniform(0.01, 1.0, shape)
            m /= m.sum()
            costs = {(1, 2): rng.uniform(0, 3, (3, 2)), (2, 3): rng.uniform(0, 3, (2, 3))}
            c = cost_tensor(path_graph(3), costs)
            eta = float(rng.uniform(0.5, 4.0))
            k = np.exp(-c / eta)
            assert msb_objective(m, c, eta) == pytest.approx(
                eta * kl_divergence(m, k), rel=1e-9
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            msb_objective(np.ones((2, 2)) / 4, np.zeros((2, 3)), 1.0)
