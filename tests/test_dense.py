import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.special import logsumexp

from bridgetree import (
    DiscreteMeasure,
    ValidationError,
    build_cost,
    cost_tensor,
    gibbs_kernel,
    graph_from_edges,
    mm_sinkhorn,
    msb_objective,
    sinkhorn_solve,
    total_variation,
)
from bridgetree import dense
from bridgetree.config import check_tensor_cap
from bridgetree.dense import _log_marginal
from conftest import random_measures
from helpers import OVER_CAP, OVER_CAP_N, complete_graph, kl_divergence, path_graph, project
from helpers import mm_sinkhorn_log_domain, star_graph


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
        t = cost_tensor(graph_from_edges(2, [(1, 2)]), {(1, 2): c}, shape=(2, 2))
        assert np.array_equal(t, c)

    def test_zero_costs_zero_tensor(self):
        costs = {(1, 2): np.zeros((2, 2)), (2, 3): np.zeros((2, 2))}
        t = cost_tensor(path_graph(3), costs, shape=(2, 2, 2))
        assert t.shape == (2, 2, 2)
        assert np.all(t == 0.0)

    def test_hand_entry_on_chain(self):
        # entry (1,2,1) in 1-based indices: C12[1,2] + C23[2,1] = 1 + 2
        c12 = np.array([[0.0, 1.0], [1.0, 0.0]])
        c23 = np.array([[0.0, 2.0], [2.0, 0.0]])
        t = cost_tensor(path_graph(3), {(1, 2): c12, (2, 3): c23}, shape=(2, 2, 2))
        assert t[0, 1, 0] == pytest.approx(3.0)

    def test_chain_matches_loop_oracle_entrywise(self, rng):
        c_list = [rng.uniform(0, 5, (2, 2)) for _ in range(2)]
        t = cost_tensor(path_graph(3), {(1, 2): c_list[0], (2, 3): c_list[1]}, shape=(2, 2, 2))
        assert np.allclose(t, chain_cost_by_loops(c_list), atol=1e-14)

    def test_star_matches_loop_oracle_entrywise(self, rng):
        c_list = [rng.uniform(0, 5, (2, 2)) for _ in range(2)]
        t = cost_tensor(star_graph(3), {(1, 2): c_list[0], (1, 3): c_list[1]}, shape=(2, 2, 2))
        assert np.allclose(t, star_cost_by_loops(c_list), atol=1e-14)

    def test_missing_edge_cost(self):
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            cost_tensor(path_graph(3), {(1, 2): np.zeros((2, 2))}, shape=(2, 2, 2))

    def test_cap_enforced(self):
        n = OVER_CAP_N
        costs = {(1, 2): np.zeros((n, n)), (2, 3): np.zeros((n, n))}
        with pytest.raises(ValidationError, match=OVER_CAP):
            cost_tensor(path_graph(3), costs, shape=(n, n, n))

    def test_inconsistent_vertex_sizes(self):
        # vertex 2 has 3 points on edge (1, 2) but 2 on edge (2, 3)
        costs = {(1, 2): np.zeros((2, 3)), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match=r"edge \(2, 3\)"):
            cost_tensor(path_graph(3), costs, shape=(2, 3, 2))

    def test_vertex_on_no_edge_needs_shape(self):
        graph = graph_from_edges(3, [(1, 2)])
        with pytest.raises(TypeError, match="shape"):
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
            check_tensor_cap(shape)

    def test_tensor_cap_names_the_exact_count(self):
        with pytest.raises(ValidationError, match=r"with 100000000000000000000 entries"):
            check_tensor_cap((10**5,) * 4)

    @pytest.mark.parametrize("bad", [np.inf, np.nan])
    def test_non_finite_cost_refused(self, bad):
        # unchecked, an inf entry lets mm_sinkhorn report converged on a NaN tensor
        ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 3
        costs = {(1, 2): np.array([[0.0, bad], [bad, bad]]), (2, 3): np.zeros((2, 2))}
        with pytest.raises(ValidationError, match=r"edge \(1, 2\) has non-finite"):
            cost_tensor(path_graph(3), costs, shape=(2, 2, 2))
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
            mm = mm_sinkhorn([m1, m2], graph_from_edges(2, [(1, 2)]), {(1, 2): cost.matrix},
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
        costs = {e: build_cost(ms[e[0] - 1], ms[e[1] - 1]).matrix for e in graph.edges}
        mm = mm_sinkhorn(ms, graph, costs, eta=1.0, tol=1e-10)
        assert mm.converged
        for sigma in range(1, 4):
            assert total_variation(project(mm.tensor, sigma), ms[sigma - 1].weights) <= 1e-10

    def test_zero_weight_entries_restored_as_zero_slices(self, rng):
        m1 = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
        m2 = DiscreteMeasure([[0.0], [1.0]], [0.4, 0.6])
        cost = build_cost(m1, m2)
        mm = mm_sinkhorn([m1, m2], graph_from_edges(2, [(1, 2)]), {(1, 2): cost.matrix}, eta=1.0)
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

    def test_overflowing_eta_refused(self):
        # -C/eta overflows: refused naming eta and the top cost, with no
        # RuntimeWarning and no blame on a finite cost
        ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 3
        costs = {(1, 2): np.array([[0.0, 1.0], [1.0, 0.0]]), (2, 3): np.zeros((2, 2))}
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValidationError, match=r"eta=1e-310.*top cost 1\.0"):
                mm_sinkhorn(ms, path_graph(3), costs, eta=1e-310)

    def test_cap_enforced(self, rng):
        ms = random_measures(rng, [OVER_CAP_N] * 3)
        graph = path_graph(3)
        costs = {e: build_cost(ms[e[0] - 1], ms[e[1] - 1]).matrix for e in graph.edges}
        with pytest.raises(ValidationError, match=OVER_CAP):
            mm_sinkhorn(ms, graph, costs, eta=1.0)


def edge_costs(measures, graph):
    return {(a, b): build_cost(measures[a - 1], measures[b - 1]).matrix for a, b in graph.edges}


class TestScalingForm:
    """mm_sinkhorn's scaling form against the log-domain recursion it replaced
    (tests/helpers.py): the same sweeps to rounding, so the same count."""

    @staticmethod
    def assert_matches_reference(measures, graph, eta):
        costs = edge_costs(measures, graph)
        mm = mm_sinkhorn(measures, graph, costs, eta, tol=1e-9)
        ref = mm_sinkhorn_log_domain(measures, graph, costs, eta, tol=1e-9)
        assert mm.converged and ref.converged
        assert mm.iterations == ref.iterations
        assert np.abs(mm.tensor - ref.tensor).max() <= 1e-12
        return mm

    @pytest.mark.parametrize("eta", [0.5, 1.0, 5.0])
    @pytest.mark.parametrize("s", [3, 4])
    def test_matches_log_domain_reference(self, s, eta):
        # at eta 0.5 and 1 these draws absorb 3 to 6 times; at eta 0.5 a
        # marginal also underflows after an absorption
        rng = np.random.default_rng(5)
        measures = random_measures(rng, rng.integers(2, 5, size=s))
        self.assert_matches_reference(measures, path_graph(s), eta)

    def test_zero_weight_point_matches_reference(self):
        rng = np.random.default_rng(3)
        measures = random_measures(rng, [3, 4, 2, 3])
        m = measures[1]
        measures[1] = DiscreteMeasure(m.support, np.where(np.arange(m.n) == 2, 0.0, m.weights))
        mm = self.assert_matches_reference(measures, star_graph(4), 1.0)
        assert np.all(mm.tensor[:, 2] == 0.0)

    def test_marginal_underflowing_before_the_first_sweep(self):
        # the far point's slice of exp(-C/eta) is exactly 0 on axis 2, so its
        # update must be taken in the log domain: no division by 0, no warning
        measures = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5]),
                    DiscreteMeasure([[0.0], [1.0], [40.0]], [0.4, 0.4, 0.2]),
                    DiscreteMeasure([[0.0], [2.0]], [0.3, 0.7])]
        graph = path_graph(3)
        kernel = np.exp(-cost_tensor(graph, edge_costs(measures, graph), shape=(2, 3, 2)) / 0.5)
        assert project(kernel, 2)[2] == 0.0
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            self.assert_matches_reference(measures, graph, 0.5)

    def test_absorbing_after_every_update_matches_reference(self, monkeypatch):
        # a zero bound absorbs every scaling into log M as soon as it is taken
        monkeypatch.setattr(dense, "_LOG_SCALE_BOUND", 0.0)
        rng = np.random.default_rng(5)
        self.assert_matches_reference(random_measures(rng, [3, 2, 4]), star_graph(3, 2), 1.0)

    @pytest.mark.parametrize("graph", [path_graph(6), star_graph(6)], ids=["path", "star"])
    def test_oracle_s6_shape_matches_reference(self, graph):
        # perfbench's oracle_s6 shape: six 5-point measures at eta 50
        rng = np.random.default_rng(1)
        self.assert_matches_reference(random_measures(rng, [5] * 6), graph, 50.0)

    def test_absorbing_over_a_pruned_middle_axis_matches_reference(self, monkeypatch):
        # every update absorbs, so after the update of each axis the rows of
        # the earlier axes are rebuilt from the new kernel, axis 1 pruned
        monkeypatch.setattr(dense, "_LOG_SCALE_BOUND", 0.0)
        rng = np.random.default_rng(3)
        measures = random_measures(rng, [3, 4, 3, 2])
        m = measures[1]
        measures[1] = DiscreteMeasure(m.support, np.where(np.arange(m.n) == 1, 0.0, m.weights))
        mm = self.assert_matches_reference(measures, path_graph(4), 1.0)
        assert np.all(mm.tensor[:, 1] == 0.0)

    def test_marginal_underflowing_at_a_middle_axis_every_sweep(self, monkeypatch):
        # a point of weight 1e-210 keeps axis 1's marginal under 1e-200 once
        # it is fitted, so every sweep after the first updates that axis in
        # the log domain, absorbing the pending scalings of the later axes
        rng = np.random.default_rng(5)
        measures = random_measures(rng, [3, 4, 3, 2])
        m = measures[1]
        measures[1] = DiscreteMeasure(m.support, np.where(np.arange(m.n) == 0, 1e-210, m.weights))
        axes = []
        log_marginal = dense._log_marginal

        def spy(log_m, ax, out=None):
            axes.append(ax)
            return log_marginal(log_m, ax, out)

        monkeypatch.setattr(dense, "_log_marginal", spy)
        mm = self.assert_matches_reference(measures, path_graph(4), 1.0)
        assert axes.count(1) == mm.iterations - 1 > 1

    def test_unpruned_solve_peaks_under_three_tensors(self):
        # six 5-point measures at eta 50, as perfbench's oracle_s6: the cost
        # tensor is the working log tensor and the linear tensor is returned
        # as is, so the solve peaks at about 2.8 tensors (2.79 by tracemalloc),
        # reached in numpy's broadcast buffers at the first log-domain update
        rng = np.random.default_rng(1)
        measures = random_measures(rng, [5] * 6)
        graph = path_graph(6)
        costs = edge_costs(measures, graph)
        tracemalloc.start()
        try:
            mm = mm_sinkhorn(measures, graph, costs, 50.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mm.converged
        assert peak <= 3 * mm.tensor.nbytes, f"peak {peak / mm.tensor.nbytes:.2f} tensors"


def without_point(measure, i):
    """measure with its point i at weight 0."""
    weights = np.where(np.arange(measure.n) == i, 0.0, measure.weights)
    return DiscreteMeasure(measure.support, weights)


class TestPruning:
    """mm_sinkhorn drops zero-weight points once: log K is built over the kept
    points and the solution is scattered back into the full shape."""

    @pytest.mark.parametrize("absorbing", [False, True], ids=["plain", "absorbing"])
    def test_equals_the_solve_without_the_pruned_points(self, absorbing, monkeypatch):
        # dyadic weights: dropping their zeros leaves the sums at exactly 1,
        # so the kept measures are the same numbers
        if absorbing:
            monkeypatch.setattr(dense, "_LOG_SCALE_BOUND", 0.0)
        weights = [[0.25, 0.0, 0.5, 0.25], [0.5, 0.5], [0.0, 0.75, 0.25],
                   [0.125, 0.375, 0.0, 0.5]]
        keeps = [np.array(w) > 0 for w in weights]
        rng = np.random.default_rng(7)
        full = [DiscreteMeasure(rng.uniform(-3, 3, (len(w), 2)), w) for w in weights]
        kept = [DiscreteMeasure(m.support[k], m.weights[k]) for m, k in zip(full, keeps)]
        graph = graph_from_edges(4, [(1, 2), (2, 3), (2, 4), (3, 4)])  # with a cycle
        costs = edge_costs(full, graph)
        kept_costs = {(a, b): c[np.ix_(keeps[a - 1], keeps[b - 1])] for (a, b), c in costs.items()}
        pruned = mm_sinkhorn(full, graph, costs, 0.5)
        direct = mm_sinkhorn(kept, graph, kept_costs, 0.5)
        assert direct.converged
        block = np.ix_(*keeps)
        assert np.array_equal(pruned.tensor[block], direct.tensor)
        assert (pruned.iterations, pruned.residual, pruned.converged) == (
            direct.iterations, direct.residual, direct.converged)
        rest = pruned.tensor.copy()
        rest[block] = 0.0
        assert not rest.any()

    def test_pruned_solve_peaks_under_two_and_a_quarter_tensors(self):
        # five 1-d measures of 18 points, point v of measure v at zero weight:
        # the solve peaks at 1.81 full tensors by tracemalloc; building the
        # full cost tensor and pruning it axis by axis peaks at 2.75
        rng = np.random.default_rng(3)
        measures = [without_point(m, v) for v, m in
                    enumerate(random_measures(rng, [18] * 5, dim=1, low=-3, high=3))]
        graph = graph_from_edges(5, [(1, 2), (2, 3), (2, 4), (4, 5)])
        costs = edge_costs(measures, graph)
        tracemalloc.start()
        try:
            mm = mm_sinkhorn(measures, graph, costs, 5.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert mm.converged and mm.tensor.shape == (18,) * 5
        assert peak <= 2.25 * mm.tensor.nbytes, f"peak {peak / mm.tensor.nbytes:.2f} tensors"

    def test_cap_applies_to_the_full_shape(self, rng):
        # the kept points make 215^3 < 10^7 entries, the returned tensor 216^3
        measures = [without_point(m, 0) for m in random_measures(rng, [OVER_CAP_N] * 3)]
        graph = path_graph(3)
        with pytest.raises(ValidationError, match=OVER_CAP):
            mm_sinkhorn(measures, graph, edge_costs(measures, graph), eta=1.0)

    @pytest.mark.parametrize("cost, eta, message", [
        ([[0.0, 1.0], [np.inf, np.inf], [4.0, 1.0]], 1.0, r"edge \(1, 2\) has non-finite"),
        ([[0.0, 1.0], [np.nan, 0.0], [4.0, 1.0]], 1.0, r"edge \(1, 2\) has non-finite"),
        ([[0.0, 1.0], [1e308, 0.0], [4.0, 1.0]], 1e-10, r"eta=1e-10 is too small"),
        (np.zeros((4, 2)), 1.0, r"edge \(1, 2\) has shape \(4, 2\), expected \(3, 2\)"),
    ], ids=["inf", "nan", "overflowing", "mis-shaped"])
    def test_a_pruned_points_cost_is_checked(self, cost, eta, message):
        # point 2 of measure 1 has zero weight: its row is checked all the same
        measures = [DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5]),
                    DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])]
        with pytest.raises(ValidationError, match=message):
            mm_sinkhorn(measures, graph_from_edges(2, [(1, 2)]), {(1, 2): cost}, eta)


class TestLogMarginal:
    def test_every_axis_matches_logsumexp_and_leaves_the_tensor(self, rng):
        # axes 0 and s-1 reshape to views, the middle ones to copies: the
        # in-place shift must land on a copy for every axis
        log_m = np.log(rng.uniform(0.1, 1.0, (3, 4, 2, 5)))
        log_m[1, :, :, :] = -np.inf  # an all -inf slice on axis 0
        before = log_m.copy()
        for ax in range(log_m.ndim):
            others = tuple(a for a in range(log_m.ndim) if a != ax)
            with np.errstate(divide="ignore"):
                expected = logsumexp(log_m, axis=others)
            assert np.allclose(_log_marginal(log_m, ax), expected, rtol=1e-13, atol=0.0)
            assert np.array_equal(log_m, before)


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
            c = cost_tensor(path_graph(3), costs, shape=shape)
            eta = float(rng.uniform(0.5, 4.0))
            k = np.exp(-c / eta)
            assert msb_objective(m, c, eta) == pytest.approx(
                eta * kl_divergence(m, k), rel=1e-9
            )

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            msb_objective(np.ones((2, 2)) / 4, np.zeros((2, 3)), 1.0)
