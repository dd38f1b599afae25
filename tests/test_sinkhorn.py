import functools
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from scipy.special import logsumexp

from bridgetree import (
    DiscreteMeasure,
    PairwiseCost,
    SolverConfig,
    ValidationError,
    build_cost,
    edge_weight,
    entropy,
    gibbs_kernel,
    sample_gmm,
    sb_value,
    sinkhorn_solve,
    total_variation,
)
from bridgetree.config import COST_KINDS, DEFAULT_MAX_ITER, DEFAULT_TOL, check_cost_matrix
from bridgetree.sinkhorn import _OMEGA_MAX, _PROBE, SweepState, _ascends, _plan_from_duals, _row_lse
from bridgetree.sinkhorn import _workspace, rebuild_coupling
from conftest import GMM_MIXTURES, random_measure
from helpers import kl_divergence, relaxed_sweep_reference, sweep_reference

UNIFORM2 = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
SWAP_COST = PairwiseCost([[0.0, 1.0], [1.0, 0.0]])


@pytest.fixture
def plain_sweeps(monkeypatch):
    """Cap omega at 1: every sweep runs in the plain form."""
    monkeypatch.setattr("bridgetree.sinkhorn._OMEGA_MAX", 1.0)


def entropic_objective(plan, cost, eta):
    mask = plan > 0
    return float((plan * cost).sum() + eta * (plan[mask] * np.log(plan[mask])).sum())


def reference_sinkhorn(m1, m2, cost, eta, tol=1e-9, max_iter=100_000):
    """The log-domain (log-sum-exp) recursion the scaling kernel must reproduce.

    Returns (plan, iterations, converged).
    """
    keep1, keep2 = m1.weights > 0, m2.weights > 0
    mu, nu = m1.weights[keep1], m2.weights[keep2]
    log_k = -cost.matrix[np.ix_(keep1, keep2)] / eta
    f, g = np.zeros(mu.size), np.zeros(nu.size)
    iterations, residual, converged = 0, np.inf, False
    while iterations < max_iter:
        lse_rows = logsumexp(log_k + g[None, :], axis=1)
        if iterations > 0:
            residual = total_variation(np.exp(f + lse_rows), mu)
            if residual <= tol:
                converged = True
                break
        f = np.log(mu) - lse_rows
        g = np.log(nu) - logsumexp(log_k + f[:, None], axis=0)
        iterations += 1
    if not converged:
        residual = total_variation(np.exp(f + logsumexp(log_k + g[None, :], axis=1)), mu)
        converged = residual <= tol
    plan = np.zeros((m1.n, m2.n))
    plan[np.ix_(keep1, keep2)] = np.exp(f[:, None] + log_k + g[None, :])
    return plan, iterations, converged


def residuals_per_sweep(state, tol=DEFAULT_TOL, max_iter=DEFAULT_MAX_ITER):
    """The residual after each sweep, advancing the state one sweep a call."""
    history = []
    while state.residual > tol and state.iterations < max_iter:
        state.advance(1, tol)
        history.append(state.residual)
    return history


def plain_pair():
    rng = np.random.default_rng(0)
    m1 = DiscreteMeasure(rng.uniform(-3, 3, (9, 2)), rng.uniform(0.5, 1.5, 9))
    m2 = DiscreteMeasure(rng.uniform(-3, 3, (7, 2)), rng.uniform(0.5, 1.5, 7))
    return m1, m2, 1.0


def zero_weight_pair():
    """Supports 30 apart: at eta 0.05, 1043 plain or 310 relaxed sweeps, and
    3 absorptions."""
    rng = np.random.default_rng(1)
    w1 = rng.uniform(0.5, 1.5, 9)
    w1[4] = 0.0
    m1 = DiscreteMeasure(rng.uniform(-3, 3, (9, 2)), w1)
    m2 = DiscreteMeasure(rng.uniform(-3, 3, (7, 2)) + [30.0, 0.0], rng.uniform(0.5, 1.5, 7))
    return m1, m2, 0.05


def blob_pair():
    """Two 200-point 2-d blobs whose centres are 30 apart: at eta 0.05 the
    solve takes 3521 plain or 767 relaxed sweeps and absorbs 3 times."""
    rng = np.random.default_rng(0)
    m1 = DiscreteMeasure(rng.uniform(-3, 3, (200, 2)), np.ones(200))
    m2 = DiscreteMeasure(rng.uniform(-3, 3, (200, 2)) + [30.0, 0.0], np.ones(200))
    return m1, m2, 0.05


def tiny_edges():
    """Six swarm-like edges of 4-12 points at eta 50: every sweep after the
    first passes the guard."""
    rng = np.random.default_rng(16)
    return [(random_measure(rng, int(n1)), random_measure(rng, int(n2)), 50.0)
            for n1, n2 in rng.integers(4, 13, (6, 2))]


def gmm_edge():
    """Two 200-point GMM samples at eta 20: 166 plain or 38 relaxed sweeps."""
    rng = np.random.default_rng(20)
    measures = [sample_gmm(mix, 200, (-10.0, 10.0), seed=rng) for mix in GMM_MIXTURES]
    return [(measures[0], measures[4], 20.0)]


def far_edges():
    """The far-support edges of test_small_eta_far_supports_absorb."""
    edges = []
    for eta in (0.01, 0.05):
        rng = np.random.default_rng(7)
        for _ in range(3):
            m1 = DiscreteMeasure(rng.uniform(-3, 3, (7, 2)), rng.uniform(0.5, 1.5, 7))
            m2 = DiscreteMeasure(rng.uniform(-3, 3, (6, 2)) + [30.0, 0.0], rng.uniform(0.5, 1.5, 6))
            edges.append((m1, m2, eta))
    return edges


def underflow_edges():
    """test_tiny_weight_row_underflow's edges: the tiny row's K~ b underflows."""
    rng = np.random.default_rng(3)
    mu = DiscreteMeasure(rng.uniform(-3, 3, (3, 2)), [1.0, 1.0, 1e-250])
    nu = DiscreteMeasure(rng.uniform(-3, 3, (4, 2)), rng.uniform(0.5, 1.5, 4))
    return [(mu, nu, eta) for eta in (0.5, 1.0, 5.0)]


def tiny_weight_edges():
    """A kept weight of 1e-160, so the guard's top falls below 1e50.  On the
    far edge a guard at 1e50 would pass a sweep where a product underflowed."""
    edges = []
    for m1, m2, eta in (plain_pair(), far_edges()[2]):
        weights = m1.weights.copy()
        weights[1] = 1e-160
        edges.append((DiscreteMeasure(m1.support, weights), m2, eta))
    return edges


def zero_weight_edges():
    m1, m2, eta = zero_weight_pair()
    rng = np.random.default_rng(4)
    w = rng.uniform(0.5, 1.5, 8)
    w[[0, 5]] = 0.0
    small = DiscreteMeasure(rng.uniform(-3, 3, (8, 2)), w)
    return [(m1, m2, eta), (small, random_measure(rng, 5), 50.0)]


@functools.cache
def brute_force_symmetric_2x2(eta=1.0, grid=2_000_001):
    """Oracle for the uniform 2x2 swap-cost instance.

    Feasible plans form the segment [[a, 1/2-a], [1/2-a, a]]; minimize the
    entropic objective by dense scan.  Cached: the scan is pure Python and
    two tests read the same grid.
    """
    cost = np.array([[0.0, 1.0], [1.0, 0.0]])
    best_a, best_val = None, np.inf
    for a in np.linspace(1e-9, 0.5 - 1e-9, grid):
        b = 0.5 - a
        val = entropic_objective(np.array([[a, b], [b, a]]), cost, eta)
        if val < best_val:
            best_a, best_val = a, val
    return best_a, best_val


class TestBuildCost:
    def test_sqeuclidean_binary_points(self):
        c = build_cost(UNIFORM2, UNIFORM2, "sqeuclidean")
        assert np.array_equal(c.matrix, [[0.0, 1.0], [1.0, 0.0]])

    def test_identical_single_point(self):
        m = DiscreteMeasure([[2.0, 3.0]], [1.0])
        for kind in ("sqeuclidean", "euclidean"):
            assert np.allclose(build_cost(m, m, kind).matrix, [[0.0]])

    def test_euclidean_vs_squared(self):
        m0 = DiscreteMeasure([[0.0]], [1.0])
        m3 = DiscreteMeasure([[3.0]], [1.0])
        assert np.allclose(build_cost(m0, m3, "euclidean").matrix, [[3.0]])
        assert np.allclose(build_cost(m0, m3, "sqeuclidean").matrix, [[9.0]])

    @staticmethod
    def seeded_pairs(dim):
        """Measure pairs of 1 to 40 points in R^dim, 1-point measures among them."""
        rng = np.random.default_rng(100 + dim)
        sizes = [(1, 1), (1, 6), (7, 1), *rng.integers(1, 41, size=(30, 2))]
        return [(random_measure(rng, n1, dim), random_measure(rng, n2, dim)) for n1, n2 in sizes]

    @pytest.mark.parametrize("dim", [0, 1, 2])
    def test_low_dimensions_match_the_einsum_form_bit_for_bit(self, dim):
        for m1, m2 in self.seeded_pairs(dim):
            diff = m1.support[:, None, :] - m2.support[None, :, :]
            squared = np.einsum("ijk,ijk->ij", diff, diff)
            assert np.array_equal(build_cost(m1, m2).matrix, squared)
            assert np.array_equal(build_cost(m1, m2, "euclidean").matrix, np.sqrt(squared))

    @pytest.mark.parametrize("dim", range(3, 9))
    def test_higher_dimensions_within_four_eps_of_the_direct_sum(self, dim):
        # from d = 3 on, summation orders may round apart; the bound is fixed
        for m1, m2 in self.seeded_pairs(dim):
            direct = ((m1.support[:, None, :] - m2.support[None, :, :]) ** 2).sum(-1)
            gap = np.abs(build_cost(m1, m2).matrix - direct)
            assert np.all(gap <= 4 * np.finfo(float).eps * direct)

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_overflowing_supports_refused(self, kind):
        # the squared distance of points 2e200 apart overflows to inf
        far = DiscreteMeasure([[1e200], [-1e200]], [0.5, 0.5])
        with pytest.raises(ValidationError, match="non-finite"):
            build_cost(far, far, kind)

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_built_matrix_is_what_check_cost_matrix_returns(self, kind, rng):
        matrix = build_cost(random_measure(rng, 7), random_measure(rng, 5), kind).matrix
        assert not matrix.flags.writeable and matrix.flags.c_contiguous
        checked = check_cost_matrix(matrix)
        assert checked.dtype == matrix.dtype and checked.tobytes() == matrix.tobytes()

    def test_dimension_mismatch(self):
        m1 = DiscreteMeasure([[0.0]], [1.0])
        m2 = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ValidationError):
            build_cost(m1, m2)

    def test_matrix_kind_checks_shape(self):
        with pytest.raises(ValidationError):
            build_cost(UNIFORM2, UNIFORM2, np.zeros((3, 2)))

    def test_matrix_cost_leaves_the_callers_array_writeable(self):
        matrix = np.array([[0.0, 1.0], [1.0, 0.0]])
        cost = build_cost(UNIFORM2, UNIFORM2, matrix)
        assert matrix.flags.writeable
        assert not cost.matrix.flags.writeable
        matrix[0, 1] = 5.0
        assert cost.matrix[0, 1] == 1.0

    def test_negative_cost_rejected(self):
        with pytest.raises(ValidationError):
            PairwiseCost([[0.0, -1.0]])

    @pytest.mark.parametrize("matrix, match", [
        ([0.0, 1.0], "2-d"),
        ([[0.0, np.inf]], "non-finite"),
        ([[0.0, np.nan]], "non-finite"),
    ])
    def test_malformed_matrix_rejected(self, matrix, match):
        with pytest.raises(ValidationError, match=match):
            PairwiseCost(matrix)

    def test_unknown_kind(self):
        with pytest.raises(ValidationError, match="manhattan"):
            build_cost(UNIFORM2, UNIFORM2, "manhattan")

    def test_matrix_kind_needs_matrix(self):
        # a matrix cost is the array itself; the string "matrix" is no kind
        with pytest.raises(ValidationError, match="unknown cost kind 'matrix'"):
            build_cost(UNIFORM2, UNIFORM2, "matrix")


class TestGibbsKernel:
    def test_returns_read_only_log_kernel(self):
        cost = PairwiseCost([[0.0, 1.5], [3.0, 0.25]])
        k = gibbs_kernel(cost, 0.7)
        assert type(k) is np.ndarray
        assert np.array_equal(k, -cost.matrix / 0.7)
        assert not k.flags.writeable

    def test_zero_cost_gives_ones(self):
        k = gibbs_kernel(PairwiseCost([[0.0]]), 3.7)
        assert np.allclose(np.exp(k), [[1.0]])

    def test_analytic_exponent(self):
        eta = 2.5
        k = gibbs_kernel(PairwiseCost([[eta * np.log(2.0)]]), eta)
        assert np.allclose(np.exp(k), [[0.5]])

    def test_swap_cost(self):
        k = gibbs_kernel(SWAP_COST, 1.0)
        assert np.allclose(np.exp(k), [[1.0, np.exp(-1)], [np.exp(-1), 1.0]])

    def test_eta_must_be_positive(self):
        with pytest.raises(ValidationError):
            gibbs_kernel(SWAP_COST, 0.0)

    def test_overflowing_eta_refused(self):
        # C/eta overflows to inf for a subnormal eta; no warning escapes
        with pytest.raises(ValidationError, match=r"eta=1e-310.*top cost 1\.0"):
            gibbs_kernel(SWAP_COST, 1e-310)


class TestSinkhornSolve:
    def test_dirac_pair_forced_plan(self):
        m1 = DiscreteMeasure([[0.0]], [1.0])
        m2 = DiscreteMeasure([[5.0]], [1.0])
        coup = sinkhorn_solve(m1, m2, gibbs_kernel(PairwiseCost([[4.2]]), 1.0))
        assert np.allclose(coup.plan, [[1.0]])
        assert coup.converged

    def test_zero_cost_gives_product_measure(self):
        log_k = gibbs_kernel(PairwiseCost(np.zeros((2, 2))), 1.0)
        coup = sinkhorn_solve(UNIFORM2, UNIFORM2, log_k)
        assert np.allclose(coup.plan, 0.25)

    def test_symmetric_2x2_matches_stationarity(self):
        # a/b = e from the optimality conditions; a = e / (2(1+e))
        coup = sinkhorn_solve(UNIFORM2, UNIFORM2, gibbs_kernel(SWAP_COST, 1.0))
        a_expected = np.e / (2.0 * (1.0 + np.e))
        assert coup.plan[0, 0] == pytest.approx(a_expected, abs=1e-12)
        assert coup.plan[0, 1] == pytest.approx(0.5 - a_expected, abs=1e-12)

    def test_symmetric_2x2_matches_grid_oracle(self):
        coup = sinkhorn_solve(UNIFORM2, UNIFORM2, gibbs_kernel(SWAP_COST, 1.0))
        a_oracle, _ = brute_force_symmetric_2x2(grid=200_001)
        assert coup.plan[0, 0] == pytest.approx(a_oracle, abs=1e-5)

    def test_marginals_within_tol_after_convergence(self, rng):
        for _ in range(10):
            m1 = random_measure(rng, int(rng.integers(2, 7)))
            m2 = random_measure(rng, int(rng.integers(2, 7)))
            cost = build_cost(m1, m2)
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 2.0), tol=1e-9)
            assert coup.converged
            row, col = coup.plan.sum(axis=1), coup.plan.sum(axis=0)
            assert total_variation(row, m1.weights) <= 1e-9
            assert total_variation(col, m2.weights) <= 1e-9
            assert coup.plan.sum() == pytest.approx(1.0, abs=1e-9)

    def test_transpose_symmetry(self, rng):
        for _ in range(5):
            m1 = random_measure(rng, 4, low=-3, high=3)
            m2 = random_measure(rng, 6, low=-3, high=3)
            cost = build_cost(m1, m2)
            forward = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.0))
            backward = sinkhorn_solve(m2, m1, gibbs_kernel(PairwiseCost(cost.matrix.T), 1.0))
            assert np.abs(forward.plan - backward.plan.T).max() <= 1e-7

    def test_plan_invariant_under_joint_scaling(self, rng):
        for a in (2.0, 17.0, 0.31):
            m1 = random_measure(rng, 5, low=-3, high=3)
            m2 = random_measure(rng, 4, low=-3, high=3)
            cost = build_cost(m1, m2)
            base = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.3))
            scaled = sinkhorn_solve(m1, m2, gibbs_kernel(PairwiseCost(a * cost.matrix), a * 1.3))
            assert np.abs(base.plan - scaled.plan).max() <= 1e-8

    def test_residual_monotone_per_sweep(self, rng, plain_sweeps):
        for _ in range(5):
            m1 = random_measure(rng, 6, low=-3, high=3)
            m2 = random_measure(rng, 5, low=-3, high=3)
            cost = build_cost(m1, m2)
            h = np.array(residuals_per_sweep(SweepState(m1, m2, gibbs_kernel(cost, 0.8))))
            assert np.all(h[1:] <= h[:-1] + 1e-12)

    def test_zero_weight_entries_pruned_and_restored(self):
        m1 = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.5, 0.0, 0.5])
        m2 = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
        cost = build_cost(m1, m2)
        coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.0))
        assert coup.converged
        assert np.all(coup.plan[1] == 0.0)
        assert coup.log_u1[1] == -np.inf
        assert total_variation(coup.plan.sum(axis=1), m1.weights) <= 1e-9

    def test_zero_weight_point_changes_no_bit_of_the_rest(self, rng):
        # the pruned solve gathers the kept block, the unpruned one reads the
        # kernel as given: both must run the same arithmetic
        points, weights = rng.uniform(-10, 10, (6, 2)), rng.uniform(0.5, 1.5, 6)
        m1 = DiscreteMeasure(points, weights)
        padded = DiscreteMeasure(np.vstack([points, [[0.0, 0.0]]]), np.append(weights, 0.0))
        m2 = random_measure(rng, 5)
        whole = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), 2.0))
        pruned = sinkhorn_solve(padded, m2, gibbs_kernel(build_cost(padded, m2), 2.0))
        assert whole.iterations == pruned.iterations
        assert np.array_equal(whole.plan, pruned.plan[:6])
        assert np.all(pruned.plan[6] == 0.0)
        assert np.array_equal(whole.log_u1, pruned.log_u1[:6])
        assert np.array_equal(whole.log_u2, pruned.log_u2)

    @pytest.mark.parametrize("eta", [0.5, 1.0, 5.0])
    def test_tiny_weight_row_underflow(self, eta):
        # the 1e-250 row's K~ b underflows, so the a update of that half
        # sweep must run in the log domain: mu / kb would divide by zero
        rng = np.random.default_rng(3)
        mu = DiscreteMeasure(rng.uniform(-3, 3, (3, 2)), [1.0, 1.0, 1e-250])
        nu = DiscreteMeasure(rng.uniform(-3, 3, (4, 2)), rng.uniform(0.5, 1.5, 4))
        with np.errstate(all="raise"):
            coup = sinkhorn_solve(mu, nu, gibbs_kernel(build_cost(mu, nu), eta))
        assert coup.converged
        assert np.all(np.isfinite(coup.plan))
        assert total_variation(coup.plan.sum(axis=1), mu.weights) <= 1e-9
        assert total_variation(coup.plan.sum(axis=0), nu.weights) <= 1e-9

    def test_cost_shape_must_match_marginals(self):
        m3 = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.2, 0.3, 0.5])
        with pytest.raises(ValidationError, match=r"\(2, 3\)"):
            sinkhorn_solve(UNIFORM2, m3, gibbs_kernel(SWAP_COST, 1.0))

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_non_finite_log_kernel_refused(self, bad):
        log_k = np.zeros((2, 2))
        log_k[1, 0] = bad
        with pytest.raises(ValidationError, match="non-finite"):
            sinkhorn_solve(UNIFORM2, UNIFORM2, log_k)

    def test_nonconvergence_reported_not_raised(self):
        m1 = DiscreteMeasure(np.array([[-8.0], [9.0]]), [0.4, 0.6])
        m2 = DiscreteMeasure(np.array([[-7.5], [8.5]]), [0.7, 0.3])
        cost = build_cost(m1, m2)
        coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.0), max_iter=2)
        assert not coup.converged
        assert coup.residual > 1e-9
        assert coup.iterations == 2


@pytest.mark.usefixtures("plain_sweeps")
class TestLogDomainParity:
    @pytest.mark.parametrize("eta", [0.5, 1.0, 5.0, 20.0])
    def test_matches_log_domain_recursion(self, eta):
        rng = np.random.default_rng(int(eta * 100))
        for k in range(8):
            n, m = (int(x) for x in rng.integers(2, 25, 2))
            w1, w2 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
            if k % 2 == 0:
                w1[rng.integers(n)] = 0.0
                w2[rng.integers(m)] = 0.0
            m1 = DiscreteMeasure(rng.uniform(-10, 10, (n, 2)), w1)
            m2 = DiscreteMeasure(rng.uniform(-10, 10, (m, 2)), w2)
            cost = build_cost(m1, m2)
            # the cap leaves some edges unconverged at eta 0.5 and 1
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta), max_iter=3_000)
            plan, iterations, converged = reference_sinkhorn(m1, m2, cost, eta, max_iter=3_000)
            assert coup.iterations == iterations
            assert coup.converged == converged
            assert np.abs(coup.plan - plan).max() <= 1e-12
            mask = plan > 0
            ref_sb = float((plan[mask] * (np.log(plan[mask]) + cost.matrix[mask] / eta)).sum())
            assert sb_value(coup) == pytest.approx(ref_sb, abs=1e-10)

    def test_max_iter_cut_matches(self):
        m1 = DiscreteMeasure(np.array([[-8.0], [9.0]]), [0.4, 0.6])
        m2 = DiscreteMeasure(np.array([[-7.5], [8.5]]), [0.7, 0.3])
        cost = build_cost(m1, m2)
        log_k = gibbs_kernel(cost, 1.0)
        for max_iter in (1, 2, 5):
            coup = sinkhorn_solve(m1, m2, log_k, max_iter=max_iter)
            plan, iterations, converged = reference_sinkhorn(m1, m2, cost, 1.0, max_iter=max_iter)
            assert (coup.iterations, coup.converged) == (iterations, converged)
            history = residuals_per_sweep(SweepState(m1, m2, log_k), max_iter=max_iter)
            assert len(history) == iterations and history[-1] == coup.residual
            assert np.abs(coup.plan - plan).max() <= 1e-12

    @pytest.mark.parametrize("eta", [0.01, 0.05])
    def test_small_eta_far_supports_absorb(self, eta):
        # exp(-C/eta) underflows to zero everywhere: only the absorbed duals
        # keep the kernel representable.
        rng = np.random.default_rng(7)
        for _ in range(3):
            m1 = DiscreteMeasure(rng.uniform(-3, 3, (7, 2)), rng.uniform(0.5, 1.5, 7))
            m2 = DiscreteMeasure(rng.uniform(-3, 3, (6, 2)) + [30.0, 0.0], rng.uniform(0.5, 1.5, 6))
            cost = build_cost(m1, m2)
            assert np.all(np.exp(gibbs_kernel(cost, eta)) == 0.0)
            with np.errstate(all="raise"):
                coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta), max_iter=20_000)
            assert np.all(np.isfinite(coup.plan))
            assert coup.absorptions > 0
            if coup.converged:
                assert total_variation(coup.plan.sum(axis=1), m1.weights) <= 1e-9
                assert total_variation(coup.plan.sum(axis=0), m2.weights) <= 1e-9


class TestSweepState:
    @pytest.mark.parametrize("pair", [plain_pair, zero_weight_pair, blob_pair])
    def test_resumed_state_matches_straight_solve(self, pair):
        m1, m2, eta = pair()
        log_k = gibbs_kernel(build_cost(m1, m2), eta)
        straight = sinkhorn_solve(m1, m2, log_k)
        # one sweep a call is a resume at every sweep; it finds the absorptions
        stepped = SweepState(m1, m2, log_k)
        absorbed_at = []
        while stepped.residual > DEFAULT_TOL:
            absorptions = stepped.absorptions
            stepped.advance(1, DEFAULT_TOL)
            if stepped.absorptions > absorptions:
                absorbed_at.append(stepped.iterations)
        assert len(absorbed_at) == straight.absorptions == (0 if pair is plain_pair else 3)
        resumed = [stepped]
        for k in sorted({1, 2, straight.iterations // 2, *(j - 1 for j in absorbed_at[:1])}):
            state = SweepState(m1, m2, log_k)
            state.advance(k, DEFAULT_TOL)
            assert state.iterations == k and state.residual > DEFAULT_TOL
            state.log_duals()  # reading the duals leaves f and g as they are
            state.advance(DEFAULT_MAX_ITER - k, DEFAULT_TOL)
            resumed.append(state)
        for state in resumed:
            log_u1, log_u2 = state.log_duals()
            plan = _plan_from_duals(log_k, log_u1, log_u2)
            assert (state.iterations, state.residual, state.absorptions) == (
                straight.iterations, straight.residual, straight.absorptions)
            assert np.array_equal(log_u1, straight.log_u1)
            assert np.array_equal(log_u2, straight.log_u2)
            assert np.array_equal(plan, straight.plan)

    @pytest.mark.parametrize("stepped", [False, True], ids=["straight", "stepped"])
    @pytest.mark.parametrize("edges", [tiny_edges, gmm_edge, far_edges, underflow_edges,
                                       tiny_weight_edges, zero_weight_edges])
    def test_guarded_sweep_matches_reference(self, edges, stepped, plain_sweeps):
        # the guarded sweep reproduces the loop that checks every half sweep
        # and every scaling, bit for bit, whether it runs straight or resumes
        # after every sweep
        cap = 20_000
        for m1, m2, eta in edges():
            log_k = gibbs_kernel(build_cost(m1, m2), eta)
            state, reference = SweepState(m1, m2, log_k), SweepState(m1, m2, log_k)
            while state.residual > DEFAULT_TOL and state.iterations < cap:
                state.advance(1 if stepped else cap, DEFAULT_TOL)
                sweep_reference(reference, 1 if stepped else cap, DEFAULT_TOL)
            assert (state.iterations, state.absorptions, state.residual) == (
                reference.iterations, reference.absorptions, reference.residual)
            for log_u, reference_log_u in zip(state.log_duals(), reference.log_duals()):
                assert np.array_equal(log_u, reference_log_u)

    @pytest.mark.parametrize("pair", [plain_pair, zero_weight_pair, blob_pair])
    def test_solve_raises_no_floating_point_error(self, pair):
        # an unchecked sweep, the first one too, may divide by an underflowed
        # kb; its own errstate must keep that from reaching the caller's, here
        # one that raises
        m1, m2, eta = pair()
        with np.errstate(all="raise"):
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
        assert coup.converged

    def test_checked_half_sweeps_keep_the_callers_error_handling(self, monkeypatch):
        # only the unchecked sweep is silenced: a floating-point error in a
        # checked half sweep (here the first, log-domain one: the kernel of
        # these supports 30 apart underflows) still raises
        def row_lse(x):
            np.divide(1.0, np.zeros(1))
            return _row_lse(x)

        monkeypatch.setattr("bridgetree.sinkhorn._row_lse", row_lse)
        m1, m2, eta = zero_weight_pair()
        with np.errstate(all="raise"), pytest.raises(FloatingPointError):
            sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))

    def test_only_an_underflowing_kernel_reaches_the_log_domain(self, monkeypatch):
        # the first sweep starts from K~ = K in scaling form, as every other
        # sweep does; only a product that underflows takes a log-domain half sweep
        class LogDomain(Exception):
            pass

        def row_lse(x):
            raise LogDomain

        monkeypatch.setattr("bridgetree.sinkhorn._row_lse", row_lse)
        for m1, m2, eta in tiny_edges() + gmm_edge():
            assert sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta)).converged
        for m1, m2, eta in (zero_weight_pair(), blob_pair()):
            with pytest.raises(LogDomain):
                sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))

    @pytest.mark.parametrize("eta", [0.05, 0.1])
    def test_checked_sweep_underflow_stays_inside_the_solve(self, eta):
        # the 1e-250 weight's scaling is about 1e-250, so K~^T a underflows in
        # the checked column half sweep, whose own < 1e-200 test handles it; a
        # caller whose errstate raises gets the default handling's solve, bit
        # for bit (the dot raised FloatingPointError before)
        (m1, m2, _), = underflow_edges()[:1]
        log_k = gibbs_kernel(build_cost(m1, m2), eta)
        with np.errstate(all="raise"):
            raised = sinkhorn_solve(m1, m2, log_k)
        default = sinkhorn_solve(m1, m2, log_k)
        assert raised.converged and raised.absorptions > 0
        for name in ("iterations", "residual", "absorptions", "kernel_cost"):
            assert getattr(raised, name) == getattr(default, name), name
        for name in ("log_u1", "log_u2", "plan"):
            assert np.array_equal(getattr(raised, name), getattr(default, name)), name
        for side, default_side in zip(raised.marginals, default.marginals):
            assert np.array_equal(side, default_side)

    @pytest.mark.parametrize("pair", [blob_pair, zero_weight_pair])
    def test_kernel_stays_on_a_64_byte_boundary(self, pair, monkeypatch):
        # K~ is built in an aligned buffer, and every rebuild after an
        # absorption and every log-domain half sweep (both pairs take both)
        # writes into that buffer
        log_domain = []
        monkeypatch.setattr("bridgetree.sinkhorn._row_lse",
                            lambda x: log_domain.append(1) or _row_lse(x))
        m1, m2, eta = pair()
        state = SweepState(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
        assert state.kernel.ctypes.data % 64 == 0
        while state.residual > DEFAULT_TOL:
            absorptions, half_sweeps = state.absorptions, len(log_domain)
            state.advance(1, DEFAULT_TOL)
            if state.absorptions > absorptions or len(log_domain) > half_sweeps:
                assert state.kernel.ctypes.data % 64 == 0
        assert state.absorptions == 3 and log_domain

    def test_unread_plan_is_never_formed(self):
        # a solve records the marginals and <P, -log K> from its final
        # iterate over K~, so beyond log K a 200 x 200 solve holds K~ and
        # O(n) vectors; the plan is formed only when read
        (m1, m2, eta), = gmm_edge()
        log_k = gibbs_kernel(build_cost(m1, m2), eta)
        tracemalloc.start()
        try:
            coup = sinkhorn_solve(m1, m2, log_k)
            sb_value(coup)
            coup.kernel_cost
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert "plan" not in vars(coup)
        assert peak <= 1.1 * log_k.nbytes
        assert np.array_equal(coup.plan, _plan_from_duals(log_k, coup.log_u1, coup.log_u2))

    def test_absorbing_solve_holds_one_kernel_array(self):
        # K~ is rebuilt over itself and the log-domain half sweeps use it as
        # their temporary: beyond log K, the solve holds one n x n array (K~)
        # and numpy's broadcast buffers.  An old K~ kept alive across a
        # rebuild read 2.27 arrays here.
        m1, m2, eta = blob_pair()
        log_k = gibbs_kernel(build_cost(m1, m2), eta)
        tracemalloc.start()
        try:
            coup = sinkhorn_solve(m1, m2, log_k)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert coup.converged and coup.absorptions == 3
        assert peak <= 1.3 * log_k.nbytes

    def test_pruned_solve_peaks_as_the_unpruned_one(self):
        # the kept block of a pair with a zero-weight point is gathered for
        # K~'s first build and inside checked half sweeps only, so with no
        # absorption the pruned peak is the unpruned one.  A state that held
        # the block all along read 2.24 n x n arrays here against 1.25.
        rng = np.random.default_rng(5)
        n = 200
        m1 = DiscreteMeasure(rng.uniform(-3, 3, (n, 2)), np.ones(n))
        padded = DiscreteMeasure(np.vstack([m1.support, [[0.0, 0.0]]]), np.append(m1.weights, 0.0))
        m2 = DiscreteMeasure(rng.uniform(-3, 3, (n, 2)), np.ones(n))
        peaks = []
        for m in (m1, padded):
            log_k = gibbs_kernel(build_cost(m, m2), 0.5)
            tracemalloc.start()
            try:
                coup = sinkhorn_solve(m, m2, log_k)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
            assert coup.converged and coup.absorptions == 0
        assert peaks[1] <= peaks[0] + 0.1 * n * n * 8


def both_sides_pruned():
    """zero_weight_pair with a zero weight on the second side as well: the kept
    block is gathered with np.ix_."""
    m1, m2, eta = zero_weight_pair()
    weights = m2.weights.copy()
    weights[2] = 0.0
    return m1, DiscreteMeasure(m2.support, weights), eta


def solve_in(m1, m2, eta, work):
    """sinkhorn_solve with the cost, log K and K~ in the one pair work, as
    edge_weight runs it."""
    log_k = gibbs_kernel(build_cost(m1, m2, workspace=work), eta, workspace=work)
    return sinkhorn_solve(m1, m2, log_k, workspace=work)


def assert_same_solve(solved, owned):
    for got, want in zip((solved.log_u1, solved.log_u2, *solved.marginals),
                         (owned.log_u1, owned.log_u2, *owned.marginals)):
        assert np.array_equal(got, want)
    for name in ("iterations", "residual", "converged", "absorptions"):
        assert getattr(solved, name) == getattr(owned, name), name
    assert vars(solved).get("kernel_cost") == vars(owned).get("kernel_cost")
    assert sb_value(solved) == sb_value(owned)


class TestWorkspace:
    """A solve in a reused two-buffer workspace (sinkhorn._workspace), handed
    whole to every call, gives the bits of one over arrays it owns, whatever
    the buffers held before."""

    @staticmethod
    def stale_workspace(entries):
        work = _workspace(entries)
        work.fill(np.nan)  # a slice that read stale data would show it
        return work

    @pytest.mark.parametrize("edge", [*zero_weight_edges(), both_sides_pruned()])
    def test_pruned_edge_gathers_its_block_into_the_workspace(self, edge):
        m1, m2, eta = edge
        owned = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
        solved = solve_in(m1, m2, eta, self.stale_workspace(m1.n * m2.n + 5))
        assert_same_solve(solved, owned)
        assert solved.converged and "kernel_cost" not in vars(solved)

    @pytest.mark.parametrize("edge", [*far_edges(), blob_pair()])
    def test_absorbing_edge_rebuilds_in_the_workspace(self, edge):
        m1, m2, eta = edge
        owned = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
        solved = solve_in(m1, m2, eta, self.stale_workspace(m1.n * m2.n))
        assert_same_solve(solved, owned)
        assert solved.absorptions > 0

    def test_small_blocks_after_a_large_one(self):
        # the blob pair fills 40 000 entries of each buffer; the later, smaller
        # blocks lie in their heads with its data beyond them, and one has a
        # third coordinate, whose term is squared in the second buffer
        rng = np.random.default_rng(9)
        edges = [blob_pair(), *tiny_edges(), both_sides_pruned(), *gmm_edge(),
                 (random_measure(rng, 6, 3), random_measure(rng, 5, 3), 2.0), *tiny_edges()]
        work = self.stale_workspace(200 * 200)
        for m1, m2, eta in edges:
            owned = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
            assert_same_solve(solve_in(m1, m2, eta, work), owned)

    @pytest.mark.parametrize("kind", COST_KINDS)
    def test_cost_and_log_kernel_are_written_in_the_workspace(self, kind):
        rng = np.random.default_rng(10)
        m1, m2 = random_measure(rng, 7, 3), random_measure(rng, 4, 3)
        work = self.stale_workspace(40)
        cost = build_cost(m1, m2, kind, workspace=work)
        assert np.array_equal(cost.matrix, build_cost(m1, m2, kind).matrix)
        assert np.shares_memory(cost.matrix, work[0]) and not cost.matrix.flags.writeable
        log_k = gibbs_kernel(cost, 0.3, workspace=work)
        assert np.array_equal(log_k, gibbs_kernel(build_cost(m1, m2, kind), 0.3))
        assert np.shares_memory(log_k, work[0]) and not log_k.flags.writeable

    def test_owned_results_share_no_memory(self):
        m1, m2, eta = plain_pair()
        costs = build_cost(m1, m2), build_cost(m1, m2)
        kernels = gibbs_kernel(costs[0], eta), gibbs_kernel(costs[0], eta)
        for first, second in (costs[0].matrix, costs[1].matrix), kernels:
            assert not np.shares_memory(first, second)
            assert not (first.flags.writeable or second.flags.writeable)
        assert not np.shares_memory(kernels[0], costs[0].matrix)

    def test_every_workspace_row_starts_on_64_bytes(self):
        for entries in (1, 7, 8, 9, 40_000, 40_001):
            work = _workspace(entries)
            assert work.shape[1] >= entries
            assert work[0].ctypes.data % 64 == 0 and work[1].ctypes.data % 64 == 0

    @pytest.mark.parametrize("call", ["build_cost", "gibbs_kernel", "sinkhorn_solve",
                                      "edge_weight"])
    @pytest.mark.parametrize("work, got", [
        (np.empty((2, 62)), r"float64 of shape \(62,\)"),  # one entry short of 9 x 7
        (np.empty(2 * 63), r"float64 of shape \(\)"),  # a flat buffer: its rows are scalars
        (np.zeros((2, 63), dtype=np.int64), r"int64 of shape \(63,\)"),
    ], ids=["short-row", "flat-buffer", "int64-pair"])
    def test_a_malformed_workspace_is_refused_naming_both_sizes(self, call, work, got):
        m1, m2, eta = plain_pair()
        log_k = gibbs_kernel(build_cost(m1, m2), eta)
        run = {
            "build_cost": lambda: build_cost(m1, m2, workspace=work),
            "gibbs_kernel": lambda: gibbs_kernel(build_cost(m1, m2), eta, workspace=work),
            "sinkhorn_solve": lambda: sinkhorn_solve(m1, m2, log_k, workspace=work),
            "edge_weight": lambda: edge_weight(m1, m2, SolverConfig(eta=eta), workspace=work),
        }[call]
        refusal = f"9 x 7 block needs .* 63 or more entries, got {got}$"
        with pytest.raises(ValidationError, match=refusal):
            run()

    def test_cost_build_takes_no_iterator_buffer(self):
        # at n=200 np.subtract.outer took 129 kB of broadcast buffers and one
        # broadcast operand 64 kB; the copied rows take none, and the few
        # objects of the call about 1.5 kB
        (m1, m2, _), = gmm_edge()
        work = _workspace(m1.n * m2.n)
        build_cost(m1, m2, workspace=work)
        tracemalloc.start()
        try:
            build_cost(m1, m2, workspace=work)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8_000


def relaxing_edges():
    """Edges whose solves run past the probe, with every kind of relaxed
    sweep: kept, refused by the scaling guard, refused by the ascent test,
    and relaxed while absorbing, under a lowered top or with pruned points."""
    return (tiny_edges() + gmm_edge() + far_edges() + underflow_edges()
            + tiny_weight_edges() + zero_weight_edges())


def dual_objective(state) -> float:
    """<f + log a, mu> + <g + log b, nu> - plan mass, over the kept points."""
    n1 = state.mu.size
    log_a, log_b = np.log(state.ab[:n1]), np.log(state.ab[n1:])
    mass = float((state.ab[:n1] * state.kb).sum())
    return float((state.f + log_a) @ state.mu + (state.g + log_b) @ state.nu) - mass


class TestRelaxedSweeps:
    @pytest.mark.parametrize("stepped", [False, True], ids=["straight", "stepped"])
    @pytest.mark.parametrize("edges", [tiny_edges, gmm_edge, far_edges, underflow_edges,
                                       tiny_weight_edges, zero_weight_edges])
    def test_relaxed_sweep_matches_reference(self, edges, stepped):
        # the relaxed loop reproduces its reference bit for bit, whether it
        # runs straight or resumes after every sweep
        cap = 20_000
        for m1, m2, eta in edges():
            log_k = gibbs_kernel(build_cost(m1, m2), eta)
            state, reference = SweepState(m1, m2, log_k), SweepState(m1, m2, log_k)
            while state.residual > DEFAULT_TOL and state.iterations < cap:
                state.advance(1 if stepped else cap, DEFAULT_TOL)
                relaxed_sweep_reference(reference, 1 if stepped else cap, DEFAULT_TOL,
                                        _PROBE, _OMEGA_MAX)
            assert (state.iterations, state.absorptions, state.residual, state.omega) == (
                reference.iterations, reference.absorptions, reference.residual, reference.omega)
            for log_u, reference_log_u in zip(state.log_duals(), reference.log_duals()):
                assert np.array_equal(log_u, reference_log_u)

    def test_converged_solve_meets_tol_on_both_marginals(self):
        # a relaxed sweep leaves the column marginal off as well: the
        # residual reads both, so a converged plan is within tol on each
        for m1, m2, eta in relaxing_edges():
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
            assert coup.converged and coup.iterations > _PROBE
            assert total_variation(coup.plan.sum(axis=1), m1.weights) <= DEFAULT_TOL
            assert total_variation(coup.plan.sum(axis=0), m2.weights) <= DEFAULT_TOL

    def test_no_sweep_lowers_the_dual(self):
        # the ascent test keeps the relaxed iteration an ascent of the dual
        # objective, as the plain one is: the duals here fall only by their
        # rounding, 3e-16 of their size.  Without the test two of these
        # edges' duals fall by up to 40 (4e-4 of their size) in one sweep.
        for m1, m2, eta in far_edges() + tiny_weight_edges():
            state = SweepState(m1, m2, gibbs_kernel(build_cost(m1, m2), eta))
            duals = [dual_objective(state)]
            while state.residual > DEFAULT_TOL:
                state.advance(1, DEFAULT_TOL)
                duals.append(dual_objective(state))
            assert state.omega > 1
            assert np.all(np.diff(duals) >= -1e-12 * np.abs(duals[1:]))

    @pytest.mark.parametrize("omega", [1.1, 1.5, 1.8])
    def test_ascent_test_reads_psi(self, omega):
        # _ascends(x^omega, omega) is psi(x) = omega x log x - x^omega + 1 >= 0,
        # true on (0, x*] with x* > 1 and false beyond
        def psi(x):
            return omega * x * math.log(x) - x ** omega + 1

        for x in np.exp(np.linspace(-5.0, 5.0, 2001)):
            if abs(psi(x)) > 1e-9:
                assert _ascends(x ** omega, omega) == (psi(x) >= 0)
        # near 1, psi ~ omega (2 - omega) log(x)^2 / 2 is far below the
        # rounding of psi's own terms, yet still read as >= 0
        for e in (1e-6, 1e-9, 1e-12):
            assert _ascends(1 + e, omega) and _ascends(1 - e, omega)

    def test_gmm_batch_takes_at_most_65_percent_of_the_plain_sweeps(self, monkeypatch):
        # one draw of the five GMM measures, n=200, at eta 20
        rng = np.random.default_rng(1)
        measures = [sample_gmm(mix, 200, (-10.0, 10.0), seed=rng) for mix in GMM_MIXTURES]
        edges = [(m1, m2, gibbs_kernel(build_cost(m1, m2), 20.0))
                 for m1, m2 in itertools.combinations(measures, 2)]
        relaxed = sum(sinkhorn_solve(*edge).iterations for edge in edges)
        monkeypatch.setattr("bridgetree.sinkhorn._OMEGA_MAX", 1.0)
        plain = sum(sinkhorn_solve(*edge).iterations for edge in edges)
        assert relaxed <= 0.65 * plain


class TestSbValue:
    def test_constant_kernel(self):
        # zero cost: K is all ones, plan is the product, value is -log 4
        cost = PairwiseCost(np.zeros((2, 2)))
        coup = sinkhorn_solve(UNIFORM2, UNIFORM2, gibbs_kernel(cost, 1.0))
        val = sb_value(coup)
        assert val == pytest.approx(-np.log(4.0), abs=1e-12)

    def test_dirac_pair(self):
        m1 = DiscreteMeasure([[0.0]], [1.0])
        m2 = DiscreteMeasure([[1.0]], [1.0])
        c, eta = 4.0, 0.8
        cost = PairwiseCost([[c]])
        coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta))
        assert sb_value(coup) == pytest.approx(c / eta, abs=1e-12)

    def test_symmetric_2x2_value(self):
        # value frozen from the segment-scan oracle (the minimum of the
        # entropic objective over the feasible segment equals D_KL at eta=1);
        # analytically it is log(e / (2(1+e))).
        coup = sinkhorn_solve(UNIFORM2, UNIFORM2, gibbs_kernel(SWAP_COST, 1.0))
        val = sb_value(coup)
        assert val == pytest.approx(-1.0064088680781682, abs=1e-12)
        _, oracle_val = brute_force_symmetric_2x2(grid=200_001)
        assert val == pytest.approx(oracle_val, abs=1e-9)

    @pytest.mark.parametrize("eta, max_iter, zero_weights, far", [
        (2.0, 100_000, False, False),
        (0.8, 100_000, True, False),
        (0.05, 20_000, False, True),  # K~ entries below the log floor are exact zeros
        (0.05, 20_000, True, True),
        (1.0, 3, True, False),  # cut by max_iter: the value is that of the returned plan
    ])
    def test_dual_value_matches_masked_log(self, eta, max_iter, zero_weights, far):
        rng = np.random.default_rng(int(eta * 100) + 7 * max_iter + zero_weights)
        floored, cut = False, False
        for _ in range(6):
            n, m = (int(x) for x in rng.integers(1, 15, 2))
            w1, w2 = rng.uniform(0.5, 1.5, n), rng.uniform(0.5, 1.5, m)
            if zero_weights and n > 1 and m > 1:
                w1[rng.integers(n)] = 0.0
                w2[rng.integers(m)] = 0.0
            m1 = DiscreteMeasure(rng.uniform(-3, 3, (n, 2)), w1)
            m2 = DiscreteMeasure(rng.uniform(-3, 3, (m, 2)) + [8.0 * far, 0.0], w2)
            log_k = gibbs_kernel(build_cost(m1, m2), eta)
            coup = sinkhorn_solve(m1, m2, log_k, max_iter=max_iter)
            plan = coup.plan
            mask = plan > 0
            floored |= bool(np.any(~mask & (w1[:, None] * w2[None, :] > 0)))
            cut |= not coup.converged
            masked_log = float((plan[mask] * (np.log(plan[mask]) - log_k[mask])).sum())
            assert sb_value(coup) == pytest.approx(masked_log, rel=1e-12, abs=1e-300)
        assert (floored, cut) == (far, max_iter == 3)

    @pytest.mark.parametrize("edges", [
        lambda: [plain_pair()], zero_weight_edges, lambda: [blob_pair()],
        lambda: tiny_edges() + gmm_edge() + underflow_edges() + tiny_weight_edges()[:1],
    ], ids=["plain", "pruned", "absorbing", "relaxing"])
    def test_record_matches_the_formed_plan(self, edges):
        # sb and <C, P> read off the final iterate agree with their values on
        # the plan the duals form: sb_value of a coupling rebuilt from it,
        # whose marginals are its sums, and (C * P).sum().  Edges at eta 0.01
        # are left to the next test: there the duals reach 1e5, and the plan
        # formed from them carries their rounding, up to 2.4e-12 relative.
        for m1, m2, eta in edges():
            cost = build_cost(m1, m2)
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta), max_iter=20_000)
            _, rebuilt = rebuild_coupling(m1, m2, "sqeuclidean", eta, coup.log_u1, coup.log_u2,
                                          iterations=coup.iterations, residual=coup.residual,
                                          converged=coup.converged,
                                          absorptions=coup.absorptions)
            assert sb_value(coup) == pytest.approx(sb_value(rebuilt), rel=1e-12)
            assert eta * coup.kernel_cost == pytest.approx(
                float((cost.matrix * rebuilt.plan).sum()), rel=1e-12)
            assert np.array_equal(coup.plan, rebuilt.plan)

    def test_record_is_that_of_the_final_iterate(self):
        # the marginals and <P, -log K> a state records are those of its
        # iterate P = K~ * (a ⊗ b), to rounding, also where the duals are so
        # large that the plan formed from them is off by 1e-12
        for m1, m2, eta in relaxing_edges() + [blob_pair()]:
            log_k = gibbs_kernel(build_cost(m1, m2), eta)
            state = SweepState(m1, m2, log_k)
            state.advance(20_000, DEFAULT_TOL)
            n1 = state.mu.size
            plan = state.kernel * state.ab[:n1, None] * state.ab[None, n1:]
            kernel_cost = -float((plan * log_k[np.ix_(state.keep1, state.keep2)]).sum())
            (row, col), recorded = state.finish()
            assert np.allclose(row[state.keep1], plan.sum(axis=1), rtol=1e-14, atol=0.0)
            assert np.allclose(col[state.keep2], plan.sum(axis=0), rtol=1e-14, atol=0.0)
            assert np.all(row[~state.keep1] == 0.0) and np.all(col[~state.keep2] == 0.0)
            if state.pruned:  # its kernel cost is read off the plan
                assert recorded is None
            else:
                assert recorded == pytest.approx(kernel_cost, rel=1e-14)

    def test_value_plus_entropies_nonnegative(self, rng):
        # sb + H1 + H2 = <C, M>/eta + mutual information >= 0
        for _ in range(10):
            m1 = random_measure(rng, int(rng.integers(2, 6)))
            m2 = random_measure(rng, int(rng.integers(2, 6)))
            cost = build_cost(m1, m2)
            eta = float(rng.uniform(0.5, 20.0))
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta))
            val = sb_value(coup)
            assert val + entropy(m1) + entropy(m2) >= -1e-10


class TestKlDivergence:
    def test_identical_is_zero(self):
        p = np.array([0.2, 0.3, 0.5])
        assert kl_divergence(p, p) == pytest.approx(0.0, abs=1e-15)

    def test_dirac_vs_uniform(self):
        assert kl_divergence([1.0, 0.0], [0.5, 0.5]) == pytest.approx(np.log(2), abs=1e-15)

    def test_quarter_three_quarter(self):
        # frozen from direct summation: 0.25 log .5 + 0.75 log 1.5
        assert kl_divergence([0.25, 0.75], [0.5, 0.5]) == pytest.approx(
            0.13081203594113697, abs=1e-15
        )

    def test_infinite_divergence_is_error(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [1.0, 0.0])

    def test_shape_mismatch(self):
        with pytest.raises(ValidationError):
            kl_divergence([0.5, 0.5], [[0.5, 0.5]])

    def test_negative_p(self):
        with pytest.raises(ValidationError, match="nonnegative"):
            kl_divergence([-0.5, 1.5], [0.5, 0.5])

    def test_matrix_arguments(self):
        p = np.full((2, 2), 0.25)
        q = np.array([[0.4, 0.1], [0.1, 0.4]])
        expected = float((p * np.log(p / q)).sum())
        assert kl_divergence(p, q) == pytest.approx(expected, abs=1e-15)
