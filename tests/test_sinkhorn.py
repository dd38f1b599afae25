import functools

import numpy as np
import pytest
from scipy.special import logsumexp

from bridgetree import (
    DiscreteMeasure,
    PairwiseCost,
    ValidationError,
    build_cost,
    entropy,
    gibbs_kernel,
    kl_divergence,
    sb_value,
    sinkhorn_solve,
    total_variation,
)
from conftest import random_measure

UNIFORM2 = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
SWAP_COST = PairwiseCost([[0.0, 1.0], [1.0, 0.0]])


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

    def test_dimension_mismatch(self):
        m1 = DiscreteMeasure([[0.0]], [1.0])
        m2 = DiscreteMeasure([[0.0, 0.0]], [1.0])
        with pytest.raises(ValidationError):
            build_cost(m1, m2)

    def test_matrix_kind_checks_shape(self):
        with pytest.raises(ValidationError):
            build_cost(UNIFORM2, UNIFORM2, "matrix", matrix=np.zeros((3, 2)))

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
        with pytest.raises(ValidationError, match="explicit matrix"):
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

    def test_residual_monotone_per_sweep(self, rng):
        for _ in range(5):
            m1 = random_measure(rng, 6, low=-3, high=3)
            m2 = random_measure(rng, 5, low=-3, high=3)
            cost = build_cost(m1, m2)
            coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 0.8), record_history=True)
            h = np.array(coup.residual_history)
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
        for max_iter in (1, 2, 5):
            coup = sinkhorn_solve(
                m1, m2, gibbs_kernel(cost, 1.0), max_iter=max_iter, record_history=True
            )
            plan, iterations, converged = reference_sinkhorn(m1, m2, cost, 1.0, max_iter=max_iter)
            assert (coup.iterations, coup.converged) == (iterations, converged)
            assert len(coup.residual_history) == iterations
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
