"""Acceptance suite: one test per exit criterion, each printing a PASS/FAIL
line (run with -s to see them alongside the pytest dots).

Criteria:
  1. MST tree equals the exhaustive argmin over all spanning trees.
  2. Composed tree couplings match the dense multimarginal solver.
  3. Structural replication of the seeded mixture experiment, incl. timing.
  4. Dirac star degenerate case.
  5. Invariant suite (solver, weights, Prüfer, MST properties).
  6. Chain and hub ground-cost tensors, entrywise.
"""

import csv
import functools
import json
import time

import numpy as np
import pytest

from bridgetree import (
    DiscreteMeasure,
    SolverConfig,
    SolverError,
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
    path_graph,
    prufer_decode,
    prufer_encode,
    sb_value,
    sinkhorn_solve,
    star_graph,
    total_variation,
    tree_cost_additive,
    tree_cost_decomposed,
)
from bridgetree.cli import main as cli_main
from conftest import GMM_MIXTURES, GMM_SPEC, random_measure, random_measures


def criterion(num, label):
    def decorate(fn):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            start = time.perf_counter()
            try:
                detail = fn(*args, **kwargs)
            except BaseException:
                print(f"\nACCEPTANCE {num}: FAIL - {label}")
                raise
            elapsed = time.perf_counter() - start
            extra = f" [{detail}]" if detail else ""
            print(f"\nACCEPTANCE {num}: PASS - {label} ({elapsed:.1f}s){extra}")
        return wrapper
    return decorate


@criterion(1, "MST equals exhaustive argmin over all spanning trees")
def test_criterion_1_oracle_argmin_equivalence():
    rng = np.random.default_rng(777)
    target_instances = 50
    solved = decided = near_ties = resampled = 0
    start = time.perf_counter()
    while solved < target_instances:
        s = 3 + (solved + resampled) % 3
        eta = (0.5, 1.0, 5.0)[((solved + resampled) // 3) % 3]
        sizes = rng.integers(3, 7, size=s)
        measures = random_measures(rng, sizes)  # supports in [-10, 10]^2
        try:
            result = optimal_msb(measures, SolverConfig(eta=eta))
        except SolverError:
            # Sinkhorn can stall on near-degenerate multiscale instances at
            # small eta; the draw is regenerated and counted, never hidden.
            resampled += 1
            assert resampled <= 20, "too many non-convergent draws"
            continue
        solved += 1
        ranked = sorted(
            (tree_cost_additive(t, result.weight_matrix.g, result.entropies), t.edges)
            for t in enumerate_trees(s)
        )
        if ranked[1][0] - ranked[0][0] > 1e-6:
            decided += 1
            assert result.tree.edges == ranked[0][1], (
                f"instance {solved}: MST {result.tree.edges} != argmin {ranked[0][1]}"
            )
        else:
            near_ties += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over the 2-minute budget"
    return f"{solved} instances, {decided} decided, {near_ties} near-ties, {resampled} resampled"


@criterion(2, "composed tree couplings match the dense multimarginal solver")
def test_criterion_2_decomposition_fidelity():
    rng = np.random.default_rng(20260809)
    start = time.perf_counter()
    worst_sup = worst_cost = 0.0
    for i in range(20):
        s = 3 + i % 2
        eta = (0.5, 1.0, 5.0)[i % 3]
        sizes = rng.integers(2, 5, size=s)
        measures = random_measures(rng, sizes)
        code = tuple(int(c) for c in rng.integers(1, s + 1, size=s - 2))
        tree = prufer_decode(code, s)

        plans, sbs, costs = {}, {}, {}
        for a, b in tree.edges:
            cost = build_cost(measures[a - 1], measures[b - 1])
            coup = sinkhorn_solve(
                measures[a - 1], measures[b - 1], gibbs_kernel(cost, eta), tol=1e-9
            )
            assert coup.converged
            plans[(a, b)] = coup.plan
            sbs[(a, b)] = sb_value(coup)
            costs[(a, b)] = cost.matrix

        composed = compose_tree_coupling(tree, plans, measures)
        graph = graph_from_edges(s, tree.edges)
        mm = mm_sinkhorn(measures, graph, costs, eta, tol=1e-9)
        assert mm.converged

        sup_gap = float(np.abs(composed - mm.tensor).max())
        entropies = [entropy(m) for m in measures]
        cost_edges = tree_cost_decomposed(tree, sbs, entropies)
        cost_dense = msb_objective(mm.tensor, cost_tensor(graph, costs), eta) / eta
        cost_gap = abs(cost_edges - cost_dense)
        assert sup_gap <= 1e-6, f"instance {i}: sup gap {sup_gap:.3e}"
        assert cost_gap <= 1e-6, f"instance {i}: cost gap {cost_gap:.3e}"
        worst_sup = max(worst_sup, sup_gap)
        worst_cost = max(worst_cost, cost_gap)
    elapsed = time.perf_counter() - start
    assert elapsed < 120.0, f"runtime {elapsed:.1f}s over the 2-minute budget"
    return f"worst sup gap {worst_sup:.2e}, worst cost gap {worst_cost:.2e}"


@criterion(3, "seeded mixture experiment: ranking, consistency, speed")
def test_criterion_3_gmm_structural_replication(tmp_path):
    eta = 5.0
    spec = tmp_path / "mixtures.json"
    spec.write_text(json.dumps(GMM_SPEC))
    gen_dir = tmp_path / "measures"
    assert cli_main(["gen", str(spec), "--n", "25", "--seed", "42",
                     "--out-dir", str(gen_dir)]) == 0
    paths = sorted(str(p) for p in gen_dir.glob("measure_*.json"))
    assert len(paths) == 5

    solve_dir = tmp_path / "solve"
    assert cli_main(["solve", *paths, "--eta", str(eta), "--out-dir", str(solve_dir)]) == 0
    tree_payload = json.loads((solve_dir / "tree.json").read_text())
    report = json.loads((solve_dir / "report.json").read_text())
    assert len(report["edges"]) == 10  # all 5*4/2 vertex pairs solved
    assert all(edge["converged"] for edge in report["edges"])

    enum_dir = tmp_path / "enumerate"
    assert cli_main(["enumerate", *paths, "--eta", str(eta), "--top-k", "0",
                     "--out-dir", str(enum_dir)]) == 0
    with open(enum_dir / "trees_ranked.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 125, f"expected 125 ranked trees, got {len(rows)}"
    worst_gap = 0.0
    for row in rows:
        assert row["cost_direct"] != "", "dense column missing despite being under the cap"
        gap = abs(float(row["cost_additive"]) - float(row["cost_direct"]))
        assert gap <= 1e-5, f"rank {row['rank']}: column gap {gap:.3e}"
        worst_gap = max(worst_gap, gap)
    prufer_str = " ".join(str(c) for c in tree_payload["prufer"])
    assert rows[0]["prufer"] == prufer_str, "solve tree is not the cheapest ranked tree"
    assert abs(float(rows[0]["cost_additive"]) - tree_payload["cost"]) <= 1e-9

    # Speed vignette.  Solving one dense multimarginal problem at n = 25
    # (25^5 entries) is out of reach at desk scale, so the comparison runs
    # the structure solve at full size against a dense solve at n = 10
    # (10^5 entries), truncated at 600 sweeps: the truncated time is a
    # lower bound on the full dense solve.
    rng = np.random.default_rng(42)
    from bridgetree import sample_gmm

    measures25 = [sample_gmm(mix, 25, (-10.0, 10.0), seed=rng) for mix in GMM_MIXTURES]
    t0 = time.perf_counter()
    result = optimal_msb(measures25, SolverConfig(eta=eta))
    t_fast = time.perf_counter() - t0
    assert t_fast < 5.0, f"structure solve took {t_fast:.2f}s (budget 5s)"
    assert tuple(tree_payload["prufer"]) == prufer_encode(result.tree)

    rng = np.random.default_rng(42)
    measures10 = [sample_gmm(mix, 10, (-10.0, 10.0), seed=rng) for mix in GMM_MIXTURES]
    graph = graph_from_edges(5, result.tree.edges)
    costs = {
        (a, b): build_cost(measures10[a - 1], measures10[b - 1]).matrix
        for a, b in result.tree.edges
    }
    t0 = time.perf_counter()
    mm_sinkhorn(measures10, graph, costs, eta, max_iter=600)
    t_dense = time.perf_counter() - t0
    assert t_dense >= 10.0 * t_fast, (
        f"dense solve lower bound {t_dense:.2f}s is under 10x the structure "
        f"solve ({t_fast:.2f}s)"
    )
    return (f"worst column gap {worst_gap:.2e}; structure {t_fast:.2f}s vs "
            f"dense >= {t_dense:.1f}s ({t_dense / t_fast:.0f}x)")


@criterion(4, "Dirac star degenerate case")
def test_criterion_4_dirac_star():
    eta = 0.7
    center = DiscreteMeasure([[0.0, 0.0]], [1.0])
    satellites = [
        DiscreteMeasure([[2.0, 0.0]], [1.0]),
        DiscreteMeasure([[0.0, 2.0]], [1.0]),
        DiscreteMeasure([[-2.0, 0.0]], [1.0]),
        DiscreteMeasure([[0.0, -2.0]], [1.0]),
    ]
    # every satellite is closer to the center (2) than to any satellite
    # (2*sqrt(2) or 4)
    result = optimal_msb([center] + satellites,
                         SolverConfig(eta=eta, cost_kind="euclidean"))
    assert result.tree.edges == ((1, 2), (1, 3), (1, 4), (1, 5)), "optimum is not the star"
    expected = 8.0 / eta  # four unit-mass moves of Euclidean length 2, entropies all zero
    assert abs(result.total_cost - expected) <= 1e-10
    return f"cost {result.total_cost:.12f} vs {expected:.12f}"


@criterion(5, "invariant suite")
def test_criterion_5_invariant_suite():
    rng = np.random.default_rng(555)

    # Sinkhorn marginal residual <= tol on convergence.
    for _ in range(20):
        m1 = random_measure(rng, int(rng.integers(2, 7)), low=-5, high=5)
        m2 = random_measure(rng, int(rng.integers(2, 7)), low=-5, high=5)
        cost = build_cost(m1, m2)
        coup = sinkhorn_solve(m1, m2, gibbs_kernel(cost, 1.0), tol=1e-9)
        assert coup.converged
        assert total_variation(coup.plan.sum(axis=1), m1.weights) <= 1e-9
        assert total_variation(coup.plan.sum(axis=0), m2.weights) <= 1e-9

    # Plan invariance under joint (cost, eta) scaling.
    for i in range(20):
        m1 = random_measure(rng, 5, low=-3, high=3)
        m2 = random_measure(rng, 4, low=-3, high=3)
        cost = build_cost(m1, m2)
        eta = float(rng.uniform(0.5, 5.0))
        a = (2.0, 17.0, 0.31, 101.0)[i % 4]
        base = sinkhorn_solve(m1, m2, gibbs_kernel(cost, eta))
        scaled = sinkhorn_solve(m1, m2, gibbs_kernel(type(cost)(a * cost.matrix), a * eta))
        assert np.abs(base.plan - scaled.plan).max() <= 1e-8

    # g >= -1e-10 over 500 random pairs spanning cost scales and
    # regularization strengths, including the adversarial near-zero-cost
    # regime where g approaches 0 from above.
    min_g = np.inf
    for i in range(500):
        eta = (0.5, 1.0, 5.0, 50.0, 1.0)[i % 5]
        scale = (2.0, 3.0, 10.0, 10.0, 1e-3)[i % 5]
        n1, n2 = rng.integers(2, 7, size=2)
        m1 = random_measure(rng, int(n1), low=-scale, high=scale)
        m2 = random_measure(rng, int(n2), low=-scale, high=scale)
        es = edge_weight(m1, m2, SolverConfig(eta=eta))
        assert es.g >= -1e-10, f"pair {i}: g = {es.g:.3e}"
        min_g = min(min_g, es.g)

    # g == 0 for zero ground cost.
    for _ in range(20):
        n1, n2 = rng.integers(2, 7, size=2)
        m1 = random_measure(rng, int(n1))
        m2 = random_measure(rng, int(n2))
        cfg = SolverConfig(eta=1.0, cost_kind="matrix", cost_matrix=np.zeros((n1, n2)))
        assert abs(edge_weight(m1, m2, cfg).g) <= 1e-10

    # Prüfer roundtrip identity over 1000 random trees, s <= 8.
    for _ in range(1000):
        s = int(rng.integers(2, 9))
        code = tuple(int(c) for c in rng.integers(1, s + 1, size=s - 2))
        assert prufer_encode(prufer_decode(code, s)) == code

    # Prim and Boruvka agree on 1000 distinct-weight instances.
    for _ in range(1000):
        s = int(rng.integers(2, 9))
        sym = rng.uniform(0, 10, (s, s))
        w = (sym + sym.T) / 2
        np.fill_diagonal(w, 0.0)
        upper = w[np.triu_indices(s, 1)]
        assert len(np.unique(upper)) == len(upper)
        assert mst_prim_dense(w) == mst_boruvka(w)

    # MST argmin invariance under constant weight shifts (both routines).
    for _ in range(30):
        s = int(rng.integers(3, 8))
        sym = rng.uniform(0, 10, (s, s))
        w = (sym + sym.T) / 2
        np.fill_diagonal(w, 0.0)
        base = mst_prim_dense(w)
        for c in (-4.0, 2.5, 1000.0):
            shifted = w + c
            np.fill_diagonal(shifted, 0.0)
            assert mst_prim_dense(shifted) == base
            assert mst_boruvka(shifted) == base

    # Additive and decomposed tree costs are the same number.
    for _ in range(200):
        s = int(rng.integers(2, 9))
        code = tuple(int(c) for c in rng.integers(1, s + 1, size=s - 2))
        tree = prufer_decode(code, s)
        sym = rng.uniform(-2, 5, (s, s))
        g = (sym + sym.T) / 2
        ent = rng.uniform(0, 2, s)
        sbs = {(a, b): g[a - 1, b - 1] - ent[a - 1] - ent[b - 1] for a, b in tree.edges}
        gap = abs(tree_cost_additive(tree, g, ent) - tree_cost_decomposed(tree, sbs, ent))
        assert gap <= 1e-12
    return f"min g over 500 pairs {min_g:.2e}"


@criterion(6, "chain and hub ground-cost tensors, entrywise")
def test_criterion_6_path_star_cost_tensors():
    c12 = np.array([[0.0, 1.0], [1.0, 0.0]])
    c23 = np.array([[0.5, 2.0], [2.0, 0.5]])

    # chain 1-2-3: C[i,j,k] = c12[i,j] + c23[j,k]
    chain = cost_tensor(path_graph(3), {(1, 2): c12, (2, 3): c23})
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert chain[i, j, k] == pytest.approx(c12[i, j] + c23[j, k], abs=1e-15)

    # hub at vertex 1: C[i,j,k] = c12[i,j] + c13[i,k]
    c13 = c23
    star = cost_tensor(star_graph(3), {(1, 2): c12, (1, 3): c13})
    for i in range(2):
        for j in range(2):
            for k in range(2):
                assert star[i, j, k] == pytest.approx(c12[i, j] + c13[i, k], abs=1e-15)
    return "8 entries checked per shape"
