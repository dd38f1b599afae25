"""Seeded workloads for the bridgetree benchmark.

Each workload turns a seed into a fixed batch of inputs, runs one op on one
batch entry through the public API, and checks that op's output.  Library
calls go through the submodules (``mst.optimal_msb``, ``dense.mm_sinkhorn``,
...) so that the tracer in ``tracing.py`` can wrap them at the module
boundary; outside the traced pass the program runs unmodified.

The sizes are smaller than full-size runs (GMM n=400, a 64-measure swarm,
an s=6 n=6 oracle) so that a run fits in well under a minute on a 2-core
machine; the README in this directory records why and by how much.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from bridgetree import cli, dense, mst, trees
from bridgetree.config import SolverConfig
from bridgetree.errors import SolverError
from bridgetree.measures import DiscreteMeasure, load_measure, sample_gmm, save_measure

# The five-mixture GMM spec of the paper's seeded experiment (1-d, on [-10, 10]).
GMM_MIXTURES = (
    ((-6.0, 1.2, 0.5), (5.0, 1.0, 0.5)),
    ((-2.0, 0.8, 1.0),),
    ((0.0, 2.5, 0.6), (7.0, 0.7, 0.4)),
    ((-7.0, 0.6, 0.3), (2.0, 1.5, 0.7)),
    ((4.0, 0.9, 0.5), (-4.0, 0.9, 0.5)),
)
GMM_INTERVAL = (-10.0, 10.0)

# A tree whose cost is within this of the runner-up is a near-tie; which of
# the two the MST returns is decided by float rounding, so it is not checked.
NEAR_TIE = 1e-6
DIRECT_TOL = 1e-5  # |additive - direct| per ranked tree
SUP_GAP_TOL = 1e-6  # composed tree coupling vs dense multimarginal solve

# Draw 45 of the acceptance-criterion-1 stream (seed 777): s=3, eta=0.5,
# sizes 5/5/3.  Edge (1, 3) stalls at residual 7.2e-5 and fails after
# max_iter sweeps; it is always part of the small_eta batch.
STALL_STREAM_SEED = 777
STALL_DRAW = 45


def random_measure(rng: np.random.Generator, n: int) -> DiscreteMeasure:
    """n points uniform in [-10, 10]^2 with weights in [0.5, 1.5) before normalizing."""
    return DiscreteMeasure(rng.uniform(-10.0, 10.0, (n, 2)), rng.uniform(0.5, 1.5, n))


def criterion1_draw(rng: np.random.Generator, k: int) -> tuple[list[DiscreteMeasure], float]:
    """Draw k of the acceptance-criterion-1 generator: s and eta cycle with k."""
    s = 3 + k % 3
    eta = (0.5, 1.0, 5.0)[(k // 3) % 3]
    sizes = rng.integers(3, 7, size=s)
    return [random_measure(rng, int(n)) for n in sizes], eta


@dataclass
class Output:
    """What one op produced: the weight matrix and what the checks need."""

    g: np.ndarray
    data: object


def _tree_checks(result) -> list[str]:
    """Every edge converged, and Prim and Boruvka return the same tree."""
    problems = [
        f"edge {e} did not converge"
        for e, es in sorted(result.weight_matrix.edges.items())
        if not es.coupling.converged
    ]
    boruvka = mst.mst_boruvka(result.weight_matrix.g)
    if boruvka.edges != result.tree.edges:
        problems.append(f"prim {result.tree.edges} != boruvka {boruvka.edges}")
    return problems


class Workload:
    """A batch of seeded inputs and the op run on each entry."""

    threads = 1
    probe = 0  # batch entry used for the warm-up op and the memory pass

    def generate(self, seed: int, workdir: Path) -> list:
        """Build the batch from the seed; files go under workdir."""
        raise NotImplementedError

    def load(self, batch: list) -> list:
        """Read back whatever generate wrote (set-up file I/O); returns the op inputs."""
        return batch

    def run(self, inputs: list, i: int) -> Output:
        raise NotImplementedError

    def finish(self, out: Output) -> Output:
        """Collect what the op wrote, outside the timed region."""
        return out

    def check(self, inputs: list, i: int, out: Output) -> list[str]:
        """Descriptions of every failed output check (empty when all pass)."""
        raise NotImplementedError


@dataclass
class Gmm(Workload):
    """Five 1-d GMM measures of n samples each; one optimal_msb per op."""

    n: int = 200
    draws: int = 10
    eta: float = 20.0

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return [
            [sample_gmm(mix, self.n, GMM_INTERVAL, seed=rng) for mix in GMM_MIXTURES]
            for _ in range(self.draws)
        ]

    def run(self, inputs, i):
        result = mst.optimal_msb(inputs[i], SolverConfig(eta=self.eta, threads=self.threads))
        return Output(result.weight_matrix.g, result)

    def check(self, inputs, i, out):
        return _tree_checks(out.data)


@dataclass
class Swarm(Workload):
    """s random 2-d measures of 4..12 points, solved by `bridgetree solve`
    in-process through cli.main from measure files."""

    s: int = 16
    draws: int = 4
    eta: float = 50.0
    threads: int = 2

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        batch = []
        for d in range(self.draws):
            sizes = rng.integers(4, 13, size=self.s)
            files = []
            for v, n in enumerate(sizes, start=1):
                path = workdir / f"draw{d}_m{v:03d}.json"
                save_measure(random_measure(rng, int(n)), path)
                files.append(path)
            batch.append((files, workdir / f"draw{d}_out"))
        return batch

    def load(self, batch):
        # The op reloads the files itself; loading them here once validates
        # them and charges the first (cold) read to set-up.
        for files, _ in batch:
            for path in files:
                load_measure(path)
        return batch

    def run(self, inputs, i):
        files, out_dir = inputs[i]
        argv = ["solve", *map(str, files), "--eta", repr(self.eta),
                "--threads", str(self.threads), "--out-dir", str(out_dir)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(argv)
        if code == 1:  # the CLI's exit code for a SolverError
            raise SolverError(f"bridgetree solve exited with code {code}")
        return Output(None, (code, out_dir))

    def finish(self, out):
        code, out_dir = out.data
        if code != 0:
            return out
        rows = (out_dir / "weights.csv").read_text().splitlines()[1:]
        g = np.array([[float(x) for x in row.split(",")[1:]] for row in rows])
        return Output(g, out.data)

    def check(self, inputs, i, out):
        code, out_dir = out.data
        if code != 0:
            return [f"bridgetree solve exited with code {code}"]
        report = json.loads((out_dir / "report.json").read_text())
        problems = [f"edge {e['edge']} did not converge" for e in report["edges"]
                    if not e["converged"]]
        tree = tuple(tuple(e) for e in json.loads((out_dir / "tree.json").read_text())["edges"])
        boruvka = mst.mst_boruvka(out.g)
        if boruvka.edges != tree:
            problems.append(f"prim {tree} != boruvka {boruvka.edges}")
        return problems


@dataclass
class SmallEta(Workload):
    """Acceptance-criterion-1 draws (s 3..5, sizes 3..6, eta 0.5/1/5) plus
    the known stalling draw; one optimal_msb per op."""

    draws: int = 9
    max_iter: int = 100_000

    @property
    def probe(self):
        # the first eta=5 draw: cheap, so the warm-up and memory pass stay short
        return 6 if self.draws > 6 else 0

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        batch = [criterion1_draw(rng, k) for k in range(self.draws)]
        stream = np.random.default_rng(STALL_STREAM_SEED)
        for k in range(STALL_DRAW + 1):
            stall = criterion1_draw(stream, k)
        return batch + [stall]

    def run(self, inputs, i):
        measures, eta = inputs[i]
        result = mst.optimal_msb(measures, SolverConfig(eta=eta, max_iter=self.max_iter))
        return Output(result.weight_matrix.g, result)

    def check(self, inputs, i, out):
        result = out.data
        problems = _tree_checks(result)
        ranked = sorted(
            (trees.tree_cost_additive(t, result.weight_matrix.g, result.entropies), t.edges)
            for t in trees.enumerate_trees(result.tree.s)
        )
        if ranked[1][0] - ranked[0][0] > NEAR_TIE and ranked[0][1] != result.tree.edges:
            problems.append(f"MST {result.tree.edges} != exhaustive argmin {ranked[0][1]}")
        return problems


@dataclass
class Oracle(Workload):
    """s random 2-d measures of n points; each op solves, ranks every tree
    with the dense direct cost, composes the MST coupling and checks it
    against the dense multimarginal solver."""

    s: int = 6
    n: int = 5
    draws: int = 12
    eta: float = 50.0

    def generate(self, seed, workdir):
        rng = np.random.default_rng(seed)
        return [[random_measure(rng, self.n) for _ in range(self.s)] for _ in range(self.draws)]

    def run(self, inputs, i):
        measures = inputs[i]
        config = SolverConfig(eta=self.eta)
        result = mst.optimal_msb(measures, config)
        ewm = result.weight_matrix
        rows = mst.rank_trees(measures, config, ewm=ewm, direct="always")
        composed = trees.compose_tree_coupling(
            result.tree, {e: ewm.edges[e].coupling.plan for e in result.tree.edges}, measures
        )
        graph = dense.graph_from_edges(self.s, result.tree.edges)
        costs = {e: ewm.edges[e].cost.matrix for e in result.tree.edges}
        mm = dense.mm_sinkhorn(measures, graph, costs, self.eta, tol=config.tol,
                               max_iter=config.max_iter)
        dense_cost = dense.cost_tensor(graph, costs, shape=[m.n for m in measures])
        direct = dense.msb_objective(mm.tensor, dense_cost, self.eta) / self.eta
        return Output(ewm.g, (result, rows, composed, mm, direct))

    def check(self, inputs, i, out):
        result, rows, composed, mm, direct = out.data
        problems = _tree_checks(result)
        if rows[0].edges != result.tree.edges and (
            rows[1].cost_additive - rows[0].cost_additive > NEAR_TIE
        ):
            problems.append(f"top ranked tree {rows[0].edges} != MST {result.tree.edges}")
        worst = max(abs(r.cost_additive - r.cost_direct) for r in rows)
        if not worst <= DIRECT_TOL:
            problems.append(f"|additive - direct| = {worst:.3e} > {DIRECT_TOL:.0e}")
        if not mm.converged:
            problems.append(f"mm_sinkhorn stopped at residual {mm.residual:.3e}")
        gap = float(np.abs(composed - mm.tensor).max())
        if not gap <= SUP_GAP_TOL:
            problems.append(f"composed vs dense sup gap {gap:.3e} > {SUP_GAP_TOL:.0e}")
        if not abs(result.total_cost - direct) <= DIRECT_TOL:
            problems.append(f"tree cost {result.total_cost} != dense objective {direct}")
        return problems


# The benchmarked configurations.  small_eta runs but is left out of
# BENCHMARK.json: its cost per op swings between seeds far beyond any
# allowed bound (see README.md).
WORKLOADS = {
    "gmm_n200": Gmm(),
    "swarm_s16": Swarm(),
    "oracle_s6": Oracle(),
    "small_eta": SmallEta(),
}
