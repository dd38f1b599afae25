import argparse
import ast
import contextlib
import dataclasses
import importlib.util
import inspect
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import numpy as np
import pytest

import bridgetree
from bridgetree import (
    BimarginalCoupling,
    DiscreteMeasure,
    EdgeWeightMatrix,
    GraphStructure,
    MeasureCollection,
    OptimalMsbResult,
    PairwiseCost,
    SolverConfig,
    SpanningTree,
    ValidationError,
    build_cost,
    build_weight_matrix,
    compose_tree_coupling,
    cost_tensor,
    enumerate_trees,
    graph_from_edges,
    mm_sinkhorn,
    msb_objective,
    optimal_msb,
    prufer_decode,
    rank_trees,
    sample_gmm,
    save_measure,
    sb_value,
    sinkhorn_solve,
    tree_cost_additive,
)
from bridgetree import cli, config, dense, mst, trees
from bridgetree.cli import build_parser
from bridgetree.config import COST_KINDS, DEFAULT_MAX_ITER, DEFAULT_TOL, check_tensor_cap
from helpers import OVER_CAP, OVER_CAP_N

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DENSE = Path(bridgetree.dense.__file__)


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


def cli_commands(parser) -> dict[str, set[str]]:
    """Each subcommand of the parser with the --flags it takes, --help aside."""
    (sub,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return {name: {opt for a in command._actions for opt in a.option_strings
                   if opt.startswith("--") and opt != "--help"}
            for name, command in sub.choices.items()}


class TestDefaultsLiveInOnePlace:
    @pytest.mark.parametrize("fn", [sinkhorn_solve, mm_sinkhorn])
    def test_solver_tol_and_max_iter(self, fn):
        assert default_of(fn, "tol") == DEFAULT_TOL
        assert default_of(fn, "max_iter") == DEFAULT_MAX_ITER

    def test_tensor_and_enumeration_caps(self):
        """Both caps are constants: no exported callable takes a cap and no
        subcommand a --cap or --enum-cap."""
        takes_cap = []
        for name in bridgetree.__all__:
            obj = getattr(bridgetree, name)
            if callable(obj) and not (isinstance(obj, type) and issubclass(obj, Exception)):
                takes_cap += [f"{name}({p})" for p in inspect.signature(obj).parameters
                              if p == "cap" or p.endswith("_cap")]
        assert takes_cap == []
        cap_flags = {name: flags & {"--cap", "--enum-cap"}
                     for name, flags in cli_commands(build_parser()).items()}
        assert not any(cap_flags.values()), cap_flags
        assert (config.TENSOR_CAP, trees.ENUMERATION_CAP) == (10**7, 8)

    def test_cli_choice_lists_are_the_library_constants(self):
        (sub,) = [a for a in build_parser()._actions
                  if isinstance(a, argparse._SubParsersAction)]

        def flag(command, name):
            (action,) = [a for a in sub.choices[command]._actions if name in a.option_strings]
            return action

        assert flag("solve", "--mst").choices == tuple(mst.MST_ALGORITHMS)
        assert flag("enumerate", "--direct").choices == mst.DIRECT_MODES
        for command in ("solve", "enumerate", "oracle"):
            cost_help = flag(command, "--cost").help
            assert [kind for kind in COST_KINDS if kind not in cost_help] == []

    @pytest.mark.parametrize("direct", ["sometimes", "Auto", "", None])
    def test_rank_trees_refuses_other_direct_modes(self, direct):
        with pytest.raises(ValidationError, match="direct must be auto/never/always"):
            rank_trees([TWO, TWO], SolverConfig(eta=1.0), direct=direct)

    @pytest.mark.parametrize("command", ["solve", "enumerate", "oracle"])
    def test_cli_solver_flags(self, command):
        argv = [command, "m.json", "--eta", "1"]
        if command == "oracle":
            argv += ["--tree", ""]
        args = build_parser().parse_args(argv)
        assert args.tol == DEFAULT_TOL
        assert args.max_iter == DEFAULT_MAX_ITER


class TestExports:
    def test_every_exported_name_resolves(self):
        assert len(set(bridgetree.__all__)) == len(bridgetree.__all__)
        for name in bridgetree.__all__:
            assert hasattr(bridgetree, name), name

    def test_deleted_api_stays_deleted(self):
        deleted = {"sb_values", "tensor_note", "pruned", "marginal_tol", "_plan_array",
                   "KernelMatrix", "_resolve_cost", "_broadcast_pair", "_edge_lookup",
                   "kl_divergence", "project", "path_graph", "star_graph", "complete_graph",
                   "record_history", "residual_history", "image_to_measure", "load_image_grid",
                   "tree_cost_decomposed"}
        assert deleted.isdisjoint(bridgetree.__all__)
        assert not hasattr(SpanningTree, "degrees")
        assert not hasattr(bridgetree.sinkhorn, "total_variation")
        for name in ("project", "path_graph", "star_graph", "complete_graph",
                     "_infer_shape", "_edge_matrix"):
            assert not hasattr(bridgetree.dense, name), name
        assert not hasattr(bridgetree.sinkhorn, "kl_divergence")
        assert default_of(cost_tensor, "shape") is inspect.Parameter.empty
        assert not hasattr(EdgeWeightMatrix, "sb_values")
        assert "tensor_note" not in {f.name for f in dataclasses.fields(OptimalMsbResult)}
        assert not hasattr(DiscreteMeasure, "pruned")
        assert "marginal_tol" not in inspect.signature(compose_tree_coupling).parameters
        assert not hasattr(bridgetree.trees, "_plan_array")
        assert not hasattr(bridgetree.dense, "_check_cap")
        assert not hasattr(config, "DEFAULT_TENSOR_CAP")
        assert not hasattr(bridgetree.dense, "_broadcast_pair")
        assert not hasattr(bridgetree.trees, "_edge_lookup")
        assert not hasattr(bridgetree.trees, "rooted_walk")
        assert "tensor_cap" not in {f.name for f in dataclasses.fields(SolverConfig)}
        assert not hasattr(bridgetree.sinkhorn, "KernelMatrix")
        assert not hasattr(bridgetree.mst, "_resolve_cost")
        assert not hasattr(bridgetree.mst, "_edge_key")
        assert "kind" not in {f.name for f in dataclasses.fields(PairwiseCost)}
        assert "compose" not in inspect.signature(optimal_msb).parameters
        assert "tensor" not in {f.name for f in dataclasses.fields(OptimalMsbResult)}
        assert not hasattr(EdgeWeightMatrix, "plans")
        assert not hasattr(EdgeWeightMatrix, "s")
        assert not hasattr(MeasureCollection, "dim")
        assert "transport_cost" not in {f.name for f in dataclasses.fields(BimarginalCoupling)}
        # perfbench's tracer reads args[0], args[1] and the result's
        # iterations and converged of each sinkhorn_solve call
        assert list(inspect.signature(sinkhorn_solve).parameters) == [
            "m1", "m2", "log_kernel", "tol", "max_iter", "workspace"]
        assert "residual_history" not in {f.name for f in dataclasses.fields(BimarginalCoupling)}
        for name in ("image_to_measure", "load_image_grid"):
            assert not hasattr(bridgetree.measures, name), name
        assert "log_kernel" not in inspect.signature(sb_value).parameters
        assert not hasattr(PairwiseCost, "shape")
        fields = {f.name for f in dataclasses.fields(SolverConfig)}
        assert {"cost_kind", "cost_matrix"}.isdisjoint(fields) and len(fields) == 6
        with pytest.raises(TypeError):
            SolverConfig(eta=1.0, cost_matrix=np.zeros((2, 2)))
        assert COST_KINDS == ("sqeuclidean", "euclidean")
        assert list(inspect.signature(build_cost).parameters) == ["m1", "m2", "cost", "workspace"]
        # the one addition, keyword-only, and the same pair (sinkhorn._workspace) in each
        for fn in (build_cost, bridgetree.gibbs_kernel, sinkhorn_solve, bridgetree.edge_weight,
                   bridgetree.sinkhorn.SweepState):
            kind = inspect.signature(fn).parameters["workspace"].kind
            assert kind is inspect.Parameter.KEYWORD_ONLY, fn
        assert not hasattr(mst, "_aligned_empty")
        assert mst._workspace.__module__ == "bridgetree.sinkhorn"
        assert "enumeration_cap" not in inspect.signature(rank_trees).parameters
        assert list(inspect.signature(enumerate_trees).parameters) == ["s"]
        for module, name in ((bridgetree.mst, "_peel"), (bridgetree.trees, "_decode"),
                             (bridgetree.trees, "_prufer_codes")):
            assert not hasattr(module, name), name
        commands = cli_commands(build_parser())
        assert "weights" not in commands
        assert "--enum-cap" not in commands["enumerate"]

    def test_every_export_has_a_use_outside_the_tests(self):
        """A name in __all__ is used on some line of another src/ module,
        scripts/, perfbench/ or README.md; its own def or class line is not a
        use.  A name only the tests call belongs in tests/helpers.py."""
        package = Path(bridgetree.__file__).parent
        sources = [p for p in sorted(package.glob("*.py")) if p.name != "__init__.py"]
        for folder in ("scripts", "perfbench"):
            sources += sorted(p for p in (ROOT / folder).rglob("*") if p.suffix in (".py", ".md"))
        sources.append(ROOT / "README.md")
        lines = [line for path in sources for line in path.read_text().splitlines()]
        unused = []
        for name in bridgetree.__all__:
            use = re.compile(rf"\b{name}\b")
            own = re.compile(rf"\s*(def|class) {name}\b")
            if not any(use.search(line) and not own.match(line) for line in lines):
                unused.append(name)
        assert unused == []


def load_tracing(monkeypatch):
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    return tracing


@pytest.mark.skipif(not TRACING.exists(), reason="perfbench/ is not in this checkout")
def test_perfbench_tracer_targets_resolve(monkeypatch):
    """Every attribute the benchmark's tracer patches still exists, and the
    MST table holds only patched originals, so `perfbench/run.py --trace 1`
    can install its wrappers."""
    tracing = load_tracing(monkeypatch)
    originals = []
    for module, attr, *_ in tracing.PATCHES + tracing.GENERATOR_PATCHES:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        originals.append(getattr(module, attr))
    for name, algorithm in bridgetree.mst.MST_ALGORITHMS.items():
        assert any(algorithm is fn for fn in originals), name


@pytest.mark.skipif(not TRACING.exists(), reason="perfbench/ is not in this checkout")
def test_perfbench_tracer_sees_every_layer_call(monkeypatch, tmp_path):
    """The names the benchmark's tracer patches are still called as the
    package calls them: the same parent -> child span pairs, and per edge
    one cost, one log kernel, one solve and one sb value."""
    tracing = load_tracing(monkeypatch)
    rng = np.random.default_rng(0)
    measures = [DiscreteMeasure(rng.uniform(-1, 1, (3, 1)), [1, 1, 1]) for _ in range(3)]
    paths = []
    for i, m in enumerate(measures):
        paths.append(str(tmp_path / f"m{i}.json"))
        save_measure(m, paths[-1])
    config = SolverConfig(eta=5.0, threads=1)
    with tracing.Tracer() as tracer:
        for algorithm in ("prim", "boruvka"):
            argv = ["solve", *paths, "--eta", "5", "--mst", algorithm,
                    "--out-dir", str(tmp_path / algorithm)]
            assert cli.main(argv) == 0
        mst.rank_trees(measures, config)
        result = mst.optimal_msb(measures, config)
        edges = {e: result.weight_matrix.edges[e] for e in result.tree.edges}
        trees.compose_tree_coupling(
            result.tree, {e: es.coupling.plan for e, es in edges.items()}, measures
        )
        graph = dense.graph_from_edges(3, result.tree.edges)
        costs = {e: es.cost.matrix for e, es in edges.items()}
        mm = dense.mm_sinkhorn(measures, graph, costs, config.eta)
        dense.msb_objective(mm.tensor, dense.cost_tensor(graph, costs, shape=(3, 3, 3)), 5.0)

    names = {sp.span_id: sp.name for sp in tracer.spans}
    pairs = {(names.get(sp.parent), sp.name) for sp in tracer.spans}
    assert pairs == {
        (None, "cli.main"),
        ("cli.main", "cli.load_measure"),
        ("cli.main", "mst.optimal_msb"),
        (None, "mst.optimal_msb"),
        ("mst.optimal_msb", "measures.entropy"),
        ("mst.optimal_msb", "mst.build_weight_matrix"),
        ("mst.optimal_msb", "mst.mst_prim_dense"),
        ("mst.optimal_msb", "mst.mst_boruvka"),
        (None, "mst.rank_trees"),
        ("mst.rank_trees", "measures.entropy"),
        ("mst.rank_trees", "mst.build_weight_matrix"),
        ("mst.rank_trees", "trees.enumerate_trees"),
        ("mst.build_weight_matrix", "mst.edge_weight"),
        ("mst.edge_weight", "measures.entropy"),
        ("mst.edge_weight", "sinkhorn.build_cost"),
        ("mst.edge_weight", "sinkhorn.gibbs_kernel"),
        ("mst.edge_weight", "sinkhorn.sinkhorn_solve"),
        ("mst.edge_weight", "sinkhorn.sb_value"),
        (None, "trees.compose_tree_coupling"),
        (None, "dense.mm_sinkhorn"),
        ("dense.mm_sinkhorn", "dense.cost_tensor"),
        (None, "dense.cost_tensor"),
        (None, "dense.msb_objective"),
    }
    per_edge = Counter({"sinkhorn.build_cost": 1, "sinkhorn.gibbs_kernel": 1,
                        "sinkhorn.sinkhorn_solve": 1, "sinkhorn.sb_value": 1,
                        "measures.entropy": 2})
    edge_spans = [sp for sp in tracer.spans if sp.name == "mst.edge_weight"]
    assert len(edge_spans) == 4 * 3  # two solves, rank_trees and optimal_msb
    for edge in edge_spans:
        assert Counter(sp.name for sp in tracer.spans if sp.parent == edge.span_id) == per_edge
    solves = [sp for sp in tracer.spans if sp.name == "sinkhorn.sinkhorn_solve"]
    assert all(sp.counts["sweeps"] >= 1 and sp.counts["entries"] > 0 for sp in solves)


def test_dense_oracle_imports_nothing_of_the_fast_path():
    """dense.py shares no plan, weight or solve with the pairwise pipeline it
    checks: from the package it takes only generic helpers."""
    allowed = {
        "trees": {"DisjointSet", "Edge", "on_axes"},
    }
    imported: dict[str, set[str]] = {}
    for node in ast.walk(ast.parse(DENSE.read_text())):
        if isinstance(node, ast.ImportFrom) and (
            node.level or (node.module or "").startswith("bridgetree")
        ):
            module = (node.module or "").rpartition(".")[2]  # "" for `from . import x`
            imported.setdefault(module, set()).update(a.name for a in node.names)
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bridgetree") for a in node.names)
    assert "mst" not in imported and "mst" not in imported.get("", set())
    for module, names in allowed.items():
        assert imported.get(module, set()) <= names, module


def test_readme_library_example_runs(tmp_path):
    """The README's python block, the documented route to compose_tree_coupling,
    runs as written; it asserts that the top-ranked tree is the MST."""
    readme = (ROOT / "README.md").read_text()
    blocks = readme.split("```python\n")
    assert len(blocks) == 2, "expected exactly one python block in README.md"
    script = tmp_path / "readme_example.py"
    script.write_text(blocks[1].split("```", 1)[0])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    proc = subprocess.run([sys.executable, "-W", "error", str(script)],
                          capture_output=True, text=True, env=env, cwd=tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_readme_documents_the_cli_as_built():
    """Every subcommand and --flag of build_parser() appears in README.md, and
    every --flag its CLI section names exists in the parser."""
    readme = (ROOT / "README.md").read_text()
    commands = cli_commands(build_parser())
    flags = set().union(*commands.values())
    assert [name for name in commands if f"bridgetree {name}" not in readme] == []
    assert sorted(f for f in flags if not re.search(rf"(?<![\w-]){f}(?![\w-])", readme)) == []
    cli_section = readme.split("\n## CLI\n", 1)[1].split("\n## ", 1)[0]
    assert set(re.findall(r"(?<![\w-])--[a-z][a-z-]*", cli_section)) - flags == set()


TWO = DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])
THREE = DiscreteMeasure([[0.0], [1.0], [2.0]], [0.25, 0.5, 0.25])
EDGE = prufer_decode((), 2)
PAIR = graph_from_edges(2, [(1, 2)])


def refused_by_cli(tmp_path, argv, measures=(TWO, TWO)):
    """Run the CLI on measure files, two by default; its exit-2 refusal is
    raised again as a ValidationError with the message it printed."""
    paths = []
    for i, m in enumerate(measures, 1):
        paths.append(str(tmp_path / f"m{i}.json"))
        save_measure(m, paths[-1])
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([argv[0], *paths, *argv[1:], "--out-dir", str(tmp_path)])
    assert code == 2
    raise ValidationError(json.loads(err.getvalue())["error"]["message"])


def mismatched_ewm_ranking(_):
    ewm = build_weight_matrix([TWO, TWO], SolverConfig(eta=1.0))
    rank_trees([THREE, TWO], SolverConfig(eta=1.0), ewm=ewm)


BIG = DiscreteMeasure(np.arange(OVER_CAP_N, dtype=float)[:, None], np.ones(OVER_CAP_N))
PATH = graph_from_edges(3, [(1, 2), (2, 3)])
BIG_ZEROS = {edge: np.zeros((OVER_CAP_N, OVER_CAP_N)) for edge in PATH.edges}
RAGGED = [[0.5], [0.25, 0.25]]
UNKNOWN_COST = "unknown cost kind 'cosine'; expected one of ('sqeuclidean', 'euclidean')"

CONTRACT_CALLS = {
    # integer settings and sizes, and the vertex count
    "prufer_decode": (lambda _: prufer_decode((), 2.0),
                      "vertex count s must be an integer >= 2, got 2.0"),
    "enumerate_trees": (lambda _: enumerate_trees(3.0),
                        "vertex count s must be an integer >= 2, got 3.0"),
    "SpanningTree": (lambda _: SpanningTree(3.0, ((1, 2), (2, 3))),
                     "vertex count s must be an integer >= 2, got 3.0"),
    "GraphStructure": (lambda _: GraphStructure(3.0, ((1, 2), (2, 3))),
                       "vertex count s must be an integer >= 2, got 3.0"),
    "sample_gmm": (lambda _: sample_gmm([(0.0, 1.0, 1.0)], n=2.5, seed=0),
                   "sample count must be an integer >= 1, got 2.5"),
    "cost_tensor-shape": (lambda _: cost_tensor(PAIR, {(1, 2): np.zeros((2, 2))}, shape=(2.7, 2)),
                          "tensor axis size must be an integer >= 1, got 2.7"),
    "check_tensor_cap": (lambda _: check_tensor_cap((2.9, 3)),
                         "tensor axis size must be an integer >= 1, got 2.9"),
    "threads": (lambda _: SolverConfig(eta=1.0, threads=True),
                "threads must be an integer >= 1, got True"),
    "max_iter": (lambda _: SolverConfig(eta=1.0, max_iter=True),
                 "max_iter must be an integer >= 1, got True"),
    # a dense tensor over the cap gets one message on every route, before any solve
    "rank_trees-cap": (lambda _: rank_trees([BIG] * 3, SolverConfig(eta=1.0), direct="always"),
                       OVER_CAP),
    "compose-cap": (lambda _: compose_tree_coupling(prufer_decode((2,), 3), {}, [BIG] * 3),
                    OVER_CAP),
    "cost_tensor-cap": (lambda _: cost_tensor(PATH, BIG_ZEROS, shape=(OVER_CAP_N,) * 3),
                        OVER_CAP),
    "mm_sinkhorn-cap": (lambda _: mm_sinkhorn([BIG] * 3, PATH, BIG_ZEROS, 1.0), OVER_CAP),
    "enumerate-cap": (lambda tmp: refused_by_cli(tmp, ["enumerate", "--eta", "1",
                                                       "--direct", "always"], [BIG] * 3),
                      OVER_CAP),
    "oracle-cap": (lambda tmp: refused_by_cli(tmp, ["oracle", "--eta", "1", "--tree", "2"],
                                              [BIG] * 3), OVER_CAP),
    # one list of cost kinds, on the config and on a single edge's cost
    "SolverConfig-cost": (lambda _: SolverConfig(eta=1.0, cost="cosine"), UNKNOWN_COST),
    "build_cost-kind": (lambda _: build_cost(TWO, THREE, "cosine"), UNKNOWN_COST),
    # one edge's (n_a, n_b) matrix, and an s x s or dense tensor shape
    "build_cost": (lambda _: build_cost(TWO, THREE, np.zeros((3, 2))),
                   "cost matrix has shape (3, 2), expected (2, 3)"),
    "sinkhorn_solve": (lambda _: sinkhorn_solve(TWO, THREE, np.zeros((3, 2))),
                       "log kernel has shape (3, 2), expected (2, 3)"),
    "compose-plan": (lambda _: compose_tree_coupling(EDGE, {(1, 2): np.zeros((3, 2))},
                                                     [TWO, THREE]),
                     "plan for edge (1, 2) has shape (3, 2), expected (2, 3)"),
    "rank_trees-ewm": (mismatched_ewm_ranking,
                       "edge (1, 2): log_u1 has shape (2,), expected (3,)"),
    "cost_tensor-matrix": (lambda _: cost_tensor(PAIR, {(1, 2): np.zeros((3, 2))}, shape=(2, 3)),
                           "cost matrix for edge (1, 2) has shape (3, 2), expected (2, 3)"),
    "msb_objective": (lambda _: msb_objective(np.zeros((2, 3)), np.zeros((3, 2)), 1.0),
                      "cost tensor has shape (3, 2), expected (2, 3)"),
    "tree_cost_additive": (lambda _: tree_cost_additive(EDGE, np.zeros((3, 3)), [0.0, 0.0]),
                           "weight matrix has shape (3, 3), expected (2, 2)"),
    "sample_gmm-components": (lambda _: sample_gmm([(0.0, 1.0)], 3),
                              "components has shape (1, 2), expected (1, 3)"),
    # ragged array input
    "tree_cost_additive-ragged": (lambda _: tree_cost_additive(EDGE, RAGGED, [0.0, 0.0]),
                                  "weight matrix must be a rectangular array of numbers"),
    "tree_cost_additive-ragged-entropies": (
        lambda _: tree_cost_additive(EDGE, np.zeros((2, 2)), RAGGED),
        "entropies must be a rectangular array of numbers"),
    "compose-ragged": (lambda _: compose_tree_coupling(EDGE, {(1, 2): RAGGED}, [TWO, TWO]),
                       "plan for edge (1, 2) must be a rectangular array of numbers"),
    "cost_tensor-ragged": (lambda _: cost_tensor(PAIR, {(1, 2): RAGGED}, shape=(2, 2)),
                           "cost matrix for edge (1, 2) must be a rectangular array of numbers"),
    "mm_sinkhorn-ragged": (lambda _: mm_sinkhorn([TWO, TWO], PAIR, {(1, 2): RAGGED}, 1.0),
                           "cost matrix for edge (1, 2) must be a rectangular array of numbers"),
}


@pytest.mark.parametrize("name", CONTRACT_CALLS)
def test_each_input_contract_refuses_with_its_one_message(name, tmp_path):
    """Every public step refuses a non-integer size, a bad vertex count, a
    dense tensor over the cap, a mis-shaped or ragged matrix and an unknown
    cost kind with config.py's one message for it."""
    call, message = CONTRACT_CALLS[name]
    with pytest.raises(ValidationError) as refusal:
        call(tmp_path)
    assert str(refusal.value) == message


def test_integer_and_shape_checks_live_in_config():
    """Outside config.py no src/ module compares a .shape by hand or tests for
    an integer with isinstance(..., (int, np.integer)) or operator.index: those
    contracts are config.check_shape and config.as_index."""
    package = Path(bridgetree.__file__).parent
    found = []
    for path in sorted(package.glob("*.py")):
        if path.name == "config.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Compare):
                operands = [n for op in (node.left, *node.comparators) for n in ast.walk(op)]
                hit = any(isinstance(n, ast.Attribute) and n.attr == "shape" for n in operands)
            elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "isinstance":
                kinds = [n for arg in node.args[1:] for n in ast.walk(arg)]
                hit = any(getattr(n, "id", getattr(n, "attr", None)) in ("int", "integer")
                          for n in kinds)
            else:
                hit = ((isinstance(node, ast.Attribute) and node.attr == "index"
                        and getattr(node.value, "id", None) == "operator")
                       or (isinstance(node, ast.ImportFrom) and node.module == "operator"))
            if hit:
                found.append(f"{path.name}:{node.lineno}")
    assert found == []
