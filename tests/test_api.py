import ast
import dataclasses
import importlib.util
import inspect
import os
import subprocess
import sys
from pathlib import Path

import pytest

import bridgetree
from bridgetree import (
    DiscreteMeasure,
    EdgeWeightMatrix,
    MeasureCollection,
    OptimalMsbResult,
    PairwiseCost,
    SolverConfig,
    compose_tree_coupling,
    cost_tensor,
    mm_sinkhorn,
    optimal_msb,
    rank_trees,
    sinkhorn_solve,
)
from bridgetree.cli import build_parser
from bridgetree.config import DEFAULT_MAX_ITER, DEFAULT_TENSOR_CAP, DEFAULT_TOL
from bridgetree.trees import ENUMERATION_CAP

ROOT = Path(__file__).resolve().parents[1]
TRACING = ROOT / "perfbench" / "tracing.py"
DENSE = Path(bridgetree.dense.__file__)


def default_of(fn, name):
    return inspect.signature(fn).parameters[name].default


class TestDefaultsLiveInOnePlace:
    @pytest.mark.parametrize("fn", [sinkhorn_solve, mm_sinkhorn])
    def test_solver_tol_and_max_iter(self, fn):
        assert default_of(fn, "tol") == DEFAULT_TOL
        assert default_of(fn, "max_iter") == DEFAULT_MAX_ITER

    def test_tensor_and_enumeration_caps(self):
        assert default_of(mm_sinkhorn, "cap") == DEFAULT_TENSOR_CAP
        assert default_of(compose_tree_coupling, "cap") == DEFAULT_TENSOR_CAP
        assert default_of(cost_tensor, "cap") == DEFAULT_TENSOR_CAP
        assert default_of(rank_trees, "cap") == DEFAULT_TENSOR_CAP
        assert default_of(rank_trees, "enumeration_cap") == ENUMERATION_CAP

    @pytest.mark.parametrize("command", ["solve", "weights", "enumerate", "oracle"])
    def test_cli_solver_flags(self, command):
        argv = [command, "m.json", "--eta", "1"]
        if command == "oracle":
            argv += ["--tree", ""]
        args = build_parser().parse_args(argv)
        assert args.tol == DEFAULT_TOL
        assert args.max_iter == DEFAULT_MAX_ITER
        # only the commands that build a dense tensor take a tensor cap
        if command in ("enumerate", "oracle"):
            assert args.cap == DEFAULT_TENSOR_CAP
        else:
            assert not hasattr(args, "cap")

    def test_cli_enumeration_cap(self):
        args = build_parser().parse_args(["enumerate", "m.json", "--eta", "1"])
        assert args.enum_cap == ENUMERATION_CAP


class TestExports:
    def test_every_exported_name_resolves(self):
        assert len(set(bridgetree.__all__)) == len(bridgetree.__all__)
        for name in bridgetree.__all__:
            assert hasattr(bridgetree, name), name

    def test_deleted_api_stays_deleted(self):
        deleted = {"sb_values", "tensor_note", "pruned", "marginal_tol", "_plan_array",
                   "KernelMatrix", "_resolve_cost", "_broadcast_pair", "_edge_lookup"}
        assert deleted.isdisjoint(bridgetree.__all__)
        assert not hasattr(EdgeWeightMatrix, "sb_values")
        assert "tensor_note" not in {f.name for f in dataclasses.fields(OptimalMsbResult)}
        assert not hasattr(DiscreteMeasure, "pruned")
        assert "marginal_tol" not in inspect.signature(compose_tree_coupling).parameters
        assert not hasattr(bridgetree.trees, "_plan_array")
        assert not hasattr(bridgetree.dense, "_check_cap")
        assert not hasattr(bridgetree.dense, "_broadcast_pair")
        assert not hasattr(bridgetree.trees, "_edge_lookup")
        assert "tensor_cap" not in {f.name for f in dataclasses.fields(SolverConfig)}
        assert not hasattr(bridgetree.sinkhorn, "KernelMatrix")
        assert not hasattr(bridgetree.mst, "_resolve_cost")
        assert "kind" not in {f.name for f in dataclasses.fields(PairwiseCost)}
        assert "compose" not in inspect.signature(optimal_msb).parameters
        assert "tensor" not in {f.name for f in dataclasses.fields(OptimalMsbResult)}
        assert not hasattr(EdgeWeightMatrix, "plans")
        assert not hasattr(EdgeWeightMatrix, "s")
        assert not hasattr(MeasureCollection, "dim")


@pytest.mark.skipif(not TRACING.exists(), reason="perfbench/ is not in this checkout")
def test_perfbench_tracer_targets_resolve(monkeypatch):
    """Every attribute the benchmark's tracer patches still exists, and the
    MST table holds only patched originals, so `perfbench/run.py --trace 1`
    can install its wrappers."""
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    tracing = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, tracing)  # dataclasses look it up
    spec.loader.exec_module(tracing)
    originals = []
    for module, attr, *_ in tracing.PATCHES + tracing.GENERATOR_PATCHES:
        assert hasattr(module, attr), f"{module.__name__}.{attr}"
        originals.append(getattr(module, attr))
    for name, algorithm in bridgetree.mst.MST_ALGORITHMS.items():
        assert any(algorithm is fn for fn in originals), name


def test_dense_oracle_imports_nothing_of_the_fast_path():
    """dense.py shares no plan, weight or solve with the pairwise pipeline it
    checks: from the package it takes only generic helpers."""
    allowed = {
        "trees": {"DisjointSet", "Edge", "on_axes"},
        "sinkhorn": {"PairwiseCost", "total_variation"},
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
