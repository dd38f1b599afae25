import dataclasses
import inspect

import pytest

import bridgetree
from bridgetree import (
    DiscreteMeasure,
    EdgeWeightMatrix,
    OptimalMsbResult,
    compose_tree_coupling,
    mm_sinkhorn,
    rank_trees,
    sinkhorn_solve,
)
from bridgetree.cli import build_parser
from bridgetree.config import DEFAULT_MAX_ITER, DEFAULT_TENSOR_CAP, DEFAULT_TOL
from bridgetree.trees import ENUMERATION_CAP


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
        assert default_of(rank_trees, "enumeration_cap") == ENUMERATION_CAP

    @pytest.mark.parametrize("command", ["solve", "weights", "enumerate", "oracle"])
    def test_cli_solver_flags(self, command):
        argv = [command, "m.json", "--eta", "1"]
        if command == "oracle":
            argv += ["--tree", ""]
        args = build_parser().parse_args(argv)
        assert args.tol == DEFAULT_TOL
        assert args.max_iter == DEFAULT_MAX_ITER
        assert args.cap == DEFAULT_TENSOR_CAP

    def test_cli_enumeration_cap(self):
        args = build_parser().parse_args(["enumerate", "m.json", "--eta", "1"])
        assert args.enum_cap == ENUMERATION_CAP


class TestExports:
    def test_every_exported_name_resolves(self):
        assert len(set(bridgetree.__all__)) == len(bridgetree.__all__)
        for name in bridgetree.__all__:
            assert hasattr(bridgetree, name), name

    def test_deleted_api_stays_deleted(self):
        deleted = {"sb_values", "tensor_note", "pruned", "marginal_tol", "_plan_array"}
        assert deleted.isdisjoint(bridgetree.__all__)
        assert not hasattr(EdgeWeightMatrix, "sb_values")
        assert "tensor_note" not in {f.name for f in dataclasses.fields(OptimalMsbResult)}
        assert not hasattr(DiscreteMeasure, "pruned")
        assert "marginal_tol" not in inspect.signature(compose_tree_coupling).parameters
        assert not hasattr(bridgetree.trees, "_plan_array")
        assert not hasattr(bridgetree.dense, "_check_cap")
