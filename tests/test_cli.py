import copy
import csv
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from bridgetree import DiscreteMeasure, edge_weight, load_measure, prufer_decode, save_measure
from bridgetree.cli import main
from conftest import GMM_SPEC, random_measures

ROOT = Path(__file__).resolve().parents[1]


def write_measures(tmp_path, measures, prefix="m"):
    paths = []
    for i, m in enumerate(measures, 1):
        p = tmp_path / f"{prefix}{i}.json"
        save_measure(m, p)
        paths.append(str(p))
    return paths


def read_ranked_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


@pytest.fixture
def spec_path(tmp_path):
    p = tmp_path / "mixtures.json"
    p.write_text(json.dumps(GMM_SPEC))
    return str(p)


class TestGen:
    def test_writes_one_file_per_mixture(self, tmp_path, spec_path, capsys):
        rc = main(["gen", spec_path, "--n", "4", "--seed", "7", "--out-dir", str(tmp_path / "out")])
        assert rc == 0
        files = sorted((tmp_path / "out").glob("measure_*.json"))
        assert len(files) == 5
        for f in files:
            m = load_measure(f)
            assert m.n == 4
            assert np.allclose(m.weights, 0.25)
            assert np.all(np.abs(m.support) <= 10.0)
        listed = capsys.readouterr().out.strip().splitlines()
        assert len(listed) == 5

    def test_same_seed_byte_identical(self, tmp_path, spec_path):
        main(["gen", spec_path, "--n", "6", "--seed", "3", "--out-dir", str(tmp_path / "a")])
        main(["gen", spec_path, "--n", "6", "--seed", "3", "--out-dir", str(tmp_path / "b")])
        for fa in sorted((tmp_path / "a").glob("*.json")):
            fb = tmp_path / "b" / fa.name
            assert fa.read_bytes() == fb.read_bytes()

    def test_single_sample_measures(self, tmp_path, spec_path):
        rc = main(["gen", spec_path, "--n", "1", "--seed", "0", "--out-dir", str(tmp_path / "o")])
        assert rc == 0
        m = load_measure(next((tmp_path / "o").glob("*.json")))
        assert m.n == 1 and m.weights[0] == 1.0

    def test_malformed_spec_exits_2(self, tmp_path, capsys):
        no_std = {"mixtures": [{"components": [{"mean": 0.0, "weight": 1.0}]}]}
        bad = tmp_path / "bad.json"
        for text in ("{}", "not json", '{"mixtures": []}', '{"mixtures": [{}]}',
                     json.dumps(no_std)):
            bad.write_text(text)
            rc = main(["gen", str(bad), "--out-dir", str(tmp_path)])
            assert rc == 2, text
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["type"] == "validation"
            assert str(bad) in err["error"]["message"]

    def test_python_dash_m_entry_point(self, tmp_path, spec_path):
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, "-m", "bridgetree", "gen", spec_path, "--n", "3",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list((tmp_path / "out").glob("measure_*.json"))) == 5

    def test_unreachable_interval_exits_2_at_once(self, tmp_path, capsys):
        spec = {"interval": [-1.0, 1.0],
                "mixtures": [{"components": [{"mean": 100.0, "std": 0.1, "weight": 1.0}]}]}
        bad = tmp_path / "far.json"
        bad.write_text(json.dumps(spec))
        start = time.perf_counter()
        rc = main(["gen", str(bad), "--n", "200", "--out-dir", str(tmp_path / "out")])
        # rejection sampling would take 2 000 000 draws, about 40 s
        assert time.perf_counter() - start < 5.0
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "mixture 1: no mixture component reaches" in err["error"]["message"]
        assert not list((tmp_path / "out").glob("*.json"))

    @pytest.mark.parametrize("field, value", [
        ("std", "abc"),
        ("interval", 5),
        ("interval", [1.0, 2.0, 3.0]),
        ("mean", float("nan")),
        ("std", float("inf")),
        ("std", -1.0),
    ])
    def test_bad_spec_value_exits_2(self, tmp_path, capsys, field, value):
        spec = copy.deepcopy(GMM_SPEC)
        if field == "interval":
            spec["interval"] = value
        else:
            spec["mixtures"][0]["components"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc = main(["gen", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert str(bad) in err["error"]["message"]
        if field != "interval":
            assert "mixture 1" in err["error"]["message"]


class TestSolve:
    def test_two_diracs_distance_over_eta(self, tmp_path, capsys):
        ms = [DiscreteMeasure([[0.0, 0.0]], [1.0]), DiscreteMeasure([[3.0, 4.0]], [1.0])]
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "out"
        rc = main(["solve", *paths, "--eta", "2.0", "--cost", "euclidean",
                   "--out-dir", str(out)])
        assert rc == 0
        tree = json.loads((out / "tree.json").read_text())
        assert tree["edges"] == [[1, 2]]
        assert tree["prufer"] == []
        assert tree["cost"] == pytest.approx(5.0 / 2.0, abs=1e-12)

    def test_output_files_complete(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        out = tmp_path / "out"
        rc = main(["solve", *paths, "--eta", "1.0", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "weights.csv").read_text().startswith("vertex,1,2,3")
        assert (out / "tree.dot").read_text().startswith("graph tree {")
        report = json.loads((out / "report.json").read_text())
        assert report["s"] == 3
        assert len(report["edges"]) == 3
        for row in report["edges"]:
            assert row["converged"]
        prufer = (out / "prufer.txt").read_text().strip()
        assert prufer == " ".join(str(c) for c in report["tree"]["prufer"])

    def test_weight_csv_roundtrip(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 2]))
        out = tmp_path / "out"
        main(["solve", *paths, "--eta", "1.0", "--out-dir", str(out)])
        rows = (out / "weights.csv").read_text().strip().splitlines()
        parsed = np.array([[float(x) for x in r.split(",")[1:]] for r in rows[1:]])
        assert parsed.shape == (3, 3)
        assert np.array_equal(parsed, parsed.T)

    def test_unreadable_file_exit_2_names_path(self, tmp_path, capsys):
        rc = main(["solve", str(tmp_path / "nope.json"), str(tmp_path / "nope2.json"),
                   "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "io"
        assert "nope.json" in err["error"]["message"]

    def test_wrongly_typed_weights_exit_2_names_path(self, tmp_path, capsys):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"support": [[0.0]], "weights": {"a": 1}}))
        good = write_measures(tmp_path, [DiscreteMeasure([[1.0]], [1.0])])
        rc = main(["solve", str(bad), *good, "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "bad.json" in err["error"]["message"]

    def test_nonconvergence_exit_1(self, tmp_path, capsys):
        ms = [DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
              DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])]
        paths = write_measures(tmp_path, ms)
        rc = main(["solve", *paths, "--eta", "1.0", "--max-iter", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical"

    def test_unparsable_cost_matrix_exits_2(self, tmp_path, capsys):
        paths = write_measures(tmp_path, [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2)
        mat = tmp_path / "cost.csv"
        mat.write_text("0.0,one\n1.0,0.0\n")
        rc = main(["solve", *paths, "--eta", "1.0", "--cost", f"matrix:{mat}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert str(mat) in err["error"]["message"]

    def test_overflowing_eta_exits_2(self, tmp_path, capsys):
        # C/eta overflows: a refused input, not a numerical failure (exit 1)
        paths = write_measures(tmp_path, [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2)
        rc = main(["solve", *paths, "--eta", "1e-310", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "eta=1e-310" in err["error"]["message"]

    @pytest.mark.parametrize("tol", ["nan", "inf"])
    def test_non_finite_tol_exits_2(self, tmp_path, capsys, tol):
        paths = write_measures(tmp_path, [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2)
        rc = main(["solve", *paths, "--eta", "1.0", "--tol", tol, "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "tol" in err["error"]["message"]

    def test_matrix_cost_flag(self, tmp_path):
        ms = [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5]),
              DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])]
        paths = write_measures(tmp_path, ms)
        mat = tmp_path / "cost.csv"
        mat.write_text("0.0,1.0\n1.0,0.0\n")
        out = tmp_path / "out"
        rc = main(["solve", *paths, "--eta", "1.0", "--cost", f"matrix:{mat}",
                   "--out-dir", str(out)])
        assert rc == 0
        tree = json.loads((out / "tree.json").read_text())
        # frozen value for the uniform swap-cost edge: sb of the 2x2 instance
        assert tree["cost"] == pytest.approx(-1.0064088680781682, abs=1e-12)


class TestReproducibility:
    def test_solve_outputs_byte_identical_across_runs(self, tmp_path, rng):
        # deterministic files only; report.json carries wall-clock timings
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        for d in ("r1", "r2"):
            assert main(["solve", *paths, "--eta", "1.0", "--threads", "1",
                         "--out-dir", str(tmp_path / d)]) == 0
        for name in ("weights.csv", "tree.json", "tree.dot", "prufer.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_enumerate_output_byte_identical_across_runs(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 2]))
        for d in ("e1", "e2"):
            assert main(["enumerate", *paths, "--eta", "1.0", "--top-k", "0",
                         "--out-dir", str(tmp_path / d)]) == 0
        assert ((tmp_path / "e1" / "trees_ranked.csv").read_bytes()
                == (tmp_path / "e2" / "trees_ranked.csv").read_bytes())


class TestWeights:
    def test_writes_matrix_only(self, tmp_path, rng, capsys):
        paths = write_measures(tmp_path, random_measures(rng, [2, 2, 3]))
        out = tmp_path / "w"
        rc = main(["weights", *paths, "--eta", "1.0", "--out-dir", str(out)])
        assert rc == 0
        assert (out / "weights.csv").exists()
        assert not (out / "tree.json").exists()
        assert "g[1,2]" in capsys.readouterr().out


class TestEnumerate:
    def test_three_measures_three_rows(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 2]))
        out = tmp_path / "e"
        rc = main(["enumerate", *paths, "--eta", "1.0", "--top-k", "0",
                   "--out-dir", str(out)])
        assert rc == 0
        rows = read_ranked_csv(out / "trees_ranked.csv")
        assert len(rows) == 3
        costs = [float(r["cost_additive"]) for r in rows]
        assert costs == sorted(costs)
        for r in rows:
            assert abs(float(r["cost_additive"]) - float(r["cost_direct"])) <= 1e-6

    def test_top_k_limits_rows(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 2, 2, 2]))
        out = tmp_path / "e"
        rc = main(["enumerate", *paths, "--eta", "1.0", "--top-k", "5",
                   "--direct", "never", "--out-dir", str(out)])
        assert rc == 0
        rows = read_ranked_csv(out / "trees_ranked.csv")
        assert len(rows) == 5
        assert all(r["cost_direct"] == "" for r in rows)

    def test_solve_tree_is_rank_one(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3, 2]))
        out_s = tmp_path / "s"
        out_e = tmp_path / "e"
        assert main(["solve", *paths, "--eta", "1.5", "--out-dir", str(out_s)]) == 0
        assert main(["enumerate", *paths, "--eta", "1.5", "--direct", "never",
                     "--out-dir", str(out_e)]) == 0
        tree = json.loads((out_s / "tree.json").read_text())
        rows = read_ranked_csv(out_e / "trees_ranked.csv")
        assert rows[0]["prufer"] == " ".join(str(c) for c in tree["prufer"])
        assert abs(float(rows[0]["cost_additive"]) - tree["cost"]) <= 1e-9

    def test_enumeration_cap_refusal(self, tmp_path, rng, capsys):
        paths = write_measures(tmp_path, random_measures(rng, [2] * 9))
        rc = main(["enumerate", *paths, "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "cap" in err["error"]["message"]


    def test_over_cap_leaves_direct_column_empty(self, tmp_path, rng, capsys):
        paths = write_measures(tmp_path, random_measures(rng, [3, 3, 3]))
        for cap, dense in (("26", False), ("27", True)):
            out = tmp_path / cap
            rc = main(["enumerate", *paths, "--eta", "1.0", "--cap", cap,
                       "--out-dir", str(out)])
            assert rc == 0
            rows = read_ranked_csv(out / "trees_ranked.csv")
            assert len(rows) == 3
            assert all((row["cost_direct"] != "") == dense for row in rows)
            assert ("cost (dense tensor)" in capsys.readouterr().out) == dense


def refuse_pairwise_solves(monkeypatch):
    """Fail the test if any command starts a pairwise edge solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("pairwise edges solved before the cap was checked")
    monkeypatch.setattr("bridgetree.mst.edge_weight", no_solve)


@pytest.mark.parametrize("command", ["enumerate", "oracle"])
def test_cap_below_one_exits_2(tmp_path, rng, capsys, monkeypatch, command):
    paths = write_measures(tmp_path, random_measures(rng, [2, 2, 2]))
    refuse_pairwise_solves(monkeypatch)
    argv = [command, *paths, "--eta", "1.0", "--cap", "0", "--out-dir", str(tmp_path)]
    if command == "oracle":
        argv += ["--tree", "2"]
    assert main(argv) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"]["type"] == "validation"
    assert "cap" in err["error"]["message"]


class TestOracle:
    def test_zero_cost_instance_tiny_gaps(self, tmp_path, rng, capsys):
        ms = random_measures(rng, [2, 2, 2])
        paths = write_measures(tmp_path, ms)
        mat = tmp_path / "zero.csv"
        mat.write_text("0.0,0.0\n0.0,0.0\n")
        out = tmp_path / "o"
        rc = main(["oracle", *paths, "--eta", "1.0", "--cost", f"matrix:{mat}",
                   "--tree", "2", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["sup_norm_gap"] < 1e-9
        assert report["cost_gap"] < 1e-9

    def test_random_small_instance_gaps(self, tmp_path, rng):
        ms = random_measures(rng, [3, 3, 3], low=-5, high=5)
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "o"
        rc = main(["oracle", *paths, "--eta", "1.0", "--tree", "3", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["sup_norm_gap"] < 1e-6
        assert report["cost_gap"] < 1e-6
        assert report["mm_converged"]

    def test_two_measures_empty_code(self, tmp_path, rng):
        ms = random_measures(rng, [3, 4], low=-5, high=5)
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "o"
        rc = main(["oracle", *paths, "--eta", "1.0", "--tree", "", "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["sup_norm_gap"] < 1e-12

    def test_cap_exceeded_exit_2(self, tmp_path, rng, capsys, monkeypatch):
        ms = random_measures(rng, [30, 30, 30])
        paths = write_measures(tmp_path, ms)
        refuse_pairwise_solves(monkeypatch)
        rc = main(["oracle", *paths, "--eta", "1.0", "--tree", "2",
                   "--cap", "100", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "cap" in err["error"]["message"]


    def test_solves_only_the_tree_edges(self, tmp_path, rng, monkeypatch):
        # sizes n = 2..5 tell the vertices apart: vertex v has n = v + 1
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 4, 5]))
        solved = []

        def recording(m1, m2, config):
            solved.append((m1.n - 1, m2.n - 1))
            return edge_weight(m1, m2, config)

        monkeypatch.setattr("bridgetree.mst.edge_weight", recording)
        argv = ["oracle", *paths, "--eta", "5.0", "--tree", "3 3", "--out-dir", str(tmp_path)]
        assert main(argv) == 0
        assert tuple(sorted(solved)) == prufer_decode((3, 3), 4).edges

    def test_edge_off_the_tree_cannot_fail_it(self, tmp_path):
        # criterion 1's draw 45 (s=3, eta 0.5, sizes 5/5/3): edge (1, 3)
        # stalls at residual 7.2e-5, but the tree 1-2-3 does not use it
        rng = np.random.default_rng(777)
        for k in range(46):
            ms = random_measures(rng, rng.integers(3, 7, size=3 + k % 3))
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "o"
        argv = ["oracle", *paths, "--eta", "0.5", "--tree", "2", "--max-iter", "20000",
                "--out-dir", str(out)]
        assert main(argv) == 0
        assert json.loads((out / "oracle_report.json").read_text())["mm_converged"]

    def test_unconverged_dense_solve(self, tmp_path, capsys):
        # on this draw every pairwise solve converges within 434 sweeps and
        # the dense solve needs 573, so 500 stops only the dense one
        ms = random_measures(np.random.default_rng(4), [3, 3, 3], low=-5, high=5)
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "o"
        argv = ["oracle", *paths, "--eta", "1.0", "--tree", "2", "--max-iter", "500",
                "--out-dir", str(out)]
        assert main(argv) == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical"
        assert "multimarginal" in err["error"]["message"]
        assert not (out / "oracle_report.json").exists()
        assert main(argv + ["--allow-nonconverged"]) == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["mm_converged"] is False
        assert report["mm_iterations"] == 500


class TestExperimentScript:
    def test_small_run_writes_measures_and_full_ranking(self, tmp_path):
        # eta 50: at eta 5 and seed 42 the bundled spec's measures stall at
        # max_iter for several small n (4, 5, 6, 8, 10, 12).
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
        )
        proc = subprocess.run(
            [sys.executable, str(ROOT / "scripts" / "run_gmm_experiment.py"),
             "--eta", "50", "--n", "5", "--probe-n", "3", "--probe-sweeps", "5",
             "--out-dir", str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        assert len(list(tmp_path.glob("measure_*.json"))) == 5
        assert len(read_ranked_csv(tmp_path / "trees_ranked.csv")) == 125
