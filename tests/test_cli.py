import copy
import csv
import json
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from bridgetree import DiscreteMeasure, SolverConfig, build_cost, edge_weight, gibbs_kernel
from bridgetree import load_measure, optimal_msb
from bridgetree import prufer_decode, save_measure, sinkhorn_solve
from bridgetree import cli, sinkhorn
from bridgetree.cli import main
from conftest import GMM_SPEC, random_measures
from helpers import OVER_CAP, OVER_CAP_N

ROOT = Path(__file__).resolve().parents[1]
BEYOND_FLOAT = 10**400  # an integer that no float holds


def child_env():
    """The environment for a child Python process that imports this checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    return env


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
        for text in (b"{}", b"not json", b'{"mixtures": []}', b'{"mixtures": [{}]}',
                     json.dumps(no_std).encode(), b'\xff\xfe{"mixtures": []}'):
            bad.write_bytes(text)
            rc = main(["gen", str(bad), "--out-dir", str(tmp_path)])
            assert rc == 2, text
            err = json.loads(capsys.readouterr().err)
            assert err["error"]["type"] == "validation"
            assert str(bad) in err["error"]["message"]

    def test_negative_seed_exits_2(self, tmp_path, spec_path, capsys):
        rc = main(["gen", spec_path, "--seed", "-1", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == "--seed must be an integer >= 0, got -1"
        assert not (tmp_path / "out").exists()

    def test_zero_sample_count_exits_2_naming_the_flag(self, tmp_path, spec_path, capsys):
        rc = main(["gen", spec_path, "--n", "0", "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == "--n must be an integer >= 1, got 0"
        assert not (tmp_path / "out").exists()

    def test_python_dash_m_entry_point(self, tmp_path, spec_path):
        proc = subprocess.run(
            [sys.executable, "-m", "bridgetree", "gen", spec_path, "--n", "3",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(),
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

    @pytest.mark.parametrize("field, value, mixture", [
        pytest.param("std", "abc", 1, id="std-abc"),
        pytest.param("interval", 5, 1, id="interval-5"),
        pytest.param("interval", [1.0, 2.0, 3.0], 1, id="interval-value2"),
        pytest.param("mean", float("nan"), 1, id="mean-nan"),
        pytest.param("std", float("inf"), 1, id="std-inf"),
        pytest.param("std", -1.0, 1, id="std--1.0"),
        pytest.param("std", -1.0, 3, id="std--1.0-in-mixture-3"),
        pytest.param("interval", [-10, BEYOND_FLOAT], 1, id="interval-beyond-float"),
        pytest.param("weight", BEYOND_FLOAT, 1, id="weight-beyond-float"),
    ])
    def test_bad_spec_value_exits_2(self, tmp_path, capsys, field, value, mixture):
        # the interval applies to every mixture, so mixture 1 already refuses it
        spec = copy.deepcopy(GMM_SPEC)
        if field == "interval":
            spec["interval"] = value
        else:
            spec["mixtures"][mixture - 1]["components"][0][field] = value
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(spec))
        rc = main(["gen", str(bad), "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert str(bad) in err["error"]["message"]
        if field != "interval":
            assert f"mixture {mixture}" in err["error"]["message"]
        assert not (tmp_path / "out").exists()  # no mixture is written before all are drawn
        if BEYOND_FLOAT in (value if isinstance(value, list) else [value]):
            what = "interval" if field == "interval" else "components"
            assert err["error"]["message"] == (
                f"{bad}: mixture 1: {what} has an integer beyond the float range")


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

    def test_report_reads_the_lean_records(self, tmp_path, rng, monkeypatch):
        # report.json takes each edge's diagnostics and <C, P> from its
        # record; rebuilding a plan would call sinkhorn.build_cost
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        out = tmp_path / "out"

        def rebuild(*args):
            raise AssertionError("solve rebuilt a plan")

        monkeypatch.setattr(sinkhorn, "build_cost", rebuild)
        assert main(["solve", *paths, "--eta", "1.0", "--out-dir", str(out)]) == 0
        monkeypatch.undo()
        ms = [load_measure(p) for p in paths]
        for row in json.loads((out / "report.json").read_text())["edges"]:
            a, b = row["edge"]
            cost = build_cost(ms[a - 1], ms[b - 1])
            solved = sinkhorn_solve(ms[a - 1], ms[b - 1], gibbs_kernel(cost, 1.0))
            assert row["transport_cost"] == 1.0 * solved.kernel_cost
            assert row["transport_cost"] == pytest.approx(
                float((cost.matrix * solved.plan).sum()), rel=1e-12)
            assert (row["iterations"], row["residual"], row["converged"]) == (
                solved.iterations, solved.residual, solved.converged)

    def test_weight_csv_roundtrip(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 2]))
        out = tmp_path / "out"
        main(["solve", *paths, "--eta", "1.0", "--out-dir", str(out)])
        rows = (out / "weights.csv").read_text().strip().splitlines()
        parsed = np.array([[float(x) for x in r.split(",")[1:]] for r in rows[1:]])
        assert parsed.shape == (3, 3)
        assert np.array_equal(parsed, parsed.T)

    def test_json_files_are_written_as_json_dumps_writes_them(self, tmp_path, rng):
        # the golden copies of report.json are re-encoded without their
        # timings, so this pins the bytes of the CLI's own JSON writer
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        out = tmp_path / "out"
        assert main(["solve", *paths, "--eta", "1.0", "--out-dir", str(out)]) == 0
        code = (out / "prufer.txt").read_text().strip()
        assert main(["oracle", *paths, "--eta", "1.0", "--tree", code, "--out-dir", str(out)]) == 0
        for name in ("tree.json", "report.json", "oracle_report.json"):
            text = (out / name).read_text()
            assert text == json.dumps(json.loads(text), indent=1) + "\n", name

    @pytest.mark.parametrize("rows", [0, 1, 3])
    def test_report_rows_are_encoded_as_json_dumps_encodes_them(self, tmp_path, rows):
        # values that no golden report holds, each at a row of its own
        odd = [
            {"g": float("nan"), "sb": float("inf"), "residual": float("-inf"),
             "transport_cost": -0.0, "iterations": 2**31 + 5, "converged": False},
            {"g": 5e-324, "sb": 1.7976931348623157e308, "residual": -1.7976931348623157e308,
             "transport_cost": 2.2250738585072014e-308, "iterations": 0, "converged": True},
            {"g": 0.1, "sb": -2.5e-17, "residual": 1e16, "transport_cost": 123456789.0,
             "iterations": 100_000, "converged": True},
        ][:rows]
        solves = [((k + 1, k + 2), SimpleNamespace(seconds=1e-4 * (k + 1), **values))
                  for k, values in enumerate(odd)]
        report = {"eta": 1.0, "s": 2, "entropies": [0.5, -0.0], "edges": None,
                  "timings": {"weights_seconds": 0.25}}
        path = tmp_path / "report.json"
        cli._write_report(path, report, solves)
        expected = dict(report, edges=[
            {"edge": [a, b], "g": es.g, "sb": es.sb, "iterations": es.iterations,
             "residual": es.residual, "converged": es.converged,
             "transport_cost": es.transport_cost, "seconds": es.seconds}
            for (a, b), es in solves])
        assert path.read_text() == json.dumps(expected, indent=1) + "\n"

    def test_peak_memory_stays_near_the_library_solve(self, tmp_path):
        # solve's outputs are encoded into their files as they are made: a
        # report.json built whole in memory first read 3.8 library peaks here
        rng = np.random.default_rng(32)
        paths = write_measures(tmp_path, random_measures(rng, rng.integers(3, 7, size=32)))
        argv = ["solve", *paths, "--eta", "5", "--out-dir", str(tmp_path / "out")]
        assert main(argv) == 0  # the parser and every import made before the trace
        measures = [load_measure(p) for p in paths]
        peaks = []
        for run in (lambda: main(argv), lambda: optimal_msb(measures, SolverConfig(eta=5.0))):
            tracemalloc.start()
            try:
                run()
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[0] <= 2 * peaks[1], peaks

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

    @pytest.mark.parametrize("content, message", [
        (b'\xff\xfe{"support": [[0.0]], "weights": [1.0]}', "not valid JSON"),
        (f'{{"support": [[0.0], [1.0]], "weights": [1, {BEYOND_FLOAT}]}}'.encode(),
         "weights has an integer beyond the float range"),
    ], ids=["not-utf8", "integer-beyond-float"])
    def test_undecodable_or_overflowing_file_exits_2(self, tmp_path, capsys, content, message):
        bad = tmp_path / "bad.json"
        bad.write_bytes(content)
        good = write_measures(tmp_path, [DiscreteMeasure([[1.0]], [1.0])])
        rc = main(["solve", str(bad), *good, "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "bad.json" in err["error"]["message"]
        assert message in err["error"]["message"]

    def test_overflowing_cost_exits_2_with_one_stderr_line(self, tmp_path):
        # the squared distance of points 2e200 apart overflows: the error is
        # the only line on stderr, with no numpy warning ahead of it
        far = DiscreteMeasure([[1e200], [-1e200]], [0.5, 0.5])
        paths = write_measures(tmp_path, [far, far])
        proc = subprocess.run(
            [sys.executable, "-m", "bridgetree", "solve", *paths, "--eta", "1.0",
             "--out-dir", str(tmp_path / "out")],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 2
        lines = proc.stderr.splitlines()
        assert len(lines) == 1, proc.stderr
        assert json.loads(lines[0])["error"]["type"] == "validation"

    def test_nonconvergence_exit_1(self, tmp_path, capsys):
        ms = [DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
              DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3])]
        paths = write_measures(tmp_path, ms)
        rc = main(["solve", *paths, "--eta", "1.0", "--max-iter", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "numerical"

    def test_nonconvergence_names_every_failed_edge(self, tmp_path, capsys):
        # edges (1, 2), (1, 4) and (2, 4) stall at max_iter=2; the two with
        # the point mass converge
        ms = [DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
              DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3]),
              DiscreteMeasure([[0.0]], [1.0]),
              DiscreteMeasure([[-8.5], [9.5]], [0.2, 0.8])]
        paths = write_measures(tmp_path, ms)
        rc = main(["solve", *paths, "--eta", "1.0", "--max-iter", "2", "--threads", "2",
                   "--out-dir", str(tmp_path)])
        assert rc == 1
        message = json.loads(capsys.readouterr().err)["error"]["message"]
        named = [part.split(":")[0] for part in message.split("; ")]
        assert named == ["edge (1, 2)", "edge (1, 4)", "edge (2, 4)"]
        assert message.count("with residual") == 3

    def test_allow_nonconverged_warns_once_naming_every_stalled_edge(self, tmp_path):
        # the same measures: one UserWarning line names the three stalled
        # edges, and report.json marks each of them unconverged
        ms = [DiscreteMeasure([[-8.0], [9.0]], [0.4, 0.6]),
              DiscreteMeasure([[-7.5], [8.5]], [0.7, 0.3]),
              DiscreteMeasure([[0.0]], [1.0]),
              DiscreteMeasure([[-8.5], [9.5]], [0.2, 0.8])]
        paths = write_measures(tmp_path, ms)
        out = tmp_path / "out"
        proc = subprocess.run(
            [sys.executable, "-m", "bridgetree", "solve", *paths, "--eta", "1.0",
             "--max-iter", "2", "--allow-nonconverged", "--out-dir", str(out)],
            capture_output=True, text=True, env=child_env(),
        )
        assert proc.returncode == 0, proc.stderr
        warned = [line for line in proc.stderr.splitlines() if "UserWarning:" in line]
        assert len(warned) == 1, proc.stderr
        assert all(f"edge {edge}: " in warned[0] for edge in ("(1, 2)", "(1, 4)", "(2, 4)"))
        report = json.loads((out / "report.json").read_text())
        stalled = [tuple(row["edge"]) for row in report["edges"] if row["converged"] is False]
        assert stalled == [(1, 2), (1, 4), (2, 4)]

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

    def test_empty_cost_matrix_path_exits_2(self, tmp_path, capsys):
        paths = write_measures(tmp_path, [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2)
        rc = main(["solve", *paths, "--eta", "1.0", "--cost", "matrix:",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "--cost" in err["error"]["message"]

    def test_negative_cost_matrix_exits_2_before_any_solve(self, tmp_path, capsys, monkeypatch):
        paths = write_measures(tmp_path, [DiscreteMeasure([[0.0], [1.0]], [0.5, 0.5])] * 2)
        mat = tmp_path / "cost.csv"
        mat.write_text("0.0,-1.0\n1.0,0.0\n")
        refuse_pairwise_solves(monkeypatch)
        rc = main(["solve", *paths, "--eta", "1.0", "--cost", f"matrix:{mat}",
                   "--out-dir", str(tmp_path / "out")])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["type"] == "validation"
        assert "negative cost" in err["error"]["message"]

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
        assert json.loads((out / "report.json").read_text())["cost_kind"] == "matrix"


class TestReproducibility:
    def test_solve_outputs_byte_identical_across_runs(self, tmp_path, rng):
        # deterministic files only; report.json carries wall-clock timings
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        for d in ("r1", "r2"):
            assert main(["solve", *paths, "--eta", "1.0", "--threads", "1",
                         "--out-dir", str(tmp_path / d)]) == 0
        for name in ("weights.csv", "tree.json", "tree.dot", "prufer.txt"):
            assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()

    def test_second_call_in_a_process_matches_a_fresh_process(self, tmp_path, rng, capsys):
        # main builds its parser once per process: no flag of a first call may
        # reach a second call's arguments
        paths = write_measures(tmp_path, random_measures(rng, [3, 2, 3]))
        assert main(["enumerate", *paths, "--eta", "2.0", "--cost", "euclidean", "--tol", "1e-6",
                     "--max-iter", "500", "--threads", "2", "--allow-nonconverged", "--top-k", "2",
                     "--direct", "never", "--out-dir", str(tmp_path / "first")]) == 0
        second = ["solve", *paths, "--eta", "1.0", "--out-dir"]
        capsys.readouterr()
        assert main(second + [str(tmp_path / "warm")]) == 0
        warm_stdout = capsys.readouterr().out
        proc = subprocess.run([sys.executable, "-m", "bridgetree", *second, str(tmp_path / "fresh")],
                              capture_output=True, text=True, env=child_env())
        assert proc.returncode == 0, proc.stderr
        # the last line names the output directory
        assert warm_stdout.splitlines()[:-1] == proc.stdout.splitlines()[:-1]
        for name in ("weights.csv", "tree.json", "tree.dot", "prufer.txt"):
            assert (tmp_path / "warm" / name).read_bytes() == (tmp_path / "fresh" / name).read_bytes()
        reports = [json.loads((tmp_path / d / "report.json").read_text()) for d in ("warm", "fresh")]
        for report in reports:  # all but the wall-clock timings
            del report["timings"]
            for row in report["edges"]:
                del row["seconds"]
        assert reports[0] == reports[1]

    def test_enumerate_output_byte_identical_across_runs(self, tmp_path, rng):
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 2]))
        for d in ("e1", "e2"):
            assert main(["enumerate", *paths, "--eta", "1.0", "--top-k", "0",
                         "--out-dir", str(tmp_path / d)]) == 0
        assert ((tmp_path / "e1" / "trees_ranked.csv").read_bytes()
                == (tmp_path / "e2" / "trees_ranked.csv").read_bytes())


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

    def test_negative_top_k_exits_2_before_any_solve(self, tmp_path, rng, capsys, monkeypatch):
        paths = write_measures(tmp_path, random_measures(rng, [2, 2, 2]))
        refuse_pairwise_solves(monkeypatch)
        rc = main(["enumerate", *paths, "--eta", "1.0", "--top-k", "-1",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == "--top-k must be an integer >= 0, got -1"
        assert not (tmp_path / "trees_ranked.csv").exists()

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

    def test_enumeration_cap_refusal(self, tmp_path, rng, capsys, monkeypatch):
        paths = write_measures(tmp_path, random_measures(rng, [2] * 9))
        refuse_pairwise_solves(monkeypatch)
        rc = main(["enumerate", *paths, "--eta", "1.0", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert "cap" in err["error"]["message"]

    def test_direct_always_over_cap_exits_2_before_any_solve(self, tmp_path, rng, capsys,
                                                             monkeypatch):
        paths = write_measures(tmp_path, random_measures(rng, [OVER_CAP_N] * 3))
        refuse_pairwise_solves(monkeypatch)
        rc = main(["enumerate", *paths, "--eta", "1.0", "--direct", "always",
                   "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"]["message"] == OVER_CAP

    def test_over_cap_leaves_direct_column_empty(self, tmp_path, rng, capsys, monkeypatch):
        paths = write_measures(tmp_path, random_measures(rng, [3, 3, 3]))
        for cap, dense in ((26, False), (27, True)):
            monkeypatch.setattr("bridgetree.mst.TENSOR_CAP", cap)
            out = tmp_path / str(cap)
            rc = main(["enumerate", *paths, "--eta", "1.0", "--out-dir", str(out)])
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
        # the pairwise solve relaxes its sweeps and mm_sinkhorn does not: the
        # two plans meet within 1e-12 only once both solves run to tol 1e-13
        rc = main(["oracle", *paths, "--eta", "1.0", "--tol", "1e-13", "--tree", "",
                   "--out-dir", str(out)])
        assert rc == 0
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["sup_norm_gap"] < 1e-12

    def test_cap_exceeded_exit_2(self, tmp_path, rng, capsys, monkeypatch):
        ms = random_measures(rng, [OVER_CAP_N] * 3)
        paths = write_measures(tmp_path, ms)
        refuse_pairwise_solves(monkeypatch)
        rc = main(["oracle", *paths, "--eta", "1.0", "--tree", "2", "--out-dir", str(tmp_path)])
        assert rc == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == {"type": "validation", "message": OVER_CAP}


    def test_solves_only_the_tree_edges(self, tmp_path, rng, monkeypatch):
        # sizes n = 2..5 tell the vertices apart: vertex v has n = v + 1
        paths = write_measures(tmp_path, random_measures(rng, [2, 3, 4, 5]))
        solved = []

        def recording(m1, m2, config, **kwargs):
            solved.append((m1.n - 1, m2.n - 1))
            return edge_weight(m1, m2, config, **kwargs)

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
        assert capsys.readouterr().err == (
            '{"error": {"type": "numerical", "message": "multimarginal solve stopped '
            'at residual 1.659e-08 > tol 1.0e-09"}}\n'
        )
        assert not (out / "oracle_report.json").exists()
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(argv + ["--allow-nonconverged"]) == 0
        assert [str(w.message) for w in caught] == [
            "multimarginal solve stopped at residual 1.659e-08 > tol 1.0e-09"]
        report = json.loads((out / "oracle_report.json").read_text())
        assert report["mm_converged"] is False
        assert report["mm_iterations"] == 500


class TestBundledSpec:
    def test_gmm_n25_tree_is_pinned(self, tmp_path):
        # gen scripts/gmm_mixtures.json --n 25 --seed 42, then solve --eta 5.
        # The tree is pinned and its cost is not, so a change that moves g in
        # its last bits shows whether the tree moved.
        measures = tmp_path / "measures"
        assert main(["gen", str(ROOT / "scripts" / "gmm_mixtures.json"), "--n", "25",
                     "--seed", "42", "--out-dir", str(measures)]) == 0
        paths = sorted(str(p) for p in measures.glob("measure_*.json"))
        out = tmp_path / "out"
        assert main(["solve", *paths, "--eta", "5", "--out-dir", str(out)]) == 0
        tree = json.loads((out / "tree.json").read_text())
        assert tree["edges"] == [[1, 4], [1, 5], [2, 5], [3, 5]]
        assert tree["prufer"] == [5, 5, 1]
        assert (out / "prufer.txt").read_bytes() == b"5 5 1\n"


def run_experiment(tmp_path, *argv):
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "run_gmm_experiment.py"), *argv,
         "--out-dir", str(tmp_path)],
        capture_output=True, text=True, env=child_env(),
    )
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


class TestExperimentScript:
    def test_small_run_writes_measures_and_full_ranking(self, tmp_path):
        # eta 50: at eta 5 and seed 42 the bundled spec's measures stall at
        # max_iter for several small n (4, 5, 6, 8, 10, 12).
        run_experiment(tmp_path, "--eta", "50", "--n", "5")
        assert len(list(tmp_path.glob("measure_*.json"))) == 5
        assert len(read_ranked_csv(tmp_path / "trees_ranked.csv")) == 125
        tree = json.loads((tmp_path / "tree.json").read_text())
        oracle = json.loads((tmp_path / "oracle_report.json").read_text())
        assert oracle["tree"]["prufer"] == tree["prufer"]
        # perfbench's SUP_GAP_TOL and DIRECT_TOL
        assert oracle["sup_norm_gap"] <= 1e-6 and oracle["cost_gap"] <= 1e-5

    def test_over_the_cap_skips_the_oracle(self, tmp_path):
        # 26^5 = 11 881 376 entries, past config.TENSOR_CAP
        stdout = run_experiment(tmp_path, "--eta", "50", "--n", "26", "--top-k", "1")
        assert "oracle skipped: tensor with 11881376 entries exceeds the cap" in stdout
        assert not (tmp_path / "oracle_report.json").exists()
