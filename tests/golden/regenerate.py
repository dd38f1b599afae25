"""Golden CLI outputs: how the files beside this module are made.

Two seeded measure sets each go through `bridgetree solve`, `enumerate
--top-k 0` and `oracle --tree "$(cat prufer.txt)"`, all at --eta 5:

  gmm/    `gen scripts/gmm_mixtures.json --n 11 --seed 42`, the default
          squared Euclidean cost
  plane/  five 2-d measures of 4 to 7 points drawn with seed 7, written by
          save_measure, solved with --cost euclidean

Each directory keeps the measure files and every file the three commands
write.  report.json is kept without its wall-clock timings: the top-level
"timings" and each edge's "seconds".  tests/test_golden.py runs write()
into a temporary directory and compares every file's bytes with the copy
kept here, with no tolerance.

After a change that moves an output byte on purpose, regenerate with

    PYTHONPATH=src python tests/golden/regenerate.py

and state the largest move in CHANGES.md.
"""

import contextlib
import io
import json
from pathlib import Path

import numpy as np

from bridgetree import DiscreteMeasure, save_measure
from bridgetree.cli import main as bridgetree

HERE = Path(__file__).resolve().parent
SPEC = HERE.parents[1] / "scripts" / "gmm_mixtures.json"
SETS = ("gmm", "plane")


def run(*argv) -> str:
    """One bridgetree CLI call; returns its stdout, raises on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bridgetree([str(a) for a in argv])
    if code:
        raise RuntimeError(f"bridgetree {argv[0]} exited with {code}")
    return buf.getvalue()


def plane_measures(out: Path) -> list[Path]:
    """Five random 2-d measures with uneven weights; every edge converges."""
    out.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(7)
    paths = []
    for idx, n in enumerate((4, 6, 5, 7, 5), start=1):
        path = out / f"measure_{idx:02d}.json"
        save_measure(DiscreteMeasure(rng.uniform(-5, 5, (n, 2)), rng.uniform(0.5, 1.5, n)), path)
        paths.append(path)
    return paths


def solve_all(paths, out: Path, *flags) -> None:
    """solve, enumerate --top-k 0 and oracle on the optimal tree, at eta 5."""
    common = ("--eta", 5, *flags, "--out-dir", out)
    run("solve", *paths, *common)
    run("enumerate", *paths, "--top-k", 0, *common)
    run("oracle", *paths, "--tree", (out / "prufer.txt").read_text().strip(), *common)
    report = json.loads((out / "report.json").read_text())
    del report["timings"]
    for edge in report["edges"]:
        del edge["seconds"]
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")


def write(root) -> None:
    """Write both sets' files under root/gmm and root/plane."""
    root = Path(root)
    gmm = run("gen", SPEC, "--n", 11, "--seed", 42, "--out-dir", root / "gmm").splitlines()
    solve_all(gmm, root / "gmm")
    solve_all(plane_measures(root / "plane"), root / "plane", "--cost", "euclidean")


if __name__ == "__main__":
    write(HERE)
