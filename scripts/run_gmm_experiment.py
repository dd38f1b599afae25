#!/usr/bin/env python3
"""End-to-end mixture experiment.

Samples s empirical measures from seeded 1-d Gaussian mixtures
(`bridgetree gen`), finds the optimal coupling tree via the edge-weight +
MST route (`bridgetree solve`), then ranks all s^(s-2) spanning trees with
both the edge-sum cost and the dense-tensor re-evaluation
(`bridgetree enumerate`), so the two routes can be compared row by row.
Finishes with a timing comparison against a dense multimarginal solve at
reduced support size.

Usage:
    python3 scripts/run_gmm_experiment.py --eta 5.0 --n 25 --seed 42
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

from bridgetree import (
    GraphStructure,
    build_cost,
    load_measure,
    mm_sinkhorn,
    parse_prufer,
    prufer_decode,
)
from bridgetree.cli import main as bridgetree

DEFAULT_SPEC = Path(__file__).with_name("gmm_mixtures.json")


def run(*argv) -> str:
    """One bridgetree CLI call; returns its stdout, exits on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bridgetree([str(a) for a in argv])
    if code:
        sys.exit(code)
    return buf.getvalue()


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default=str(DEFAULT_SPEC), help="mixture spec JSON")
    ap.add_argument("--eta", type=float, default=5.0)
    ap.add_argument("--n", type=int, default=25, help="samples per measure")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--top-k", type=int, default=10)
    ap.add_argument("--out-dir", default="results/gmm")
    ap.add_argument("--probe-n", type=int, default=10,
                    help="support size for the dense timing probe (0 skips it)")
    ap.add_argument("--probe-sweeps", type=int, default=600,
                    help="sweep cap for the dense probe (a lower bound on full solve time)")
    args = ap.parse_args()
    out = Path(args.out_dir)

    paths = run("gen", args.spec, "--n", args.n, "--seed", args.seed,
                "--out-dir", out).splitlines()
    print(f"{len(paths)} measures with n={args.n} samples each, eta={args.eta}\n")

    t0 = time.perf_counter()
    print(run("solve", *paths, "--eta", args.eta, "--out-dir", out))
    t_fast = time.perf_counter() - t0
    print(f"structure solve time (bridgetree solve, with file I/O): {t_fast:.3f} s\n")

    # enumerate prints a summary, a header, one line per tree, and the CSV path
    lines = run("enumerate", *paths, "--eta", args.eta, "--top-k", 0,
                "--out-dir", out).splitlines()
    rows = lines[2:-1]
    print(lines[0].split(";")[0] + f"; top {min(args.top_k, len(rows))}:")
    print("\n".join([lines[1], *rows[: args.top_k], lines[-1]]))

    if args.probe_n > 0:
        probe_paths = run("gen", args.spec, "--n", args.probe_n, "--seed", args.seed,
                          "--out-dir", out / "probe").splitlines()
        small = [load_measure(p) for p in probe_paths]
        tree = prufer_decode(parse_prufer((out / "prufer.txt").read_text()), len(small))
        graph = GraphStructure(tree.s, tree.edges)
        costs = {
            (a, b): build_cost(small[a - 1], small[b - 1]).matrix
            for a, b in tree.edges
        }
        t0 = time.perf_counter()
        mm = mm_sinkhorn(small, graph, costs, args.eta, max_iter=args.probe_sweeps)
        t_dense = time.perf_counter() - t0
        status = "converged" if mm.converged else f"truncated at {mm.iterations} sweeps"
        print(f"\ndense multimarginal solve of one tree at n={args.probe_n}: "
              f"{t_dense:.1f} s ({status})")
        print(f"structure solve at n={args.n} was {t_fast:.3f} s "
              f"(dense/structure >= {t_dense / t_fast:.0f}x)")


if __name__ == "__main__":
    main()
