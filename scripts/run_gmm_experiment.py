#!/usr/bin/env python3
"""End-to-end mixture experiment.

Samples s empirical measures from seeded 1-d Gaussian mixtures
(`bridgetree gen`), finds the optimal coupling tree via the edge-weight +
MST route (`bridgetree solve`), then ranks all s^(s-2) spanning trees with
both the edge-sum cost and the dense-tensor re-evaluation
(`bridgetree enumerate`), so the two routes can be compared row by row.
Finishes by checking the optimal tree against the dense multimarginal solve
on the same measures (`bridgetree oracle`), timed against `solve`; at the
defaults the check takes about 2 s and 340 MB.  When the n^s tensor is over
the cap, it prints why it skips the check.

Usage:
    python3 scripts/run_gmm_experiment.py --eta 5.0 --n 25 --seed 42
"""

import argparse
import contextlib
import io
import sys
import time
from pathlib import Path

from bridgetree.cli import main as bridgetree
from bridgetree.config import check_tensor_cap

DEFAULT_SPEC = Path(__file__).with_name("gmm_mixtures.json")


def run(*argv) -> str:
    """One bridgetree CLI call; returns its stdout, exits on failure."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = bridgetree([str(a) for a in argv])
    if code:
        sys.exit(code)
    return buf.getvalue()


def timed(*argv) -> tuple[str, float]:
    """run(*argv) and its wall time in seconds."""
    start = time.perf_counter()
    return run(*argv), time.perf_counter() - start


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--spec", default=str(DEFAULT_SPEC), help="mixture spec JSON")
    ap.add_argument("--eta", type=float, default=5.0)
    ap.add_argument("--n", type=int, default=25, help="samples per measure")
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--top-k", type=int, default=10)
    ap.add_argument("--out-dir", default="results/gmm")
    args = ap.parse_args()
    out = Path(args.out_dir)
    common = ("--eta", args.eta, "--out-dir", out)

    paths = run("gen", args.spec, "--n", args.n, "--seed", args.seed,
                "--out-dir", out).splitlines()
    print(f"{len(paths)} measures with n={args.n} samples each, eta={args.eta}\n")

    report, t_solve = timed("solve", *paths, *common)
    print(report)
    print(f"structure solve time (bridgetree solve, with file I/O): {t_solve:.3f} s\n")

    # enumerate prints a summary, a header, one line per tree, and the CSV path
    lines = run("enumerate", *paths, "--top-k", 0, *common).splitlines()
    rows = lines[2:-1]
    print(lines[0].split(";")[0] + f"; top {min(args.top_k, len(rows))}:")
    print("\n".join([lines[1], *rows[: args.top_k], lines[-1]]))

    try:
        check_tensor_cap([args.n] * len(paths))
    except ValueError as exc:  # the cap's ValidationError
        print(f"\noracle skipped: {exc}")
        return
    tree = (out / "prufer.txt").read_text().strip()
    report, t_oracle = timed("oracle", *paths, "--tree", tree, *common)
    print("\n" + report.rstrip())
    print(f"dense oracle time (bridgetree oracle): {t_oracle:.3f} s, "
          f"{t_oracle / t_solve:.0f}x the structure solve")


if __name__ == "__main__":
    main()
