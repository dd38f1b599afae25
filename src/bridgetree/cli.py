"""Command-line interface.

Subcommands:
  gen        sample measure files from a Gaussian-mixture spec
  solve      optimal tree for a set of measure files (weights + MST)
  enumerate  rank all spanning trees by cost
  oracle     dense multimarginal cross-check for one tree

Exit codes: 0 success, 1 numerical failure, 2 I/O or validation error.
Failures print a JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    COST_KINDS,
    DEFAULT_MAX_ITER,
    DEFAULT_TOL,
    TENSOR_CAP,
    SolverConfig,
    as_index,
    check_tensor_cap,
)
from .dense import GraphStructure, mm_sinkhorn, msb_objective, cost_tensor
from .errors import SolverError, ValidationError
from .measures import (
    MeasureCollection,
    entropy,
    load_measure,
    sample_gmm,
    save_measure,
)
from .mst import _POOL_MIN_ENTRIES, DIRECT_MODES, MST_ALGORITHMS
from .mst import optimal_msb, rank_trees, solve_edges
from .trees import (
    compose_tree_coupling,
    format_prufer,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    tree_cost_additive,
)

SIG_DIGITS = 15


def _fmt(x: float) -> str:
    return format(float(x), f".{SIG_DIGITS}g")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bridgetree",
        description="Optimal correlation-tree structure for multimarginal Schrödinger bridges",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # the flags every measure command shares
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("measures", nargs="+", help="measure JSON files")
    solver.add_argument("--eta", type=float, required=True, help="entropic regularization (> 0)")
    solver.add_argument(
        "--cost",
        default="sqeuclidean",
        help=f"ground cost: {', '.join(COST_KINDS)}, or matrix:<csv-file>",
    )
    solver.add_argument("--tol", type=float, default=DEFAULT_TOL, help="marginal TV tolerance")
    solver.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, help="Sinkhorn sweep limit"
    )
    solver.add_argument(
        "--threads", type=int, default=1,
        help=f"the most parallel edge solves; an edge whose plan has fewer than "
             f"{_POOL_MIN_ENTRIES} entries runs serially, as its short numpy calls "
             f"would only trade the GIL between threads",
    )
    solver.add_argument(
        "--allow-nonconverged",
        action="store_true",
        help="downgrade Sinkhorn non-convergence from error to warning",
    )
    solver.add_argument("--out-dir", default=".", help="directory for output files")

    p_gen = sub.add_parser("gen", help="sample measure files from a GMM spec")
    p_gen.add_argument("spec", help="JSON mixture spec file")
    p_gen.add_argument("--n", type=int, default=25, help="samples per measure")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--prefix", default="measure", help="output file prefix")
    p_gen.add_argument("--out-dir", default=".", help="directory for output files")

    p_solve = sub.add_parser("solve", parents=[solver], help="optimal tree for measure files")
    p_solve.add_argument("--mst", choices=tuple(MST_ALGORITHMS), default="prim")

    p_enum = sub.add_parser("enumerate", parents=[solver], help="rank all spanning trees by cost")
    p_enum.add_argument("--top-k", type=int, default=10, help="rows to report (0 = all)")
    p_enum.add_argument(
        "--direct",
        choices=DIRECT_MODES,
        default="auto",
        help=f"dense re-evaluation of each tree (auto: when at most {TENSOR_CAP} entries)",
    )

    p_oracle = sub.add_parser(
        "oracle", parents=[solver], help="dense multimarginal cross-check for one tree"
    )
    p_oracle.add_argument(
        "--tree",
        required=True,
        help='Prüfer code, e.g. "3 3 5" (empty string for s=2)',
    )

    return parser


def _config_from_args(args) -> SolverConfig:
    cost = args.cost
    if cost.startswith("matrix:"):
        path = cost.split(":", 1)[1]
        if not path:
            raise ValidationError("--cost matrix: needs a CSV path, as in matrix:<csv-file>")
        try:
            cost = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: could not parse cost matrix ({exc})") from exc
    return SolverConfig(
        eta=args.eta,
        cost=cost,
        tol=args.tol,
        max_iter=args.max_iter,
        threads=args.threads,
        on_nonconverged="warn" if args.allow_nonconverged else "error",
    )


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_json(path: Path, payload) -> None:
    """json.dumps(payload, indent=1) + "\n", in one write."""
    path.write_text(json.dumps(payload, indent=1) + "\n")


def _json_float(x: float) -> str:
    """x as json.dumps writes a float."""
    if x != x:
        return "NaN"
    if x in (math.inf, -math.inf):
        return "Infinity" if x > 0 else "-Infinity"
    return float.__repr__(x)


def _edge_row(edge, es) -> str:
    """One row of report.json's edges as json.dumps(report, indent=1) places it."""
    a, b = edge
    return (f'{{\n   "edge": [\n    {a},\n    {b}\n   ],\n'
            f'   "g": {_json_float(es.g)},\n'
            f'   "sb": {_json_float(es.sb)},\n'
            f'   "iterations": {es.iterations},\n'
            f'   "residual": {_json_float(es.residual)},\n'
            f'   "converged": {"true" if es.converged else "false"},\n'
            f'   "transport_cost": {_json_float(es.transport_cost)},\n'
            f'   "seconds": {_json_float(es.seconds)}\n  }}')


def _write_report(path: Path, report: dict, solves) -> None:
    """json.dumps(report, indent=1) + "\n", with the rows of solves, its
    (edge, EdgeSolve) pairs, in place of report["edges"], which is None:
    each row is encoded from its record as it is written, and none is kept.
    '"edges": null' is that key's text alone: a string escapes its quotes,
    and the tree's edges are a list."""
    head, _, tail = json.dumps(report, indent=1).partition('"edges": null')
    with path.open("w") as fh:
        fh.write(head + '"edges": [')
        separator = "\n  "
        for edge, es in solves:
            fh.write(separator + _edge_row(edge, es))
            separator = ",\n  "
        fh.write(("]" if separator == "\n  " else "\n ]") + tail + "\n")


def _write_weight_csv(path: Path, g: np.ndarray) -> None:
    s = g.shape[0]
    with path.open("w") as fh:
        fh.write("vertex," + ",".join(str(v) for v in range(1, s + 1)) + "\n")
        fh.writelines(f"{a + 1},{','.join(repr(float(x)) for x in g[a])}\n" for a in range(s))


def _tree_payload(tree, cost: float) -> dict:
    return {
        "prufer": [int(c) for c in prufer_encode(tree)],
        "edges": [[int(a), int(b)] for a, b in tree.edges],
        "cost": float(cost),
    }


def _cmd_gen(args) -> int:
    spec_path = Path(args.spec)
    try:
        spec = json.loads(spec_path.read_text())
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise ValidationError(f"{spec_path}: not valid JSON ({exc})") from exc
    if not isinstance(spec, dict) or "mixtures" not in spec:
        raise ValidationError(f"{spec_path}: expected an object with a 'mixtures' list")
    interval = spec.get("interval", (-10.0, 10.0))
    mixtures = spec["mixtures"]
    if not isinstance(mixtures, list) or not mixtures:
        raise ValidationError(f"{spec_path}: 'mixtures' must be a non-empty list")
    n = as_index(args.n, "--n", 1)
    rng = np.random.default_rng(as_index(args.seed, "--seed", 0))
    measures = []  # every mixture is drawn before any file is written
    for idx, mixture in enumerate(mixtures, start=1):
        comps = mixture.get("components") if isinstance(mixture, dict) else None
        if not comps:
            raise ValidationError(f"{spec_path}: mixture {idx} has no 'components'")
        try:
            triples = [(c["mean"], c["std"], c["weight"]) for c in comps]
        except (KeyError, TypeError) as exc:
            raise ValidationError(
                f"{spec_path}: mixture {idx} components need mean/std/weight ({exc})"
            ) from exc
        try:
            measures.append(sample_gmm(triples, n=n, interval=interval, seed=rng))
        except ValidationError as exc:
            raise ValidationError(f"{spec_path}: mixture {idx}: {exc}") from exc
    out = _out_dir(args)
    for idx, measure in enumerate(measures, start=1):
        path = out / f"{args.prefix}_{idx:02d}.json"
        save_measure(measure, path)
        print(path)
    return 0


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    collection = MeasureCollection(map(load_measure, args.measures))
    result = optimal_msb(collection, config, mst_algorithm=args.mst)
    out = _out_dir(args)

    _write_weight_csv(out / "weights.csv", result.weight_matrix.g)
    tree_payload = _tree_payload(result.tree, result.total_cost)
    _write_json(out / "tree.json", tree_payload)
    (out / "tree.dot").write_text(result.tree.to_dot())
    (out / "prufer.txt").write_text(format_prufer(tree_payload["prufer"]) + "\n")
    report = {
        "eta": config.eta,
        "cost_kind": args.cost.split(":", 1)[0],
        "tol": config.tol,
        "s": collection.s,
        "sizes": list(collection.sizes),
        "entropies": [float(h) for h in result.entropies],
        "tree": tree_payload,
        "total_cost": result.total_cost,
        "edges": None,  # written from the solve's EdgeStore, in edge order
        "timings": {
            "weights_seconds": result.seconds_weights,
            "mst_seconds": result.seconds_mst,
        },
    }
    _write_report(out / "report.json", report, result.weight_matrix.edges.items())

    print(f"optimal tree (prufer): {format_prufer(tree_payload['prufer'])}")
    print(f"edges: {tree_payload['edges']}")
    print(f"total cost: {_fmt(result.total_cost)}")
    for a, b in result.tree.edges:
        print(f"  edge ({a},{b}): g = {_fmt(result.weight_matrix.edges[(a, b)].g)}")
    print(f"outputs in {out}")
    return 0


def _cmd_enumerate(args) -> int:
    config = _config_from_args(args)
    top_k = as_index(args.top_k, "--top-k", 0)
    collection = MeasureCollection(map(load_measure, args.measures))
    start = time.perf_counter()
    rows = rank_trees(collection, config, direct=args.direct)
    elapsed = time.perf_counter() - start
    top_k = len(rows) if top_k == 0 else min(top_k, len(rows))

    out = _out_dir(args)
    with (out / "trees_ranked.csv").open("w") as fh:  # each row written as it is made
        fh.write("rank,prufer,cost_additive,cost_direct\n")
        for rank, row in enumerate(rows[:top_k], start=1):
            direct = "" if row.cost_direct is None else repr(row.cost_direct)
            fh.write(f'{rank},"{format_prufer(row.prufer)}",{row.cost_additive!r},{direct}\n')

    print(f"{len(rows)} spanning trees ranked in {elapsed:.3f} s; top {top_k}:")
    header = f"{'rank':>4}  {'prufer':<12} {'cost (edge sums)':<22}"
    if rows and rows[0].cost_direct is not None:
        header += " cost (dense tensor)"
    print(header)
    for rank, row in enumerate(rows[:top_k], start=1):
        line = f"{rank:>4}  {format_prufer(row.prufer) or '-':<12} {_fmt(row.cost_additive):<22}"
        if row.cost_direct is not None:
            line += f" {_fmt(row.cost_direct)}"
        print(line)
    print(f"wrote {out / 'trees_ranked.csv'}")
    return 0


def _cmd_oracle(args) -> int:
    config = _config_from_args(args)
    collection = MeasureCollection(map(load_measure, args.measures))
    check_tensor_cap(collection.sizes)  # before any pairwise solve
    code = parse_prufer(args.tree)
    tree = prufer_decode(code, collection.s)

    solves = solve_edges(collection, config, tree.edges)  # the tree's s-1 edges only
    rebuilt = {e: es.rebuild() for e, es in solves.items()}  # one cost build per edge
    plans = {e: coupling.plan for e, (_, coupling) in rebuilt.items()}
    g = np.zeros((collection.s, collection.s))  # solve's weights on the tree's edges
    for (a, b), es in solves.items():
        g[a - 1, b - 1] = es.g
    composed = compose_tree_coupling(tree, plans, collection)

    graph = GraphStructure(collection.s, tree.edges)
    costs = {e: cost.matrix for e, (cost, _) in rebuilt.items()}
    mm = mm_sinkhorn(collection, graph, costs, config.eta,
                     tol=config.tol, max_iter=config.max_iter)
    if not mm.converged:
        config.handle_nonconverged(
            f"multimarginal solve stopped at residual {mm.residual:.3e} > tol {config.tol:.1e}"
        )

    sup_gap = float(np.abs(composed - mm.tensor).max())
    entropies = [entropy(m) for m in collection]
    cost_decomposed = tree_cost_additive(tree, g, entropies)  # solve's formula, bit for bit
    dense_cost = cost_tensor(graph, costs, shape=collection.sizes)
    cost_direct = msb_objective(mm.tensor, dense_cost, config.eta) / config.eta
    cost_gap = abs(cost_decomposed - cost_direct)

    out = _out_dir(args)
    payload = {
        "tree": _tree_payload(tree, cost_decomposed),
        "sup_norm_gap": sup_gap,
        "cost_decomposed": cost_decomposed,
        "cost_direct": cost_direct,
        "cost_gap": cost_gap,
        "mm_iterations": mm.iterations,
        "mm_residual": mm.residual,
        "mm_converged": mm.converged,
    }
    _write_json(out / "oracle_report.json", payload)

    print(f"tree (prufer): {format_prufer(code) or '-'}")
    print(f"sup-norm gap (composed vs dense solve): {sup_gap:.3e}")
    print(f"cost via edge decomposition: {_fmt(cost_decomposed)}")
    print(f"cost via dense objective:    {_fmt(cost_direct)}")
    print(f"cost gap: {cost_gap:.3e}")
    print(f"wrote {out / 'oracle_report.json'}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
}
_parser = functools.cache(build_parser)  # main's one parser: parsing leaves it as it was


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = _parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        return _fail(2, "validation", str(exc))
    except OSError as exc:
        return _fail(2, "io", str(exc))
    except SolverError as exc:
        return _fail(1, "numerical", str(exc))
