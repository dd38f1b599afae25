"""Command-line interface.

Subcommands:
  gen        sample measure files from a Gaussian-mixture spec
  solve      optimal tree for a set of measure files (weights + MST)
  weights    edge-weight matrix only
  enumerate  rank all spanning trees by cost
  oracle     dense multimarginal cross-check for one tree

Exit codes: 0 success, 1 numerical failure, 2 I/O or validation error.
Failures print a JSON error object to stderr.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

import numpy as np

from .config import (
    DEFAULT_MAX_ITER,
    DEFAULT_TENSOR_CAP,
    DEFAULT_TOL,
    SolverConfig,
    check_tensor_cap,
)
from .dense import graph_from_edges, mm_sinkhorn, msb_objective, cost_tensor
from .errors import SolverError, ValidationError
from .measures import (
    MeasureCollection,
    entropy,
    load_measure,
    sample_gmm,
    save_measure,
)
from .mst import build_weight_matrix, optimal_msb, rank_trees, solve_edges
from .trees import (
    ENUMERATION_CAP,
    compose_tree_coupling,
    format_prufer,
    parse_prufer,
    prufer_decode,
    prufer_encode,
    tree_cost_decomposed,
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

    # the flags every measure command shares, and the dense tensor cap
    solver = argparse.ArgumentParser(add_help=False)
    solver.add_argument("measures", nargs="+", help="measure JSON files")
    solver.add_argument("--eta", type=float, required=True, help="entropic regularization (> 0)")
    solver.add_argument(
        "--cost",
        default="sqeuclidean",
        help="ground cost: sqeuclidean, euclidean, or matrix:<csv-file>",
    )
    solver.add_argument("--tol", type=float, default=DEFAULT_TOL, help="marginal TV tolerance")
    solver.add_argument(
        "--max-iter", type=int, default=DEFAULT_MAX_ITER, help="Sinkhorn sweep limit"
    )
    solver.add_argument("--threads", type=int, default=1, help="parallel edge solves")
    solver.add_argument(
        "--allow-nonconverged",
        action="store_true",
        help="downgrade Sinkhorn non-convergence from error to warning",
    )
    solver.add_argument("--out-dir", default=".", help="directory for output files")
    capped = argparse.ArgumentParser(add_help=False)
    capped.add_argument(
        "--cap", type=int, default=DEFAULT_TENSOR_CAP, help="dense tensor entry cap"
    )

    p_gen = sub.add_parser("gen", help="sample measure files from a GMM spec")
    p_gen.add_argument("spec", help="JSON mixture spec file")
    p_gen.add_argument("--n", type=int, default=25, help="samples per measure")
    p_gen.add_argument("--seed", type=int, default=0, help="RNG seed")
    p_gen.add_argument("--prefix", default="measure", help="output file prefix")
    p_gen.add_argument("--out-dir", default=".", help="directory for output files")

    p_solve = sub.add_parser("solve", parents=[solver], help="optimal tree for measure files")
    p_solve.add_argument("--mst", choices=("prim", "boruvka"), default="prim")

    sub.add_parser("weights", parents=[solver], help="edge-weight matrix only")

    p_enum = sub.add_parser(
        "enumerate", parents=[solver, capped], help="rank all spanning trees by cost"
    )
    p_enum.add_argument("--top-k", type=int, default=10, help="rows to report (0 = all)")
    p_enum.add_argument(
        "--direct",
        choices=("auto", "never", "always"),
        default="auto",
        help="dense re-evaluation of each tree (auto: when within --cap)",
    )
    p_enum.add_argument(
        "--enum-cap", type=int, default=ENUMERATION_CAP, help="max s for enumeration"
    )

    p_oracle = sub.add_parser(
        "oracle", parents=[solver, capped], help="dense multimarginal cross-check for one tree"
    )
    p_oracle.add_argument(
        "--tree",
        required=True,
        help='Prüfer code, e.g. "3 3 5" (empty string for s=2)',
    )

    return parser


def _config_from_args(args) -> SolverConfig:
    cost = args.cost
    kind = cost
    matrix = None
    if cost.startswith("matrix:"):
        kind = "matrix"
        path = cost.split(":", 1)[1]
        try:
            matrix = np.loadtxt(path, delimiter=",", ndmin=2)
        except ValueError as exc:
            raise ValidationError(f"{path}: could not parse cost matrix ({exc})") from exc
    return SolverConfig(
        eta=args.eta,
        cost_kind=kind,
        cost_matrix=matrix,
        tol=args.tol,
        max_iter=args.max_iter,
        threads=args.threads,
        on_nonconverged="warn" if args.allow_nonconverged else "error",
    )


def _load_collection(paths) -> MeasureCollection:
    return MeasureCollection([load_measure(p) for p in paths])


def _out_dir(args) -> Path:
    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _write_weight_csv(path: Path, g: np.ndarray) -> None:
    s = g.shape[0]
    lines = ["vertex," + ",".join(str(v) for v in range(1, s + 1))]
    for a in range(s):
        lines.append(str(a + 1) + "," + ",".join(repr(float(x)) for x in g[a]))
    path.write_text("\n".join(lines) + "\n")


def _tree_payload(tree, cost: float) -> dict:
    return {
        "prufer": [int(c) for c in prufer_encode(tree)],
        "edges": [[int(a), int(b)] for a, b in tree.edges],
        "cost": float(cost),
    }


def _edge_report(ewm) -> list[dict]:
    rows = []
    for (a, b), es in sorted(ewm.edges.items()):
        rows.append(
            {
                "edge": [a, b],
                "g": float(es.g),
                "sb": float(es.sb),
                "iterations": es.coupling.iterations,
                "residual": es.coupling.residual,
                "converged": es.coupling.converged,
                "transport_cost": float((es.cost.matrix * es.coupling.plan).sum()),
                "seconds": es.seconds,
            }
        )
    return rows


def _cmd_gen(args) -> int:
    spec_path = Path(args.spec)
    try:
        spec = json.loads(spec_path.read_text())
    except json.JSONDecodeError as exc:
        raise ValidationError(f"{spec_path}: not valid JSON ({exc})") from exc
    if not isinstance(spec, dict) or "mixtures" not in spec:
        raise ValidationError(f"{spec_path}: expected an object with a 'mixtures' list")
    interval = spec.get("interval", (-10.0, 10.0))
    mixtures = spec["mixtures"]
    if not isinstance(mixtures, list) or not mixtures:
        raise ValidationError(f"{spec_path}: 'mixtures' must be a non-empty list")
    out = _out_dir(args)
    rng = np.random.default_rng(args.seed)
    paths = []
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
            measure = sample_gmm(triples, n=args.n, interval=interval, seed=rng)
        except ValidationError as exc:
            raise ValidationError(f"{spec_path}: mixture {idx}: {exc}") from exc
        path = out / f"{args.prefix}_{idx:02d}.json"
        save_measure(measure, path)
        paths.append(path)
    for p in paths:
        print(p)
    return 0


def _cmd_weights(args) -> int:
    config = _config_from_args(args)
    collection = _load_collection(args.measures)
    ewm = build_weight_matrix(collection, config)
    out = _out_dir(args)
    _write_weight_csv(out / "weights.csv", ewm.g)
    print(f"wrote {out / 'weights.csv'} ({collection.s} vertices, "
          f"{collection.s * (collection.s - 1) // 2} edges)")
    for (a, b), es in sorted(ewm.edges.items()):
        print(f"  g[{a},{b}] = {_fmt(es.g)}  ({es.coupling.iterations} sweeps)")
    return 0


def _cmd_solve(args) -> int:
    config = _config_from_args(args)
    collection = _load_collection(args.measures)
    result = optimal_msb(collection, config, mst_algorithm=args.mst)
    out = _out_dir(args)

    _write_weight_csv(out / "weights.csv", result.weight_matrix.g)
    tree_payload = _tree_payload(result.tree, result.total_cost)
    (out / "tree.json").write_text(json.dumps(tree_payload, indent=1) + "\n")
    (out / "tree.dot").write_text(result.tree.to_dot())
    (out / "prufer.txt").write_text(format_prufer(tree_payload["prufer"]) + "\n")
    report = {
        "eta": config.eta,
        "cost_kind": config.cost_kind,
        "tol": config.tol,
        "s": collection.s,
        "sizes": list(collection.sizes),
        "entropies": [float(h) for h in result.entropies],
        "tree": tree_payload,
        "total_cost": result.total_cost,
        "edges": _edge_report(result.weight_matrix),
        "timings": {
            "weights_seconds": result.seconds_weights,
            "mst_seconds": result.seconds_mst,
        },
    }
    (out / "report.json").write_text(json.dumps(report, indent=1) + "\n")

    print(f"optimal tree (prufer): {format_prufer(tree_payload['prufer'])}")
    print(f"edges: {tree_payload['edges']}")
    print(f"total cost: {_fmt(result.total_cost)}")
    for a, b in result.tree.edges:
        print(f"  edge ({a},{b}): g = {_fmt(result.weight_matrix.edges[(a, b)].g)}")
    print(f"outputs in {out}")
    return 0


def _cmd_enumerate(args) -> int:
    config = _config_from_args(args)
    collection = _load_collection(args.measures)
    start = time.perf_counter()
    rows = rank_trees(
        collection, config, direct=args.direct, enumeration_cap=args.enum_cap, cap=args.cap
    )
    elapsed = time.perf_counter() - start
    top_k = len(rows) if args.top_k <= 0 else min(args.top_k, len(rows))

    out = _out_dir(args)
    lines = ["rank,prufer,cost_additive,cost_direct"]
    for rank, row in enumerate(rows[:top_k], start=1):
        direct = "" if row.cost_direct is None else repr(row.cost_direct)
        lines.append(f'{rank},"{format_prufer(row.prufer)}",{row.cost_additive!r},{direct}')
    (out / "trees_ranked.csv").write_text("\n".join(lines) + "\n")

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
    collection = _load_collection(args.measures)
    check_tensor_cap(collection.sizes, args.cap)  # before any pairwise solve
    code = parse_prufer(args.tree)
    tree = prufer_decode(code, collection.s)

    solves = solve_edges(collection, config, tree.edges)  # the tree's s-1 edges only
    plans = {e: es.coupling.plan for e, es in solves.items()}
    sbs = {e: es.sb for e, es in solves.items()}
    composed = compose_tree_coupling(tree, plans, list(collection), cap=args.cap)

    graph = graph_from_edges(collection.s, tree.edges)
    costs = {e: es.cost.matrix for e, es in solves.items()}
    mm = mm_sinkhorn(
        list(collection), graph, costs, config.eta,
        tol=config.tol, max_iter=config.max_iter, cap=args.cap,
    )
    if not mm.converged and config.on_nonconverged == "error":
        raise SolverError(
            f"multimarginal solve stopped at residual {mm.residual:.3e} > tol {config.tol:.1e}"
        )

    sup_gap = float(np.abs(composed - mm.tensor).max())
    entropies = [entropy(m) for m in collection]
    cost_decomposed = tree_cost_decomposed(tree, sbs, entropies)
    dense_cost = cost_tensor(graph, costs, shape=collection.sizes, cap=args.cap)
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
    (out / "oracle_report.json").write_text(json.dumps(payload, indent=1) + "\n")

    print(f"tree (prufer): {format_prufer(code) or '-'}")
    print(f"sup-norm gap (composed vs dense solve): {sup_gap:.3e}")
    print(f"cost via edge decomposition: {_fmt(cost_decomposed)}")
    print(f"cost via dense objective:    {_fmt(cost_direct)}")
    print(f"cost gap: {cost_gap:.3e}")
    print(f"wrote {out / 'oracle_report.json'}")
    return 0


_COMMANDS = {
    "gen": _cmd_gen,
    "weights": _cmd_weights,
    "solve": _cmd_solve,
    "enumerate": _cmd_enumerate,
    "oracle": _cmd_oracle,
}


def _fail(code: int, kind: str, message: str) -> int:
    print(json.dumps({"error": {"type": kind, "message": message}}), file=sys.stderr)
    return code


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ValidationError as exc:
        return _fail(2, "validation", str(exc))
    except OSError as exc:
        return _fail(2, "io", str(exc))
    except SolverError as exc:
        return _fail(1, "numerical", str(exc))
