"""Spans around calls into the bridgetree modules, recorded from outside.

While a Tracer is installed, the module attributes the package itself calls
through (``bridgetree.mst.sinkhorn_solve``, ``bridgetree.cli.load_measure``,
...) are replaced by wrappers that record one span per call: name, start,
end, parent span, op id and a few exact counts.  Uninstalling restores the
originals, so timed runs execute the unmodified program.  Spans stay in
memory; ``layer_metrics`` turns them into the per-layer metrics.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import threading
import time
from dataclasses import asdict, dataclass, field

import numpy as np

import bridgetree.cli
import bridgetree.dense
import bridgetree.mst
import bridgetree.trees

BYTES_PER_ENTRY = 8  # float64


@dataclass
class Span:
    name: str
    start: float
    end: float
    span_id: int
    parent: int | None
    op: int | None
    counts: dict = field(default_factory=dict)

    @property
    def seconds(self) -> float:
        return self.end - self.start


def _sinkhorn_counts(args, result) -> dict:
    m1, m2 = args[0], args[1]
    n, m = int((m1.weights > 0).sum()), int((m2.weights > 0).sum())
    return {"sweeps": result.iterations, "converged": result.converged,
            "entries": 2 * n * m * result.iterations}


def _mm_counts(args, result) -> dict:
    measures = args[0]
    entries = int(np.prod([int((m.weights > 0).sum()) for m in measures], dtype=np.int64))
    return {"sweeps": result.iterations, "entries": 2 * len(measures) * entries * result.iterations}


def _rank_counts(args, result) -> dict:
    return {"trees": len(result)}


def _compose_counts(args, result) -> dict:
    return {"entries": int(result.size)}


# (module, attribute, span name, count function).  The same function is
# wrapped in every namespace the package calls it through.
PATCHES = [
    (bridgetree.cli, "main", "cli.main", None),
    (bridgetree.cli, "load_measure", "cli.load_measure", None),
    (bridgetree.cli, "optimal_msb", "mst.optimal_msb", None),
    (bridgetree.mst, "optimal_msb", "mst.optimal_msb", None),
    (bridgetree.mst, "build_weight_matrix", "mst.build_weight_matrix", None),
    (bridgetree.mst, "edge_weight", "mst.edge_weight", None),
    (bridgetree.mst, "entropy", "measures.entropy", None),
    (bridgetree.mst, "build_cost", "sinkhorn.build_cost", None),
    (bridgetree.mst, "gibbs_kernel", "sinkhorn.gibbs_kernel", None),
    (bridgetree.mst, "sinkhorn_solve", "sinkhorn.sinkhorn_solve", _sinkhorn_counts),
    (bridgetree.mst, "sb_value", "sinkhorn.sb_value", None),
    (bridgetree.mst, "mst_prim_dense", "mst.mst_prim_dense", None),
    (bridgetree.mst, "mst_boruvka", "mst.mst_boruvka", None),
    (bridgetree.mst, "rank_trees", "mst.rank_trees", _rank_counts),
    (bridgetree.trees, "compose_tree_coupling", "trees.compose_tree_coupling", _compose_counts),
    (bridgetree.dense, "mm_sinkhorn", "dense.mm_sinkhorn", _mm_counts),
    (bridgetree.dense, "cost_tensor", "dense.cost_tensor", None),
    (bridgetree.dense, "msb_objective", "dense.msb_objective", None),
]
# enumerate_trees is a generator: each step it takes is one span.
GENERATOR_PATCHES = [
    (bridgetree.mst, "enumerate_trees", "trees.enumerate_trees"),
    (bridgetree.trees, "enumerate_trees", "trees.enumerate_trees"),
]


class Tracer:
    """Records spans while installed; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.op: int | None = None
        self._ids = itertools.count()
        self._local = threading.local()
        self._main_stack: list[int] = []
        self._undo: list = []

    def _stack(self) -> list[int]:
        if threading.current_thread() is threading.main_thread():
            return self._main_stack
        if not hasattr(self._local, "stack"):
            self._local.stack = []
        return self._local.stack

    def _open(self) -> tuple[int, int | None, list[int]]:
        stack = self._stack()
        # A pool thread's first span hangs off whatever the main thread has
        # open (build_weight_matrix), which is the call that dispatched it.
        if stack:
            parent = stack[-1]
        else:
            parent = self._main_stack[-1] if self._main_stack else None
        span_id = next(self._ids)
        stack.append(span_id)
        return span_id, parent, stack

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; yields its (mutable) counts."""
        span_id, parent, stack = self._open()
        counts: dict = {}
        start = time.perf_counter()
        try:
            yield counts
        finally:
            end = time.perf_counter()
            stack.pop()
            self.spans.append(Span(name, start, end, span_id, parent, self.op, counts))

    def wrap(self, name: str, fn, counter=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as counts:
                result = fn(*args, **kwargs)
            if counter:  # outside the span, so counting costs the layer nothing
                counts.update(counter(args, result))
            return result

        return traced

    def wrap_generator(self, name: str, fn):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            it = iter(fn(*args, **kwargs))
            while True:
                with self.span(name):
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                yield item

        return traced

    def install(self) -> None:
        wrapped = {}
        for module, attr, name, counter in PATCHES:
            original = getattr(module, attr)
            if original not in wrapped:
                wrapped[original] = self.wrap(name, original, counter)
            self._undo.append(functools.partial(setattr, module, attr, original))
            setattr(module, attr, wrapped[original])
        for module, attr, name in GENERATOR_PATCHES:
            original = getattr(module, attr)
            self._undo.append(functools.partial(setattr, module, attr, original))
            setattr(module, attr, self.wrap_generator(name, original))
        # optimal_msb looks its MST routine up in this table, not by name.
        algorithms = bridgetree.mst.MST_ALGORITHMS
        for key, original in list(algorithms.items()):
            self._undo.append(functools.partial(algorithms.__setitem__, key, original))
            algorithms[key] = wrapped[original]

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def write(self, path) -> None:
        """All spans as JSON lines, times in seconds from the first span."""
        origin = min((sp.start for sp in self.spans), default=0.0)
        with open(path, "w") as fh:
            for sp in self.spans:
                row = asdict(sp)
                row["start"] -= origin
                row["end"] -= origin
                fh.write(json.dumps(row) + "\n")

    def __enter__(self):
        self.install()
        return self

    def __exit__(self, *exc):
        self.uninstall()
        return False


def _union_seconds(intervals: list[tuple[float, float]]) -> float:
    """Length of the union of [start, end] intervals."""
    total, reach = 0.0, float("-inf")
    for start, end in sorted(intervals):
        total += max(0.0, end - max(start, reach))
        reach = max(reach, end)
    return total


def self_seconds(span: Span, children: list[Span]) -> float:
    """Span duration minus the part of it that its children cover."""
    return span.seconds - _union_seconds(
        [(max(c.start, span.start), min(c.end, span.end)) for c in children]
    )


def _percentile(values: list[float], q: float) -> float:
    return float(np.percentile(values, q)) if values else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, tuple[float, str]]:
    """Per-layer metrics (value, unit) from one traced pass."""
    by_name: dict[str, list[Span]] = {}
    children: dict[int, list[Span]] = {}
    for sp in spans:
        by_name.setdefault(sp.name, []).append(sp)
        if sp.parent is not None:
            children.setdefault(sp.parent, []).append(sp)

    def busy(name: str) -> float:
        return sum(sp.seconds for sp in by_name.get(name, []))

    def total(name: str, key: str) -> int:
        return sum(sp.counts.get(key, 0) for sp in by_name.get(name, []))

    solves = by_name.get("sinkhorn.sinkhorn_solve", [])
    sweeps = total("sinkhorn.sinkhorn_solve", "sweeps")
    entries = total("sinkhorn.sinkhorn_solve", "entries")
    solve_s = busy("sinkhorn.sinkhorn_solve")
    edge_ms = [sp.seconds * 1e3 for sp in by_name.get("mst.edge_weight", [])]
    mm_s = busy("dense.mm_sinkhorn")
    mm_entries = total("dense.mm_sinkhorn", "entries")
    weights = by_name.get("mst.build_weight_matrix", [])
    cli_main = by_name.get("cli.main", [])
    return {
        "sinkhorn.us_per_sweep": (solve_s / sweeps * 1e6 if sweeps else 0.0, "us"),
        "sinkhorn.ns_per_entry": (solve_s / entries * 1e9 if entries else 0.0, "ns"),
        "sinkhorn.sweeps": (sweeps, "count"),
        "sinkhorn.sweeps_max": (max((sp.counts["sweeps"] for sp in solves), default=0), "count"),
        "sinkhorn.nonconverged": (sum(not sp.counts["converged"] for sp in solves), "count"),
        "sinkhorn.calls": (len(solves), "count"),
        "sinkhorn.solve_s": (solve_s, "s"),
        "sinkhorn.cost_build_s": (busy("sinkhorn.build_cost"), "s"),
        "sinkhorn.kernel_s": (busy("sinkhorn.gibbs_kernel"), "s"),
        "sinkhorn.sb_s": (busy("sinkhorn.sb_value"), "s"),
        "sinkhorn.edge_p50_ms": (_percentile(edge_ms, 50), "ms"),
        "sinkhorn.edge_p99_ms": (_percentile(edge_ms, 99), "ms"),
        "sinkhorn.entries": (entries, "count"),
        "sinkhorn.bytes": (entries * BYTES_PER_ENTRY, "B"),
        "measures.entropy_s": (busy("measures.entropy"), "s"),
        "mst.weights_s": (busy("mst.build_weight_matrix"), "s"),
        "mst.orchestration_s": (
            sum(self_seconds(sp, children.get(sp.span_id, [])) for sp in weights), "s"),
        "mst.prim_s": (busy("mst.mst_prim_dense"), "s"),
        "mst.boruvka_s": (busy("mst.mst_boruvka"), "s"),
        "mst.rank_s": (busy("mst.rank_trees"), "s"),
        "mst.trees_ranked": (total("mst.rank_trees", "trees"), "count"),
        "trees.enumerate_s": (busy("trees.enumerate_trees"), "s"),
        "trees.compose_s": (busy("trees.compose_tree_coupling"), "s"),
        "trees.composed_entries": (total("trees.compose_tree_coupling", "entries"), "count"),
        "dense.mm_s": (mm_s, "s"),
        "dense.sweeps": (total("dense.mm_sinkhorn", "sweeps"), "count"),
        "dense.entries": (mm_entries, "count"),
        "dense.ns_per_entry": (mm_s / mm_entries * 1e9 if mm_entries else 0.0, "ns"),
        "dense.cost_tensor_s": (busy("dense.cost_tensor"), "s"),
        "dense.objective_s": (busy("dense.msb_objective"), "s"),
        "cli.load_s": (busy("cli.load_measure"), "s"),
        "cli.self_s": (
            sum(self_seconds(sp, children.get(sp.span_id, [])) for sp in cli_main), "s"),
    }
