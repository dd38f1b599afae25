"""bridgetree benchmark: one seeded workload, timed, checked and optionally traced.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload gmm_n200 --seed 1 --seconds 25 --trace 0

A run has four phases:

1. Set-up, repeated three times; ``setup_s`` is the import time plus the
   median repetition.  A repetition generates the batch from the seed, writes
   and loads any measure files, and runs one untimed warm-up op.
2. Timed ops, tracing off: ops cycle over the batch until ``--seconds``
   have gone and every batch entry has run once.  Each op's output is
   checked outside the timed region.
3. With ``--trace 0``: one op under ``tracemalloc`` for ``peak_mem_mb``.
   With ``--trace 1``: one traced pass over the batch (see tracing.py) that
   must reproduce each op's weight matrix bit for bit; its spans are written
   to ``.perfbench_trace/<workload>-seed<seed>.jsonl`` when it ends.
4. Report: every metric with its unit on its own line, then, as the last
   line, a JSON object with ``correct``, ``attempted``, ``failed`` and
   ``metrics``.  ``failed / attempted`` is the failed share.

BLAS and OpenMP pools are pinned to one thread before numpy is imported, so
a workload's ``threads`` setting is its only parallelism.
"""

from __future__ import annotations

import time

PROCESS_START = time.perf_counter()

import argparse  # noqa: E402
import contextlib  # noqa: E402
import itertools  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tracemalloc  # noqa: E402
from pathlib import Path  # noqa: E402

THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3


def _import_program():
    """Import bridgetree from this checkout's src/, never from elsewhere."""
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import bridgetree
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import bridgetree from {src}: {exc}")
    if src.resolve() not in Path(bridgetree.__file__).resolve().parents:
        sys.exit(f"perfbench: bridgetree resolved to {bridgetree.__file__}, not under {src}")


def git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def timed_phase(wl, inputs, seconds, errors):
    """Ops cycling over the batch until `seconds` have gone and the batch
    has been run whole at least once.

    Returns per-op (index, seconds, failed), the summed op time of each
    whole pass, and the first output of each batch entry.  An op fails on
    SolverError or on a failed check; only failed checks are added to
    `errors`.
    """
    from bridgetree.errors import SolverError

    ops, passes, first = [], [], {}
    deadline = time.perf_counter() + seconds
    pass_seconds = 0.0
    for k in itertools.count():
        i = k % len(inputs)
        start = time.perf_counter()
        try:
            out = wl.run(inputs, i)
        except SolverError:
            out = None
        end = time.perf_counter()
        problems = []
        if out is not None:
            out = wl.finish(out)
            problems = wl.check(inputs, i, out)
            errors.extend(f"op {i}: {p}" for p in problems)
            first.setdefault(i, out)
        ops.append((i, end - start, out is None or bool(problems)))
        pass_seconds += end - start
        if i == len(inputs) - 1:
            passes.append(pass_seconds)
            pass_seconds = 0.0
        if passes and time.perf_counter() >= deadline:
            return ops, passes, first


def memory_pass(wl, inputs) -> float:
    """Peak allocation growth over one op, in bytes."""
    from bridgetree.errors import SolverError

    tracemalloc.start()
    try:
        with contextlib.suppress(SolverError):  # the timed phase counts failures
            wl.run(inputs, wl.probe)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def traced_pass(wl, inputs, first, errors):
    """One traced pass over the batch; returns the Tracer and the number of
    ops whose traced weight matrix differs from the untraced one."""
    from bridgetree.errors import SolverError
    from tracing import Tracer

    tracer = Tracer()
    mismatched = 0
    with tracer:
        for i in range(len(inputs)):
            tracer.op = i
            try:
                with tracer.span("op"):
                    out = wl.run(inputs, i)
            except SolverError as exc:
                out = None
                if i in first:
                    errors.append(f"traced op {i}: SolverError {exc}")
            if out is None:
                continue
            with tracer.span("check"):
                out = wl.finish(out)
                errors.extend(f"traced op {i}: {p}" for p in wl.check(inputs, i, out))
            if i not in first or first[i].g is None or out.g is None or (
                first[i].g.tobytes() != out.g.tobytes()
            ):
                mismatched += 1
    return tracer, mismatched


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    for var in THREAD_VARS:  # before numpy is first imported
        os.environ[var] = "1"
    _import_program()
    import numpy
    import scipy
    from bridgetree.errors import SolverError
    from tracing import layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        sys.exit(f"perfbench: unknown workload {args.workload!r}; "
                 f"expected one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]
    imported = time.perf_counter()

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    workdir.mkdir(parents=True)
    try:
        setup_times, gen_times = [], []
        for _ in range(SETUP_REPEATS):
            start = time.perf_counter()
            batch = wl.generate(args.seed, workdir)
            gen_times.append(time.perf_counter() - start)
            inputs = wl.load(batch)
            with contextlib.suppress(SolverError):  # the timed phase counts failures
                wl.run(inputs, wl.probe)
            setup_times.append(time.perf_counter() - start)
        setup_s = imported - PROCESS_START + statistics.median(setup_times)

        errors: list[str] = []
        ops, passes, first = timed_phase(wl, inputs, args.seconds, errors)
        failed = sum(f for _, _, f in ops)

        if args.trace:
            tracer, mismatched = traced_pass(wl, inputs, first, errors)
            if mismatched:
                errors.append(f"{mismatched} traced ops did not reproduce the untraced g")
            trace_dir = ROOT / ".perfbench_trace"
            trace_dir.mkdir(exist_ok=True)
            tracer.write(trace_dir / f"{args.workload}-seed{args.seed}.jsonl")
            layers = layer_metrics(tracer.spans)
            layers["measures.gen_s"] = (statistics.median(gen_times), "s")
            traced = {sp.op: sp.seconds for sp in tracer.spans if sp.name == "op"}
            untraced = {}
            for i, t, _ in ops:
                untraced.setdefault(i, []).append(t)
            layers["trace.overhead"] = (
                sum(traced.values()) / sum(statistics.median(untraced[i]) for i in traced),
                "ratio")
            metrics = layers
        else:
            metrics = {
                "setup_s": (setup_s, "s"),
                "solve_s": (statistics.median(t for _, t, _ in ops), "s"),
                "wall_s": (statistics.median(passes), "s"),
                "peak_mem_mb": (memory_pass(wl, inputs) / 1e6, "MB"),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    env = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "git_sha": git_sha(), "nproc": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "threads": wl.threads,
        "thread_env": {v: os.environ[v] for v in THREAD_VARS},
        "batch": len(inputs), "passes": len(passes),
    }
    print("env " + json.dumps(env))
    print(f"setup import_s={imported - PROCESS_START:.4g} "
          f"repetitions_s={[round(t, 4) for t in setup_times]}")
    print(f"ops attempted={len(ops)} failed={failed} failed_share={failed / len(ops):.6g} "
          f"solve_s_samples={len(ops)}")
    for e in errors:
        print(f"check failed: {e}")
    for name, (value, unit) in metrics.items():
        print(f"metric {name} = {value:.6g} {unit}")
    result = {
        "correct": not errors,
        "attempted": len(ops),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
