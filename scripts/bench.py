"""A/B runs of the benchmark between two commits.

    python scripts/bench.py ab PARENT CHANGE [--pairs 10] [--seconds 25]
        [--workloads gmm_n200 swarm_s16 oracle_s6] [--scratch DIR]

`ab` checks PARENT and CHANGE out as two sibling git worktrees, `parent` and
`change`, so that their paths have the same length, under --scratch (a new
temporary directory by default).  It then runs `perfbench/run.py --trace 0`
of each checkout in --pairs alternating pairs per workload: pair k runs both
at seed k, the parent first when k is odd.  For each workload and
end-to-end metric of BENCHMARK.json it prints the parent's median and
quartiles, the change's median, how many pairs read better at the change,
and a verdict (see `verdict`), and it notes any run that was not correct or
had failed ops.  The worktrees are removed at the end, also after an error
or Ctrl-C, and no run is left going.
"""

from __future__ import annotations

import argparse
import json
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def quartiles(values) -> tuple[float, float, float]:
    """(first quartile, median, third quartile) of values."""
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def wins(parent, change, better: str = "lower") -> int:
    """How many pairs read better at the change."""
    sign = 1.0 if better == "lower" else -1.0
    return sum(sign * (c - p) < 0 for p, c in zip(parent, change))


def verdict(parent, change, bound: float, better: str = "lower") -> str:
    """The verdict on a claimed gain from paired runs, parent[k] against
    change[k].

    "met" when the change reads better in at least 9 of every 10 pairs and
    its median is better than the parent's by more than the parent's
    interquartile range; otherwise "unresolved" when that range exceeds
    bound, a share of the parent's median as in BENCHMARK.json, since then
    the runs spread too widely to tell; otherwise "not met".
    """
    q1, median, q3 = quartiles(parent)
    gap = (median - statistics.median(change)) * (1.0 if better == "lower" else -1.0)
    if wins(parent, change, better) >= 0.9 * len(parent) and gap > q3 - q1:
        return "met"
    if q3 - q1 > bound * abs(median):
        return "unresolved"
    return "not met"


def _git(*args: str) -> None:
    done = subprocess.run(["git", "-C", str(ROOT), *args], capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"git {' '.join(args)}: {done.stderr.strip()}")


def _run(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """The final JSON line of one untraced perfbench run of checkout."""
    argv = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", repr(seconds), "--trace", "0"]
    done = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout.name} {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def ab(parent: str, change: str, pairs: int, seconds: float, workloads, scratch) -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = workloads or [w["name"] for w in spec["workloads"]]
    base = Path(tempfile.mkdtemp(prefix="bench-ab-", dir=scratch))
    checkouts = {"parent": base / "parent", "change": base / "change"}
    made = []
    try:
        for (name, path), rev in zip(checkouts.items(), (parent, change)):
            _git("worktree", "add", "--detach", str(path), rev)
            made.append(path)
        runs = {(w, name): [] for w in workloads for name in checkouts}
        for seed in range(1, pairs + 1):
            order = ("parent", "change") if seed % 2 else ("change", "parent")
            for workload in workloads:
                for name in order:
                    result = _run(checkouts[name], workload, seed, seconds)
                    runs[workload, name].append(result)
                    print(f"pair {seed} {workload} {name}: " + " ".join(
                        f"{m}={v['value']:.6g}" for m, v in result["metrics"].items()),
                        flush=True)
    finally:
        for path in made:
            subprocess.run(["git", "-C", str(ROOT), "worktree", "remove", "--force", str(path)],
                           capture_output=True)
        _git("worktree", "prune")
        shutil.rmtree(base, ignore_errors=True)

    print(f"\n{pairs} pairs, {seconds:g} s a run; parent {parent}, change {change}")
    print(f"{'workload':<10} {'metric':<12} {'parent median [q1, q3]':<34} "
          f"{'change':>10}  better  verdict")
    for workload in workloads:
        for metric in metrics:
            name = metric["name"]
            a = [r["metrics"][name]["value"] for r in runs[workload, "parent"]]
            b = [r["metrics"][name]["value"] for r in runs[workload, "change"]]
            q1, median, q3 = quartiles(a)
            print(f"{workload:<10} {name:<12} {median:<10.4g} [{q1:.4g}, {q3:.4g}]".ljust(58)
                  + f" {statistics.median(b):>10.4g}  {wins(a, b, metric['better']):>2}/"
                  + f"{len(a):<3}  {verdict(a, b, metric['bound'], metric['better'])}")
        for name in checkouts:
            results = runs[workload, name]
            wrong = sum(not r["correct"] for r in results)
            failed = sum(r["failed"] for r in results)
            if wrong or failed:
                print(f"{workload:<10} {name}: {wrong} runs not correct, {failed} failed ops")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p_ab = sub.add_parser("ab", help="alternating paired runs of two commits")
    p_ab.add_argument("parent", help="the commit to compare against")
    p_ab.add_argument("change", help="the commit under test")
    p_ab.add_argument("--pairs", type=int, default=10)
    p_ab.add_argument("--seconds", type=float, default=25.0, help="timed seconds a run")
    p_ab.add_argument("--workloads", nargs="+", help="default: every workload of BENCHMARK.json")
    p_ab.add_argument("--scratch", help="directory for the worktrees (default: a temporary one)")
    args = parser.parse_args(argv)
    try:
        ab(args.parent, args.change, args.pairs, args.seconds, args.workloads, args.scratch)
    except KeyboardInterrupt:
        print("interrupted; worktrees removed", file=sys.stderr)
        return 130
    return 0


if __name__ == "__main__":
    sys.exit(main())
