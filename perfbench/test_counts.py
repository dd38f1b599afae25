"""Self-check of the benchmark's exact counts, on quick variants of each workload.

The counts a later change may quote (sweeps, solver calls, dense sweeps,
trees ranked, failed share) must repeat exactly between two runs of the same
seed, and on the swarm workload between one and two solver threads.  The
traced pass must also reproduce every untraced weight matrix bit for bit.

    python -m pytest perfbench -q
"""

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

from run import timed_phase, traced_pass  # noqa: E402
from tracing import layer_metrics  # noqa: E402
from workloads import Gmm, Oracle, SmallEta, Swarm  # noqa: E402

EXACT = ("sinkhorn.sweeps", "sinkhorn.calls", "dense.sweeps", "mst.trees_ranked")

QUICK = {
    "gmm": Gmm(n=30, draws=2),
    "swarm": Swarm(s=8, draws=1),
    "oracle": Oracle(s=4, n=3, draws=2),
    # A low sweep limit makes the stalling draw (and some others) fail fast.
    "small_eta": SmallEta(draws=3, max_iter=2000),
}


def exact_counts(wl, seed, workdir):
    workdir.mkdir()
    inputs = wl.load(wl.generate(seed, workdir))
    errors = []
    ops, _, first = timed_phase(wl, inputs, 0.0, errors)
    tracer, mismatched = traced_pass(wl, inputs, first, errors)
    assert not errors
    assert mismatched == 0
    layers = layer_metrics(tracer.spans)
    counts = {name: layers[name][0] for name in EXACT}
    counts["failed_share"] = sum(failed for *_, failed in ops) / len(ops)
    return counts


@pytest.mark.parametrize("name", sorted(QUICK))
def test_counts_repeat_between_runs(name, tmp_path):
    wl = QUICK[name]
    first = exact_counts(wl, 5, tmp_path / "a")
    assert first["sinkhorn.calls"] > 0
    assert exact_counts(wl, 5, tmp_path / "b") == first


def test_counts_do_not_depend_on_threads(tmp_path):
    one = exact_counts(Swarm(s=8, draws=1, threads=1), 5, tmp_path / "one")
    two = exact_counts(Swarm(s=8, draws=1, threads=2), 5, tmp_path / "two")
    assert one == two
