import importlib.util
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1] / "scripts" / "bench.py"


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location("bench_script", BENCH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


PARENT = [10.0, 10.4, 9.8, 10.1, 10.2, 9.9, 10.0, 10.3, 9.7, 10.1]  # IQR 0.3 about 10.05


@pytest.mark.parametrize("change, better, expected", [
    ([x - 1.0 for x in PARENT], "lower", "met"),
    # lower in 9 of 10 pairs, by more than the IQR between medians
    ([x - 1.0 for x in PARENT[:9]] + [PARENT[9] + 0.1], "lower", "met"),
    # lower in 8 of 10 pairs
    ([x - 1.0 for x in PARENT[:8]] + [x + 0.1 for x in PARENT[8:]], "lower", "not met"),
    # lower in every pair, but by less than the IQR
    ([x - 0.2 for x in PARENT], "lower", "not met"),
    (PARENT, "lower", "not met"),  # the same runs: no gain
    ([x + 1.0 for x in PARENT], "higher", "met"),
    ([x - 1.0 for x in PARENT], "higher", "not met"),
])
def test_verdict_on_fixed_runs(bench, change, better, expected):
    assert bench.verdict(PARENT, change, 0.25, better) == expected


def test_a_wide_parent_is_unresolved(bench):
    wide = [1.0, 2.0, 1.5, 0.8, 2.2, 1.1, 1.9, 0.9, 1.6, 1.3]  # IQR 0.7 about a median 1.4
    assert bench.verdict(wide, [x * 0.9 for x in wide], 0.25) == "unresolved"
    assert bench.verdict(wide, [x - 1.0 for x in wide], 0.25) == "met"
    assert bench.verdict(wide, [x * 0.9 for x in wide], 0.6) == "not met"
    assert bench.quartiles([3.0]) == (3.0, 3.0, 3.0)
    assert bench.wins(wide, [x * 0.9 for x in wide]) == 10
