"""The CLI's files on two seeded sets are byte-identical to tests/golden/."""

import csv
import json

import pytest

from golden import regenerate


def test_cli_outputs_match_the_golden_files(tmp_path):
    regenerate.write(tmp_path)
    for name in regenerate.SETS:
        kept = regenerate.HERE / name
        expected = sorted(p.name for p in kept.iterdir())
        assert sorted(p.name for p in (tmp_path / name).iterdir()) == expected, name
        for file in expected:
            assert (tmp_path / name / file).read_bytes() == (kept / file).read_bytes(), \
                f"{name}/{file} differs from the golden copy"


@pytest.mark.parametrize("name", regenerate.SETS)
def test_the_three_commands_cost_the_optimal_tree_alike(name):
    """solve, enumerate and oracle report one float for the optimal tree's cost."""
    kept = regenerate.HERE / name
    code = (kept / "prufer.txt").read_text().strip()
    cost = json.loads((kept / "tree.json").read_text())["cost"]
    with open(kept / "trees_ranked.csv", newline="") as f:
        ranked = [float(row["cost_additive"]) for row in csv.DictReader(f) if row["prufer"] == code]
    oracle = json.loads((kept / "oracle_report.json").read_text())
    assert ranked == [cost]
    assert oracle["cost_decomposed"] == cost
    assert oracle["tree"]["cost"] == cost
