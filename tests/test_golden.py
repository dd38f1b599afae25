"""The CLI's files on two seeded sets are byte-identical to tests/golden/."""

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
