"""Byte-for-byte guard on what the CLI writes.

tests/golden/<case>/ holds the summary.json and trace CSVs that commit
75cfdf2 wrote for each case below, before the CLI read every stage from its
ConsensusRun. A change to what a run computes, to the stage entries or to
the serialization shows up here. --analyze is left out, because its
eigenvalues depend on the LAPACK build.
"""

from pathlib import Path

import pytest

from linkmetrics.cli import main

GOLDEN = Path(__file__).parent / "golden"

TRIANGLE = {"edges": "0 1\n1 2\n0 2\n", "attrs": "0 1.0\n1 2.0\n2 3.0\n"}
KITE = {
    "edges": "0 1\n1 2\n2 3\n3 0\n0 2\n2 4\n",
    "attrs": "0 1.5\n1 2.0\n2 0.5\n3 3.0\n4 1.25\n",
    "spec": "# f = u*v + 2*u^2 - 0.5*v^3\n1 1 1.0\n2 0 2.0\n0 3 -0.5\n",
}

CASES = {
    "tv_triangle_shift": (TRIANGLE, ["--oracle", "--shift", "10"]),
    "poly_kite": (KITE, ["--metric", "poly", "--oracle"]),
}


def _files(root: Path) -> list[Path]:
    return sorted(p.relative_to(root) for p in root.rglob("*") if p.is_file())


@pytest.mark.parametrize("case", sorted(CASES))
def test_outputs_match_golden_bytes(case, tmp_path):
    inputs, flags = CASES[case]
    argv = list(flags)
    for name, text in inputs.items():
        path = tmp_path / f"{name}.txt"
        path.write_text(text, encoding="utf-8")
        argv += [f"--{name}", str(path)]
    out = tmp_path / "out"
    assert main(argv + ["--out", str(out)]) == 0

    expected = GOLDEN / case
    assert _files(out) == _files(expected)
    for rel in _files(expected):
        assert (out / rel).read_bytes() == (expected / rel).read_bytes(), rel
