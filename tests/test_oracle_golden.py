"""The oracle answers as `oracle_golden.jsonl` records, line for line.

The file holds, per grid, the recurrent-cell count, the class runs in
class order and the Conley edges (see `oracle_golden.py`).  A change to
`chainoracle` that keeps its answers leaves every line as it is.  A change
that means to alter an answer rewrites the file with

    PYTHONPATH=src python tests/oracle_golden.py

which prints each changed grid and key; every changed line is then listed
in CHANGES.md with the reason it changed.
"""

from oracle_golden import CASES, GOLDEN, lines, records


def test_oracle_matches_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = lines(records())
    assert len(got) == len(want) == len(CASES) == 210
    changed = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert changed == [], f"{len(changed)} golden lines differ, the first at line {changed[0] + 1}"


def test_golden_file_stays_small():
    assert GOLDEN.stat().st_size < 200_000
