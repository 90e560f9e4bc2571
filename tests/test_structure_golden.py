"""The analytic side answers as `structure_golden.jsonl` records, line for
line and bit for bit.

The file holds, per slope, the tower, the level partition, the levels of
41 points and two predicted s-alpha sets (see `structure_golden.py`).  A
change to `structure` that keeps its answers leaves every line as it is.
A change that means to alter an answer rewrites the file with

    PYTHONPATH=src python tests/structure_golden.py

which prints each changed slope and key; every changed line is then listed
in CHANGES.md with the reason it changed.
"""

from structure_golden import GOLDEN, lines, records


def test_analytic_side_matches_the_golden_file():
    want = GOLDEN.read_text().splitlines()
    got = lines(records())
    assert len(got) == len(want) == 221
    changed = [i for i, (a, b) in enumerate(zip(got, want)) if a != b]
    assert changed == [], f"{len(changed)} golden lines differ, the first at line {changed[0] + 1}"


def test_golden_file_stays_small():
    assert GOLDEN.stat().st_size < 200_000
