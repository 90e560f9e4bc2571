"""Golden record of the chain-recurrence oracle, and the script that rewrites it.

One JSON line per grid, holding:
- "case": the map, n and eps in cell widths;
- "recurrent": the number of chain-recurrent cells;
- "classes": the `chain_classes` classes in class order, each as its runs
  [first cell, last cell];
- "edges": the `conley_graph` edges.

The grids are the 200 slopes of the verify sweep, tent maps at n = 20,000
and the default 2h, and a few others: tent 1.5 at 1.6h, where neighbouring
windows leave gaps; tent 1.4 at 32h; tu(1.0), tu(0.997), logistic(3.5) and
logistic(3.83) at 2h and 3h.

Rewrite the file and print, per changed grid, the old and new value of
each changed key:

    PYTHONPATH=src python tests/oracle_golden.py
"""

import json
import sys
from pathlib import Path

import numpy as np

from unimodal import chain_classes, conley_graph, make_logistic, make_tent, make_tu
from unimodal.maps import runs

GOLDEN = Path(__file__).with_name("oracle_golden.jsonl")

N = 20_000
_MAKE = {"tent": make_tent, "tu": make_tu, "logistic": make_logistic}
CASES = ([("tent", float(s), 2.0) for s in np.linspace(1.01, 2.0, 200)]
         + [("tent", 1.5, 1.6), ("tent", 1.4, 32.0)]
         + [(family, p, k) for family, p in [("tu", 1.0), ("tu", 0.997), ("logistic", 3.5),
                                             ("logistic", 3.83)]
            for k in (2.0, 3.0)])


def _record(family, p, k):
    rec = {"case": [family, p, N, k]}
    try:
        cc = chain_classes(_MAKE[family](p), N, k * (1.0 / N))
    except ValueError as err:
        return {**rec, "error": str(err)}
    rec["recurrent"] = sum(len(c) for c in cc.classes)
    rec["classes"] = [[list(r) for r in runs(c, 1)] for c in cc.classes]
    rec["edges"] = [list(e) for e in conley_graph(cc)]
    return rec


def records():
    """The golden records, one per grid, in file order."""
    return [_record(*case) for case in CASES]


def lines(recs):
    return [json.dumps(rec, separators=(",", ":")) for rec in recs]


def main() -> int:
    old = [json.loads(line) for line in GOLDEN.read_text().splitlines()] if GOLDEN.exists() else []
    new = records()
    GOLDEN.write_text("\n".join(lines(new)) + "\n")
    before = {json.dumps(rec["case"]): rec for rec in old}
    for rec in new:
        prev = before.pop(json.dumps(rec["case"]), {})
        for key in rec:
            if prev.get(key) != rec[key]:
                print(f"{rec['case']} {key}:\n  - {json.dumps(prev.get(key))}\n"
                      f"  + {json.dumps(rec[key])}")
    for case in before:
        print(f"{case}: dropped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
