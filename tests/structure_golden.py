"""Golden record of the analytic side, and the script that rewrites it.

One JSON line per slope, holding:
- "nodes": `Node.to_dict()` of each node of `analytic_nodes`;
- "levels": the `level_partition` pieces, kept for the near-boundary slopes
  and every fifth sweep slope;
- "classify": `classify_point` on 41 evenly spaced x in [0, 1], as runs
  [level, count] from x = 0 up;
- "salpha": `predicted_salpha` at x = 0.3 and x = 0.5.

A refusal is recorded by its message.  What the nodes already hold is
named rather than written twice: a level that is the attractor's intervals
reads "N_p", and an s-alpha set that is the supports of N_0..N_level reads
"N_0..N_level".  The slopes are the 200 of the verify sweep and the
near-boundary slopes b(1 - d), b = 2^(2^-k) for k = 1..7 and
d in {1e-8, 1e-10, 1e-12}.  JSON writes a float by its repr, so every value
round-trips exactly.

Rewrite the file and print, per changed slope, the old and new value of
each changed key:

    PYTHONPATH=src python tests/structure_golden.py
"""

import itertools
import json
import sys
from pathlib import Path

import numpy as np

from unimodal import analytic_nodes, classify_point, level_partition, predicted_salpha

GOLDEN = Path(__file__).with_name("structure_golden.jsonl")

SWEEP = [float(s) for s in np.linspace(1.01, 2.0, 200)]
NEAR = [b * (1 - d) for b in (2.0 ** 2.0 ** -k for k in range(1, 8))
        for d in (1e-8, 1e-10, 1e-12)]
XS = [float(x) for x in np.linspace(0.0, 1.0, 41)]


def _answer(fn, *args):
    try:
        return fn(*args)
    except ValueError as err:
        return {"error": str(err)}


def _pairs(ivs):
    return [[iv.lo, iv.hi] for iv in ivs]


def _supports(nodes):
    ivs = [iv for d in nodes for iv in d.get("intervals", [[q, q] for q in d.get("points", [])])]
    return sorted(ivs, key=lambda iv: iv[0])


def _record(s, full):
    nodes = _answer(analytic_nodes, s)
    nodes = nodes if isinstance(nodes, dict) else [nd.to_dict() for nd in nodes]
    top = nodes[-1].get("intervals") if isinstance(nodes, list) else None
    rec = {"s": s, "nodes": nodes}
    if full:
        rec["levels"] = {str(k): "N_p" if _pairs(ivs) == top else _pairs(ivs)
                         for k, ivs in sorted(level_partition(s).levels.items())}
    rec["classify"] = [[k, len(list(run))]
                       for k, run in itertools.groupby(classify_point(s, x) for x in XS)]
    rec["salpha"] = {}
    for x in (0.3, 0.5):
        pred = _answer(predicted_salpha, s, x)
        if not isinstance(pred, dict):
            ivs = _pairs(pred.intervals)
            if isinstance(nodes, list) and ivs == _supports(nodes[: pred.level + 1]):
                ivs = f"N_0..N_{pred.level}"
            pred = {"level": pred.level, "intervals": ivs, "note": pred.note}
        rec["salpha"][str(x)] = pred
    return rec


def records():
    """The golden records, one per slope, in file order."""
    full = set(SWEEP[::5]) | set(NEAR)
    return [_record(s, s in full) for s in SWEEP + NEAR]


def lines(recs):
    return [json.dumps(rec, separators=(",", ":")) for rec in recs]


def main() -> int:
    old = [json.loads(line) for line in GOLDEN.read_text().splitlines()] if GOLDEN.exists() else []
    new = records()
    GOLDEN.write_text("\n".join(lines(new)) + "\n")
    before = {rec["s"]: rec for rec in old}
    for rec in new:
        prev = before.pop(rec["s"], {})
        for key in rec:
            if prev.get(key) != rec[key]:
                print(f"s={rec['s']!r} {key}:\n  - {json.dumps(prev.get(key))}\n"
                      f"  + {json.dumps(rec[key])}")
    for s in before:
        print(f"s={s!r}: dropped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
