"""Command line front end.

Subcommands:
  nodes        print the analytic tower of a map
  verify       cross-check the tower against the chain-recurrence oracle
  bifurcation  render an attractor diagram as a PGM with a CSV overlay
  salpha       compare estimated and predicted s-alpha sets of one point

Attractor histograms (`bifurcation`, `band_count`, `three_band_window`)
come from one vectorized pass over all parameter columns.  Every column
starts from the same perturbed critical point, so a column does not depend
on its neighbours: `band_count(p)` agrees with the scan at p, and a render
is the same for a given seed whatever the core count.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

from .backward import compare_salpha
from .chainoracle import (chain_classes, conley_graph, expansion_bound,
                          expansion_time, match_nodes, verify_tower)
from .maps import PiecewiseMap, make_logistic, make_tent, make_tu
from .orbits import critical_orbit
from .structure import analytic_nodes, classify_attractor, tu_cycle, tu_nodes

__all__ = ["main", "render_bifurcation", "band_count", "three_band_window"]

# histogram of `band_count` and the defaults of `three_band_window`
_TRANSIENT = 3000       # iterations per column before sampling
_SAMPLES = 4000         # sampled iterations per column
_BINS = 400             # bins over [0, 1]
_SEED = 0               # seed of the start perturbation
_MIN_OCCUPIED = 20      # fewest occupied bins of a three-band column


def _build_map(args, parser) -> PiecewiseMap:
    if args.family == "tent":
        if args.s is None:
            parser.error("--s is required for the tent family")
        return make_tent(args.s)
    if args.family == "logistic":
        if args.mu is None:
            parser.error("--mu is required for the logistic family")
        return make_logistic(args.mu)
    if args.mu is None:
        parser.error("--mu is required for the tu family")
    return make_tu(args.mu)


def _analytic(args, m, parser):
    if args.family == "tent":
        return analytic_nodes(args.s)
    if args.family == "tu":
        return tu_nodes(m)
    parser.error(f"no analytic tower is available for the {args.family} family")


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

def cmd_nodes(args, parser) -> int:
    m = _build_map(args, parser)
    nodes = _analytic(args, m, parser)
    kind = classify_attractor(m, nodes)
    if args.json:
        print(json.dumps({"map": m.label, "attractor": kind,
                          "nodes": [nd.to_dict() for nd in nodes]}, indent=2))
        return 0
    print(f"{m.label}: {len(nodes)} nodes, attractor type {kind}")
    for nd in nodes:
        if nd.cycle is not None:
            pts = ", ".join(f"{p:.9f}" for p in nd.cycle.points)
            print(f"  N_{nd.index} {nd.kind}: period {nd.cycle.period}, "
                  f"multiplier {nd.cycle.multiplier:+.6f}, points {{{pts}}}")
        else:
            ivs = " ".join(f"[{iv.lo:.9f}, {iv.hi:.9f}]" for iv in nd.intervals)
            print(f"  N_{nd.index} {nd.kind}: {ivs}")
    return 0


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, parser) -> int:
    # Tent only: the analytic tower of a tent map accounts for the whole
    # chain-recurrent set, so tower and oracle must agree class for class.
    # The tu family keeps an expanding Cantor repellor outside its window
    # tower, which a whole-domain oracle correctly reports and the tower
    # correctly omits, so the comparison is not meaningful there.
    if args.family != "tent":
        parser.error("verify cross-checks are defined for the tent family only")
    m = _build_map(args, parser)
    nodes = analytic_nodes(args.s)
    n = args.n
    # with n < 1 eps is 0 and build_grid refuses the grid, naming the
    # smallest n, instead of dividing by zero here
    h = 1.0 / n if n > 0 else 0.0
    eps = args.eps * h
    cc = chain_classes(m, n, eps)

    report = {"map": m.label, "n": n, "eps": eps}
    checks = []
    report["classes"] = [[[iv.lo, iv.hi] for iv in cc.support(i)] for i in range(len(cc))]
    edges = conley_graph(cc)
    try:
        tower = verify_tower(cc, edges)
        checks.append(("tower", tower, f"{len(cc)} classes, edges {edges}"))
    except ValueError as err:
        tower = False
        checks.append(("tower", False, str(err)))
    report["tower"] = tower
    report["edges"] = [list(e) for e in edges]

    tol = max(4.0 * h, 1.5 * h / max(args.s - 1.0, 1e-6) + 2.0 * h)
    mr = match_nodes(nodes, cc, tol)
    checks.append(("match", mr.passed, mr.message))
    report["match"] = mr.to_dict()

    c1, c2 = critical_orbit(m, 2)
    sal = []
    for x in (0.5 * c2, m.critical):
        rep = compare_salpha(args.s, x, depth=args.depth)
        sal.append(rep)
        checks.append((f"salpha x={x:.4f}", rep["passed"],
                       f"level {rep['level']}, Hausdorff {rep['hausdorff']:.4f}"))
    report["salpha"] = sal
    if args.s > math.sqrt(2.0):
        lo = c2 + 0.3 * (c1 - c2)
        bound = expansion_bound(m, lo, lo + 1e-3)
        try:
            t = expansion_time(m, lo, lo + 1e-3)
        except RuntimeError:
            # arbitrarily close to sqrt(2) the cover time outruns the budget
            t = None
            checks.append(("expansion", False, f"core not covered within the budget of {bound} steps"))
        else:
            checks.append(("expansion", t <= bound, f"{t} steps, budget {bound}"))
        report["expansion"] = {"steps": t, "bound": bound}

    passed = all(ok for _, ok, _ in checks)
    report["passed"] = passed
    if args.json:
        print(json.dumps(report, indent=2))
    else:
        for name, ok, msg in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {msg}")
        print(f"{m.label}: {'all checks passed' if passed else 'verification FAILED'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bifurcation rendering
# ---------------------------------------------------------------------------

def _family_base(family: str):
    # One shared base map per family; the parameter becomes a scalar factor,
    # so a whole row of columns advances with a single vectorized call.
    if family == "tent":
        base = make_tent(2.0)
        return base, lambda s: s / 2.0
    if family == "logistic":
        base = make_logistic(4.0)
        return base, lambda mu: mu / 4.0
    base = make_tu(1.0)
    return base, lambda mu: mu


def _orbit_histogram(base, scales, transient, samples, bins, seed):
    # One start for every column, the one a single-column call draws, so
    # column j equals a call with scales[j] alone.
    x0 = base.critical + np.random.default_rng(seed).uniform(-1e-9, 1e-9, 1)
    x = np.repeat(np.clip(x0, 0.0, 1.0), len(scales))
    counts = np.zeros((bins, len(scales)), dtype=np.int64)
    cols = np.arange(len(scales))
    for _ in range(transient):
        x = scales * base(x)
    for _ in range(samples):
        x = scales * base(x)
        rows = np.clip((x * bins).astype(np.int64), 0, bins - 1)
        np.add.at(counts, (rows, cols), 1)
    return counts


def render_bifurcation(family: str, lo: float, hi: float, columns: int,
                       transient: int, samples: int, bins: int, seed: int = 0):
    """Column-per-parameter histogram of the attractor, plus overlay points.

    Returns (image, params, overlay) where image is a bins x columns uint8
    array with densities in 0..254 and overlay rows marked 255, and overlay
    maps column index to the continued repelling-cycle points.
    """
    base, to_scale = _family_base(family)
    params = np.linspace(lo, hi, columns)
    counts = _orbit_histogram(base, to_scale(params), transient, samples, bins, seed)
    peak = counts.max(axis=0).clip(min=1)
    img = np.minimum((counts * 254.0 / peak).astype(np.uint8), 254)
    img = img[::-1, :]  # row 0 is the top of the unit interval

    overlay = {}
    for j, p in enumerate(params):
        pts = []
        try:
            if family == "tent":
                for nd in analytic_nodes(float(p)):
                    if nd.cycle is not None:
                        pts.extend(nd.cycle.points)
            elif family == "tu":
                pts.extend(tu_cycle(make_tu(float(p))).points)
        except (ValueError, RuntimeError):
            pts = []
        overlay[j] = pts
        for y in pts:
            r = bins - 1 - min(int(y * bins), bins - 1)
            img[r, j] = 255
    return img, params, overlay


def _write_pgm(path: str, img: np.ndarray):
    h, w = img.shape
    with open(path, "wb") as fh:
        fh.write(f"P5 {w} {h} 255\n".encode("ascii"))
        fh.write(img.tobytes())


def cmd_bifurcation(args, parser) -> int:
    if args.out is None:
        parser.error("--out is required for bifurcation")
    img, params, overlay = render_bifurcation(
        args.family, args.s_min, args.s_max, args.columns,
        args.transient, args.samples, args.bins, args.seed)
    _write_pgm(args.out, img)
    csv_path = os.path.splitext(args.out)[0] + ".csv"
    with open(csv_path, "w") as fh:
        for j, p in enumerate(params):
            cells = [f"{p:.10f}"] + [f"{y:.10f}" for y in overlay[j]]
            fh.write(",".join(cells) + "\n")
    print(f"wrote {args.out} ({img.shape[1]}x{img.shape[0]}) and {csv_path}")
    return 0


def band_count(family: str, param: float):
    """(number of occupied-bin clusters, occupied bin total) for one orbit.

    Clusters are runs of occupied bins separated by at least two empty
    bins; interval bands occupy many bins while periodic attractors only a
    handful, so the pair distinguishes the two.
    """
    base, to_scale = _family_base(family)
    counts = _orbit_histogram(base, np.array([to_scale(param)]),
                              _TRANSIENT, _SAMPLES, _BINS, _SEED)
    return _bands(counts[:, 0])


def _bands(column):
    occ = np.flatnonzero(column > 0)
    if len(occ) == 0:
        return 0, 0
    splits = np.count_nonzero(np.diff(occ) > 2)
    return splits + 1, len(occ)


def three_band_window(lo: float, hi: float, step: float = 5e-4,
                      transient: int = _TRANSIENT, samples: int = _SAMPLES,
                      bins: int = _BINS):
    """Maximal parameter run around mu=1 where the tu attractor shows three
    interval bands.  Returns (mu_lo, mu_hi) or None when 1 is not inside
    such a run."""
    mus = np.arange(lo, hi + step / 2, step)
    base, to_scale = _family_base("tu")
    counts = _orbit_histogram(base, to_scale(mus), transient, samples, bins, _SEED)
    good = [clusters == 3 and occupied >= _MIN_OCCUPIED
            for clusters, occupied in map(_bands, counts.T)]
    anchor = int(np.argmin(np.abs(mus - 1.0)))
    if not good[anchor]:
        return None
    a = anchor
    while a > 0 and good[a - 1]:
        a -= 1
    b = anchor
    while b + 1 < len(mus) and good[b + 1]:
        b += 1
    return float(mus[a]), float(mus[b])


# ---------------------------------------------------------------------------
# salpha
# ---------------------------------------------------------------------------

def cmd_salpha(args, parser) -> int:
    if args.family != "tent":
        parser.error("salpha prediction is only available for the tent family")
    if args.s is None or args.x is None:
        parser.error("salpha needs --s and --x")
    rep = compare_salpha(args.s, args.x, depth=args.depth)
    if args.json:
        print(json.dumps(rep, indent=2))
    else:
        print(f"T_{args.s} x={args.x}: level {rep['level']}")
        print(f"  predicted: {rep['predicted']}")
        print(f"  estimated: {rep['estimated']}")
        print(f"  Hausdorff {rep['hausdorff']:.5f} (tol {rep['tol']})"
              f" -> {'PASS' if rep['passed'] else 'FAIL'}")
        for note in rep["notes"]:
            print(f"  note: {note}")
    return 0 if rep["passed"] else 1


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------

def _parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(prog="unimodal",
                                description="Qualitative dynamics of tent-like interval maps")
    sub = p.add_subparsers(dest="command", required=True)

    # each subcommand takes only the flags its handler reads
    def common(sp):
        sp.add_argument("--family", choices=["tent", "logistic", "tu"], default="tent")
        sp.add_argument("--s", type=float, help="tent slope parameter")
        sp.add_argument("--json", action="store_true", help="machine-readable output")

    sp = sub.add_parser("nodes", help="print the analytic node tower")
    common(sp)
    sp.add_argument("--mu", type=float, help="logistic or tu parameter")

    sp = sub.add_parser("verify", help="oracle cross-check of the tower (tent family)")
    common(sp)
    sp.add_argument("--n", type=int, default=100_000, help="oracle grid cells")
    sp.add_argument("--eps", type=float, default=2.0,
                    help="chain jump size in cell widths, at least 1.5 (default 2)")
    sp.add_argument("--depth", type=int, default=24, help="backward tree depth")

    sp = sub.add_parser("bifurcation", help="render an attractor diagram (PGM + CSV)")
    sp.add_argument("--family", choices=["tent", "logistic", "tu"], default="tent")
    sp.add_argument("--seed", type=int, default=0, help="seed of the start perturbation")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--columns", type=int, default=300)
    sp.add_argument("--transient", type=int, default=3000)
    sp.add_argument("--samples", type=int, default=4000)
    sp.add_argument("--bins", type=int, default=400)
    sp.add_argument("--out", help="output PGM path")

    sp = sub.add_parser("salpha", help="estimated vs predicted s-alpha set")
    common(sp)
    sp.add_argument("--x", type=float, help="base point")
    sp.add_argument("--depth", type=int, default=30)
    return p


def main(argv=None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    handlers = {"nodes": cmd_nodes, "verify": cmd_verify,
                "bifurcation": cmd_bifurcation, "salpha": cmd_salpha}
    try:
        return handlers[args.command](args, parser)
    except ValueError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
