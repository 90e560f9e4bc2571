"""Command line front end.

Subcommands:
  nodes        print the analytic tower of a map
  verify       cross-check the tower against the chain-recurrence oracle
  bifurcation  render an attractor diagram as a PGM with a CSV overlay
  salpha       compare estimated and predicted s-alpha sets of one point

This is the comparison layer: `chainoracle` and `backward` only measure,
`structure` only predicts, and `match_nodes` (tower vs oracle classes) and
`compare_salpha` (s-alpha estimate vs prediction) set one against the other.

Attractor histograms (`bifurcation`, `band_count`, `three_band_window`)
come from one vectorized pass over all parameter columns: one table lookup
of the base map per step, scaled per column, and one `bincount` per chunk
of sampled steps.  Every column starts from the same perturbed critical
point, so a column does not depend on its neighbours: `band_count(p)`
agrees with the scan at p, and a render is the same for a given seed
whatever the core count.  The tu overlay of a render is one batched solve
on its parameters, `tu_cycles`, which gives each column what `tu_cycle`
gives it alone.

Exit status: 0 on success, 1 when a verification fails, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np

# Every collaborator is imported here, at module level, and stays an
# attribute of this module: the benchmark's tracer wraps them there
# (cli.chain_classes, cli.conley_graph, cli.tu_cycle and the rest), so this
# module must not copy the package root's loading on first use.
from . import backward
from .chainoracle import ChainClasses, chain_classes, conley_graph, verify_tower
from .maps import PiecewiseMap, hausdorff, make_logistic, make_tent, make_tu, runs
from .orbits import critical_orbit, expansion_bound, expansion_time
# tu_cycle is imported for the tracer alone, which wraps cli.tu_cycle; the
# render itself solves all its columns in tu_cycles
from .structure import (analytic_nodes, classify_attractor, predicted_salpha, tu_cycle,
                        tu_cycles, tu_nodes)

__all__ = ["main", "match_nodes", "compare_salpha", "render_bifurcation", "band_count",
           "three_band_window"]

# histogram of `band_count`, and the defaults of `three_band_window` and of
# the `bifurcation` flags
_TRANSIENT = 3000       # iterations per column before sampling
_SAMPLES = 4000         # sampled iterations per column
_BINS = 400             # bins over [0, 1]
_SEED = 0               # seed of the start perturbation
_MIN_OCCUPIED = 20      # fewest occupied bins of a three-band column
_CHUNK = 128            # sampled steps of a histogram binned at once

_SALPHA_TOL = 0.02      # Hausdorff distance at which an s-alpha estimate passes


# constructor of each family, and the parameter of its shared base map
_FAMILIES = {"tent": (make_tent, 2.0), "logistic": (make_logistic, 4.0), "tu": (make_tu, 1.0)}


def _build_map(args, parser) -> PiecewiseMap:
    flag = "s" if args.family == "tent" else "mu"
    if getattr(args, flag) is None:
        parser.error(f"--{flag} is required for the {args.family} family")
    return _FAMILIES[args.family][0](getattr(args, flag))


def _analytic(args, m, parser):
    if args.family == "tent":
        return analytic_nodes(args.s)
    if args.family == "tu":
        return tu_nodes(m)
    parser.error(f"no analytic tower is available for the {args.family} family")


def _print_json(obj):
    """Print obj as strict JSON (RFC 8259): a non-finite float prints as null."""
    # json.dumps writes Infinity or NaN, which parse_constant reads back as None
    strict = json.loads(json.dumps(obj), parse_constant=lambda _: None)
    print(json.dumps(strict, indent=2, allow_nan=False))


# ---------------------------------------------------------------------------
# nodes
# ---------------------------------------------------------------------------

def cmd_nodes(args, parser) -> int:
    m = _build_map(args, parser)
    nodes = _analytic(args, m, parser)
    kind = classify_attractor(m, nodes)
    if args.json:
        _print_json({"map": m.label, "attractor": kind,
                     "nodes": [nd.to_dict() for nd in nodes]})
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
# comparisons
# ---------------------------------------------------------------------------

def match_nodes(nodes, cc: ChainClasses, tol: float) -> dict:
    """Pair analytic node k with oracle class k, shallowest first, as a
    JSON-able report with the keys passed, pairs, count_mismatch, tol and
    message.

    Both towers come shallowest first: the nodes by index, the classes by
    the maximum of f over each.  On a tent map the top of N_{k+1} lies in
    f(J_1) = [max N_k, c_1], so the maximum of f rises along the analytic
    tower too, and position alone pairs the two.  Each pair [node, class,
    distance] carries the Hausdorff distance between the node support and
    the class support (cell-center hulls); the match passes when the counts
    agree and every distance is within tol.  A count mismatch is reported,
    not raised, and its pairs are the positional prefix.
    """
    k_n, k_c = len(nodes), len(cc)
    pairs = [[k, k, float(hausdorff(nd.support(), cc.support(k)))]
             for k, nd in zip(range(k_c), nodes)]
    mismatch = k_n != k_c
    worst = max((d for _, _, d in pairs), default=0.0)
    passed = (not mismatch) and worst <= tol
    if mismatch:
        msg = f"{k_n} analytic nodes vs {k_c} oracle classes"
    elif passed:
        msg = f"{k_n} nodes matched, worst Hausdorff {worst:.3g} <= {tol:.3g}"
    else:
        msg = f"worst Hausdorff {worst:.3g} exceeds {tol:.3g}"
    return {"passed": passed, "pairs": pairs, "count_mismatch": mismatch, "tol": tol,
            "message": msg}


def compare_salpha(s: float, x: float, depth: int = 30) -> dict:
    """Estimator vs closed form, as a JSON-able report.

    Passes when the Hausdorff distance between the two interval unions is
    within _SALPHA_TOL, or when both sides are empty.
    """
    pred = predicted_salpha(s, x)
    est = backward.salpha(make_tent(s), x, depth)
    if not pred.intervals and not est.intervals:
        dist, passed = 0.0, True
    elif not pred.intervals or not est.intervals:
        dist, passed = float("inf"), False
    else:
        dist = hausdorff(list(est.intervals), list(pred.intervals))
        passed = dist <= _SALPHA_TOL
    notes = []
    if pred.note:
        notes.append(pred.note)
    if est.degenerate:
        notes.append(f"estimate is degenerate: only {est.n_points} surviving points")
    return {
        "s": s,
        "x": x,
        "depth": depth,
        "level": pred.level,
        "predicted": [[iv.lo, iv.hi] for iv in pred.intervals],
        "estimated": [[iv.lo, iv.hi] for iv in est.intervals],
        "hausdorff": dist,
        "tol": _SALPHA_TOL,
        "passed": passed,
        "notes": notes,
        "candidates": est.candidates,
        "kept": est.n_points,
        "truncated": est.truncated,
    }


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def cmd_verify(args, parser) -> int:
    # Tent only: the analytic tower of a tent map accounts for the whole
    # chain-recurrent set, so tower and oracle must agree class for class.
    # On tu the oracle's middle class is N_1 as a Cantor node, within 8e-5 of
    # cantor_cover(m, region, 12) plus the cycle at mu = 1, and at the default
    # 2h it drops tu's class at 0.  verify stays tent-only until the eps floor
    # follows the map's slope and tu_nodes gives N_1 that Cantor support.
    if args.family != "tent":
        parser.error("verify cross-checks are defined for the tent family only")
    # the s-alpha checks run last; their tree depth is refused before the oracle runs
    backward.check_depth(args.depth)
    m = _build_map(args, parser)
    nodes = analytic_nodes(args.s)
    # the default jump size of two cells, the one the match tolerance below
    # is calibrated at
    cc = chain_classes(m, args.n)
    h = cc.graph.h

    report = {"map": m.label, "n": args.n, "eps": cc.graph.eps}
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
    checks.append(("match", mr["passed"], mr["message"]))
    report["match"] = mr
    del cc      # the oracle's arrays are done with; the probe needs the room

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
            # expansion_time counts only up to this same budget
            checks.append(("expansion", True, f"{t} steps, budget {bound}"))
        report["expansion"] = {"steps": t, "bound": bound}

    passed = all(ok for _, ok, _ in checks)
    report["passed"] = passed
    if args.json:
        _print_json(report)
    else:
        for name, ok, msg in checks:
            print(f"{'PASS' if ok else 'FAIL'} {name}: {msg}")
        print(f"{m.label}: {'all checks passed' if passed else 'verification FAILED'}")
    return 0 if passed else 1


# ---------------------------------------------------------------------------
# bifurcation rendering
# ---------------------------------------------------------------------------

def _family_base(family: str, *params):
    """The family's shared base map and the scale of a parameter: one base
    map per family, so a whole row of columns advances with a single
    vectorized call.  The family's constructor first refuses, by name, any
    of params outside its range: past it the orbit leaves [0, 1]."""
    make, p0 = _FAMILIES[family]
    for p in params:
        make(p)
    return make(p0), lambda p: p / p0


def _check_histogram(*, columns=1, transient=0, samples=1, bins=1, step=1.0):
    """Refuse a histogram setting past its limit, naming it: at least one
    column, sample and bin, no negative transient, a positive scan step.
    The defaults are the limits, so a caller passes what it sets."""
    for name, value, least in (("columns", columns, 1), ("transient", transient, 0),
                               ("samples", samples, 1), ("bins", bins, 1)):
        if value < least:
            raise ValueError(f"{name}={value} must be at least {least}")
    if not step > 0.0:
        raise ValueError(f"step={step} must be positive")


_M32, _M64, _M128 = (1 << 32) - 1, (1 << 64) - 1, (1 << 128) - 1


def _start_jitter(seed) -> float:
    """``np.random.default_rng(seed).uniform(-1e-9, 1e-9, 1)[0]``, computed
    without importing numpy.random, which costs a fresh process about 6 MB.
    The steps are NumPy's (NEP 19): SeedSequence mixes the seed's 32-bit
    words into a pool of four and draws four 64-bit words from it, PCG64
    (O'Neill 2014; XSL-RR output of a 128-bit LCG) is seeded with the
    first two as its state and the last two as its stream, and one
    next_double scales the top 53 bits of its first output.  A negative or
    non-integer seed is refused by name."""
    if not isinstance(seed, (int, np.integer)) or seed < 0:
        raise ValueError(f"seed={seed} must be a non-negative integer")
    seed = int(seed)
    words = [seed >> b & _M32 for b in range(0, max(seed.bit_length(), 1), 32)]
    mult = 0x43b0d7e5

    def hashmix(value):
        nonlocal mult
        value ^= mult
        mult = mult * 0x931e8875 & _M32
        value = value * mult & _M32
        return value ^ value >> 16

    def mix(x, y):
        r = (0xca01f9dd * x - 0x4973f715 * y) & _M32
        return r ^ r >> 16

    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(4)]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    mult, out = 0x8b51f9dd, 0
    for i in range(8):      # generate_state(4, uint64), little-endian words
        value = pool[i % 4] ^ mult
        mult = mult * 0x58f38ded & _M32
        value = value * mult & _M32
        out |= (value ^ value >> 16) << 32 * i
    w = [out >> 64 * j & _M64 for j in range(4)]
    lcg = 0x2360ed051fc65da44385df649fccf645
    inc = ((w[2] << 64 | w[3]) << 1 | 1) & _M128
    state = ((inc + (w[0] << 64 | w[1])) * lcg + inc) & _M128     # srandom
    state = (state * lcg + inc) & _M128                             # first step
    x, rot = (state >> 64 ^ state) & _M64, state >> 122
    x = (x >> rot | x << (64 - rot)) & _M64
    # uniform's low + (high - low) * next_double, in numpy's float64 steps
    return -1e-9 + (1e-9 - -1e-9) * ((x >> 11) * (1.0 / 9007199254740992.0))


def _orbit_histogram(base, scales, transient, samples, bins, seed):
    # One start for every column, the one a single-column call draws, so
    # column j equals a call with scales[j] alone.  A step multiplies f(x)
    # by scales in place, the same product as scales * f(x) to the bit.
    columns = len(scales)
    _check_histogram(columns=columns, transient=transient, samples=samples, bins=bins)
    x0 = base.critical + _start_jitter(seed)
    x = np.repeat(np.clip(x0, 0.0, 1.0), columns)
    for _ in range(transient):
        x = base.eval_array(x)
        x *= scales
    counts = np.zeros(bins * columns, dtype=np.int64)
    cols = np.arange(columns)
    buf = np.empty((min(_CHUNK, samples), columns))
    for start in range(0, samples, _CHUNK):
        chunk = buf[:samples - start]
        for sample in chunk:
            x = np.multiply(base.eval_array(x), scales, out=sample)
        # Each step adds exactly one count to each column, and cell
        # bin * columns + column is unique to its (bin, column), so one
        # bincount over the chunk's steps adds what a scatter per step
        # would.  Every accepted scale keeps x in [0, 1]: no bin is negative.
        cells = (chunk * bins).astype(np.int64)
        np.minimum(cells, bins - 1, out=cells)
        cells *= columns
        cells += cols
        counts += np.bincount(cells.ravel(), minlength=bins * columns)
    return counts.reshape(bins, columns)


def _overlay_points(family: str, params):
    """The continued repelling cycles of each column: every cycle of the
    tent tower, or the tu period-3 cycle from one batched solve that gives
    each column what `tu_cycle` gives it alone.  A column gets none for the
    logistic family or where the family's solve refuses."""
    if family == "tu":
        return [[] if cyc is None else list(cyc.points) for cyc in tu_cycles(params)]
    out = []
    for p in params:
        try:
            nodes = analytic_nodes(float(p)) if family == "tent" else []
        except ValueError:
            nodes = []
        out.append([y for nd in nodes if nd.cycle is not None for y in nd.cycle.points])
    return out


def render_bifurcation(family: str, lo: float, hi: float, columns: int,
                       transient: int, samples: int, bins: int, seed: int = 0):
    """Column-per-parameter histogram of the attractor, plus overlay points.

    Returns (image, params, overlay) where image is a bins x columns uint8
    array with densities in 0..254 and overlay rows marked 255, and overlay
    maps column index to the continued repelling-cycle points.  The family's
    constructor refuses lo or hi outside its parameter range by name.
    """
    _check_histogram(columns=columns)    # before linspace reads it
    base, to_scale = _family_base(family, lo, hi)
    params = np.linspace(lo, hi, columns)
    counts = _orbit_histogram(base, to_scale(params), transient, samples, bins, seed)
    peak = counts.max(axis=0).clip(min=1)
    img = np.minimum((counts * 254.0 / peak).astype(np.uint8), 254)
    img = img[::-1, :]  # row 0 is the top of the unit interval

    overlay = dict(enumerate(_overlay_points(family, params)))
    for j, pts in overlay.items():
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
    handful, so the pair distinguishes the two.  The family's constructor
    refuses param outside its range by name.
    """
    base, to_scale = _family_base(family, param)
    counts = _orbit_histogram(base, np.array([to_scale(param)]),
                              _TRANSIENT, _SAMPLES, _BINS, _SEED)
    return _bands(counts[:, 0])


def _bands(column):
    occ = np.flatnonzero(column > 0)
    return len(runs(occ, 2)), len(occ)


def three_band_window(lo: float, hi: float, step: float = 5e-4,
                      transient: int = _TRANSIENT, samples: int = _SAMPLES,
                      bins: int = _BINS):
    """Maximal parameter run around mu=1 where the tu attractor shows three
    interval bands.  Returns (mu_lo, mu_hi) or None when 1 is not inside
    such a run.  The scan reads lo, lo + step, ... and stops at hi; a
    scanned mu outside the tu range is refused by name."""
    # every refusal comes before the answer None
    _check_histogram(transient=transient, samples=samples, bins=bins, step=step)
    if lo > hi:
        raise ValueError(f"lo={lo} must not exceed hi={hi}")
    # arange's floats, capped at the last column lo + k*step <= hi: arange
    # runs to hi + step/2, and a column within 1e-9 of a step past hi is
    # hi up to rounding, so it stays
    mus = np.arange(lo, hi + step / 2, step)[:math.floor((hi - lo) / step + 1e-9) + 1]
    # that rounding can still pass the end of the family's range
    base, to_scale = _family_base("tu", lo, hi, mus[-1])
    if not lo <= 1.0 <= hi:
        return None
    counts = _orbit_histogram(base, to_scale(mus), transient, samples, bins, _SEED)
    good = [clusters == 3 and occupied >= _MIN_OCCUPIED
            for clusters, occupied in map(_bands, counts.T)]
    anchor = int(np.argmin(np.abs(mus - 1.0)))
    for a, b in runs(np.flatnonzero(good), 1):
        if a <= anchor <= b:
            return float(mus[a]), float(mus[b])
    return None


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
        _print_json(rep)
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
    sp.add_argument("--depth", type=int, default=24, help="backward tree depth")

    sp = sub.add_parser("bifurcation", help="render an attractor diagram (PGM + CSV)")
    sp.add_argument("--family", choices=["tent", "logistic", "tu"], default="tent")
    sp.add_argument("--seed", type=int, default=_SEED, help="seed of the start perturbation")
    sp.add_argument("--s-min", type=float, required=True)
    sp.add_argument("--s-max", type=float, required=True)
    sp.add_argument("--columns", type=int, default=300)
    sp.add_argument("--transient", type=int, default=_TRANSIENT)
    sp.add_argument("--samples", type=int, default=_SAMPLES)
    sp.add_argument("--bins", type=int, default=_BINS)
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
