"""Piecewise-monotone interval map kernel.

Builds the three map families used throughout the package (tent, logistic,
and the tent-with-linear-inserts family ``u_mu``), evaluates them on scalars
or arrays, inverts single branches in closed form, and validates unimodality.
Scalar and array calls find the branch of a point the same way and apply
the same arithmetic to it, so they agree bit for bit.  A ``MapStack``
scales one base map per row and evaluates each row with that same
arithmetic, and ``bisect_root`` halves whole arrays of brackets, so a
family such as u_mu = mu * u_1 is solved in one array pass.

Every map constructed here has a single interior maximum at ``critical`` and
fixes the lower boundary: f(a) = f(b) = a.  Maps are immutable after
construction and safe to share across threads.
"""

from __future__ import annotations

import bisect
import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "Interval",
    "Branch",
    "PiecewiseMap",
    "MapStack",
    "bisect_root",
    "make_tent",
    "make_logistic",
    "make_tu",
    "merge_intervals",
    "subtract_intervals",
    "runs",
    "hausdorff",
    "tu_skeleton",
    "TU_BASE_MU",
]

# Logistic parameter the u_mu family is carved out of.
TU_BASE_MU = 3.854

_DEDUP_TOL = 1e-12
_BLOCK = 1 << 15     # roots (preimages_array) or steps (runs) compared at once


@dataclass(frozen=True)
class Interval:
    """Closed interval [lo, hi] with lo <= hi, both finite."""

    lo: float
    hi: float

    def __post_init__(self):
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ValueError("interval endpoints must be finite")
        if self.lo > self.hi:
            raise ValueError(f"empty interval: [{self.lo}, {self.hi}]")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def contains(self, x: float, tol: float = 0.0) -> bool:
        return self.lo - tol <= x <= self.hi + tol

    def __iter__(self):
        yield self.lo
        yield self.hi


@dataclass(frozen=True)
class Branch:
    """One monotone lap of a piecewise map.

    shape is ("affine", slope, intercept) meaning slope*x + intercept, or
    ("quad", a) meaning a*x*(1-x).  direction is +1 (increasing) or -1.
    """

    domain: Interval
    shape: tuple
    direction: int

    def __call__(self, x):
        if self.shape[0] == "affine":
            _, m, b = self.shape
            return m * x + b
        _, a = self.shape
        return a * x * (1.0 - x)

    def slope_at(self, x):
        if self.shape[0] == "affine":
            return self.shape[1]
        return self.shape[1] * (1.0 - 2.0 * x)

    def invert(self, ys):
        """Every x in this branch's domain with branch(x) = y for some y in
        ys (a scalar or an array), as one array: (y - b)/m on an affine
        branch, both roots of x^2 - x + y/a on a quad one.  Roots within
        _DEDUP_TOL of the domain are kept and clipped to it."""
        ys = np.asarray(ys, dtype=float).ravel()
        if self.shape[0] == "affine":
            _, m, b = self.shape
            xs = (ys - b) / m if m != 0.0 else ys[:0]
        else:
            _, a = self.shape
            disc = 1.0 - 4.0 * ys / a if a != 0.0 else ys[:0]
            r = np.sqrt(disc[disc >= 0.0])
            xs = np.concatenate(((1.0 - r) / 2.0, (1.0 + r) / 2.0))
        lo, hi = self.domain.lo, self.domain.hi
        xs = xs[(xs >= lo - _DEDUP_TOL) & (xs <= hi + _DEDUP_TOL)]
        return np.clip(xs, lo, hi)


class _Tables(NamedTuple):
    """Per-branch coefficients of the array path, one entry per branch."""

    slope: np.ndarray
    icpt: np.ndarray
    qa: np.ndarray
    quad: np.ndarray | None     # None when no branch is quadratic

    def eval(self, x, k):
        """Branch k[i]'s arithmetic at x[i]: slope*x + intercept, plus
        a*x*(1-x) when a map has quad branches, the same operations in the
        same order as ``Branch.__call__``.

        Adding the quad term, with no mask, keeps the bits of that call at
        every x in [+0, 1].  An affine entry has a = 0, so its term is an
        exact +0, and y + 0 is y unless y is -0, which slope*x + intercept
        is not, as no family has an intercept of -0.  A quad entry has
        slope = intercept = 0, so its sum is +0 plus a*x*(1-x), and that
        product is never -0 there."""
        out = self.slope.take(k)    # a fresh array: the products run in place
        out *= x
        out += self.icpt.take(k)
        if self.quad is not None:
            quad = self.qa.take(k)
            quad *= x
            quad *= 1.0 - x
            out += quad
        return out

    def slope_at(self, x, k):
        """Branch k[i]'s derivative at x[i], as ``Branch.slope_at``."""
        if self.quad is None:
            return self.slope[k]
        return np.where(self.quad[k], self.qa[k] * (1.0 - 2.0 * x), self.slope[k])


class PiecewiseMap:
    """Continuous unimodal map assembled from monotone branches.

    Branches partition the domain, the direction flips exactly once (at
    ``critical``), and the boundary is fixed: f(a) = f(b) = a.  Instances
    evaluate on scalars and numpy arrays alike.  A point belongs to the
    branch right of every interior joint at or below it, found by one
    bisection for a scalar and one ``searchsorted`` for an array.  An array
    call then reads per-branch coefficient tables: slope*x + intercept
    plus a*x*(1-x), each term zero on the branches of the other shape, the
    same operations in the same order as ``Branch.__call__``, so both calls
    agree bit for bit.
    """

    def __init__(self, branches, domain: Interval, critical: float, label: str):
        self.branches = tuple(branches)
        self.domain = domain
        self.critical = critical
        self.label = label
        # interior joints: a list for the scalar bisection, an array for
        # the vectorized lookup
        self._cuts = [b.domain.hi for b in self.branches[:-1]]
        self._cut_array = np.array(self._cuts)
        # coefficient tables of the array path; a quad branch has slope and
        # intercept 0, an affine one quad coefficient 0
        quad = [b.shape[0] == "quad" for b in self.branches]
        self._tables = _Tables(
            np.array([0.0 if q else b.shape[1] for q, b in zip(quad, self.branches)]),
            np.array([0.0 if q else b.shape[2] for q, b in zip(quad, self.branches)]),
            np.array([b.shape[1] if q else 0.0 for q, b in zip(quad, self.branches)]),
            np.array(quad) if any(quad) else None)
        self._validate()

    def _validate(self):
        prev_hi = self.domain.lo
        flips = 0
        for i, b in enumerate(self.branches):
            if abs(b.domain.lo - prev_hi) > 1e-9:
                raise ValueError(f"branch {i} does not start where branch {i-1} ends")
            prev_hi = b.domain.hi
            if i > 0:
                left = self.branches[i - 1](self.branches[i - 1].domain.hi)
                right = b(b.domain.lo)
                if abs(left - right) > 1e-9:
                    raise ValueError(f"continuity gap {abs(left-right):.3g} at joint {b.domain.lo}")
                if b.direction != self.branches[i - 1].direction:
                    flips += 1
        if abs(prev_hi - self.domain.hi) > 1e-9:
            raise ValueError("branches do not cover the domain")
        if flips != 1:
            raise ValueError(f"expected exactly one direction change, found {flips}")

    # -- evaluation ---------------------------------------------------------

    def __call__(self, x):
        if isinstance(x, float) or np.ndim(x) == 0:
            return self._eval_scalar(float(x))
        return self.eval_array(np.asarray(x, dtype=float))

    def eval_array(self, x: np.ndarray) -> np.ndarray:
        """f at each point of the float array x, as a fresh array: the
        array call without its dispatch, for loops that step an orbit."""
        return self._tables.eval(x, self._cut_array.searchsorted(x, side="right"))

    def _eval_scalar(self, x: float) -> float:
        if not self.domain.contains(x, tol=1e-12):
            raise ValueError(f"x={x} outside domain [{self.domain.lo}, {self.domain.hi}]")
        return float(self.branches[bisect.bisect_right(self._cuts, x)](x))

    def iterate(self, x, n: int):
        """n-fold composition f^n(x)."""
        for _ in range(n):
            x = self(x)
        return x

    def branch_index(self, x: float) -> int:
        return bisect.bisect_right(self._cuts, x)

    def slope_at(self, x: float) -> float:
        return float(self.branches[self.branch_index(x)].slope_at(x))

    @property
    def peak(self) -> float:
        return self._eval_scalar(self.critical)

    # -- inversion ----------------------------------------------------------

    def preimages(self, y: float):
        """Sorted list of all x with f(x) = y.  Empty when y is above the peak."""
        return self.preimages_array([y]).tolist()

    def preimages_array(self, ys):
        """Vectorized preimages of a batch of values.

        Returns a single sorted array of every preimage of every value in
        ys, with points closer than _DEDUP_TOL to their predecessor (a root
        found by both branches at a joint) dropped.  Used by the
        backward-orbit machinery where the per-point tree structure does
        not matter, only the level sets.

        The laps' roots are joined in domain order, a falling lap's
        reversed, so a sorted ys gives one ascending run per lap (a quad
        lap may add a short run of the roots it clips to an end), and one
        stable sort in place merges the runs in linear time.  The sort,
        not the order of ys, makes the result: ys in any order gives the
        same array.  The gaps are compared _BLOCK roots at a time, and a
        join with nothing to drop is returned as it is, so no copy of the
        roots is made.
        """
        allx = np.concatenate([b.invert(ys)[::b.direction] for b in self.branches])
        allx.sort(kind="stable")
        keep = np.empty(len(allx), dtype=bool)
        keep[:1] = True
        for a in range(1, len(allx), _BLOCK):
            np.greater(np.diff(allx[a - 1:a + _BLOCK]), _DEDUP_TOL, out=keep[a:a + _BLOCK])
        return allx if keep.all() else allx[keep]

    def interval_image(self, lo, hi):
        """Image of [lo, hi] as an (lo, hi) pair, for scalars or arrays.

        f rises to the critical point and falls after it, so the image is
        [min(f(lo), f(hi)), peak] when c lies strictly inside and
        [min(f(lo), f(hi)), max(f(lo), f(hi))] otherwise.  Scalar calls
        return floats and reject points outside the domain.
        """
        c = self.critical
        if np.ndim(lo) == 0 and np.ndim(hi) == 0:
            flo, fhi = self._eval_scalar(float(lo)), self._eval_scalar(float(hi))
            return min(flo, fhi), (self.peak if lo < c < hi else max(flo, fhi))
        flo, fhi = self(lo), self(hi)
        crosses = (lo < c) & (hi > c)
        return np.minimum(flo, fhi), np.where(crosses, self.peak, np.maximum(flo, fhi))

    def interval_preimage(self, lo: float, hi: float):
        """All components of f^{-1}([lo, hi]) as a merged list of Intervals."""
        pieces = []
        for b in self.branches:
            blo, bhi = b.domain.lo, b.domain.hi
            vlo, vhi = b(blo), b(bhi)
            rlo, rhi = min(vlo, vhi), max(vlo, vhi)
            if rhi < lo or rlo > hi:
                continue
            ylo, yhi = max(lo, rlo), min(hi, rhi)
            a = b.invert(ylo).tolist()
            z = b.invert(yhi).tolist()
            ends = a + z
            if not a or not z:
                # value hit a branch endpoint within float dust: the domain
                # endpoint itself bounds the component
                ends += [x for x in (blo, bhi) if lo - 1e-12 <= b(x) <= hi + 1e-12]
            pieces.append(Interval(min(ends), max(ends)))
        # components meeting at a branch cut may differ by one ulp
        return merge_intervals(pieces, tol=1e-12)

    # -- structure helpers --------------------------------------------------

    def conjugate(self, p: float) -> float:
        """The point on the other side of c with the same image as p."""
        if abs(p - self.critical) <= _DEDUP_TOL:
            raise ValueError("conjugate undefined at the critical point")
        y = self._eval_scalar(p)
        best, bestd = None, math.inf
        for x in self.preimages(y):
            if (x - self.critical) * (p - self.critical) < 0:
                d = abs(x - self.critical)
                if d < bestd:
                    best, bestd = x, d
        if best is None:
            # p's image has a unique preimage (can happen only at the peak value)
            raise ValueError(f"no conjugate point for p={p}")
        return best

    def __repr__(self):
        return f"PiecewiseMap({self.label}, {len(self.branches)} branches)"


class MapStack:
    """One base map scaled per row: row r's coefficient tables are the
    base map's times scales[r], read by the same expression as
    ``PiecewiseMap``'s array call.  ``make_tu`` multiplies each coefficient
    by mu exactly once, so row r of a stack of ``make_tu(1.0)`` evaluates
    as ``make_tu(scales[r])`` does, bit for bit, and ``MapStack(m, [1.0])``
    as m does.  The tables of all rows sit end to end, and row r reads
    branch k at entry r * branches + k.
    """

    def __init__(self, base: PiecewiseMap, scales):
        self.base = base
        self.scales = np.asarray(scales, dtype=float)
        self.critical = base.critical
        self.domain = base.domain
        t = base._tables
        col = self.scales[:, None]
        self._tables = _Tables((t.slope * col).ravel(), (t.icpt * col).ravel(),
                               (t.qa * col).ravel(),
                               None if t.quad is None else np.tile(t.quad, len(col)))
        # first table entry of each row
        self._first = len(base.branches) * np.arange(len(col))

    def __len__(self):
        return len(self.scales)

    def take(self, rows):
        """The stack whose row i is row rows[i] of this one."""
        return MapStack(self.base, self.scales[rows])

    def _entries(self, x):
        # table entry of each point: its row's first entry plus its branch
        k = self.branch_index(x)
        k += self._first.reshape(self._first.shape + (1,) * (x.ndim - 1))
        return k

    def branch_index(self, x):
        """Branch of each point, by the same lookup as ``PiecewiseMap``."""
        return self.base._cut_array.searchsorted(x, side="right")

    def __call__(self, x):
        """f_r(x[r]) for every row r; x has one row per scale."""
        x = np.asarray(x, dtype=float)
        return self._tables.eval(x, self._entries(x))

    iterate = PiecewiseMap.iterate

    def slope_at(self, x):
        """The derivative of f_r at x[r] for every row r."""
        x = np.asarray(x, dtype=float)
        return self._tables.slope_at(x, self._entries(x))


# ---------------------------------------------------------------------------
# families
# ---------------------------------------------------------------------------

def make_tent(s: float) -> PiecewiseMap:
    """Tent map T_s(x) = s*min(x, 1-x) on [0, 1], peak s/2 at c = 1/2."""
    if not 0.0 < s <= 2.0:
        raise ValueError(f"tent slope s={s} outside (0, 2]")
    half = Interval(0.0, 0.5)
    up = Branch(half, ("affine", s, 0.0), +1)
    down = Branch(Interval(0.5, 1.0), ("affine", -s, s), -1)
    return PiecewiseMap([up, down], Interval(0.0, 1.0), 0.5, f"tent:{s!r}")


def make_logistic(mu: float) -> PiecewiseMap:
    """Logistic map mu*x*(1-x) on [0, 1], split at c = 1/2 into two laps."""
    if not 0.0 < mu <= 4.0:
        raise ValueError(f"logistic parameter mu={mu} outside (0, 4]")
    up = Branch(Interval(0.0, 0.5), ("quad", mu), +1)
    down = Branch(Interval(0.5, 1.0), ("quad", mu), -1)
    return PiecewiseMap([up, down], Interval(0.0, 1.0), 0.5, f"logistic:{mu!r}")


def bisect_root(g, lo, hi, tol: float):
    """Midpoint of [lo, hi] after halving it, keeping a sign change of g,
    until it is shorter than tol (at most 200 halvings).

    lo and hi may be arrays of brackets.  g is then called on whole arrays,
    and each bracket stops at its own first hi - lo < tol, so element k is
    the midpoint a run on (lo[k], hi[k]) alone returns.  Scalars give a float.
    """
    lo, hi = np.asarray(lo, dtype=float), np.asarray(hi, dtype=float)
    glo = g(lo)
    live = np.ones(lo.shape, dtype=bool)
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        gmid = g(mid)
        left = glo * gmid <= 0
        hi = np.where(live & left, mid, hi)
        right = live & ~left
        lo, glo = np.where(right, mid, lo), np.where(right, gmid, glo)
        live &= ~(hi - lo < tol)
        if not live.any():
            break
    mid = 0.5 * (lo + hi)
    return float(mid) if mid.ndim == 0 else mid


def _logistic_val(x: float, mu: float = TU_BASE_MU) -> float:
    return mu * x * (1.0 - x)


def _period3_cycle_of_base():
    """The regular (positive-multiplier) period-3 cycle of the base logistic map.

    The base parameter sits in a 3-band window, so there are two repelling
    period-3 cycles: one with multiplier < -1 inherited from the flip, and the
    band-bounding one with multiplier > +1.  The trapping construction needs
    the latter; we find all period-3 points by scanning sign changes of
    l^3(x) - x and return the first orbit, in scan order, whose multiplier
    exceeds 1.
    """
    def g(x):
        return _logistic_val(_logistic_val(_logistic_val(x))) - x

    xs = np.linspace(0.0, 1.0, 20001)
    vals = g(xs)
    i = np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) < 0)
    for r in bisect_root(g, xs[i], xs[i + 1], 1e-14).tolist():
        if abs(_logistic_val(r) - r) <= 1e-6:
            continue    # a fixed point
        orbit = [r, _logistic_val(r), _logistic_val(_logistic_val(r))]
        lam = 1.0
        for x in orbit:
            lam *= TU_BASE_MU * (1.0 - 2.0 * x)
        if lam > 1.0:
            return orbit, lam
    raise RuntimeError("no regular period-3 cycle found for the base map")


@functools.cache
def tu_skeleton():
    """Cycle points and linear-insert interval endpoints for the u family,
    computed once.

    p1 is the cycle point whose surrounding interval [q1, p1] contains c;
    among the two period-3 cycles it belongs to the regular one.  q3 and q2
    solve l(q3) = q1 and l(q2) = q3 on the laps adjacent to p3 and p2.
    """
    orbit, lam = _period3_cycle_of_base()
    p1 = min(orbit, key=lambda x: abs(x - 0.5))
    p2 = _logistic_val(p1)
    p3 = _logistic_val(p2)
    q1 = 1.0 - p1

    def solve_on(target, lo, hi):
        # bisection for l(x) = target on a monotone piece of the base map
        g = lambda x: _logistic_val(x) - target
        assert g(lo) * g(hi) <= 0, "bisection bracket does not straddle the root"
        return bisect_root(g, lo, hi, 1e-15)

    q3 = solve_on(q1, 0.0, p3)          # left lap, below p3
    q2 = solve_on(q3, p2, 1.0)          # right lap, beyond p2
    vals = {"p1": p1, "p2": p2, "p3": p3, "q1": q1, "q2": q2, "q3": q3, "lam": lam}
    return {k: float(v) for k, v in vals.items()}


def make_tu(mu: float) -> PiecewiseMap:
    """The family u_mu = mu * F, with F tent-like in the middle and linear
    on the two outer cycle intervals.

    F agrees with the base logistic map outside J1 u J2 u J3, is the chord of
    the base map on J2 = [p2, q2] and J3 = [q3, p3], and is the symmetric tent
    on J1 = [q1, p1] with the same peak value.  At mu = 1 the period-3 cycle
    p1 -> p2 -> p3 survives with a positive multiplier.  The maximal mu keeps
    the peak at 1: a larger mu is refused, as its peak would exceed 1 and
    the map would leave [0, 1].
    """
    mu_max = 4.0 / TU_BASE_MU
    if not 0.0 <= mu <= mu_max:
        raise ValueError(f"tu parameter mu={mu} outside [0, {mu_max}], "
                         f"where the peak stays at most 1")
    k = tu_skeleton()
    p1, p2, p3 = k["p1"], k["p2"], k["p3"]
    q1, q2, q3 = k["q1"], k["q2"], k["q3"]
    c = 0.5
    peak = _logistic_val(c)
    lv = _logistic_val

    def chord(x0, x1):
        m = (lv(x1) - lv(x0)) / (x1 - x0)
        return ("affine", mu * m, mu * (lv(x0) - m * x0))

    def quad():
        return ("quad", mu * TU_BASE_MU)

    cuts = [0.0, q3, p3, q1, c, p1, p2, q2, 1.0]
    shapes = [
        (quad(), +1),                       # [0, q3] rising lap of the base map
        (chord(q3, p3), +1),                # J3 linear insert
        (quad(), +1),                       # [p3, q1]
        (chord(q1, c), +1),                 # tent, rising half of J1
        (chord(c, p1), -1),                 # tent, falling half
        (quad(), -1),                       # [p1, p2]
        (chord(p2, q2), -1),                # J2 linear insert
        (quad(), -1),                       # [q2, 1]
    ]
    # the tent halves must interpolate (q1, l(q1)) -> (c, peak) -> (p1, l(p1));
    # chord() already does that because l(q1) = l(p1) by conjugacy.
    branches = [
        Branch(Interval(cuts[i], cuts[i + 1]), sh, d)
        for i, (sh, d) in enumerate(shapes)
    ]
    m = PiecewiseMap(branches, Interval(0.0, 1.0), c, f"tu:{mu!r}|p1={p1:.12f}")
    return m


# ---------------------------------------------------------------------------
# interval set helpers
# ---------------------------------------------------------------------------

def merge_intervals(intervals, tol: float = 0.0):
    """Union of closed intervals as a sorted list of disjoint Intervals.

    Intervals closer than tol are fused.
    """
    ivs = sorted(intervals, key=lambda iv: iv.lo)
    out = []
    for iv in ivs:
        if out and iv.lo <= out[-1].hi + tol:
            if iv.hi > out[-1].hi:
                out[-1] = Interval(out[-1].lo, iv.hi)
        else:
            out.append(iv)
    return out


def subtract_intervals(base, holes):
    """Set difference (union of base) minus (union of open interiors of holes).

    Both arguments are lists of Interval; the result is closed intervals
    whose endpoints are endpoints of base or of holes.
    """
    cur = merge_intervals(base)
    for h in merge_intervals(holes):
        nxt = []
        for iv in cur:
            if h.hi <= iv.lo or h.lo >= iv.hi:
                nxt.append(iv)
                continue
            if h.lo > iv.lo:
                nxt.append(Interval(iv.lo, min(h.lo, iv.hi)))
            if h.hi < iv.hi:
                nxt.append(Interval(max(h.hi, iv.lo), iv.hi))
        cur = nxt
    return cur


def runs(values, gap):
    """(first, last) of each run of the sorted array values, as Python
    numbers.  A run ends after each step larger than gap; a step of exactly
    gap stays inside it.  [] when values is empty.  The steps are taken
    _BLOCK at a time, so no difference outgrows a block.
    """
    if len(values) == 0:
        return []
    cuts = np.concatenate([np.zeros(0, np.intp)] +
                          [np.flatnonzero(np.diff(values[a:a + _BLOCK + 1]) > gap) + a
                           for a in range(0, len(values) - 1, _BLOCK)])
    firsts = values[np.r_[0, cuts + 1]].tolist()
    lasts = values[np.r_[cuts, len(values) - 1]].tolist()
    return list(zip(firsts, lasts))


def _dist_point_to_union(x, ivs, los):
    """Distance from x to the sorted disjoint ivs, whose lower ends are los:
    0.0 exactly when an interval covers x."""
    # the nearest endpoints belong to the last interval that starts at or
    # before x, or to the one after it; rounding is monotone, so no farther
    # endpoint gives a smaller float
    i = bisect.bisect_right(los, x) - 1
    if i >= 0 and x <= ivs[i].hi:
        return 0.0
    return min(abs(x - e) for iv in ivs[max(i, 0):i + 2] for e in (iv.lo, iv.hi))


def _directed_hausdorff(a_ivs, b_ivs):
    a_los = [iv.lo for iv in a_ivs]
    b_los = [iv.lo for iv in b_ivs]
    cands = [e for iv in a_ivs for e in (iv.lo, iv.hi)]
    # farthest interior points sit at midpoints of gaps of b covered by a
    for g0, g1 in zip(b_ivs[:-1], b_ivs[1:]):
        mid = 0.5 * (g0.hi + g1.lo)
        if _dist_point_to_union(mid, a_ivs, a_los) == 0.0:
            cands.append(mid)
    return max(_dist_point_to_union(x, b_ivs, b_los) for x in cands)


def hausdorff(a, b) -> float:
    """Hausdorff distance between two nonempty unions of closed intervals.

    Points may be passed as degenerate intervals.  Exact: the supremum is
    attained at an endpoint or at a gap midpoint, both finite candidate sets.
    """
    a = merge_intervals(a)
    b = merge_intervals(b)
    if not a or not b:
        raise ValueError("hausdorff distance of an empty set is undefined")
    return max(_directed_hausdorff(a, b), _directed_hausdorff(b, a))
