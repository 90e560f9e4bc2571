"""Analytic structure of tent-like maps.

Everything that can be computed in closed form or by finite root-finding
lives here: the node tower (boundary fixed point, period-doubling cascade,
interval-cycle attractor), renormalization charts, maximal cyclic trapping
regions, per-region cores, the nested level partition of the domain, the
s-alpha set each level predicts, finite covers of Cantor repellors, and the
A2/A5 attractor dichotomy.

The closed forms of a tent map build one tower per call, every level read
off one critical orbit, and build cascade cycles only down to the level
they are asked for.

This module only predicts.  `chainoracle` recomputes the tower by brute
force and `backward` estimates s-alpha sets, strictly independently of it;
`cli` compares each measurement with its prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Optional

import numpy as np

from .maps import (Interval, MapStack, PiecewiseMap, make_tent, make_tu, merge_intervals,
                   subtract_intervals, tu_skeleton)
from .orbits import Cycle, critical_orbit, cycle_at, find_cycles, make_cycle, make_cycles

__all__ = [
    "Node",
    "TrappingRegion",
    "CoreCollection",
    "LevelPartition",
    "PredictedSAlpha",
    "CantorCover",
    "Renormalization",
    "node_depth",
    "renormalize",
    "analytic_nodes",
    "trapping_region",
    "core_of_node",
    "level_partition",
    "classify_point",
    "predicted_salpha",
    "cantor_cover",
    "classify_attractor",
    "is_cyclic",
    "tent_parameter",
    "tu_cycle",
    "tu_cycles",
    "tu_nodes",
]

_TOL = 1e-9

# u_mu maps whose period-3 scan runs as one array pass: 32 maps scan 38,400
# points at once in about 1.6 MB of scratch, where a render's 300 columns
# at once would take about 15 MB.  Only the scan is chunked: the brackets
# of every pass are bisected together, in one solve over all the maps
_TU_CHUNK = 32


@dataclass(frozen=True)
class Node:
    """One chain class of the tower.

    kind is one of boundary_fixed, repelling_cycle, interval_cycle_attractor.
    Cycle-like nodes carry `cycle`; the attractor carries position-sorted
    `intervals`.
    """

    index: int
    kind: str
    cycle: Optional[Cycle] = None
    intervals: Optional[tuple] = None

    def support(self):
        """The node's support as a list of (possibly degenerate) Intervals."""
        if self.intervals is not None:
            return list(self.intervals)
        return [Interval(p, p) for p in self.cycle.points]

    def to_dict(self):
        d = {"index": self.index, "kind": self.kind}
        if self.cycle is not None:
            d["points"] = list(self.cycle.points)
            d["period"] = self.cycle.period
            d["multiplier"] = self.cycle.multiplier
        if self.intervals is not None:
            d["intervals"] = [[iv.lo, iv.hi] for iv in self.intervals]
        return d


@dataclass(frozen=True)
class TrappingRegion:
    """Cycle of intervals J_1, ..., J_r with f(J_i) inside J_{i+1} (mod r).

    J_1 contains the critical point.  `gamma` is the periodic orbit pinning
    the region; `cyclic` records the conjugate-endpoints test on J_1.
    """

    intervals: tuple
    period: int
    cyclic: bool
    gamma: Optional[Cycle] = None

    @property
    def j1(self) -> Interval:
        return self.intervals[0]


@dataclass(frozen=True)
class CoreCollection:
    intervals: tuple            # one core per region interval, J-order
    strictly_interior: bool     # False exactly for the last node of the tower


@dataclass(frozen=True)
class LevelPartition:
    """The sets U_{-1}, U_0, ..., U_p keyed by level.

    Stored intervals are closed hulls, so neighbouring levels share their
    endpoints.  They cover [0, 1] in float64 too, so every x has a level:
    merge_intervals and subtract_intervals copy endpoints and never compute
    one, and A - int B together with B contains A for closed A and B.
    Working down from the attractor, levels k..p cover the core union of
    level k-1, so levels 1..p cover [c_2, c_1]; U_0 = [0, c_2] and
    U_{-1} = [c_1, 1] hold the rest.
    """

    s: float
    depth: int
    levels: dict


@dataclass(frozen=True)
class PredictedSAlpha:
    x: float
    level: int
    intervals: tuple
    note: str = ""


@dataclass(frozen=True)
class CantorCover:
    depth: int
    intervals: tuple

    @property
    def total_length(self) -> float:
        return sum(iv.length for iv in self.intervals)


@dataclass(frozen=True)
class Renormalization:
    """Affine chart conjugating f^2 on [c_2, pi] to the model tent map.

    chart(x) = scale * (center - x) is orientation-reversing, sends the
    interior fixed point to 0 and the critical point to 1/2.
    """

    model: PiecewiseMap
    window: Interval
    center: float
    scale: float
    residual: float

    def chart(self, x):
        return self.scale * (self.center - x)

    def chart_inv(self, y):
        return self.center - y / self.scale


# ---------------------------------------------------------------------------
# tower depth and renormalization
# ---------------------------------------------------------------------------

def node_depth(s: float) -> int:
    """Tower depth p: 0 for s = 2, else the unique p >= 1 with
    2^-p <= log2(s) < 2^(1-p).

    Values within ~1e-9 (relative) of a doubling boundary snap to the closed
    side, so s = 2^(1/8) lands at p = 3 despite float rounding.
    """
    if not 1.0 < s <= 2.0:
        raise ValueError(f"node_depth needs s in (1, 2], got {s}")
    if s == 2.0:
        return 0
    t = -math.log2(math.log2(s))
    p = math.ceil(t - 1e-9)
    return max(p, 1)


def tent_parameter(m: PiecewiseMap) -> float:
    """Recover s from a tent map; rejects other families."""
    if not m.label.startswith("tent:"):
        raise ValueError(f"expected a tent map, got {m.label}")
    return m.slope_at(m.domain.lo)


def renormalize(m: PiecewiseMap) -> Renormalization:
    """First-return structure of a renormalizable tent map.

    For s <= sqrt(2) the square f^2 restricted to [c_2, pi] is affinely
    conjugate to the tent map with parameter s^2.  The chart is the unique
    affine map sending pi to 0 and c to 1/2; the commutation residual is
    verified on a 1000-point probe and must stay below 1e-9.
    """
    s = tent_parameter(m)
    if s <= 1.0:
        raise ValueError("trivial dynamics: s <= 1 is not renormalizable here")
    if s > math.sqrt(2.0) + 1e-12:
        raise ValueError(f"not renormalizable: s={s} > sqrt(2)")
    pi = s / (s + 1.0)
    c2 = m.iterate(m.critical, 2)
    scale = 1.0 / (2.0 * (pi - m.critical))
    model = make_tent(min(s * s, 2.0))
    xs = np.linspace(c2, pi, 1000)
    lhs = scale * (pi - m(m(xs)))
    rhs = model(scale * (pi - xs))
    residual = float(np.max(np.abs(lhs - rhs)))
    if residual > _TOL:
        raise ValueError(f"renormalization commutation residual {residual:.3g} exceeds {_TOL}")
    return Renormalization(model, Interval(c2, pi), pi, scale, residual)


# ---------------------------------------------------------------------------
# the node tower and its level partition
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class _Tower:
    """The tower of T_s: its depth p, one point of each cascade cycle N_1 ..
    N_{p-1}, and, built on first read, the critical orbit c_1 .. c_max(2, 2^p)
    and the levels of `LevelPartition`, whose level p holds the attractor
    N_p's intervals.  The orbit doubles with each depth, so a call that
    refuses at a cascade cycle refuses before it is built."""

    s: float
    m: PiecewiseMap
    depth: int
    cascade: list

    @cached_property
    def orbit(self) -> list:
        return critical_orbit(self.m, max(2, 2 ** self.depth))

    @cached_property
    def levels(self) -> dict:
        p = self.depth
        prev = _cores(self.orbit, 1)
        c2, c1 = prev[0]
        levels = {-1: [Interval(c1, 1.0)] if c1 < 1.0 else [],
                  0: [Interval(0.0, c2)] if c2 > 0.0 else []}
        for k in range(1, p):
            cur = sorted(_cores(self.orbit, 2 ** k), key=lambda iv: iv.lo)
            levels[k] = subtract_intervals(prev, cur)
            prev = cur
        levels[p] = prev if p else [Interval(0.0, 1.0)]
        return levels


def _tower(s: float) -> _Tower:
    """The tower of T_s, every level's cores read off one critical orbit."""
    p = node_depth(s)
    # N_k's point: the interior fixed point of the (k-1)-fold renormalized
    # model T_{s^(2^(k-1))}, pulled back through the inverse charts
    # y -> pi - 2 y (pi - 1/2) of T_s, T_{s^2}, ...
    params, cascade = [s], []
    for k in range(1, p):
        y = params[-1] / (params[-1] + 1.0)
        for a in reversed(params[:-1]):
            y = a / (a + 1.0) - y / ((a + 1.0) / (a - 1.0))
        cascade.append(y)
        params.append(params[-1] ** 2)
    return _Tower(s, make_tent(s), p, cascade)


def _cores(orbit, r: int):
    """The r cores read off a critical orbit [c_1, c_2, ...] of at least 2r
    points, J-order: [c_2r, c_r] first, then [c_{r+j-1}, c_{j-1}]."""
    c = [orbit[2 * r - 1]] + orbit[: 2 * r]     # c[k] = c_k, c_0 read as c_2r
    return [Interval(min(c[r + j], c[j]), max(c[r + j], c[j])) for j in range(r)]


def _nodes(tower: _Tower, level: int):
    """N_0 .. N_level, building only the cascade cycles asked for."""
    s, m, p = tower.s, tower.m, tower.depth
    nodes = [Node(0, "boundary_fixed", cycle=Cycle((0.0,), 1, s))] if p else []
    for k in range(1, min(level, p - 1) + 1):
        try:
            cyc = make_cycle(m, tower.cascade[k - 1], 2 ** (k - 1))
        except ValueError as err:
            # the cycle lands within 1e-12 of c, where no slope can be read off
            raise ValueError(
                f"s={s!r} has tower depth {p}: its period-{2 ** (k - 1)} cascade cycle "
                f"N_{k} lies below float64 resolution at c={m.critical}") from err
        nodes.append(Node(k, "repelling_cycle", cycle=cyc))
    if level == p:
        nodes.append(Node(p, "interval_cycle_attractor", intervals=tuple(tower.levels[p])))
    return nodes


def analytic_nodes(s: float):
    """The full tower N_0, ..., N_p of the tent map T_s, in closed form.

    N_0 is the repelling boundary fixed point, N_1 .. N_{p-1} the cascade of
    repelling 2^(k-1)-cycles, and N_p the attracting cycle of 2^(p-1) core
    intervals read off the critical orbit.

    From depth 8 on a cascade cycle can sit closer to c than float64
    resolves; such slopes raise a ValueError naming the depth and the node.
    """
    tower = _tower(s)
    return _nodes(tower, tower.depth)


def level_partition(s: float) -> LevelPartition:
    """U_{-1} = [c_1, 1], U_0 = [0, c_2], and for 1 <= k < p the core union
    of level k-1 minus the open interiors of the 2^k cores of level k; U_p
    is the attractor's union of cores.  The level-0 core is [c_2, c_1].
    """
    tower = _tower(s)
    return LevelPartition(s, tower.depth, tower.levels)


def _level(s: float, x: float):
    """The tower of T_s, and the deepest of its levels holding x."""
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    tower = _tower(s)
    return tower, max(k for k, ivs in tower.levels.items() if any(iv.contains(x) for iv in ivs))


def classify_point(s: float, x: float) -> int:
    """Level of x: the deepest level of `level_partition(s)` whose stored
    closed hulls hold x.

    Taking the deepest keeps the cores closed, and makes U_0 right-open and
    U_{-1} left-open: c_2 and c_1 lie in the level-0 core, so in level 1 or
    deeper.
    """
    return _level(s, x)[1]


def predicted_salpha(s: float, x: float) -> PredictedSAlpha:
    """Closed-form s-alpha set of x under the tent map T_s: the union of
    the supports of all nodes at or above the level of x.

    Points above c_1 have no preimages at all, hence an empty set.  Only
    N_0 .. N_level are built, so a point is refused only when one of those
    lies below float64 resolution.
    """
    tower, level = _level(s, x)
    if level == -1:
        return PredictedSAlpha(x, -1, (),
                               "x exceeds the image of the map: no backward orbits exist")
    ivs = sorted((iv for nd in _nodes(tower, level) for iv in nd.support()), key=lambda iv: iv.lo)
    return PredictedSAlpha(x, level, tuple(ivs))


# ---------------------------------------------------------------------------
# trapping regions and cores
# ---------------------------------------------------------------------------

def trapping_region(m: PiecewiseMap, node: Node) -> TrappingRegion:
    """The maximal trapping region pinned to a repelling node.

    J_1 = [p_1, conj(p_1)] around c, where p_1 is the cycle point nearest the
    critical point.  The remaining intervals are built backward: J_i is the
    preimage component of J_{i+1} containing the i-th orbit point, which
    makes the region maximal and reproduces the conjugate-endpoint systems.
    The region period doubles the cycle period when the multiplier is
    negative (flip case).
    """
    if node.kind == "interval_cycle_attractor":
        raise ValueError("the attractor node has no trapping region of its own")
    cyc = node.cycle
    r = cyc.period if cyc.multiplier > 0 else 2 * cyc.period
    p1 = min(cyc.points, key=lambda q: abs(q - m.critical))
    if p1 == m.domain.lo:
        j1 = Interval(m.domain.lo, m.domain.hi)
    else:
        p1h = m.conjugate(p1)
        j1 = Interval(min(p1, p1h), max(p1, p1h))
    gamma_seq = [p1]
    for _ in range(r - 1):
        gamma_seq.append(m(gamma_seq[-1]))
    ivs = [j1] * r
    for i in range(r - 1, 0, -1):
        nxt = ivs[(i + 1) % r]
        hits = [iv for iv in m.interval_preimage(nxt.lo, nxt.hi)
                if iv.contains(gamma_seq[i], tol=_TOL)]
        if not hits:
            raise ValueError(f"no preimage component contains {gamma_seq[i]}")
        ivs[i] = hits[0]
    for i in range(r):
        lo, hi = m.interval_image(ivs[i].lo, ivs[i].hi)
        tgt = ivs[(i + 1) % r]
        if lo < tgt.lo - _TOL or hi > tgt.hi + _TOL:
            raise ValueError(f"region does not close: f(J_{i+1}) escapes J_{(i + 1) % r + 1}")
    region = TrappingRegion(tuple(ivs), r, False, cyc)
    return TrappingRegion(tuple(ivs), r, is_cyclic(m, region), cyc)


def is_cyclic(m: PiecewiseMap, tr: TrappingRegion) -> bool:
    """Conjugate-endpoint test on J_1: equal images and one endpoint periodic."""
    lo, hi = tr.j1.lo, tr.j1.hi
    if abs(m(lo) - m(hi)) > _TOL:
        return False
    for e in (lo, hi):
        x = e
        for _ in range(2 * tr.period):
            x = m(x)
            if abs(x - e) <= _TOL:
                return True
    return False


def core_of_node(m: PiecewiseMap, node: Node, region: Optional[TrappingRegion] = None) -> CoreCollection:
    """Cores of a node's region, one per J_i, read off the critical orbit.

    With r the region period, the c-containing core is [c_2r, c_r] and the
    m-th is [c_{r+m-1}, c_{m-1}].  The single node of a depth-0 tower is its
    own core (flagged not strictly interior); the attractor of a deeper
    tower has no core of its own and raises.
    """
    if node.kind == "interval_cycle_attractor":
        if node.index == 0:
            return CoreCollection(tuple(_cores(critical_orbit(m, 2), 1)), False)
        raise ValueError("core_of_node: the attractor is itself a union of cores")
    if region is None:
        region = trapping_region(m, node)
    r = region.period
    cores = _cores(critical_orbit(m, 2 * r), r)
    for iv, j in zip(cores, region.intervals):
        if iv.lo < j.lo - _TOL or iv.hi > j.hi + _TOL:
            raise ValueError("core escapes its region interval")
    return CoreCollection(tuple(cores), True)


# ---------------------------------------------------------------------------
# Cantor covers and the A2/A5 dichotomy
# ---------------------------------------------------------------------------

def cantor_cover(m: PiecewiseMap, tr: TrappingRegion, depth: int) -> CantorCover:
    """Finite cover of the Cantor repellor left between a regular cyclic
    region and the core: [c_2, c_1] minus all preimages of int(J_1) up to
    the given depth.

    Flip regions (doubled period) and regions filling the whole domain have
    no Cantor repellor and are rejected; in particular every tent-map region
    is rejected.
    """
    if depth < 1:
        raise ValueError("cantor_cover needs depth >= 1")
    if not tr.cyclic:
        raise ValueError("region is not cyclic: no Cantor repellor")
    if tr.gamma is not None and tr.gamma.multiplier < 0:
        raise ValueError("flip region (doubled period): no Cantor repellor")
    if tr.gamma is not None and tr.period != tr.gamma.period:
        raise ValueError("region period disagrees with its cycle: no Cantor repellor")
    if tr.j1.lo <= m.domain.lo + _TOL and tr.j1.hi >= m.domain.hi - _TOL:
        raise ValueError("J_1 is the whole domain: nothing is left over")
    base = _cores(critical_orbit(m, 2), 1)
    layer = [tr.j1]
    holes = list(layer)
    for _ in range(depth):
        layer = merge_intervals([q for iv in layer for q in m.interval_preimage(iv.lo, iv.hi)])
        holes.extend(layer)
    return CantorCover(depth, tuple(subtract_intervals(base, holes)))


def _attractor_region(m: PiecewiseMap, nodes) -> TrappingRegion:
    if nodes[-1].kind != "interval_cycle_attractor":
        raise ValueError("last node is not the attractor")
    if len(nodes) == 1:
        ivs, gamma = (Interval(m.domain.lo, m.domain.hi),), None
    else:
        ivs, gamma = core_of_node(m, nodes[-2]).intervals, nodes[-2].cycle
    region = TrappingRegion(ivs, len(ivs), False, gamma)
    return TrappingRegion(ivs, len(ivs), is_cyclic(m, region), gamma)


def classify_attractor(m: PiecewiseMap, nodes) -> str:
    """A5 when the attractor is a cyclic trapping region whose boundary
    cycle sits on a repelling Cantor node; A2 otherwise.

    Tent maps always come out A2: either the attractor region is not cyclic,
    or (s = 2) it is cyclic but there is no repelling node left to carry a
    Cantor set.
    """
    region = _attractor_region(m, nodes)
    if not region.cyclic:
        return "A2"
    for cand in reversed(nodes[:-1]):
        try:
            ctr = trapping_region(m, cand)
            cantor_cover(m, ctr, 1)
        except ValueError:
            continue
        # the attractor's periodic boundary point must lie on the candidate cycle
        for e in (region.j1.lo, region.j1.hi):
            if any(abs(e - q) < 1e-6 for q in cand.cycle.points):
                return "A5"
    return "A2"


# ---------------------------------------------------------------------------
# the u_mu tower
# ---------------------------------------------------------------------------

def tu_cycles(mus):
    """`tu_cycle` of ``make_tu(mu)`` for each mu, None where it finds no
    cycle, from a scan of 32 parameters a pass and one solve of all the
    brackets the scan finds.

    u_mu is u_1 scaled by mu, so one stack of ``make_tu(1.0)`` holds them
    all and one grid scans them all: 600 points on each lap that touches
    the skeleton point p1, for sign changes of f^3 - id.  `find_cycles`
    solves every bracket at once, and each map keeps the regular period-3
    orbit (three distinct points, positive multiplier) nearest the skeleton
    orbit, the first found on a tie.  A mu outside the tu range is refused.
    """
    mus = np.asarray(mus, dtype=float)
    # make_tu refuses the least and greatest mu by name, a NaN being both;
    # the initial 1.0 lets an empty mus through
    for mu in (np.min(mus, initial=1.0), np.max(mus, initial=1.0)):
        make_tu(float(mu))
    return _tu_solve(MapStack(make_tu(1.0), mus))


def _tu_solve(stack: MapStack):
    """Each row's cycle, or None: sign changes of f^3 - id scanned a chunk
    of rows at a time, then one solve of every bracket they give."""
    sk = tu_skeleton()
    x0 = sk["p1"]
    ref = np.array([sk["p1"], sk["p2"], sk["p3"]])
    # Both period-3 orbits of the base map continue into the window and the
    # unstable one moves fast with the parameter, so scan the laps touching
    # the skeleton point for every root of f^3 - id and keep the orbit with
    # a positive multiplier (the one that pins trapping regions).
    laps = [b.domain for b in stack.base.branches if b.domain.contains(x0)]
    xs = np.array([np.linspace(lap.lo + 1e-12, lap.hi - 1e-12, 600) for lap in laps])
    change = np.empty((len(stack), len(laps), xs.shape[1] - 1), bool)
    for a in range(0, len(stack), _TU_CHUNK):
        chunk = stack.take(slice(a, a + _TU_CHUNK))
        sgn = np.sign(chunk.iterate(np.broadcast_to(xs, (len(chunk),) + xs.shape), 3) - xs)
        change[a:a + _TU_CHUNK] = sgn[..., :-1] * sgn[..., 1:] < 0
    # bisect_root stops each bracket on its own, so one solve of every
    # chunk's brackets gives each the root a solve of its chunk alone would
    row, lap, i = np.nonzero(change)
    pts, lam, faults = find_cycles(stack.take(row), 3, xs[lap, i], xs[lap, i + 1])
    gap = np.min([np.abs(pts[:, a] - pts[:, b]) for a, b in ((0, 1), (0, 2), (1, 2))], axis=0)
    dist = np.abs(pts[:, :, None] - ref).min(axis=2)
    score = dist[:, 0] + dist[:, 1] + dist[:, 2]     # in orbit order, as a sum() would
    best = [None] * len(stack)
    for k in np.flatnonzero((faults == 0) & (gap > 1e-9) & (lam > 0)).tolist():
        r = int(row[k])
        if best[r] is None or score[k] < score[best[r]]:
            best[r] = k
    found = [None if k is None else cycle_at(pts, lam, k) for k in best]
    # the skeleton point itself is periodic (mu = 1); it sits exactly on a
    # branch cut, so bracketing inside one lap can never straddle it
    pinned = np.flatnonzero(np.abs(stack.iterate(np.full(len(stack), x0), 3) - x0) <= 1e-12)
    pts, lam, faults = make_cycles(stack.take(pinned), np.full(len(pinned), x0), 3)
    for k, r in enumerate(pinned.tolist()):
        found[r] = None if faults[k] else cycle_at(pts, lam, k)
    return found


def tu_cycle(m: PiecewiseMap) -> Cycle:
    """The continuation of the period-3 cycle for a u_mu map: the batch of
    one of `tu_cycles`, refused when no regular period-3 orbit is found."""
    cyc, = _tu_solve(MapStack(m, [1.0]))
    if cyc is None:
        raise ValueError("no regular period-3 cycle found near the skeleton orbit")
    return cyc


def tu_nodes(m: PiecewiseMap):
    """Tower of a u_mu map inside the period-3 window: boundary fixed point,
    the regular period-3 cycle, and its 3-interval attractor.

    Past the interior crisis the three bands merge: the cycle's region no
    longer closes, the cycle is swallowed by one big class, and the tower
    flattens to the fixed point plus a single-interval attractor.
    """
    n0 = Node(0, "boundary_fixed", cycle=Cycle((0.0,), 1, m.slope_at(0.0)))
    cyc = tu_cycle(m)
    n1 = Node(1, "repelling_cycle", cycle=cyc)
    try:
        region = trapping_region(m, n1)
    except ValueError:
        hull = tuple(_cores(critical_orbit(m, 2), 1))
        return [n0, Node(1, "interval_cycle_attractor", intervals=hull)]
    cores = core_of_node(m, n1, region)
    ivs = tuple(sorted(cores.intervals, key=lambda iv: iv.lo))
    return [n0, n1, Node(2, "interval_cycle_attractor", intervals=ivs)]
