"""Analytic structure of tent-like maps.

Everything that can be computed in closed form or by finite root-finding
lives here: the node tower (boundary fixed point, period-doubling cascade,
interval-cycle attractor), renormalization charts, maximal cyclic trapping
regions, per-region cores, the nested level partition of the domain, the
s-alpha set each level predicts, finite covers of Cantor repellors, and the
A2/A5 attractor dichotomy.

This module only predicts.  `chainoracle` recomputes the tower by brute
force and `backward` estimates s-alpha sets, strictly independently of it;
`cli` compares each measurement with its prediction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .maps import (Interval, MapStack, PiecewiseMap, make_tent, merge_intervals,
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
# at once would take about 15 MB
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
    endpoints.  classify_point reads the level of a point off this partition
    as the deepest level holding it, which keeps the cores closed, U_0
    right-open and U_{-1} left-open.
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
# the node tower
# ---------------------------------------------------------------------------

def _cascade_point(s: float, k: int) -> float:
    # One point of the period-2^(k-1) cycle: the interior fixed point of the
    # (k-1)-fold renormalized model, pulled back through the charts.
    params = [s]
    for _ in range(k - 1):
        params.append(params[-1] ** 2)
    y = params[k - 1] / (params[k - 1] + 1.0)    # fixed point of the deepest model
    for j in range(k - 1, 0, -1):
        mprev = params[j - 1]
        pi_prev = mprev / (mprev + 1.0)
        scale = (mprev + 1.0) / (mprev - 1.0)    # 1 / (2 (pi_prev - 1/2))
        y = pi_prev - y / scale
    return y


def _attractor_intervals(m: PiecewiseMap, r: int):
    """The r core intervals read off the critical orbit, J-order: [c_2r, c_r]
    first, then [c_{r+j-1}, c_{j-1}].  The one builder of cores: r = 1 gives
    the core [c_2, c_1], r = 2^(p-1) the attractor's cycle of intervals."""
    orb = critical_orbit(m, 2 * r)
    c = lambda k: orb[k - 1]
    ivs = [Interval(min(c(2 * r), c(r)), max(c(2 * r), c(r)))]
    for j in range(2, r + 1):
        ivs.append(Interval(min(c(r + j - 1), c(j - 1)), max(c(r + j - 1), c(j - 1))))
    return ivs


def analytic_nodes(s: float):
    """The full tower N_0, ..., N_p of the tent map T_s, in closed form.

    N_0 is the repelling boundary fixed point, N_1 .. N_{p-1} the cascade of
    repelling 2^(k-1)-cycles, and N_p the attracting cycle of 2^(p-1) core
    intervals read off the critical orbit.

    From depth 8 on a cascade cycle can sit closer to c than float64
    resolves; such slopes raise a ValueError naming the depth.
    """
    p = node_depth(s)
    m = make_tent(s)
    if p == 0:
        return [Node(0, "interval_cycle_attractor", intervals=(Interval(0.0, 1.0),))]
    nodes = [Node(0, "boundary_fixed", cycle=Cycle((0.0,), 1, s))]
    for k in range(1, p):
        x = _cascade_point(s, k)
        try:
            cyc = make_cycle(m, x, 2 ** (k - 1))
        except ValueError as err:
            # the cycle lands within 1e-12 of c, where no slope can be read off
            raise ValueError(
                f"s={s!r} has tower depth {p}: its period-{2 ** (k - 1)} cascade cycle "
                f"N_{k} lies below float64 resolution at c={m.critical}") from err
        nodes.append(Node(k, "repelling_cycle", cycle=cyc))
    ivs = _attractor_intervals(m, 2 ** (p - 1))
    ivs = tuple(sorted(ivs, key=lambda iv: iv.lo))
    nodes.append(Node(p, "interval_cycle_attractor", intervals=ivs))
    return nodes


# ---------------------------------------------------------------------------
# trapping regions and cores
# ---------------------------------------------------------------------------

def _component_containing(pieces, x: float) -> Interval:
    for iv in pieces:
        if iv.contains(x, tol=_TOL):
            return iv
    raise ValueError(f"no preimage component contains {x}")


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
    ivs = [None] * r
    ivs[0] = j1
    nxt = j1
    for i in range(r - 1, 0, -1):
        pieces = m.interval_preimage(nxt.lo, nxt.hi)
        ivs[i] = _component_containing(pieces, gamma_seq[i])
        nxt = ivs[i]
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
            return CoreCollection(tuple(_attractor_intervals(m, 1)), False)
        raise ValueError("core_of_node: the attractor is itself a union of cores")
    if region is None:
        region = trapping_region(m, node)
    r = region.period
    cores = _attractor_intervals(m, r)
    for iv, j in zip(cores, region.intervals):
        if iv.lo < j.lo - _TOL or iv.hi > j.hi + _TOL:
            raise ValueError("core escapes its region interval")
    return CoreCollection(tuple(cores), True)


# ---------------------------------------------------------------------------
# level partition
# ---------------------------------------------------------------------------

def level_partition(s: float) -> LevelPartition:
    """U_{-1} = [c_1, 1], U_0 = [0, c_2], and for 1 <= k < p the core union
    of level k-1 minus the open interiors of the 2^k cores of level k; U_p
    is the attractor's union of cores.  The level-0 core is [c_2, c_1].
    """
    p = node_depth(s)
    m = make_tent(s)
    prev = _attractor_intervals(m, 1)
    c2, c1 = prev[0]
    levels = {-1: [Interval(c1, 1.0)] if c1 < 1.0 else [],
              0: [Interval(0.0, c2)] if c2 > 0.0 else []}
    if p == 0:
        levels[0] = [Interval(0.0, 1.0)]
        return LevelPartition(s, p, levels)
    for k in range(1, p):
        cur = sorted(_attractor_intervals(m, 2 ** k), key=lambda iv: iv.lo)
        levels[k] = subtract_intervals(prev, cur)
        prev = cur
    levels[p] = prev
    return LevelPartition(s, p, levels)


def classify_point(s: float, x: float) -> int:
    """Level of x: the deepest level of `level_partition(s)` whose stored
    closed hulls hold x.

    Taking the deepest keeps the cores closed, and makes U_0 right-open and
    U_{-1} left-open: c_2 and c_1 lie in the level-0 core, so in level 1 or
    deeper.  The partition drops slivers under 1e-15 (a few slopes within
    about 1e-8 of a doubling boundary have them); a point in one is refused.
    """
    if not 0.0 <= x <= 1.0:
        raise ValueError(f"x={x} outside [0, 1]")
    hits = [k for k, ivs in level_partition(s).levels.items()
            if any(iv.contains(x) for iv in ivs)]
    if not hits:
        raise ValueError(f"x={x!r} lies in a sliver under 1e-15 that the level "
                         f"partition at s={s!r} drops")
    return max(hits)


def predicted_salpha(s: float, x: float) -> PredictedSAlpha:
    """Closed-form s-alpha set of x under the tent map T_s: the union of
    the supports of all nodes at or above the level of x.

    Points above c_1 have no preimages at all, hence an empty set.
    """
    level = classify_point(s, x)
    if level == -1:
        return PredictedSAlpha(x, -1, (),
                               "x exceeds the image of the map: no backward orbits exist")
    nodes = analytic_nodes(s)
    ivs = []
    for nd in nodes[: level + 1]:
        ivs.extend(nd.support())
    ivs.sort(key=lambda iv: iv.lo)
    return PredictedSAlpha(x, level, tuple(ivs))


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
    base = _attractor_intervals(m, 1)
    layer = [tr.j1]
    holes = list(layer)
    for _ in range(depth):
        nxt = []
        for iv in layer:
            nxt.extend(m.interval_preimage(iv.lo, iv.hi))
        layer = merge_intervals(nxt)
        holes.extend(layer)
    out = subtract_intervals(base, holes)
    return CantorCover(depth, tuple(out))


def _attractor_region(m: PiecewiseMap, nodes) -> TrappingRegion:
    att = nodes[-1]
    if att.kind != "interval_cycle_attractor":
        raise ValueError("last node is not the attractor")
    if len(nodes) == 1:
        ivs = (Interval(m.domain.lo, m.domain.hi),)
        region = TrappingRegion(ivs, 1, False, None)
        return TrappingRegion(ivs, 1, is_cyclic(m, region), None)
    prev = nodes[-2]
    cores = core_of_node(m, prev)
    region = TrappingRegion(cores.intervals, len(cores.intervals), False, prev.cycle)
    return TrappingRegion(cores.intervals, region.period, is_cyclic(m, region), prev.cycle)


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

def tu_cycles(maps):
    """`tu_cycle` of each u_mu map, None where it finds no cycle, from one
    array pass per 32 maps.

    Every u_mu map has the same joints, so one grid scans them all: 600
    points on each lap that touches the skeleton point p1, for sign changes
    of f^3 - id.  `find_cycles` solves every bracket at once, and each map
    keeps the regular period-3 orbit (three distinct points, positive
    multiplier) nearest the skeleton orbit, the first found on a tie.
    """
    maps = list(maps)
    out = []
    for i in range(0, len(maps), _TU_CHUNK):
        out += _tu_chunk(MapStack(maps[i:i + _TU_CHUNK]))
    return out


def _tu_chunk(stack: MapStack):
    sk = tu_skeleton()
    x0 = sk["p1"]
    ref = np.array([sk["p1"], sk["p2"], sk["p3"]])
    # Both period-3 orbits of the base map continue into the window and the
    # unstable one moves fast with the parameter, so scan the laps touching
    # the skeleton point for every root of f^3 - id and keep the orbit with
    # a positive multiplier (the one that pins trapping regions).
    laps = [b.domain for b in stack.maps[0].branches if b.domain.contains(x0)]
    xs = np.array([np.linspace(lap.lo + 1e-12, lap.hi - 1e-12, 600) for lap in laps])
    sgn = np.sign(stack.iterate(np.broadcast_to(xs, (len(stack),) + xs.shape), 3) - xs)
    row, lap, i = np.nonzero(sgn[..., :-1] * sgn[..., 1:] < 0)
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
    pts, lam, through_c = make_cycles(stack.take(pinned), np.full(len(pinned), x0), 3)
    for k, r in enumerate(pinned.tolist()):
        found[r] = None if through_c[k] else cycle_at(pts, lam, k)
    return found


def tu_cycle(m: PiecewiseMap) -> Cycle:
    """The continuation of the period-3 cycle for a u_mu map: the batch of
    one of `tu_cycles`, refused when no regular period-3 orbit is found."""
    cyc, = tu_cycles([m])
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
        hull = tuple(_attractor_intervals(m, 1))
        return [n0, Node(1, "interval_cycle_attractor", intervals=hull)]
    cores = core_of_node(m, n1, region)
    ivs = tuple(sorted(cores.intervals, key=lambda iv: iv.lo))
    return [n0, n1, Node(2, "interval_cycle_attractor", intervals=ivs)]
