"""Exhaustive search for blocking sets, round-up triples, geometric lines,
hyperbolic lines, distance-3 traces and ovoids.

Everything here runs on the opposition rows, adjacency and line bitsets,
and each kernel computes its candidate set as a bitset expression instead
of testing points one by one; the round-up-triple scan buckets its
candidates by a restricted opposite set.  Opposition is symmetric, so a
row read as "the points opposite p" is also "the points p is opposite".
In a hexagon notopp[x] is the ball of radius 2 about x, so the points
special to x are notopp[x] & ~adj[x].  One table per hexagon holds per
line the points close to it and the lines opposite it; the distance-3
traces are read off it once per hexagon.  The hyperbolic lines are
built one centre at a time, from the distinct traces on the centre's
perp of the points opposite it.  The classifier tags by membership: in
the one hyperbolic-line set and the one trace set of a hexagon, and in
the one hyperbolic-pencil set of the base point common to the lines of
a Grassmannian set.

The blocking-set enumerator uses witness-driven branching: every set it
must find fails to cover the least uncovered point, so candidates can be
restricted to the non-opposites of that witness.  Sibling exclusion sets
make the enumeration exact with each solution produced exactly once.  At
the last level the completing points are one intersection of
non-opposite rows, so a node one point short of k stands for all its
completions.

The ovoid search keeps its chosen points pairwise non-collinear, so a
line is met iff it holds a chosen point: no per-line flags are kept.
"""

from __future__ import annotations

import random
from contextlib import contextmanager
from contextvars import ContextVar
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .geometry import Geometry, GeometryError, bit_indices, bitset, one_or_all, residual
from .relations import geometry_family, grassmannian_base, opposition_sets


class BudgetExceeded(RuntimeError):
    pass


_BUDGET: ContextVar[Optional[int]] = ContextVar("budget", default=None)


@contextmanager
def budget(nodes: Optional[int]):
    """Each metered search started in the block may do nodes units (None: no limit)."""
    token = _BUDGET.set(nodes)
    try:
        yield
    finally:
        _BUDGET.reset(token)


class Meter:
    """One search's count of work against the budget in force where it is made."""

    def __init__(self, what: str, unit: str = "nodes"):
        self.what, self.unit, self.count, self.limit = what, unit, 0, _BUDGET.get()

    def tick(self, n: int = 1) -> None:
        self.count += n
        if self.limit is not None and self.count > self.limit:
            raise BudgetExceeded(f"{self.what} exceeded {self.limit} {self.unit}")


# -- common opposite / blocking sets -----------------------------------------


def common_opposite(g: Geometry, pts: Sequence[int]) -> Optional[int]:
    """Any point opposite every member of pts, or None if pts blocks."""
    bits = opposition_sets(g).common_opposite_bits(pts)
    if not bits:
        return None
    return (bits & -bits).bit_length() - 1


def enumerate_blocking_sets(g: Geometry, k: int,
                            minimal_only: bool = False) -> list[tuple[int, ...]]:
    """All k-subsets admitting no common opposite point.

    With minimal_only=True, only sets none of whose proper subsets block
    are kept (the k-th point must be the one emptying the intersection,
    and no (k-1)-subset may block).
    """
    o = opposition_sets(g)
    opp, notopp = o.opp, o.notopp
    results: list[tuple[int, ...]] = []
    tick = Meter("blocking-set search").tick

    def minimal(pts: tuple[int, ...]) -> bool:
        for drop in range(len(pts)):
            inter = g.full_mask
            for i, p in enumerate(pts):
                if i != drop:
                    inter &= opp[p]
            if inter == 0:
                return False
        return True

    def dfs(chosen: list[int], inter: int, excluded: int):
        tick()
        if inter == 0:
            if len(chosen) == k:
                got = tuple(sorted(chosen))
                if not minimal_only or minimal(got):
                    results.append(got)
            elif not minimal_only:
                rest = bit_indices(g.full_mask & ~bitset(chosen) & ~excluded)
                for extra in combinations(rest, k - len(chosen)):
                    results.append(tuple(sorted(chosen + list(extra))))
            return
        if len(chosen) == k:
            return
        w = (inter & -inter).bit_length() - 1
        if len(chosen) == k - 1:
            # p completes the set iff no point of inter is opposite p; the
            # chosen points are opposite all of inter, so none of them is left
            last = notopp[w] & ~excluded
            # walk inter bit by bit: the set usually empties after a few rows
            rest = inter
            while rest and last:
                low = rest & -rest
                last &= notopp[low.bit_length() - 1]
                rest ^= low
            for p in bit_indices(last):
                got = tuple(sorted(chosen + [p]))
                if not minimal_only or minimal(got):
                    results.append(got)
            return
        # w lies in inter, so it is opposite every chosen point and
        # notopp[w] holds none of them
        taken = 0
        for p in bit_indices(notopp[w] & ~excluded):
            dfs(chosen + [p], inter & opp[p], excluded | taken)
            taken |= 1 << p
    dfs([], g.full_mask, 0)
    return sorted(set(results))


#: random k-sets drawn by blocking_soundness_sample
SOUNDNESS_TRIALS = 1000


def blocking_soundness_sample(g: Geometry, k: int, found: Iterable[tuple[int, ...]],
                              seed: int = 0) -> bool:
    """Every sampled k-set the enumerator skipped has a common opposite."""
    o = opposition_sets(g)
    found_set = set(found)
    rng = random.Random(seed)
    for _ in range(SOUNDNESS_TRIALS):
        s = tuple(sorted(rng.sample(range(g.n), k)))
        if s in found_set:
            continue
        if o.common_opposite_bits(s) == 0:
            return False
    return True


# -- round-up triples ----------------------------------------------------------


def is_round_up_triple(g: Geometry, v1: int, v2: int, v3: int) -> bool:
    """No point is opposite exactly one of v1, v2, v3."""
    if len({v1, v2, v3}) != 3:
        raise GeometryError("round-up triples require three distinct points")
    return exactly_one_opposite(g, (v1, v2, v3)) == 0


def enumerate_round_up_triples(g: Geometry,
                               base_point: Optional[int] = None) -> list[tuple[int, int, int]]:
    """All round-up triples; with base_point set, only triples through it.

    (i, j, k) is round-up iff opp[j] and opp[k] agree on notopp[i] and
    opp[i] & notopp[j] & notopp[k] is empty, so the candidates j are
    bucketed by opp[j] & notopp[i] and only pairs inside a bucket are
    tested.  The budget counts one node per point bucketed and one per
    pair tested, and is checked before the pairs of each first point.
    """
    o = opposition_sets(g)
    opp, notopp = o.opp, o.notopp
    out = []
    meter = Meter("triple scan")
    for i in range(g.n) if base_point is None else (base_point,):
        cands = range(i + 1, g.n) if base_point is None else [j for j in range(g.n) if j != i]
        groups: dict[int, list[int]] = {}
        for j in cands:
            groups.setdefault(opp[j] & notopp[i], []).append(j)
        meter.tick(len(cands) + sum(len(grp) * (len(grp) - 1) // 2 for grp in groups.values()))
        for grp in groups.values():
            for a, j in enumerate(grp):
                missed = opp[i] & notopp[j]
                out += [tuple(sorted((i, j, k))) for k in grp[a + 1:] if not (missed & notopp[k])]
    return sorted(out)


# -- geometric lines -------------------------------------------------------------


def exactly_one_opposite(g: Geometry, pts: Sequence[int]) -> int:
    """Bitset of points opposite exactly one member of pts."""
    o = opposition_sets(g)
    ge1 = 0
    ge2 = 0
    for p in pts:
        b = o.opp[p]
        ge2 |= ge1 & b
        ge1 |= b
    return ge1 & ~ge2


def is_geometric_line(g: Geometry, pts: Sequence[int]) -> bool:
    """Every point is opposite none or all-but-one members of pts.

    Equivalently, a point opposite some member is non-opposite exactly
    one member: it lies in some non-opposite row of pts (miss1) and in no
    two of them (miss2), counted as exactly_one_opposite counts.
    """
    o = opposition_sets(g)
    some = miss1 = miss2 = 0
    for p in pts:
        some |= o.opp[p]
        miss2 |= miss1 & o.notopp[p]
        miss1 |= o.notopp[p]
    return not (some & (miss2 | ~miss1))


def geometric_line_closure(g: Geometry, triple: Sequence[int]) -> Optional[tuple[int, ...]]:
    """Grow a round-up triple to a geometric line, or None.

    A point v can join S (which has no point opposite exactly one member)
    iff v's opposite set is covered by the union of the members' opposite
    sets; closure iterates this to a fixed point and then validates the
    full geometric-line condition.  By symmetry of opposition the points
    that can join are those opposite no point outside the union.
    """
    if not is_round_up_triple(g, *triple):
        raise GeometryError("closure requires a round-up triple")
    opp = opposition_sets(g).opp
    full = g.full_mask
    cur = bitset(triple)
    union = 0
    for p in triple:
        union |= opp[p]
    while True:
        outside = 0
        for u in bit_indices(full & ~union):
            outside |= opp[u]
        grow = full & ~outside
        if grow == cur:
            break
        for v in bit_indices(grow & ~cur):
            union |= opp[v]
        cur = grow
    pts = tuple(bit_indices(cur))
    return pts if is_geometric_line(g, pts) else None


def enumerate_geometric_lines(g: Geometry,
                              base_point: Optional[int] = None) -> list[tuple[int, ...]]:
    """Deduplicated validated closures of all round-up triples."""
    seen = set()
    for t in enumerate_round_up_triples(g, base_point=base_point):
        gl = geometric_line_closure(g, t)
        if gl is not None:
            seen.add(gl)
    return sorted(seen)


# -- hexagon objects ---------------------------------------------------------------


def special_center(g: Geometry, a: int, b: int) -> int:
    """The unique common neighbour of a special pair."""
    common = g.adj[a] & g.adj[b] & ~(1 << a) & ~(1 << b)
    if common.bit_count() != 1:
        raise GeometryError(f"({a},{b}) is not a special pair")
    return common.bit_length() - 1


def _centre_caps(g: Geometry, c: int, qs: int) -> dict[tuple[int, int], int]:
    """The hyperbolic caps at centre c from the points in qs, all opposite
    c: per pair a < b on the trace of some q in qs, the AND of the
    distinct traces holding both.  The trace of q is notopp[q] cut to the
    perp of c without c: notopp[x] is the ball of radius 2 about x, and q
    is collinear with no point of c's perp, so q is special to both a and
    b exactly when its trace holds both."""
    notopp = opposition_sets(g).notopp
    perp = g.adj[c] & ~(1 << c)
    caps: dict[tuple[int, int], int] = {}
    for t in {notopp[q] & perp for q in bit_indices(qs)}:
        for pair in combinations(bit_indices(t), 2):
            caps[pair] = caps.get(pair, t) & t
    return caps


def _special_trace_cap(g: Geometry, c: int, a: int, b: int) -> tuple[int, int]:
    """For a special pair a, b with centre c: the points q opposite c and
    special to both, and their cap, the AND of their traces (the perp of c
    without c if there are none)."""
    o = opposition_sets(g)
    qs = o.opp[c] & o.notopp[a] & o.notopp[b]
    cap = g.adj[c] & ~(1 << c)
    for q in bit_indices(qs):
        cap &= o.notopp[q]
    return qs, cap


def hyperbolic_line(g: Geometry, a: int, b: int) -> tuple[int, ...]:
    """Points of the hyperbolic line through a special pair of a
    generalised hexagon.

    H = intersection of q-special-traces on the perp of the centre, over
    all points q opposite the centre and special to both a and b.
    """
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    qs, h = _special_trace_cap(g, special_center(g, a, b), a, b)
    if not qs:
        raise GeometryError("no point opposite the centre is special to both")
    return tuple(bit_indices(h))


def _hyperbolic_lines(g: Geometry) -> frozenset[tuple[int, ...]]:
    """The hyperbolic lines through every special pair of a hexagon, built
    once per geometry from the caps at each centre c.  Each pair capped at
    c must have centre c, and the capped pairs must be the special pairs,
    compared as per-point bitsets of the partners b > a.  Every read, built
    or cached, is charged the special pairs, counted once per geometry."""
    o = opposition_sets(g)
    Meter("hyperbolic-line scan", "pairs").tick(g.cached("special-pairs", lambda: sum(
        (o.notopp[a] & ~g.adj[a]).bit_count() for a in range(g.n)) // 2))

    def build():
        capped = [0] * g.n
        out = set()
        for c in range(g.n):
            for (a, b), h in _centre_caps(g, c, o.opp[c]).items():
                special_center(g, a, b)
                capped[a] |= 1 << b
                out.add(h)
        special = [(o.notopp[a] & ~g.adj[a]) >> a + 1 << a + 1 for a in range(g.n)]
        if any(s & ~cap for s, cap in zip(special, capped)):
            raise GeometryError("no point opposite the centre is special to both")
        if capped != special:
            raise GeometryError("a point trace holds a pair that is not special")
        return frozenset(tuple(bit_indices(h)) for h in out)
    return g.cached("hyperbolic-lines", build)


def all_hyperbolic_lines(g: Geometry) -> list[tuple[int, ...]]:
    """Point sets of the hyperbolic lines through every special pair, in
    ascending order."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    return sorted(_hyperbolic_lines(g))


def _hexagon_line_table(g: Geometry) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Per line of a hexagon: the points off it collinear with one of its
    points, and the bitset of the lines opposite it, i.e. missing its
    reach (ge1 of one_or_all): no point of one is collinear with a point
    of the other."""
    def build():
        through = [bitset(ls) for ls in g.lines_through]
        all_lines = (1 << len(g.lines)) - 1
        close, opp = [], []
        for li, lb in enumerate(g.line_bits):
            reach = one_or_all(g, li)[0]
            met = 0
            for x in bit_indices(reach):
                met |= through[x]
            close.append(reach & ~lb)
            opp.append(all_lines & ~met)
        return tuple(close), tuple(opp)
    return g.cached("hexagon-lines", build)


def _distance3_traces(g: Geometry) -> frozenset[tuple[int, ...]]:
    """The distinct traces of all opposite line pairs of a hexagon, read
    off the line table once per geometry."""
    def build():
        close, opp = _hexagon_line_table(g)
        out = set()
        for li, row in enumerate(opp):
            for mi in bit_indices(row >> li << li):     # the lines mi > li
                bits = close[li] & close[mi]
                if bits.bit_count() != len(g.lines[li]):
                    raise GeometryError(f"trace has {bits.bit_count()} points, "
                                        f"expected {len(g.lines[li])}")
                out.add(bits)
        return frozenset(tuple(bit_indices(b)) for b in out)
    return g.cached("distance3-traces", build)


def _traces_through(g: Geometry) -> tuple[tuple[tuple[int, ...], ...], ...]:
    """The distance-3 traces through each point of a hexagon, ascending,
    indexed once per geometry from _distance3_traces."""
    def build():
        through: list[list] = [[] for _ in range(g.n)]
        for tr in sorted(_distance3_traces(g)):
            for p in tr:
                through[p].append(tr)
        return tuple(map(tuple, through))
    return g.cached("traces-through", build)


def all_distance3_traces(g: Geometry) -> list[tuple[int, ...]]:
    """Distinct traces of all opposite line pairs, in ascending order."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("distance-3 traces are defined here for hexagons")
    return sorted(_distance3_traces(g))


# -- quadrangle objects ----------------------------------------------------------


def gq_dominating_check(g: Geometry, pts: Sequence[int]) -> bool:
    """Every point equal or collinear to some member (no common opposite)."""
    bits = 0
    for p in pts:
        bits |= g.adj[p]
    return bits == g.full_mask


def is_ovoid(g: Geometry, pts: Sequence[int]) -> bool:
    """Every line meets pts exactly once."""
    if g.order is not None:
        s, t = g.order
        if len(set(pts)) != s * t + 1:
            return False
    bits = bitset(pts)
    return all((lb & bits).bit_count() == 1 for lb in g.line_bits)


def enumerate_ovoids(g: Geometry) -> list[tuple[int, ...]]:
    """All ovoids, by covering the least unmet line at each step.  The
    chosen points are pairwise non-collinear, so a line is met iff it holds
    one, and a point collinear with none of them lies on no met line."""
    out = []
    tick = Meter("ovoid search").tick

    def dfs(chosen: int):
        tick()
        li = next((i for i, lb in enumerate(g.line_bits) if not lb & chosen), None)
        if li is None:
            pts = tuple(bit_indices(chosen))
            if is_ovoid(g, pts):
                out.append(pts)
            return
        for p in g.lines[li]:
            if not g.adj[p] & chosen:
                dfs(chosen | 1 << p)
    dfs(0)
    return sorted(set(out))


# -- polar hyperbolic lines and pencils -------------------------------------------


def polar_hyperbolic_line(g: Geometry, x: int, y: int) -> tuple[int, ...]:
    """{x,y}^perp-perp for non-collinear points of a polar space."""
    if g.collinear(x, y):
        raise GeometryError("hyperbolic lines need a non-collinear pair")
    common = g.adj[x] & g.adj[y]
    h = g.full_mask
    for z in bit_indices(common):
        h &= g.adj[z]
    return tuple(bit_indices(h))


def residual_point_map(g: Geometry, res: Geometry) -> dict[int, int]:
    """Map line-of-base -> residual point ID for a point_residual output."""
    return {li: i for i, li in enumerate(res.meta["lines_of_base"])}


def _pencils_at(base: Geometry, p: int) -> frozenset[tuple[int, ...]]:
    """The sets of lines of base through p that form a hyperbolic line of 3
    or more points in the residual at p, built once per base and point.
    Each is kept from the pair of its two least points, the pair the
    per-set recognizer _is_polar_hyperbolic tests."""
    def build():
        res = residual(base, p)
        lines = res.meta["lines_of_base"]
        out = set()
        for x, y in combinations(range(res.n), 2):
            if not res.collinear(x, y):
                h = polar_hyperbolic_line(res, x, y)
                if len(h) >= 3 and h[:2] == (x, y):
                    out.add(tuple(lines[i] for i in h))
        return frozenset(out)
    return base.cached(("hyperbolic-pencils", p), build)


def all_hyperbolic_pencils(g: Geometry) -> list[tuple[int, ...]]:
    """The hyperbolic pencils of a Grassmannian, over every point of its
    base, in ascending order."""
    base = grassmannian_base(g)
    return sorted(set().union(*(_pencils_at(base, p) for p in range(base.n))))


# -- classification -----------------------------------------------------------------


def classify_blocking_set(g: Geometry, pts: Sequence[int]) -> str:
    """Tag a blocking set against the structure recognizers."""
    pts = tuple(sorted(pts))
    fam = geometry_family(g)
    if g.line_id(pts) is not None:
        return "PlanarPencil" if fam == "grassmannian" else "Line"
    if fam == "hexagon":
        if pts in _hyperbolic_lines(g):
            return "HyperbolicLine"
        if pts in _distance3_traces(g):
            return "Distance3Trace"
        return "Unclassified"
    if fam == "grassmannian":
        try:
            base = grassmannian_base(g)
        except GeometryError:
            return "Unclassified"
        common = base.full_mask
        for li in pts:
            common &= base.line_bits[li]
        if common.bit_count() == 1 and pts in _pencils_at(base, common.bit_length() - 1):
            return "HyperbolicPencil"
        return "Unclassified"
    if fam == "quadrangle":
        sub: Optional[Geometry] = g.meta.get("subgq")
        if sub is not None:
            parent_pts = sub.meta["parent_points"]
            back = {p: i for i, p in enumerate(parent_pts)}
            if all(p in back for p in pts) and is_ovoid(sub, [back[p] for p in pts]):
                return "OvoidOfSubGQ"
        if _is_polar_hyperbolic(g, pts):
            return "HyperbolicLine"
        return "Unclassified"
    if fam == "polar" and _is_polar_hyperbolic(g, pts):
        return "HyperbolicLine"
    return "Unclassified"


def tag_census(g: Geometry, sets: Iterable[Sequence[int]]) -> dict[str, list]:
    """Tag -> the sets classify_blocking_set gives that tag, in the order
    given; tags ascending."""
    tags: dict[str, list] = {}
    for pts in sets:
        tags.setdefault(classify_blocking_set(g, pts), []).append(pts)
    return dict(sorted(tags.items()))


def _is_polar_hyperbolic(g: Geometry, pts: Sequence[int]) -> bool:
    if len(pts) < 3 or g.collinear(pts[0], pts[1]):
        return False
    try:
        return set(polar_hyperbolic_line(g, pts[0], pts[1])) == set(pts)
    except GeometryError:
        return False
