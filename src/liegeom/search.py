"""Exhaustive search for blocking sets, round-up triples, geometric lines,
hyperbolic lines, distance-3 traces and ovoids.

Everything here runs on opposition bitsets, and each kernel computes its
candidate set as a bitset expression instead of testing points one by
one.  Opposition and the distance-2 relation are symmetric, so a row
read as "the points opposite p" is also "the points p is opposite".

The blocking-set enumerator uses witness-driven branching: every set it
must find fails to cover the least uncovered point, so candidates can be
restricted to the non-opposites of that witness.  Sibling exclusion sets
make the enumeration exact with each solution produced exactly once.  At
the last level the completing points are one intersection of
non-opposite rows, so a node one point short of k stands for all its
completions.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional, Sequence

from .geometry import Geometry, GeometryError, bit_indices, bitset, residual
from .relations import (
    OPPOSITE,
    SPECIAL,
    classify_pair,
    geometry_family,
    grassmannian_base,
    opposition_sets,
)


class BudgetExceeded(RuntimeError):
    pass


# -- common opposite / blocking sets -----------------------------------------


def common_opposite(g: Geometry, pts: Sequence[int]) -> Optional[int]:
    """Any point opposite every member of pts, or None if pts blocks."""
    bits = opposition_sets(g).common_opposite_bits(pts)
    if not bits:
        return None
    return (bits & -bits).bit_length() - 1


def enumerate_blocking_sets(g: Geometry, k: int, minimal_only: bool = False,
                            budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """All k-subsets admitting no common opposite point.

    With minimal_only=True, only sets none of whose proper subsets block
    are kept (the k-th point must be the one emptying the intersection,
    and no (k-1)-subset may block).
    """
    o = opposition_sets(g)
    opp, notopp = o.opp, o.notopp
    notopp_pts = [tuple(bit_indices(b)) for b in notopp]
    results: list[tuple[int, ...]] = []
    nodes = 0

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
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"blocking-set search exceeded {budget} nodes")
        if inter == 0:
            if len(chosen) == k:
                got = tuple(sorted(chosen))
                if not minimal_only or minimal(got):
                    results.append(got)
            elif not minimal_only:
                chosen_bits = bitset(chosen)
                rest = [p for p in range(g.n)
                        if not (chosen_bits >> p & 1) and not (excluded >> p & 1)]
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
        chosen_bits = bitset(chosen)
        cands = [p for p in notopp_pts[w]
                 if not (excluded >> p & 1) and not (chosen_bits >> p & 1)]
        taken = 0
        for p in cands:
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


def enumerate_round_up_triples(g: Geometry, base_point: Optional[int] = None,
                               budget: Optional[int] = None) -> list[tuple[int, int, int]]:
    """All round-up triples; with base_point set, only triples through it."""
    o = opposition_sets(g)
    opp, notopp = o.opp, o.notopp
    n = g.n
    out = []
    nodes = 0
    if base_point is None:
        firsts = range(n)
    else:
        firsts = (base_point,)
    for i in firsts:
        oi = opp[i]
        lo = 0 if base_point is not None else i + 1
        for j in range(lo, n):
            if j == i:
                continue
            V = oi ^ opp[j]
            W = ~(oi | opp[j]) & g.full_mask
            for k in range(j + 1, n):
                if k == i:
                    continue
                nodes += 1
                if budget is not None and nodes > budget:
                    raise BudgetExceeded(f"triple scan exceeded {budget} nodes")
                if not (V & notopp[k]) and not (opp[k] & W):
                    out.append(tuple(sorted((i, j, k))))
    return sorted(set(out))


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


def enumerate_geometric_lines(g: Geometry, base_point: Optional[int] = None,
                              budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """Deduplicated validated closures of all round-up triples."""
    seen = set()
    for t in enumerate_round_up_triples(g, base_point=base_point, budget=budget):
        gl = geometric_line_closure(g, t)
        if gl is not None:
            seen.add(gl)
    return sorted(seen)


# -- hexagon objects ---------------------------------------------------------------


def _distance2_bits(g: Geometry) -> tuple[int, ...]:
    def build():
        out = []
        for x in range(g.n):
            near = g.adj[x]
            grow = 0
            for y in bit_indices(near):
                grow |= g.adj[y]
            out.append(grow & ~near)
        return tuple(out)
    return g.cached("distance-2", build)


def special_center(g: Geometry, a: int, b: int) -> int:
    """The unique common neighbour of a special pair."""
    common = g.adj[a] & g.adj[b] & ~(1 << a) & ~(1 << b)
    if common.bit_count() != 1:
        raise GeometryError(f"({a},{b}) is not a special pair")
    return common.bit_length() - 1


@dataclass
class HyperbolicLine:
    center: int
    points: tuple[int, ...]
    regular: bool


def _special_trace_cap(g: Geometry, c: int, a: int, b: int) -> tuple[int, int]:
    """For a special pair a, b with centre c: the points q opposite c and
    special to both, and the perp of c (without c) cut by the special
    traces d2[q] of all those q.  d2 is symmetric, so the points q are
    opp[c] & d2[a] & d2[b]."""
    d2 = _distance2_bits(g)
    qs = opposition_sets(g).opp[c] & d2[a] & d2[b]
    h = g.adj[c] & ~(1 << c)
    for q in bit_indices(qs):
        h &= d2[q]
    return qs, h


def _hyperbolic_bits(g: Geometry, a: int, b: int) -> tuple[int, int]:
    """Centre and point bitset of the hyperbolic line through a special pair."""
    c = special_center(g, a, b)
    qs, h = _special_trace_cap(g, c, a, b)
    if not qs:
        raise GeometryError("no point opposite the centre is special to both")
    if not (h >> a & 1) or not (h >> b & 1):
        raise GeometryError("hyperbolic line does not contain its defining pair")
    return c, h


def hyperbolic_line(g: Geometry, a: int, b: int) -> HyperbolicLine:
    """Hyperbolic line through a special pair of a generalised hexagon.

    H = intersection of q-special-traces on the perp of the centre, over
    all points q opposite the centre and special to both a and b.  It is
    regular when every point opposite the centre special to at least two
    points of H has the same trace; those points are the ones lying in
    two or more of the rows d2[p], p in H.
    """
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    c, h = _hyperbolic_bits(g, a, b)
    d2 = _distance2_bits(g)
    pts = tuple(bit_indices(h))
    ge1 = ge2 = 0
    for p in pts:
        ge2 |= ge1 & d2[p]
        ge1 |= d2[p]
    regular = all((d2[q] & g.adj[c]) == h
                  for q in bit_indices(opposition_sets(g).opp[c] & ge2))
    return HyperbolicLine(c, pts, regular)


def all_hyperbolic_lines(g: Geometry, budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """Point sets of the hyperbolic lines through every special pair."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    d2 = _distance2_bits(g)
    out = set()
    nodes = 0
    for a in range(g.n):
        for b in bit_indices(d2[a] >> (a + 1)):
            nodes += 1
            if budget is not None and nodes > budget:
                raise BudgetExceeded(f"hyperbolic-line scan exceeded {budget} pairs")
            out.add(_hyperbolic_bits(g, a, a + 1 + b)[1])
    return sorted(tuple(bit_indices(h)) for h in out)


def _line_reach(g: Geometry) -> tuple[int, ...]:
    """Per line: the points equal or collinear to some point of it."""
    def build():
        out = []
        for l in g.lines:
            bits = 0
            for p in l:
                bits |= g.adj[p]
            out.append(bits)
        return tuple(out)
    return g.cached("line-reach", build)


def close_to_lines(g: Geometry) -> tuple[int, ...]:
    """Per line of a polygon: the points off it collinear with exactly one
    of its points."""
    return g.cached("close-to-line", lambda: tuple(
        r & ~lb for r, lb in zip(_line_reach(g), g.line_bits)))


def opposite_lines_polygon(g: Geometry, li: int, mi: int) -> bool:
    """Lines at maximal incidence-graph distance.

    In a hexagon that means disjoint with no collinear cross pair (each
    point of one line is then special to a unique point of the other);
    in a quadrangle it means disjoint.
    """
    if li == mi:
        return False
    fam = geometry_family(g)
    if fam == "quadrangle":
        return not (g.line_bits[li] & g.line_bits[mi])
    if fam != "hexagon":
        raise GeometryError("line opposition implemented for generalised polygons")
    return not (_line_reach(g)[li] & g.line_bits[mi])


def opposite_line_pairs(g: Geometry) -> list[tuple[int, int]]:
    blocker = g.line_bits if geometry_family(g) == "quadrangle" else _line_reach(g)
    out = []
    for li in range(len(g.lines)):
        for mi in range(li + 1, len(g.lines)):
            if not (blocker[li] & g.line_bits[mi]):
                out.append((li, mi))
    return out


def all_distance3_traces(g: Geometry) -> list[tuple[int, ...]]:
    """Distinct traces of all opposite line pairs, in one pass over pairs."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("distance-3 traces are defined here for hexagons")
    close = close_to_lines(g)
    out = set()
    for li, mi in opposite_line_pairs(g):
        bits = close[li] & close[mi]
        if bits.bit_count() != len(g.lines[li]):
            raise GeometryError(f"trace has {bits.bit_count()} points, "
                                f"expected {len(g.lines[li])}")
        out.add(bits)
    return sorted(tuple(bit_indices(b)) for b in out)


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


def enumerate_ovoids(g: Geometry, budget: Optional[int] = None) -> list[tuple[int, ...]]:
    """All ovoids, by covering the least unmet line at each step."""
    out = []
    nl = len(g.lines)
    nodes = 0

    def dfs(chosen_bits: int, chosen: list[int], hit: list[bool]):
        nonlocal nodes
        nodes += 1
        if budget is not None and nodes > budget:
            raise BudgetExceeded(f"ovoid search exceeded {budget} nodes")
        li = next((i for i in range(nl) if not hit[i]), None)
        if li is None:
            if is_ovoid(g, chosen):
                out.append(tuple(sorted(chosen)))
            return
        for p in g.lines[li]:
            if g.adj[p] & chosen_bits:
                continue
            new_hit = list(hit)
            ok = True
            for lj in g.lines_through[p]:
                if new_hit[lj]:
                    ok = False
                    break
                new_hit[lj] = True
            if ok:
                dfs(chosen_bits | 1 << p, chosen + [p], new_hit)
    dfs(0, [], [False] * nl)
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


# -- classification -----------------------------------------------------------------


def classify_blocking_set(g: Geometry, pts: Sequence[int]) -> str:
    """Tag a blocking set against the structure recognizers."""
    pts = tuple(sorted(pts))
    fam = geometry_family(g)
    if g.line_id(pts) is not None:
        return "PlanarPencil" if fam == "grassmannian" else "Line"
    if fam == "hexagon":
        rels = {classify_pair(g, a, b) for a, b in combinations(pts, 2)}
        if rels == {SPECIAL}:
            try:
                if set(hyperbolic_line(g, pts[0], pts[1]).points) == set(pts):
                    return "HyperbolicLine"
            except GeometryError:
                pass
        if rels == {OPPOSITE} and _is_trace(g, pts):
            return "Distance3Trace"
        return "Unclassified"
    if fam == "grassmannian":
        if _is_hyperbolic_pencil(g, pts):
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


def _is_trace(g: Geometry, pts: Sequence[int]) -> bool:
    """Whether pts is the distance-3 trace of some pair of opposite lines."""
    bits = bitset(pts)
    close = close_to_lines(g)
    for li, cl in enumerate(close):
        if bits & ~cl:
            continue
        for mi, cm in enumerate(close):
            if cl & cm == bits and opposite_lines_polygon(g, li, mi):
                return True
    return False


def _is_polar_hyperbolic(g: Geometry, pts: Sequence[int]) -> bool:
    if len(pts) < 3 or g.collinear(pts[0], pts[1]):
        return False
    try:
        return set(polar_hyperbolic_line(g, pts[0], pts[1])) == set(pts)
    except GeometryError:
        return False


def _is_hyperbolic_pencil(g: Geometry, pts: Sequence[int]) -> bool:
    """Lines of the base through one point, hyperbolic in the point residual."""
    try:
        base = grassmannian_base(g)
    except Exception:
        return False
    common = base.full_mask
    for li in pts:
        common &= base.line_bits[li]
    if common.bit_count() != 1:
        return False
    p = common.bit_length() - 1
    res = residual(base, p)
    rmap = residual_point_map(base, res)
    rpts = sorted(rmap[li] for li in pts)
    if res.collinear(rpts[0], rpts[1]):
        return False
    return set(polar_hyperbolic_line(res, rpts[0], rpts[1])) == set(rpts)
