"""The five-valued relation on point pairs and opposition bitsets.

Relation codes are ranked the way the positions machinery orders them:
Equal < Collinear < Symplectic < Special < Opposite, displayed as
0, 1, 3/2, 2, 3.  Distance-3 pairs of a line-Grassmannian that fail the
building opposition criterion get the NearOpposite escape code; they are
counted, never silently coerced.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Geometry, GeometryError, bit_indices, bitset

EQUAL, COLLINEAR, SYMPLECTIC, SPECIAL, OPPOSITE, NEAR_OPPOSITE = range(6)

REL_DISPLAY = {EQUAL: "0", COLLINEAR: "1", SYMPLECTIC: "3/2", SPECIAL: "2",
               OPPOSITE: "3", NEAR_OPPOSITE: "near-3"}


class RelationError(GeometryError):
    pass


def _cache(g: Geometry) -> dict:
    return g.meta.setdefault("_cache", {})


def grassmannian_base(g: Geometry) -> Geometry:
    """The base geometry of a Grassmannian, rebuilt from its name if needed."""
    base = g.meta.get("base")
    if base is None and g.kind.of:
        from .constructors import geometry_by_name
        base = geometry_by_name(g.kind.of)
        if len(base.lines) != g.n:
            raise RelationError(
                f"rebuilt base {g.kind.of} has {len(base.lines)} lines, "
                f"but the Grassmannian has {g.n} points")
        g.meta["base"] = base
    if base is None:
        raise RelationError("Grassmannian carries no base geometry")
    return base


def geometry_family(g: Geometry) -> str:
    """hexagon | quadrangle | polar | grassmannian, else error."""
    k = g.kind
    if k.family == "polygon" and k.param == 6:
        return "hexagon"
    if k.family == "polygon" and k.param == 4:
        return "quadrangle"
    if k.family == "polar":
        return "quadrangle" if k.param == 2 else "polar"
    if k.family == "grassmannian":
        return "grassmannian"
    raise RelationError(f"pair classification is not defined for kind {k.as_str()}")


# -- single pair -----------------------------------------------------------


def classify_pair(g: Geometry, x: int, y: int) -> int:
    """Relation code of one pair, computed directly from bitsets."""
    fam = geometry_family(g)
    if x == y:
        return EQUAL
    if g.collinear(x, y):
        return COLLINEAR
    if fam in ("quadrangle", "polar"):
        return SYMPLECTIC
    cn = ((g.adj[x] & g.adj[y]) & ~(1 << x) & ~(1 << y)).bit_count()
    if cn:
        return SPECIAL if cn == 1 else SYMPLECTIC
    if fam == "hexagon":
        return OPPOSITE
    base = grassmannian_base(g)
    return OPPOSITE if opposite_lines_polar(base, x, y) else NEAR_OPPOSITE


def opposite_points_polygon(g: Geometry, x: int, y: int) -> bool:
    """Hexagon: point-graph distance 3.  Quadrangle: distinct non-collinear."""
    fam = geometry_family(g)
    if x == y:
        return False
    if fam == "quadrangle" or (g.kind.family == "polar"):
        return not g.collinear(x, y)
    if fam == "hexagon":
        if g.collinear(x, y):
            return False
        return not (g.adj[x] & g.adj[y])
    raise RelationError(f"point opposition undefined for {g.kind.as_str()}")


def _perp_all_line(p: Geometry, li: int) -> int:
    """Bitset of points collinear-or-equal to every point of line li."""
    bits = p.full_mask
    for x in p.lines[li]:
        bits &= p.adj[x]
    return bits


def opposite_lines_polar(p: Geometry, li: int, mi: int) -> bool:
    """Building opposition for lines of a polar space.

    True iff no point of either line is collinear-or-equal to every
    point of the other.
    """
    if li == mi:
        return False
    if p.line_bits[li] & _perp_all_line(p, mi):
        return False
    return not (p.line_bits[mi] & _perp_all_line(p, li))


def _line_perp_tables(p: Geometry) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per polar space, bitsets over its lines: (through, inperp, perp_all).

    through[a]: the lines through point a; inperp[a]: the lines contained
    in a^perp; perp_all[l]: the points collinear-or-equal to every point
    of line l, so a is in perp_all[l] iff l is in inperp[a].
    """
    cache = _cache(p)
    if "line_perp" not in cache:
        perp_all = tuple(_perp_all_line(p, li) for li in range(len(p.lines)))
        inperp = [0] * p.n
        for li, bits in enumerate(perp_all):
            for a in bit_indices(bits):
                inperp[a] |= 1 << li
        through = tuple(bitset(p.lines_through[a]) for a in range(p.n))
        cache["line_perp"] = (through, tuple(inperp), perp_all)
    return cache["line_perp"]


def _polar_line_nonopposite(p: Geometry, li: int) -> int:
    """Bitset of the lines not opposite line li: the two halves of
    `opposite_lines_polar`, over all lines at once."""
    through, inperp, perp_all = _line_perp_tables(p)
    bits = 0
    for a in bit_indices(perp_all[li]):
        bits |= through[a]
    for a in p.lines[li]:
        bits |= inperp[a]
    return bits


def polar_line_opposition(p: Geometry) -> np.ndarray:
    """Boolean matrix of pairwise line opposition in a polar space."""
    cache = _cache(p)
    if "line_opp" in cache:
        return cache["line_opp"]
    nl = len(p.lines)
    adj = p.np_adjacency(strict=False)
    line_pts = np.zeros((nl, p.n), dtype=bool)
    perp_all = np.zeros((nl, p.n), dtype=bool)
    for li, l in enumerate(p.lines):
        line_pts[li, list(l)] = True
        perp_all[li] = np.logical_and.reduce(adj[list(l)])
    # a sum of non-negative float32 terms is 0 iff every term is 0, so the
    # zero test below is exact at any size
    cross = line_pts.astype(np.float32) @ perp_all.T.astype(np.float32)
    opp = (cross == 0) & (cross.T == 0)
    np.fill_diagonal(opp, False)
    cache["line_opp"] = opp
    return opp


# -- full matrices ----------------------------------------------------------


def _mask(bits: int, n: int) -> np.ndarray:
    """Boolean array of length n with True at the set bits of `bits`."""
    packed = np.frombuffer(bits.to_bytes((n + 7) // 8, "little"), dtype=np.uint8)
    return np.unpackbits(packed, count=n, bitorder="little").view(bool)


def _row_bytes(n: int, classes) -> bytes:
    """An n-byte row holding `code` at the bits of each (code, bits); 0 elsewhere."""
    row = np.zeros(n, dtype=np.int8)
    for code, bits in classes:
        row[_mask(bits, n)] = code
    return row.tobytes()


class RelationMatrix:
    """n x n table of relation codes.

    Eager (dense numpy) construction up to `eager_threshold` points,
    lazy per-row memoized construction above it.
    """

    def __init__(self, g: Geometry, eager_threshold: int = 2000):
        self.geometry = g
        self.family = geometry_family(g)
        self.n = g.n
        self._rows: dict[int, bytes] = {}
        self._np: Optional[np.ndarray] = None
        self.eager = g.n <= eager_threshold
        if self.eager:
            self._np = self._build_dense()

    # dense path

    def _build_dense(self) -> np.ndarray:
        g, fam, n = self.geometry, self.family, self.n
        adj = g.np_adjacency(strict=True)
        eye = np.eye(n, dtype=bool)
        codes = np.zeros((n, n), dtype=np.int8)
        codes[adj] = COLLINEAR
        if fam in ("quadrangle", "polar"):
            codes[~adj & ~eye] = SYMPLECTIC
            return codes
        # float32 sums of 0/1 terms are exact integers below 2**24, which
        # cn == 1 needs; the zero/positive tests are exact at any size
        assert n < 1 << 24, "common-neighbour counts would exceed float32's exact range"
        af = adj.astype(np.float32)
        cn = af @ af
        dist2 = (cn > 0) & ~adj & ~eye
        codes[dist2 & (cn == 1)] = SPECIAL
        codes[dist2 & (cn > 1)] = SYMPLECTIC
        far = ~adj & ~eye & ~dist2
        if fam == "hexagon":
            codes[far] = OPPOSITE
        else:
            base = grassmannian_base(g)
            reach3 = (cn @ af) > 0
            if (far & ~reach3).any():
                raise RelationError("Grassmannian point graph has diameter > 3")
            opp = polar_line_opposition(base)
            codes[far & opp] = OPPOSITE
            codes[far & ~opp] = NEAR_OPPOSITE
        return codes

    # lazy path

    def _build_row(self, x: int) -> bytes:
        """Row x from bitsets: each code class is one bitset, written once.

        Common neighbours are counted by z in adj[x] - x: a point outside
        adj[x] in exactly one adj[z] is special, in two or more symplectic.
        """
        g, fam = self.geometry, self.family
        adj = g.adj
        near = adj[x] & ~(1 << x)
        rest = g.full_mask & ~adj[x]
        if fam in ("quadrangle", "polar"):
            return _row_bytes(self.n, ((COLLINEAR, near), (SYMPLECTIC, rest)))
        ge1 = ge2 = 0
        for z in bit_indices(near):
            ge2 |= ge1 & adj[z]
            ge1 |= adj[z]
        dist2 = rest & ge1
        far = rest & ~ge1
        # every far point must have a neighbour at distance 2 (diameter <= 3)
        reach3 = 0
        for y in np.flatnonzero(_mask(dist2, self.n)).tolist():
            reach3 |= adj[y]
        unreached = far & ~reach3
        if unreached:
            raise RelationError(f"point {(unreached & -unreached).bit_length() - 1} "
                                f"is at distance > 3 from point {x} in the {fam}")
        classes = [(COLLINEAR, near), (SPECIAL, dist2 & ~ge2), (SYMPLECTIC, dist2 & ge2)]
        if fam == "hexagon":
            classes.append((OPPOSITE, far))
        else:
            notopp = _polar_line_nonopposite(grassmannian_base(g), x)
            classes += [(OPPOSITE, far & ~notopp), (NEAR_OPPOSITE, far & notopp)]
        return _row_bytes(self.n, classes)

    # access

    def rel(self, x: int, y: int) -> int:
        return self.row(x)[y]

    def row(self, x: int) -> bytes:
        """Row x, memoized on both paths (at most n**2 bytes)."""
        row = self._rows.get(x)
        if row is None:
            row = self._rows[x] = (self._np[x].tobytes() if self._np is not None
                                   else self._build_row(x))
        return row

    def np(self) -> np.ndarray:
        if self._np is None:
            self._np = np.frombuffer(b"".join(self.row(x) for x in range(self.n)),
                                     dtype=np.int8).reshape(self.n, self.n).copy()
        return self._np

    def census(self) -> dict[str, int]:
        counts = {}
        m = self.np()
        vals, cnts = np.unique(m, return_counts=True)
        for v, c in zip(vals, cnts):
            counts[REL_DISPLAY[int(v)]] = int(c)
        return counts


def relation_matrix(g: Geometry, eager_threshold: int = 2000) -> RelationMatrix:
    cache = _cache(g)
    if "relmatrix" not in cache:
        cache["relmatrix"] = RelationMatrix(g, eager_threshold)
    return cache["relmatrix"]


# -- opposition sets ---------------------------------------------------------


@dataclass
class OppositionSets:
    """Per point p: bitset of points opposite p, and its complement."""

    geometry: Geometry
    opp: tuple[int, ...]
    notopp: tuple[int, ...]

    def sizes(self) -> list[int]:
        return [b.bit_count() for b in self.opp]

    def common_opposite_bits(self, pts: Sequence[int]) -> int:
        bits = self.geometry.full_mask
        for p in pts:
            bits &= self.opp[p]
        return bits


def opposition_sets(g: Geometry) -> OppositionSets:
    cache = _cache(g)
    if "oppsets" in cache:
        return cache["oppsets"]
    fam = geometry_family(g)
    n = g.n
    full = g.full_mask
    if fam in ("quadrangle", "polar"):
        opp = tuple(full & ~g.adj[x] for x in range(n))
    elif fam == "hexagon":
        opp = []
        for x in range(n):
            near = g.adj[x]
            grow = near
            for y in bit_indices(g.adj[x]):
                grow |= g.adj[y]
            opp.append(full & ~grow)
        opp = tuple(opp)
    else:
        m = relation_matrix(g).np()
        opp = tuple(int.from_bytes(np.packbits(m[x] == OPPOSITE, bitorder="little").tobytes(),
                                   "little") for x in range(n))
    sets = OppositionSets(g, opp, tuple(full & ~b for b in opp))
    cache["oppsets"] = sets
    return sets
