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

from .geometry import Geometry, GeometryError, bit_indices, bitset, one_or_all

EQUAL, COLLINEAR, SYMPLECTIC, SPECIAL, OPPOSITE, NEAR_OPPOSITE = range(6)

REL_DISPLAY = {EQUAL: "0", COLLINEAR: "1", SYMPLECTIC: "3/2", SPECIAL: "2",
               OPPOSITE: "3", NEAR_OPPOSITE: "near-3"}


class RelationError(GeometryError):
    pass


def grassmannian_base(g: Geometry) -> Geometry:
    """The base geometry of a Grassmannian, rebuilt from its name if needed."""
    if "base" in g.meta:
        return g.meta["base"]
    if not g.kind.of:
        raise RelationError("Grassmannian carries no base geometry")

    def rebuild():
        from .constructors import geometry_by_name
        base = geometry_by_name(g.kind.of)
        if len(base.lines) != g.n:
            raise RelationError(
                f"rebuilt base {g.kind.of} has {len(base.lines)} lines, "
                f"but the Grassmannian has {g.n} points")
        return base
    return g.cached("base", rebuild)


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


# -- polar line opposition ------------------------------------------------


def _line_perp_tables(p: Geometry) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Per polar space, bitsets over its lines: (through, inperp, perp_all).

    through[a]: the lines through point a; inperp[a]: the lines contained
    in a^perp; perp_all[l]: the points collinear-or-equal to every point
    of line l, so a is in perp_all[l] iff l is in inperp[a].
    """
    def build():
        perp_all = tuple(one_or_all(p, li)[2] for li in range(len(p.lines)))
        inperp = [0] * p.n
        for li, bits in enumerate(perp_all):
            for a in bit_indices(bits):
                inperp[a] |= 1 << li
        through = tuple(bitset(p.lines_through[a]) for a in range(p.n))
        return through, tuple(inperp), perp_all
    return p.cached("line-perp", build)


def polar_line_opposition(p: Geometry, li: int) -> int:
    """Bitset of the lines of polar space p opposite line li: building
    opposition, i.e. no point of either line is collinear-or-equal to
    every point of the other."""
    through, inperp, perp_all = _line_perp_tables(p)
    notopp = 0
    for a in bit_indices(perp_all[li]):
        notopp |= through[a]
    for a in p.lines[li]:
        notopp |= inperp[a]
    return ((1 << len(p.lines)) - 1) & ~notopp


# -- full matrices ----------------------------------------------------------


def _codes(rows: Sequence[dict[int, int]], n: int) -> np.ndarray:
    """len(rows) x n int8 array: row i holds each code at the bits of its
    class in rows[i], 0 elsewhere; one np.unpackbits per code."""
    width = (n + 7) // 8
    out = np.zeros((len(rows), n), dtype=np.uint8)
    for code in (rows[0] if rows else ()):
        packed = np.frombuffer(b"".join(r[code].to_bytes(width, "little") for r in rows),
                               dtype=np.uint8)
        bits = np.unpackbits(packed.reshape(len(rows), width), axis=1, count=n,
                             bitorder="little")
        bits *= code
        out += bits         # the classes of a row are disjoint
    return out.view(np.int8)


#: rows per block of RelationMatrix.np(), so the class bitsets and unpacked
#: bits held at once take O(ROW_BLOCK * n) bytes next to the matrix
ROW_BLOCK = 256


class RelationMatrix:
    """n x n table of relation codes, built row by row on demand, or for
    all rows at once by np()."""

    # eager_threshold is ignored; it is still accepted because the
    # benchmark's reference builder (perfbench's prepare_grq63) passes it
    def __init__(self, g: Geometry, eager_threshold: Optional[int] = None):
        self.geometry = g
        self.family = geometry_family(g)
        self.n = g.n
        self._rows: dict[int, bytes] = {}
        self._np: Optional[np.ndarray] = None
        # per point: its neighbours and its kernel, until np() is built
        self._memo: dict[int, tuple[list[int], dict[int, int]]] = {}

    def _neighbours(self, x: int) -> list[int]:
        """The points collinear with x, x left out, ascending; numpy finds
        the set bits of a wide bitset faster than bit_indices."""
        bits = self.geometry.adj[x] & ~(1 << x)
        packed = np.frombuffer(bits.to_bytes((self.n + 7) // 8, "little"), dtype=np.uint8)
        return np.flatnonzero(np.unpackbits(packed, count=self.n, bitorder="little")).tolist()

    def _kernel(self, x: int, neighbours: list[int]) -> dict[int, int]:
        """Bitset of the points holding each relation code to x (EQUAL, x
        itself, left out), with every point beyond distance 2 under
        OPPOSITE and distances beyond 3 not checked.  The one place
        relation codes are decided.

        Common neighbours are counted by z in `neighbours`, adj[x] - x: a
        point outside adj[x] in exactly one adj[z] is special, in two or
        more symplectic.
        """
        adj = self.geometry.adj
        near = adj[x] & ~(1 << x)
        rest = self.geometry.full_mask & ~adj[x]
        if self.family in ("quadrangle", "polar"):
            return {COLLINEAR: near, SYMPLECTIC: rest}
        ge1 = ge2 = 0
        for z in neighbours:
            ge2 |= ge1 & adj[z]
            ge1 |= adj[z]
        dist2 = rest & ge1
        return {COLLINEAR: near, SPECIAL: dist2 & ~ge2, SYMPLECTIC: dist2 & ge2,
                OPPOSITE: rest & ~ge1}

    def _memoized(self, x: int) -> tuple[list[int], dict[int, int]]:
        """x's neighbours and kernel, each computed once per point."""
        got = self._memo.get(x)
        if got is None:
            neighbours = self._neighbours(x)
            got = self._memo[x] = (neighbours, self._kernel(x, neighbours))
        return got

    def _split_far(self, x: int, out: dict[int, int]) -> dict[int, int]:
        """Split a Grassmannian row's far points by the building opposition
        of its base: OPPOSITE where the lines are opposite, else NEAR_OPPOSITE."""
        if self.family == "grassmannian":
            far = out[OPPOSITE]
            opp = polar_line_opposition(grassmannian_base(self.geometry), x)
            out[OPPOSITE], out[NEAR_OPPOSITE] = far & opp, far & ~opp
        return out

    def classes(self, x: int) -> dict[int, int]:
        """The classes of row x, checked for diameter <= 3: y is at distance
        > 3 from x iff y is far from x and from every neighbour of x, one
        AND per neighbour until nothing is left."""
        neighbours, kernel = self._memoized(x)
        out = dict(kernel)
        if self.family in ("hexagon", "grassmannian"):
            unreached = out[OPPOSITE]
            for z in neighbours:
                if not unreached:
                    break
                unreached &= self._memoized(z)[1][OPPOSITE]
            if unreached:
                raise RelationError(f"point {(unreached & -unreached).bit_length() - 1} "
                                    f"is at distance > 3 from point {x} in the {self.family}")
        return self._split_far(x, out)

    # access

    def rel(self, x: int, y: int) -> int:
        return self.row(x)[y]

    def row(self, x: int) -> bytes:
        """Row x, memoized (at most n**2 bytes)."""
        row = self._rows.get(x)
        if row is None:
            row = self._rows[x] = (self._np[x].tobytes() if self._np is not None
                                   else _codes([self.classes(x)], self.n)[0].tobytes())
        return row

    def np(self) -> np.ndarray:
        """The n x n matrix, from classes() of every row, first failure first,
        written ROW_BLOCK rows at a time."""
        if self._np is None:
            out = np.empty((self.n, self.n), dtype=np.int8)
            for lo in range(0, self.n, ROW_BLOCK):
                hi = min(lo + ROW_BLOCK, self.n)
                out[lo:hi] = _codes([self.classes(x) for x in range(lo, hi)], self.n)
            self._np = out
            # later rows are read from the matrix, so edits to it show in row()
            self._rows.clear()
            self._memo.clear()
        return self._np

    def census(self) -> dict[str, int]:
        counts = np.bincount(self.np().ravel(), minlength=len(REL_DISPLAY))
        return {REL_DISPLAY[v]: int(c) for v, c in enumerate(counts) if c}


def relation_matrix(g: Geometry) -> RelationMatrix:
    return g.cached("relation-matrix", lambda: RelationMatrix(g))


def classify_pair(g: Geometry, x: int, y: int) -> int:
    """Relation code of one pair, read from the memoized row of x."""
    return relation_matrix(g).rel(x, y)


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
    return g.cached("opposition-sets", lambda: _opposition_sets(g))


def _opposition_sets(g: Geometry) -> OppositionSets:
    full = g.full_mask
    if geometry_family(g) in ("quadrangle", "polar"):
        # opposite is non-collinear here; the relation codes call it symplectic
        opp = tuple(full & ~a for a in g.adj)
    else:
        # read from the matrix, so the relation and the opposition sets
        # share one pass over all rows
        packed = np.packbits(relation_matrix(g).np() == OPPOSITE, axis=1, bitorder="little")
        opp = tuple(int.from_bytes(row.tobytes(), "little") for row in packed)
    return OppositionSets(g, opp, tuple(full & ~b for b in opp))
