"""Mutual positions of line pairs in hexagonic models, and combing.

A position is matched from the signature of a line pair, packed into
one exact integer key that single-pair lookups and the vectorized census
share (see "signature keys"); the 26 catalogue entries are generated
from shape templates (homogeneous, matching, pointed, row- and
column-constant) whose keys are pairwise distinct, which is asserted
when a catalogue is built.  The combing table maps every entry to its
successor position, with the terminal position being the opposite pair.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Geometry, GeometryError
from .relations import (
    COLLINEAR,
    EQUAL,
    OPPOSITE,
    REL_DISPLAY,
    SPECIAL,
    SYMPLECTIC,
    relation_matrix,
)
from .search import BudgetExceeded


class PositionError(GeometryError):
    pass


class NoCombingLine(PositionError):
    pass


class NonterminatingComb(PositionError):
    pass


class AlgorithmViolation(PositionError):
    pass


# -- display ------------------------------------------------------------------

_DUAL = {EQUAL: OPPOSITE, COLLINEAR: SPECIAL, SYMPLECTIC: SYMPLECTIC,
         SPECIAL: COLLINEAR, OPPOSITE: EQUAL}


def to_display(tup: Sequence[int]) -> str:
    return "".join(REL_DISPLAY[c] for c in tup)


def parse_display(s: str) -> tuple[int, ...]:
    rev = {"0": EQUAL, "1": COLLINEAR, "3/2": SYMPLECTIC, "2": SPECIAL, "3": OPPOSITE}
    out = []
    i = 0
    while i < len(s):
        if s[i] == "3" and s[i:i + 3] == "3/2":
            out.append(SYMPLECTIC)
            i += 3
        else:
            out.append(rev[s[i]])
            i += 1
    return tuple(out)


# -- signature keys -------------------------------------------------------------
#
# The column code of a point p with respect to an m-point line is the rank
# of the sorted relation codes from the line's points to p among all sorted
# m-tuples of the six codes (NearOpposite included), so it lies in
# [0, _code_base(m)).  The signature key of (L, M) packs the sorted codes of
# L's points with respect to M followed by the sorted codes of M's points
# with respect to L, in base _code_base(m).  The key is exact, and the key of
# (M, L) is the key of (L, M) with its two halves swapped.


def _rank(digits):
    """Rank of ascending digits among all ascending tuples of their length:
    the sum of C(digits[i] + i, i + 1) (the combinatorial number system),
    exact on Python ints and, one digit per lane, on integer arrays."""
    rank = 0
    for i, d in enumerate(digits):
        x, c = d + i, 1
        for j in range(i + 1):
            c = c * (x - j) // (j + 1)
        rank = rank + c
    return rank


#: the column code of one point, from its sorted relation codes as a tuple
_column_code = functools.cache(_rank)


def _pack(digits, base: int, key=0):
    """The digits, most significant first, packed onto ``key`` in ``base``.
    On integer arrays (one digit per lane) ``key`` is an accumulator array,
    updated in place, whose dtype bounds the result."""
    for d in digits:
        key *= base
        key += d
    return key


def _code_base(m: int) -> int:
    """Number of column codes of a point with respect to an m-point line."""
    return math.comb(m + len(REL_DISPLAY) - 1, m)


def matrix_key(mat: Sequence[Sequence[int]]) -> int:
    """Signature key of the pair with relation matrix ``mat`` (rows: L's points;
    the relation is symmetric, so row i also holds the codes from M to L's i-th point)."""
    rows = sorted(_column_code(tuple(sorted(r))) for r in mat)
    cols = sorted(_column_code(tuple(sorted(c))) for c in zip(*mat))
    return _pack(rows + cols, _code_base(len(mat)))


def _swap_key(key: int, m: int) -> int:
    """The key of (M, L), given the key of (L, M)."""
    half = _code_base(m) ** m
    return (key % half) * half + key // half


# -- catalogue ----------------------------------------------------------------


@dataclass(frozen=True)
class CatalogueEntry:
    tuple4: tuple[int, int, int, int]
    shape: str                  # homog | matching | pointed | rows | cols
    cls: str                    # I | II | III | IV
    table_row: int              # row number in the combing table
    successor: Optional[tuple[int, int, int, int]]
    local_relation: str         # relation of the auxiliary line to L in the residue
    k_unique: bool

    @property
    def display(self) -> str:
        return to_display(self.tuple4)

    def template(self, m: int) -> list[list[int]]:
        a, b, c, d = self.tuple4
        if self.shape == "homog":
            return [[a] * m for _ in range(m)]
        if self.shape == "matching":
            return [[a if i == j else b for j in range(m)] for i in range(m)]
        if self.shape == "pointed":
            out = [[d] * m for _ in range(m)]
            out[0][0] = a
            for j in range(1, m):
                out[0][j] = b
            for i in range(1, m):
                out[i][0] = c
            return out
        if self.shape == "rows":
            return [[a] * m] + [[c] * m for _ in range(m - 1)]
        if self.shape == "cols":
            return [[a] + [b] * (m - 1) for _ in range(m)]
        raise PositionError(f"unknown shape {self.shape}")

    def dual_tuple(self) -> tuple[int, int, int, int]:
        a, b, c, d = self.tuple4
        if self.shape == "matching":
            return (_DUAL[b], _DUAL[a], _DUAL[a], _DUAL[b])
        return (_DUAL[d], _DUAL[b], _DUAL[c], _DUAL[a])

    def inverse_tuple(self) -> tuple[int, int, int, int]:
        a, b, c, d = self.tuple4
        return (a, c, b, d)

    @property
    def has_projection_row(self) -> bool:
        """Whether L carries a distinguished (projection) point."""
        return self.shape in ("pointed", "rows")


E, C, Y, S, O = EQUAL, COLLINEAR, SYMPLECTIC, SPECIAL, OPPOSITE

#: (tuple, shape, class, combing-table row, successor, local relation of K
#: to L for the first transition, K unique).  Display reminders: C is 1,
#: Y is 3/2, S is 2, O is 3.
_RAW = (
    # Class I, completely homogeneous
    ((C, C, C, C), "homog", "I", 18, (C, C, Y, S), "collinear", False),
    ((Y, Y, Y, Y), "homog", "I", 19, (Y, Y, S, S), "collinear", False),
    ((S, S, S, S), "homog", "I", 20, (S, S, S, O), "symplectic", False),
    # Class II, projection homogeneous (perfect matchings)
    ((E, C, C, E), "matching", "II", 1, (E, C, C, S), "equal", True),
    ((C, Y, Y, C), "matching", "II", 5, (C, Y, S, S), "symplectic", True),
    ((Y, S, S, Y), "matching", "II", 11, (Y, S, S, O), "collinear", True),
    ((S, O, O, S), "matching", "II", 17, (S, O, O, S), "special", True),
    # Class III, symmetric non-homogeneous
    ((E, C, C, C), "pointed", "III", 2, (C, C, Y, S), "equal or collinear", False),
    ((E, C, C, Y), "pointed", "III", 3, (C, Y, S, S), "equal", True),
    ((E, C, C, S), "pointed", "III", 6, (C, S, S, O), "equal", True),
    ((C, C, C, Y), "pointed", "III", 4, (C, Y, S, S), "collinear", True),
    ((C, Y, Y, Y), "pointed", "III", 23, (Y, Y, S, S), "collinear", False),
    ((C, Y, Y, S), "pointed", "III", 9, (Y, S, S, O), "collinear", True),
    ((Y, Y, Y, S), "pointed", "III", 26, (Y, S, S, O), "collinear", True),
    ((Y, S, S, S), "pointed", "III", 14, (S, S, S, O), "collinear or symplectic", False),
    ((C, S, S, O), "pointed", "III", 12, (S, O, O, S), "equal", True),
    ((Y, S, S, O), "pointed", "III", 15, (S, O, O, S), "collinear", True),
    ((S, S, S, O), "pointed", "III", 16, (S, O, O, S), "symplectic", True),
    # Class IV, asymmetric with two projection points
    ((C, Y, C, S), "pointed", "IV", 7, (C, S, S, O), "collinear", True),
    ((C, C, Y, S), "pointed", "IV", 8, (Y, S, S, O), "equal", True),
    ((C, Y, S, S), "pointed", "IV", 13, (S, S, S, O), "equal or collinear", False),
    ((C, S, Y, S), "pointed", "IV", 10, (Y, S, S, O), "symplectic", True),
    # Class IV, asymmetric with one projection point
    ((C, Y, C, Y), "cols", "IV", 21, (C, Y, S, S), "collinear", True),
    ((C, C, Y, Y), "rows", "IV", 22, (Y, Y, S, S), "equal", True),
    ((Y, Y, S, S), "rows", "IV", 24, (S, S, S, O), "collinear", False),
    ((Y, S, Y, S), "cols", "IV", 25, (Y, S, S, O), "symplectic", True),
)

TERMINAL = (S, O, O, S)


@dataclass
class CatalogueMiss:
    line_a: int
    line_b: int
    matrix: list[list[int]]

    @property
    def display(self) -> str:
        return "miss:" + ";".join(",".join(REL_DISPLAY[v] for v in row) for row in self.matrix)


class PositionCatalogue:
    """The 26 positions with signatures for a fixed line size m."""

    def __init__(self, m: int):
        if m < 3:
            raise PositionError("catalogue needs lines with at least 3 points")
        self.m = m
        self.entries: list[CatalogueEntry] = []
        for tup, shape, cls, row, succ, loc, uniq in _RAW:
            self.entries.append(CatalogueEntry(tup, shape, cls, row, succ, loc, uniq))
        if len(self.entries) != 26:
            raise PositionError(f"catalogue has {len(self.entries)} entries, expected 26")
        self.by_tuple = {e.tuple4: e for e in self.entries}
        self.by_sig: dict[int, CatalogueEntry] = {}
        for e in self.entries:
            sig = matrix_key(e.template(m))
            if sig in self.by_sig:
                raise PositionError(
                    f"signature collision between {e.display} and {self.by_sig[sig].display}")
            self.by_sig[sig] = e
        self._check_structure()

    def _check_structure(self):
        for e in self.entries:
            if e.inverse_tuple() not in self.by_tuple:
                raise PositionError(f"inverse of {e.display} missing")
            if e.dual_tuple() not in self.by_tuple:
                raise PositionError(f"dual of {e.display} missing")
            if self.by_tuple[e.dual_tuple()].dual_tuple() != e.tuple4:
                raise PositionError(f"duality not involutive at {e.display}")
            if e.successor not in self.by_tuple:
                raise PositionError(f"successor of {e.display} missing")
        # successor chains all reach the terminal entry
        for e in self.entries:
            self.level_of(e.tuple4)

    def entry(self, tup: tuple[int, int, int, int]) -> CatalogueEntry:
        return self.by_tuple[tup]

    def level_of(self, tup: tuple[int, int, int, int]) -> int:
        steps = 0
        cur = tup
        while cur != TERMINAL:
            cur = self.by_tuple[cur].successor
            steps += 1
            if steps > 4:
                raise PositionError(f"successor chain from {to_display(tup)} does not terminate")
        return steps


# -- position context ------------------------------------------------------------


class HexagonicModel:
    """Bundle of a hexagonic geometry, its relation matrix and catalogue."""

    def __init__(self, g: Geometry):
        self.geometry = g
        sizes = {len(l) for l in g.lines}
        if len(sizes) != 1:
            raise PositionError("positions need uniform line size")
        self.m = sizes.pop()
        self.rel = relation_matrix(g)
        self.catalogue = PositionCatalogue(self.m)
        self._local_opp: dict[int, dict[int, tuple[int, ...]]] = {}

    def pair_matrix(self, li: int, mi: int) -> list[list[int]]:
        """Relation codes from L's points (rows) to M's points, read from the
        relation rows of L's points only."""
        lines = self.geometry.lines
        rows = [self.rel.row(x) for x in lines[li]]
        return [[r[y] for y in lines[mi]] for r in rows]

    def position_of(self, li: int, mi: int):
        mat = self.pair_matrix(li, mi)
        entry = self.catalogue.by_sig.get(matrix_key(mat))
        if entry is None:
            return CatalogueMiss(li, mi, mat)
        return entry.tuple4

    def free_points(self, li: int, mi: int) -> tuple[int, ...]:
        """Points of L other than the projection point for (L, M)."""
        g = self.geometry
        if li == mi:
            return ()
        pos = self.position_of(li, mi)
        if isinstance(pos, CatalogueMiss):
            raise PositionError(f"pair ({li},{mi}) is not a catalogue position")
        entry = self.catalogue.entry(pos)
        pts = g.lines[li]
        if not entry.has_projection_row:
            return tuple(pts)
        target = _column_code(tuple(sorted(entry.template(self.m)[0])))
        hits = [p for p, row in zip(pts, self.pair_matrix(li, mi))
                if _column_code(tuple(sorted(row))) == target]
        if len(hits) != 1:
            raise PositionError(f"projection point not unique for pair ({li},{mi})")
        return tuple(p for p in pts if p != hits[0])

    def local_opposites(self, x: int) -> dict[int, tuple[int, ...]]:
        """Map each line K through x to the ascending lines through x locally
        opposite K at x, i.e. distinct lines L with (K, L) at position (E,C,C,S).

        In the template of (E,C,C,S) the row of x is {E,C,C} and every other
        row is {C,S,S}, so two distinct lines K, L through x are at that
        position iff x is collinear to every point of K - x and of L - x and
        every point of K - x is special to every point of L - x.  Built once
        per point from the relation rows of x and of the points on lines
        through x only.
        """
        table = self._local_opp.get(x)
        if table is None:
            g, rel = self.geometry, self.rel
            row_x = rel.row(x)
            through = g.lines_through[x]
            rest = {k: [p for p in g.lines[k] if p != x] for k in through}
            near = [k for k in through if all(row_x[p] == COLLINEAR for p in rest[k])]
            pts = [p for k in near for p in rest[k]]
            special = {}
            for p in pts:
                row = rel.row(p)
                special[p] = {q for q in pts if row[q] == SPECIAL}
            table = self._local_opp[x] = dict.fromkeys(through, ())
            for k in near:
                common = set.intersection(*(special[p] for p in rest[k]))
                table[k] = tuple(l for l in near if l != k and common.issuperset(rest[l]))
        return table

    def locally_opposite_at(self, x: int, ki: int, li: int) -> bool:
        """Whether lines ki and li, both through x, are locally opposite at x."""
        g = self.geometry
        if not (g.line_bits[ki] >> x & 1) or not (g.line_bits[li] >> x & 1):
            raise PositionError(f"lines {ki},{li} do not both pass through {x}")
        return li in self.local_opposites(x)[ki]

    def level(self, li: int, mi: int) -> int:
        pos = self.position_of(li, mi)
        if isinstance(pos, CatalogueMiss):
            raise PositionError(f"pair ({li},{mi}) is not a catalogue position")
        return self.catalogue.level_of(pos)


# -- census -----------------------------------------------------------------------


def _sort_lanes(lanes: list) -> list:
    """Sort equal-shape arrays entrywise, in place on the list (an odd-even
    transposition network)."""
    for p in range(len(lanes)):
        for i in range(p % 2, len(lanes) - 1, 2):
            a, b = lanes[i], lanes[i + 1]
            lanes[i], lanes[i + 1] = np.minimum(a, b), np.maximum(a, b)
    return lanes


@dataclass
class PositionCensus:
    counts: dict                      # display string -> ordered-pair count
    misses: list                      # CatalogueMiss examples (capped)
    miss_count: int
    instances: dict                   # display string -> list of (li, mi)
    total: int

    def realized(self) -> list[str]:
        return sorted(self.counts)


#: instances kept per position by position_census
CENSUS_INSTANCES = 10000
#: lines per block of position_census
CENSUS_BLOCK = 32


def position_census(model: HexagonicModel, budget: Optional[int] = None) -> PositionCensus:
    """Exhaustive census of all ordered line pairs, vectorized for every line
    size whose signature keys fit in int64 (3- and 4-point lines).

    The column code of every point with respect to every line is read from
    a table indexed by the point's unsorted relation codes to the line,
    and the k codes that occur are renumbered onto range(k).  Each block of
    lines then packs its keys against all lines in base k, in int32 when
    k**(2m) < 2**31, and each distinct packed key is translated once to
    its signature key.  Instances are the first CENSUS_INSTANCES pairs of
    each position in row-major order.  The inverse law is checked for every
    realized key: the key of (M, L) is the half swap of the key of (L, M).
    With a ``budget``, BudgetExceeded is raised after the first block that
    takes the pairs done beyond it.
    """
    g = model.geometry
    nl, m = len(g.lines), model.m
    base = _code_base(m)
    if base ** (2 * m) > 1 << 63:
        raise PositionError(f"signature keys of {m}-point lines reach {base}**{2 * m}, "
                            "beyond the int64 bound 2**63")
    R = model.rel.np()
    lines_arr = np.array(g.lines, dtype=np.intp)
    nrel = len(REL_DISPLAY)
    # code_of[t]: the column code of the relation codes t, packed in base nrel
    code_of = np.array([_column_code(tuple(sorted(t)))
                        for t in itertools.product(range(nrel), repeat=m)],
                       dtype=np.min_scalar_type(base - 1))
    # codes[p, L]: the column code of point p with respect to line L, read
    # from code_of at p's relation codes to L's points
    codes = np.empty((g.n, nl), dtype=code_of.dtype)
    seen = np.zeros(len(code_of), dtype=bool)
    for i0 in range(0, nl, CENSUS_BLOCK):
        pts = lines_arr[i0:i0 + CENSUS_BLOCK]
        tuples = _pack([R[pts[:, i]] for i in range(1, m)], nrel,
                       R[pts[:, 0]].astype(np.int16))
        seen[tuples] = True
        codes[:, i0:i0 + CENSUS_BLOCK] = code_of[tuples].T
    # the k codes that occur, renumbered onto range(k) in ascending order,
    # so that sorting renumbered codes sorts the codes
    occurring = np.unique(code_of[seen])
    k = len(occurring)
    compact = np.zeros(base, dtype=codes.dtype)
    compact[occurring] = np.arange(k)
    for r0 in range(0, g.n, CENSUS_BLOCK):
        codes[r0:r0 + CENSUS_BLOCK] = compact[codes[r0:r0 + CENSUS_BLOCK]]
    dtype = np.int32 if k ** (2 * m) < 1 << 31 else np.int64
    occurring = occurring.tolist()
    signature: dict[int, int] = {}        # packed key in base k -> signature key
    key_entry = model.catalogue.by_sig
    counts: dict[int, int] = {}
    found: dict[int, list] = {}           # signature key -> flat indices of its first pairs
    have: dict[int, int] = {}
    for i0 in range(0, nl, CENSUS_BLOCK):
        pts = lines_arr[i0:i0 + CENSUS_BLOCK]
        wrt_block = np.ascontiguousarray(codes[:, i0:i0 + CENSUS_BLOCK].T)
        # key[b, M]: sorted codes of the points of line i0 + b with respect
        # to M, then sorted codes of M's points with respect to line i0 + b
        lanes = (_sort_lanes([codes[pts[:, i]] for i in range(m)])
                 + _sort_lanes([np.take(wrt_block, lines_arr[:, j], axis=1)
                                for j in range(m)]))
        key = _pack(lanes[1:], k, lanes[0].astype(dtype))
        vals, cnts = np.unique(key, return_counts=True)
        for v, c in zip(vals.tolist(), cnts.tolist()):
            sig = signature.get(v)
            if sig is None:
                digits = [occurring[v // k ** i % k] for i in reversed(range(2 * m))]
                sig = signature[v] = _pack(digits, base)
            counts[sig] = counts.get(sig, 0) + c
            take = (CENSUS_INSTANCES if sig in key_entry else 1) - have.get(sig, 0)
            if take > 0:
                at = np.flatnonzero(key == v)[:take] + i0 * nl
                found.setdefault(sig, []).append(at)
                have[sig] = have.get(sig, 0) + len(at)
        if budget is not None and (i0 + len(pts)) * nl > budget:
            raise BudgetExceeded(f"position census exceeded {budget} pairs")
    # pairs become tuples only once the code table is freed, so that the two
    # are never in memory together
    del codes
    inst = {}
    for sig, chunks in found.items():
        at = np.concatenate(chunks)
        inst[sig] = list(zip((at // nl).tolist(), (at % nl).tolist()))
    misses = sorted(pairs[0] for v, pairs in inst.items() if v not in key_entry)
    miss_examples = [CatalogueMiss(li, mi, model.pair_matrix(li, mi))
                     for li, mi in misses[:100]]
    miss_count = sum(c for v, c in counts.items() if v not in key_entry)
    # inverse law, exhaustively at the signature-key level
    for v, c in counts.items():
        w = _swap_key(v, m)
        if counts.get(w) != c:
            raise PositionError("census is not symmetric under pair reversal")
        if v in key_entry and (w not in key_entry
                               or key_entry[w].tuple4 != key_entry[v].inverse_tuple()):
            raise PositionError(f"inverse law fails for {key_entry[v].display}")
    realized = [(v, e.display) for v, e in key_entry.items() if v in counts]
    return PositionCensus({d: counts[v] for v, d in realized}, miss_examples, miss_count,
                          {d: inst[v] for v, d in realized}, nl * nl)


def seeded_instances(census: PositionCensus, display: str, k: int, seed: int) -> list:
    """Deterministic seeded selection of k instances of a position."""
    import random as _random
    pool = census.instances.get(display, [])
    if len(pool) <= k:
        return list(pool)
    return _random.Random(seed).sample(pool, k)


# -- combing ---------------------------------------------------------------------


@dataclass
class CombStep:
    line: int
    position: tuple[int, int, int, int]
    x: int
    k: int
    replacement: int


@dataclass
class CombTrace:
    start: int
    target: int
    steps: list[CombStep]
    final: int

    @property
    def positions(self) -> list[str]:
        return [to_display(s.position) for s in self.steps]


def find_combing_line(model: HexagonicModel, li: int, mi: int, x: int) -> int:
    """A line K through x, not locally opposite L, every line through x
    locally opposite K landing on the table successor position with M."""
    pos = model.position_of(li, mi)
    if isinstance(pos, CatalogueMiss):
        raise PositionError("combing requires a catalogue position")
    if pos == TERMINAL:
        raise PositionError("pair already opposite")
    if x not in model.free_points(li, mi):
        raise PositionError(f"{x} is not a free point for ({li},{mi})")
    succ = model.catalogue.entry(pos).successor
    for ki, mates in model.local_opposites(x).items():
        if not mates or li in mates:
            continue
        if all(model.position_of(l2, mi) == succ for l2 in mates):
            return ki
    raise NoCombingLine(
        f"no combing line for pair ({li},{mi}) at point {x} "
        f"(position {to_display(pos)})")


#: combing steps after which comb_to_opposite gives up; a catalogue
#: position is at most 4 steps from the opposite one
COMB_STEPS = 8


def comb_to_opposite(model: HexagonicModel, li: int, mi: int) -> CombTrace:
    """Iterate combing replacements until the pair is opposite."""
    g = model.geometry
    steps: list[CombStep] = []
    cur = li
    for _ in range(COMB_STEPS):
        pos = model.position_of(cur, mi)
        if isinstance(pos, CatalogueMiss):
            raise PositionError("combing requires catalogue positions")
        if pos == TERMINAL:
            return CombTrace(li, mi, steps, cur)
        if cur == mi:
            # degenerate equal pair: comb with K = L at the least point
            x = g.lines[cur][0]
            ki = cur
        else:
            x = min(model.free_points(cur, mi))
            ki = find_combing_line(model, cur, mi, x)
        repl = min(model.local_opposites(x)[ki])
        steps.append(CombStep(cur, pos, x, ki, repl))
        nxt = model.position_of(repl, mi)
        if nxt != model.catalogue.entry(pos).successor:
            raise PositionError(
                f"transition {to_display(pos)} -> "
                f"{nxt if isinstance(nxt, CatalogueMiss) else to_display(nxt)} "
                f"does not match the combing table")
        cur = repl
    raise NonterminatingComb(f"comb of ({li},{mi}) exceeded {COMB_STEPS} steps")


# -- the two combing algorithms ----------------------------------------------------


@dataclass
class CombingRun:
    x: int
    auxiliary: tuple[int, ...]
    result: int
    levels_before: tuple[int, ...]
    levels_after: tuple[int, ...]


def _common_free_point(model: HexagonicModel, li: int, targets: Sequence[int]) -> int:
    g = model.geometry
    free = set(g.lines[li])
    for t in targets:
        free &= set(model.free_points(li, t)) if t != li else set()
    if not free:
        raise AlgorithmViolation("ALG1: projection points cover the base line")
    return min(free)


def _auxiliary_lines(model: HexagonicModel, li: int, targets: Sequence[int], x: int) -> list[int]:
    g = model.geometry
    out = []
    for t in targets:
        pos = model.position_of(li, t)
        if pos == TERMINAL:
            # projection of the opposite line onto x: through the centre of
            # the unique special pair (x, y) with y on the target
            row = [model.rel.rel(x, y) for y in g.lines[t]]
            y = g.lines[t][row.index(SPECIAL)]
            centre = (g.adj[x] & g.adj[y] & ~(1 << x) & ~(1 << y)).bit_length() - 1
            ki = g.line_through(x, centre)
            if ki is None or li not in model.local_opposites(x)[ki]:
                raise PositionError("projection line is not locally opposite the base")
            out.append(ki)
        else:
            out.append(find_combing_line(model, li, t, x))
    return out


def combing_algorithm_1(model: HexagonicModel, li: int, targets: Sequence[int]) -> CombingRun:
    """Replace L by a line through a common free point locally opposite
    every auxiliary line; levels decrease, opposite targets stay opposite."""
    x = _common_free_point(model, li, targets)
    aux = _auxiliary_lines(model, li, targets, x)
    before = tuple(model.level(li, t) for t in targets)
    for cand, opp in model.local_opposites(x).items():
        if set(aux).issubset(opp):
            after = tuple(model.level(cand, t) for t in targets)
            return CombingRun(x, tuple(aux), cand, before, after)
    raise AlgorithmViolation("ALG2: no line through the free point is locally "
                             "opposite every auxiliary line")


def combing_algorithm_2(model: HexagonicModel, li: int, targets: Sequence[int],
                        comb_back_at: int) -> CombingRun:
    """Comb back at one auxiliary line: stay non-(locally-)opposite to it."""
    x = _common_free_point(model, li, targets)
    aux = _auxiliary_lines(model, li, targets, x)
    m_star = aux[comb_back_at]
    local = model.local_opposites(x)
    if li not in local[m_star]:
        raise AlgorithmViolation("ALG3: designated auxiliary line is not locally "
                                 "opposite the base (target not opposite)")
    others = {m for i, m in enumerate(aux) if m != m_star}
    before = tuple(model.level(li, t) for t in targets)
    for cand, opp in local.items():
        if cand == m_star or m_star in opp:
            continue
        if others.issubset(opp):
            after = tuple(model.level(cand, t) for t in targets)
            return CombingRun(x, tuple(aux), cand, before, after)
    raise AlgorithmViolation("ALG3: no admissible line through the free point")
