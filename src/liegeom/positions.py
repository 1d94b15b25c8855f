"""Mutual positions of line pairs in hexagonic models, and combing.

A position is matched from the signature of a line pair, its relation
matrix's sorted rows and sorted columns as one bytes key (see "signature
keys"), which each model memoizes per pair matrix for single-pair
lookups and the vectorized census alike; the 26 catalogue entries are
generated from shape templates (homogeneous, matching, pointed, row- and
column-constant) whose keys are pairwise distinct, which is asserted
when a catalogue is built.  The combing table maps every entry to its
successor position, with the terminal position being the opposite pair.
"""

from __future__ import annotations

from collections import Counter
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
from .search import Meter, special_center


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
# The signature key of (L, M) is the bytes of the m rows of its relation
# matrix, each sorted, in ascending order, followed by its m columns, each
# sorted, in ascending order: one byte per relation code.  The key is exact
# for a fixed m, and the key of (M, L) is the key of (L, M) with its two
# halves swapped.  matrix_key is the only code that computes it;
# HexagonicModel.signature_key memoizes it per pair matrix, and both
# position_of and position_census read that memo.


def _pack(digits, base: int, key):
    """The digit arrays, most significant first, packed onto the accumulator
    array ``key`` in ``base``, in place; key's dtype bounds the result."""
    for d in digits:
        key *= base
        key += d
    return key


def matrix_key(mat: Sequence[Sequence[int]]) -> bytes:
    """Signature key of the pair with relation matrix ``mat`` (rows: L's points;
    the relation is symmetric, so row i also holds the codes from M to L's i-th point)."""
    rows = sorted(bytes(sorted(r)) for r in mat)
    cols = sorted(bytes(sorted(c)) for c in zip(*mat))
    return b"".join(rows + cols)


def _swap_key(key: bytes, m: int) -> bytes:
    """The key of (M, L), given the key of (L, M)."""
    return key[m * m:] + key[:m * m]


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
        self.by_sig: dict[bytes, CatalogueEntry] = {}
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
        self._signatures: dict[bytes, bytes] = {}

    def _codes(self, li: int, mi: int) -> bytes:
        """The m * m relation codes from L's points (rows) to M's points, row
        by row, read from the relation rows of L's points only."""
        lines = self.geometry.lines
        return bytes([r[y] for r in map(self.rel.row, lines[li]) for y in lines[mi]])

    def _rows(self, codes: bytes) -> list[list[int]]:
        """The pair matrix whose m * m codes, row by row, are ``codes``."""
        return [list(codes[i:i + self.m]) for i in range(0, len(codes), self.m)]

    def pair_matrix(self, li: int, mi: int) -> list[list[int]]:
        """Relation codes from L's points (rows) to M's points, read from the
        relation rows of L's points only."""
        return self._rows(self._codes(li, mi))

    def signature_key(self, mat: bytes) -> bytes:
        """Signature key of the pair matrix ``mat`` (its m * m relation codes,
        row by row), memoized: matrix_key runs once per distinct matrix."""
        sig = self._signatures.get(mat)
        if sig is None:
            sig = self._signatures[mat] = matrix_key(self._rows(mat))
        return sig

    def _entry(self, li: int, mi: int, codes: bytes) -> CatalogueEntry:
        entry = self.catalogue.by_sig.get(self.signature_key(codes))
        if entry is None:
            raise PositionError(f"pair ({li},{mi}) is not a catalogue position")
        return entry

    def entry(self, li: int, mi: int) -> CatalogueEntry:
        """The catalogue entry of the pair (li, mi); PositionError if it has none."""
        return self._entry(li, mi, self._codes(li, mi))

    def position_of(self, li: int, mi: int):
        """The position tuple of the pair (li, mi), or a CatalogueMiss."""
        codes = self._codes(li, mi)
        entry = self.catalogue.by_sig.get(self.signature_key(codes))
        return entry.tuple4 if entry else CatalogueMiss(li, mi, self._rows(codes))

    def _free(self, li: int, mi: int, entry: CatalogueEntry, codes: bytes) -> tuple[int, ...]:
        """free_points of (li, mi), given its entry and codes."""
        pts = self.geometry.lines[li]
        if li == mi:
            return ()
        if not entry.has_projection_row:
            return tuple(pts)
        target = sorted(entry.template(self.m)[0])
        hits = [p for p, row in zip(pts, self._rows(codes)) if sorted(row) == target]
        if len(hits) != 1:
            raise PositionError(f"projection point not unique for pair ({li},{mi})")
        return tuple(p for p in pts if p != hits[0])

    def free_points(self, li: int, mi: int) -> tuple[int, ...]:
        """Points of L other than the projection point for (L, M)."""
        if li == mi:
            return ()
        codes = self._codes(li, mi)
        return self._free(li, mi, self._entry(li, mi, codes), codes)

    def local_opposites(self, x: int) -> dict[int, tuple[int, ...]]:
        """Map each line K through x to the ascending lines through x locally
        opposite K at x, i.e. distinct lines L with (K, L) at position (E,C,C,S).

        In the template of (E,C,C,S) the row of x is {E,C,C} and every other
        row is {C,S,S}, so two distinct lines K, L through x are at that
        position iff x is collinear to every point of K - x and of L - x and
        every point of K - x is special to every point of L - x.  Built once
        per point from the relation rows of x and of the points on lines
        through x only: those rows, at those points, are read as one block.
        """
        table = self._local_opp.get(x)
        if table is None:
            g, rel, m = self.geometry, self.rel, self.m
            row_x = rel.row(x)
            through = g.lines_through[x]
            near = [k for k in through
                    if all(row_x[p] == COLLINEAR for p in g.lines[k] if p != x)]
            pts = [p for k in near for p in g.lines[k] if p != x]
            block = np.frombuffer(b"".join(rel.row(p) for p in pts), dtype=np.int8)
            special = block.reshape(len(pts), g.n)[:, pts] == SPECIAL
            # opp[i, j]: every point of near[i] - x special to every point of near[j] - x
            opp = special.reshape(len(near), m - 1, len(near), m - 1).all(axis=(1, 3))
            np.fill_diagonal(opp, False)
            table = dict.fromkeys(through, ())
            for k, mates in zip(near, opp.tolist()):
                table[k] = tuple(l for l, yes in zip(near, mates) if yes)
            self._local_opp[x] = table
        return table

    def locally_opposite_at(self, x: int, ki: int, li: int) -> bool:
        """Whether lines ki and li, both through x, are locally opposite at x."""
        g = self.geometry
        if not (g.line_bits[ki] >> x & 1) or not (g.line_bits[li] >> x & 1):
            raise PositionError(f"lines {ki},{li} do not both pass through {x}")
        return li in self.local_opposites(x)[ki]

    def level(self, li: int, mi: int) -> int:
        return self.catalogue.level_of(self.entry(li, mi).tuple4)


# -- census -----------------------------------------------------------------------


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
CENSUS_BLOCK = 16


def _pair_keys(digits: list, lines: np.ndarray) -> np.ndarray:
    """key[M, b]: the sum over j of digits[j][q, b] at the j-th point q of
    line M (row M of ``lines``).  With digits[j] the columns of the points
    with respect to the lines b, renumbered onto range(u) and scaled by
    u**(m - 1 - j), that is the pair matrix of (b, M) packed in base u: one
    key per line pair."""
    key = np.take(digits[0], lines[:, 0], axis=0)
    for j in range(1, len(digits)):
        key += np.take(digits[j], lines[:, j], axis=0)
    return key


def _distinct(x: np.ndarray) -> np.ndarray:
    """The distinct values of x, ascending.  Without return_counts, np.unique
    would import numpy.ma, about a megabyte, for its masked-array check."""
    return np.unique(x, return_counts=True)[0]


def _counts(ordered: np.ndarray, known: np.ndarray) -> Optional[np.ndarray]:
    """How often each of the ascending values ``known`` occurs in the
    ascending array ``ordered``, or None if ordered holds another value."""
    counts = np.searchsorted(ordered, known, "right") - np.searchsorted(ordered, known)
    return counts if counts.sum() == ordered.size else None


def position_census(model: HexagonicModel) -> PositionCensus:
    """Exhaustive census of all ordered line pairs, vectorized for every line
    size whose pair keys fit in int64 (3- and 4-point lines).

    A pair (L, M) is keyed by its pair matrix, packed in base u, the number of
    columns (a point's relation codes to L's points) that occur.  Each
    distinct matrix gets its signature key from the model's memo, which
    position_of reads too.  All the pairs are charged to the budget first.

    The relation matrix must be symmetric (PositionError if it is not), so
    each block of lines L is packed against the lines M from its first line
    on.  The part beyond the block's square is sorted and counted, and its
    transposes count the lower triangle: their keys must be the half swaps
    (the inverse law, exhaustively).  The squares are counted after the loop.

    Instances are the first CENSUS_INSTANCES pairs of each position in
    row-major order, and the first pair of each miss.  One collector merges
    them from each part beyond while a value there is short of its quota,
    then from the squares, then from the lower blocks in row order while
    some signature may still gain one there.  At most nl**2 keys are packed,
    and the census is identical for every block size.
    """
    g = model.geometry
    nl, m = len(g.lines), model.m
    Meter("position census", "pairs").tick(nl * nl)
    nrel = len(REL_DISPLAY)
    if nrel ** (m * m) > 1 << 63:
        raise PositionError(f"pair keys of {m}-point lines reach {nrel}**{m * m}, "
                            "beyond the int64 bound 2**63")
    # codes are 0..5, so their unsigned view adds without casting
    R = model.rel.np().view(np.uint8)
    if not np.array_equal(R, R.T):
        raise PositionError("census is not symmetric under pair reversal")
    lines_arr = np.array(g.lines, dtype=np.intp)
    B = CENSUS_BLOCK

    def columns(i0):
        """[b, q]: q's relation codes to line i0 + b's points, in base nrel."""
        rows = np.take(R, lines_arr[i0:i0 + B].T, axis=0)   # [i, b, q]
        return _pack(rows[1:], nrel, rows[0].astype(np.min_scalar_type(nrel ** m - 1)))

    # the columns that occur
    occurring = np.flatnonzero(sum(np.bincount(columns(i0).ravel(), minlength=nrel ** m)
                                   for i0 in range(0, nl, B)))
    u = len(occurring)
    renumber = np.zeros(nrel ** m, dtype=np.min_scalar_type(u - 1))
    renumber[occurring] = np.arange(u)
    key_type = np.min_scalar_type(u ** m - 1)
    place = [key_type.type(u ** (m - 1 - j)) for j in range(m)]
    occurring = occurring.tolist()
    key_entry = model.catalogue.by_sig

    def block_keys(i0, lo, hi):
        """key[M - lo, b]: the packed matrix of the pair (i0 + b, M), lo <= M < hi."""
        tau = np.take(renumber, np.ascontiguousarray(columns(i0).T))
        return _pair_keys([tau * p for p in place], lines_arr[lo:hi])

    def codes(v):
        """The pair matrix packed as v: codes(v)[i][j] from L's i-th point to M's j-th."""
        cols = [occurring[v // u ** (m - 1 - j) % u] for j in range(m)]
        return [[x // nrel ** (m - 1 - i) % nrel for x in cols] for i in range(m)]

    signature: dict[int, bytes] = {}        # packed pair matrix -> signature key

    def sig_of(v):
        sig = signature.get(v)
        if sig is None:
            sig = signature[v] = model.signature_key(bytes(d for row in codes(v) for d in row))
        return sig

    def quota(sig):
        return CENSUS_INSTANCES if sig in key_entry else 1

    def member(key, vals):
        """Whether each key is one of the values vals, read from a table over all
        keys when they have at most 16 bits (np.isin takes ~10 bytes per key)."""
        if key_type.itemsize > 2:
            return np.isin(key, vals)
        table = np.zeros(u ** m, dtype=bool)
        table[vals] = True
        return table[key]

    first: dict[bytes, np.ndarray] = {}     # sig -> its least flat pair indices so far

    def short(vs):
        """Whether the signature of each value is short of its quota."""
        return np.array([len(first.get(s, ())) < quota(s) for s in map(sig_of, vs.tolist())], bool)

    def collect(keys, at_of, vals):
        """Merge into first[sig] the flat pair indices at_of(i) of the keys[i],
        in ascending pair order, whose value (one of the ascending vals) has sig."""
        idx = np.flatnonzero(member(keys, vals))
        sigs = [sig_of(v) for v in vals.tolist()]
        names = list(dict.fromkeys(sigs))
        hit = np.array([names.index(s) for s in sigs], dtype=np.intp)[
            np.searchsorted(vals, keys[idx])]
        for w, sig in enumerate(names):
            # seeded with an empty int64 array: an empty tuple would not stay int64
            at = np.concatenate((first.get(sig, np.empty(0, dtype=np.int64)),
                                 at_of(idx[hit == w][:quota(sig)])))
            at.sort()
            first[sig] = at[:quota(sig)].copy()

    counts = Counter()
    squares = []                            # each block's square, row-major
    known = np.empty(0, dtype=key_type)     # the values met beyond the squares,
    total = np.empty(0, dtype=np.int64)     # how often each occurs there,
    open_ = np.empty(0, dtype=bool)         # and whether its signature is short
    for i0 in range(0, nl, B):
        nb = min(B, nl - i0)
        key = block_keys(i0, i0, nl)
        squares.append(key[:nb].T.ravel())
        part = key[nb:]
        ordered = np.sort(part, axis=None)
        cnts = _counts(ordered, known)
        if cnts is None:
            vals = _distinct(np.concatenate((known, ordered)))
            grown = np.zeros(len(vals), dtype=np.int64)
            grown[np.searchsorted(vals, known)] = total
            known, total, open_ = vals, grown, short(vals)
            cnts = _counts(ordered, known)
        total += cnts
        here = (cnts > 0) & open_
        if here.any():
            collect(part.T.ravel(), lambda j, w=len(part): (i0 + j // w) * nl + i0 + nb + j % w,
                    known[here])
            open_ = short(known)
    squares = np.concatenate(squares)
    vals, cnts = np.unique(squares, return_counts=True)
    for v, c in zip(vals.tolist(), cnts.tolist()):
        counts[sig_of(v)] += c

    def at_square(j):
        """The flat pair index of squares[j]: B * B keys a block, nb * nb the last."""
        i0 = j // (B * B) * B
        b, c = np.divmod(j % (B * B), np.minimum(B, nl - i0))
        return (i0 + b) * nl + i0 + c

    collect(squares, at_square, vals)
    del squares
    # the lower triangle: each value beyond the squares, transposed
    for v, c in zip(known.tolist(), total.tolist()):
        sig = sig_of(v)
        inv = model.signature_key(bytes(d for col in zip(*codes(v)) for d in col))
        if inv != _swap_key(sig, m):
            raise PositionError("key of a transposed pair matrix is not the half swap")
        counts[sig] += c
        counts[inv] += c

    pending = {_swap_key(sig_of(v), m) for v in known.tolist()}   # the sigs below the diagonal
    for i0 in range(B, nl, B):
        # keep those whose instances may still gain a pair from row i0 on
        pending = {s for s in pending if (got := len(first.get(s, ()))) < counts[s]
                   and (got < quota(s) or first[s][-1] >= i0 * nl)}
        if not pending:
            break
        key = block_keys(i0, 0, i0)
        vals = _distinct(key)
        collect(key.T.ravel(), lambda j: (i0 + j // i0) * nl + j % i0,
                vals[np.array([sig_of(v) in pending for v in vals.tolist()], dtype=bool)])
    inst = {sig: list(zip((at // nl).tolist(), (at % nl).tolist())) for sig, at in first.items()}
    misses = sorted(pairs[0] for v, pairs in inst.items() if v not in key_entry)
    miss_examples = [CatalogueMiss(li, mi, model.pair_matrix(li, mi))
                     for li, mi in misses[:100]]
    miss_count = sum(c for v, c in counts.items() if v not in key_entry)
    # inverse law for the catalogue positions, at the signature-key level
    for v in counts:
        w = _swap_key(v, m)
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


def find_combing_line(model: HexagonicModel, li: int, mi: int, x: int) -> int:
    """A line K through x, not locally opposite L, every line through x
    locally opposite K landing on the table successor position with M."""
    codes = model._codes(li, mi)
    entry = model._entry(li, mi, codes)
    if entry.tuple4 == TERMINAL:
        raise PositionError("pair already opposite")
    if x not in model._free(li, mi, entry, codes):
        raise PositionError(f"{x} is not a free point for ({li},{mi})")
    for ki, mates in model.local_opposites(x).items():
        if not mates or li in mates:
            continue
        if all(model.position_of(l2, mi) == entry.successor for l2 in mates):
            return ki
    raise NoCombingLine(
        f"no combing line for pair ({li},{mi}) at point {x} "
        f"(position {entry.display})")


#: combing steps after which comb_to_opposite gives up; a catalogue
#: position is at most 4 steps from the opposite one
COMB_STEPS = 8


def comb_to_opposite(model: HexagonicModel, li: int, mi: int) -> CombTrace:
    """Iterate combing replacements until the pair is opposite."""
    g = model.geometry
    steps: list[CombStep] = []
    cur = li
    for _ in range(COMB_STEPS):
        entry = model.entry(cur, mi)
        if entry.tuple4 == TERMINAL:
            return CombTrace(li, mi, steps, cur)
        if cur == mi:
            # degenerate equal pair: comb with K = L at the least point
            x = g.lines[cur][0]
            ki = cur
        else:
            x = min(model.free_points(cur, mi))
            ki = find_combing_line(model, cur, mi, x)
        repl = min(model.local_opposites(x)[ki])
        steps.append(CombStep(cur, entry.tuple4, x, ki, repl))
        nxt = model.entry(repl, mi)
        if nxt.tuple4 != entry.successor:
            raise PositionError(
                f"transition {entry.display} -> {nxt.display} does not match the combing table")
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
            ki = g.line_through(x, special_center(g, x, y))
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
