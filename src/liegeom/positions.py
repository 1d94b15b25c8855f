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

from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .geometry import Geometry, GeometryError
from .groups import line_orbits
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
        if x not in g.lines[ki] or x not in g.lines[li]:
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
    instances: dict                   # display string -> (k, 2) int32 array of (li, mi)
    total: int
    orbits: int                       # line orbits, one row counted for each

    def realized(self) -> list[str]:
        return sorted(self.counts)

    def __eq__(self, other):
        """Field by field, each instance array by value."""
        return (isinstance(other, PositionCensus)
                and (self.counts, self.misses, self.miss_count, self.total, self.orbits)
                == (other.counts, other.misses, other.miss_count, other.total, other.orbits)
                and self.instances.keys() == other.instances.keys()
                and all(np.array_equal(a, other.instances[d]) for d, a in self.instances.items()))


#: instances kept per position by position_census
CENSUS_INSTANCES = 10000
#: rows per block of position_census
CENSUS_BLOCK = 16


def _row_keys(R: np.ndarray, lines: np.ndarray, rows: np.ndarray, dtype) -> np.ndarray:
    """key[b, M]: the pair matrix of (rows[b], M), for every line M, packed:
    each point's column (its codes to the points of line rows[b]) in base
    6, and M's columns in base 6**m."""
    nrel, m = len(REL_DISPLAY), lines.shape[1]
    cols = _pack(R[lines[rows]].transpose(1, 0, 2), nrel,
                 np.zeros((len(rows), len(R)), dtype=dtype))
    return _pack((np.take(cols, lines[:, j], axis=1) for j in range(m)), nrel ** m,
                 np.zeros((len(rows), len(lines)), dtype=dtype))


def _listed_keys(R: np.ndarray, lines: np.ndarray, li: np.ndarray, mi: np.ndarray,
                 dtype) -> np.ndarray:
    """key[k]: the pair matrix of (li[k], mi[k]), packed as by _row_keys."""
    nrel, m = len(REL_DISPLAY), lines.shape[1]
    mat = R[lines[li][:, :, None], lines[mi][:, None, :]]
    return _pack((mat[:, i, j] for j in range(m) for i in range(m)), nrel,
                 np.zeros(len(li), dtype=dtype))


def position_census(model: HexagonicModel) -> PositionCensus:
    """Census of all ordered line pairs from one row per line orbit, for
    every line size whose pair keys fit in int64 (3- and 4-point lines).

    A pair (L, M) is keyed by its packed pair matrix (_row_keys).  Each
    distinct matrix gets its signature key from the model's memo, which
    position_of reads too, and the key of its transpose must be the half
    swap of its own.  All the pairs are charged to the budget first, and
    the relation matrix must be symmetric (PositionError if it is not).

    Counts: groups.line_orbits certifies generators from the base's form
    on the geometry and on this relation matrix.  A certified generator
    maps the pairs (L, M) of a row onto the pairs of its image row with the
    same signatures, so a count is the sum over the orbits of the orbit
    size times the count in the row of the orbit's least line.

    Instances are the first CENSUS_INSTANCES pairs of each position in
    row-major order, and the first pair of each miss, as one (k, 2) int32
    array of (li, mi) rows per signature.  A signature takes
    them from the first of these sources that applies, each read in
    row-major order until its signatures are full:
    - the diagonal pairs (L, L), when all its pairs are diagonal;
    - the pairs of lines that meet, row by row, when its matrix holds
      EQUAL and EQUAL is on the relation matrix's diagonal only (a matrix
      holding EQUAL then belongs to two lines through a common point);
    - a scan of all pairs, row by row.
    With no certified generator every line is its own orbit, and one scan
    of every row, in blocks of CENSUS_BLOCK rows, counts and collects.
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
    lines = np.array(g.lines, dtype=np.intp)
    dtype = np.int32 if nrel ** (m * m) <= 1 << 31 else np.int64
    B = CENSUS_BLOCK
    key_entry = model.catalogue.by_sig
    signature: dict[int, bytes] = {}        # packed pair matrix -> signature key

    def sig_of(v):
        sig = signature.get(v)
        if sig is None:
            # the digits of v, most significant first, are the matrix column by column
            d = [v // nrel ** k % nrel for k in reversed(range(m * m))]
            sig = model.signature_key(bytes(d[j * m + i] for i in range(m) for j in range(m)))
            if model.signature_key(bytes(d)) != _swap_key(sig, m):
                raise PositionError("key of a transposed pair matrix is not the half swap")
            signature[v] = sig
        return sig

    def tally(key, weight) -> Counter:
        """The signatures of the keys in the rows of key, row b counted weight[b] times."""
        key = np.sort(key, axis=1)
        at = np.flatnonzero(np.diff(key, axis=1, prepend=-1))
        runs = np.diff(at, append=key.size) * weight[at // key.shape[1]]
        out = Counter()
        for v, c in zip(key.ravel()[at].tolist(), runs.tolist()):
            out[sig_of(v)] += c
        return out

    counts = Counter()
    # sig -> its instances so far, one (li, mi) row each
    first: dict[bytes, np.ndarray] = defaultdict(lambda: np.empty((0, 2), dtype=np.int32))

    def short(s) -> int:
        """How many more instances the signature s takes."""
        return min(counts[s], CENSUS_INSTANCES if s in key_entry else 1) - len(first[s])

    def full(sigs) -> bool:
        return all(short(s) <= 0 for s in sigs)

    def collect(key, pairs, sigs):
        """Append to first[s], for each s of sigs still short, the pairs
        (li, mi) = pairs(k) of the first keys key[k] with signature s; key
        runs in row-major pair order."""
        vals = np.sort(key)
        vals = vals[np.diff(vals, prepend=-1) != 0].tolist()
        keep, group, names = [], [], {}
        for v in vals:
            if (s := sig_of(v)) in sigs and short(s) > 0:
                keep.append(v)
                group.append(names.setdefault(s, len(names)))
        if keep:
            keep = np.array(keep, dtype=key.dtype)
            at = np.minimum(np.searchsorted(keep, key), len(keep) - 1)
            idx = np.flatnonzero(keep[at] == key)
            group = np.array(group)[at[idx]]
            for s, w in names.items():
                found = np.stack(pairs(idx[group == w][:short(s)]), axis=1)
                first[s] = np.concatenate((first[s], found), dtype=np.int32)

    def scan(sigs):
        """Collect the row blocks from row 0 on while a signature of sigs is
        short; with sigs None, count every row as well."""
        for i0 in range(0, nl, B):
            if sigs is not None and full(sigs):
                return
            key = _row_keys(R, lines, np.arange(i0, min(i0 + B, nl)), dtype)
            if sigs is None:
                counts.update(tally(key, np.ones(len(key), dtype=np.int64)))
            collect(key.ravel(), lambda k: (i0 + k // nl, k % nl),
                    counts if sigs is None else sigs)

    orbit = line_orbits(g, lines, R)
    reps = np.flatnonzero(orbit == np.arange(nl))
    if len(reps) == nl:
        scan(None)
    else:
        size = np.bincount(orbit)[reps]
        for s in range(0, len(reps), B):
            counts.update(tally(_row_keys(R, lines, reps[s:s + B], dtype), size[s:s + B]))
        diag = _listed_keys(R, lines, np.arange(nl), np.arange(nl), dtype)
        on_diag = tally(diag[None], np.ones(1, dtype=np.int64))
        diagonal = {s for s in counts if on_diag[s] == counts[s]}
        collect(diag, lambda k: (k, k), diagonal)
        meeting = set()
        if np.count_nonzero(R == EQUAL) == g.n and (R.diagonal() == EQUAL).all():
            meeting = {s for s in counts if EQUAL in s} - diagonal
            through = np.full((g.n, max(map(len, g.lines_through))), nl)
            for p, ls in enumerate(g.lines_through):
                through[p, :len(ls)] = ls
            for i0 in range(0, nl, B):
                if full(meeting):
                    break
                # the lines through each row's points, ascending, each once
                met = np.sort(through[lines[i0:i0 + B]].reshape(min(B, nl - i0), -1), axis=1)
                b, j = np.nonzero((met < nl) & (np.diff(met, axis=1, prepend=-1) != 0))
                li, mi = i0 + b, met[b, j]
                collect(_listed_keys(R, lines, li, mi, dtype), lambda k: (li[k], mi[k]), meeting)
        scan(set(counts) - diagonal - meeting)

    misses = sorted(tuple(pairs[0].tolist()) for s, pairs in first.items() if s not in key_entry)
    miss_examples = [CatalogueMiss(li, mi, model.pair_matrix(li, mi))
                     for li, mi in misses[:100]]
    miss_count = sum(c for s, c in counts.items() if s not in key_entry)
    # inverse law for the catalogue positions, at the signature-key level
    for s in counts:
        w = _swap_key(s, m)
        if s in key_entry and (w not in key_entry
                               or key_entry[w].tuple4 != key_entry[s].inverse_tuple()):
            raise PositionError(f"inverse law fails for {key_entry[s].display}")
    realized = [(s, e.display) for s, e in key_entry.items() if s in counts]
    return PositionCensus({d: counts[s] for s, d in realized}, miss_examples, miss_count,
                          {d: first[s] for s, d in realized}, nl * nl, len(reps))


def seeded_instances(census: PositionCensus, display: str, k: int, seed: int) -> list:
    """Deterministic seeded selection of k instances of a position, as
    (li, mi) tuples of ints: the rows at the indices that sampling a list
    of all of them would pick."""
    import random as _random
    pool = census.instances.get(display, np.empty((0, 2), dtype=np.int32))
    if len(pool) > k:
        pool = pool[_random.Random(seed).sample(range(len(pool)), k)]
    return list(map(tuple, pool.tolist()))


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
