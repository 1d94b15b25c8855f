import hashlib
import itertools
import json
import random
import threading
import tracemalloc
from collections import Counter
from typing import Optional
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liegeom import groups, positions, recipes, search as S
from liegeom.geometry import Geometry, GeometryError
from liegeom.positions import (
    AlgorithmViolation,
    CatalogueMiss,
    HexagonicModel,
    NoCombingLine,
    NonterminatingComb,
    PositionCatalogue,
    PositionCensus,
    PositionError,
    TERMINAL,
    _pack,
    _swap_key,
    comb_to_opposite,
    combing_algorithm_1,
    combing_algorithm_2,
    find_combing_line,
    matrix_key,
    parse_display,
    position_census,
    seeded_instances,
    to_display,
)
from liegeom.recipes import run_recipe
from liegeom.relations import (
    COLLINEAR,
    EQUAL,
    NEAR_OPPOSITE,
    OPPOSITE,
    REL_DISPLAY,
    SPECIAL,
    SYMPLECTIC,
    RelationMatrix,
)
from liegeom.search import BudgetExceeded
from test_relations import dense_oracle, fresh_copy


# -- brute-force oracles ------------------------------------------------------


def matrix_signature(mat):
    rows = tuple(sorted(tuple(sorted(r)) for r in mat))
    ncols = len(mat[0])
    cols = tuple(sorted(tuple(sorted(mat[i][j] for i in range(len(mat))))
                        for j in range(ncols)))
    return rows, cols


def census_scalar(model: HexagonicModel, instance_cap: int) -> PositionCensus:
    """The census pair by pair.  Its miss examples are, as in the census,
    the first pair of each distinct miss signature, ascending, at most 100."""
    g = model.geometry
    nl = len(g.lines)
    counts: dict[str, int] = {}
    inst: dict[str, list] = {}
    first_miss: dict = {}
    miss_count = 0
    for li in range(nl):
        for mi in range(nl):
            pos = model.position_of(li, mi)
            if isinstance(pos, CatalogueMiss):
                miss_count += 1
                first_miss.setdefault(matrix_signature(pos.matrix), pos)
                continue
            d = to_display(pos)
            counts[d] = counts.get(d, 0) + 1
            bucket = inst.setdefault(d, [])
            if len(bucket) < instance_cap:
                bucket.append((li, mi))
    for d, c in counts.items():
        e = model.catalogue.by_tuple[parse_display(d)]
        if counts.get(to_display(e.inverse_tuple()), 0) != c:
            raise PositionError(f"inverse law fails for {d}")
    miss_examples = sorted(first_miss.values(), key=lambda m: (m.line_a, m.line_b))[:100]
    inst = {d: np.array(pairs, dtype=np.int32).reshape(-1, 2) for d, pairs in inst.items()}
    return PositionCensus(counts, miss_examples, miss_count, inst, nl * nl, nl)


def instance_lists(census: PositionCensus) -> dict:
    """Each position's instances as its array's dtype and its [li, mi] rows."""
    return {d: (pairs.dtype, pairs.tolist()) for d, pairs in census.instances.items()}


def census_fields(census: PositionCensus) -> tuple:
    """What a census finds: its counts, instances, miss count and miss examples."""
    return (census.counts, instance_lists(census), census.miss_count,
            [(m.line_a, m.line_b, m.matrix) for m in census.misses])


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


def census_exhaustive(model: HexagonicModel) -> PositionCensus:
    """The census of every pair, the oracle of position_census: each
    unordered pair packed once, vectorized for every line size whose pair
    keys fit in int64 (3- and 4-point lines).

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
    S.Meter("position census", "pairs").tick(nl * nl)
    nrel = len(REL_DISPLAY)
    if nrel ** (m * m) > 1 << 63:
        raise PositionError(f"pair keys of {m}-point lines reach {nrel}**{m * m}, "
                            "beyond the int64 bound 2**63")
    # codes are 0..5, so their unsigned view adds without casting
    R = model.rel.np().view(np.uint8)
    if not np.array_equal(R, R.T):
        raise PositionError("census is not symmetric under pair reversal")
    lines_arr = np.array(g.lines, dtype=np.intp)
    B = positions.CENSUS_BLOCK

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
        return positions.CENSUS_INSTANCES if sig in key_entry else 1

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
    inst = {sig: np.stack(divmod(at, nl), axis=1).astype(np.int32) for sig, at in first.items()}
    misses = sorted(tuple(pairs[0].tolist()) for v, pairs in inst.items() if v not in key_entry)
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
                          {d: inst[v] for v, d in realized}, nl * nl, nl)


def local_opposites_oracle(model: HexagonicModel, x: int) -> dict:
    """Lines through x locally opposite each line through x, by definition:
    distinct lines at position (E,C,C,S)."""
    through = model.geometry.lines_through[x]
    return {k: tuple(l for l in through if l != k and model.position_of(k, l)
                     == (EQUAL, COLLINEAR, COLLINEAR, SPECIAL)) for k in through}


def local_opposites_sets(model: HexagonicModel, x: int) -> dict:
    """Lines through x locally opposite each line through x, from Python
    sets over the relation rows of the points on lines through x."""
    g, rel = model.geometry, model.rel
    row_x = rel.row(x)
    through = g.lines_through[x]
    rest = {k: [p for p in g.lines[k] if p != x] for k in through}
    near = [k for k in through if all(row_x[p] == COLLINEAR for p in rest[k])]
    pts = [p for k in near for p in rest[k]]
    special = {}
    for p in pts:
        row = rel.row(p)
        special[p] = {q for q in pts if row[q] == SPECIAL}
    table = dict.fromkeys(through, ())
    for k in near:
        common = set.intersection(*(special[p] for p in rest[k]))
        table[k] = tuple(l for l in near if l != k and common.issuperset(rest[l]))
    return table


def doctored(model: HexagonicModel, pairs, code: int) -> HexagonicModel:
    """A fresh model on the same geometry whose relation data gives every
    point pair in ``pairs`` the relation code ``code``, both ways round."""
    rel = RelationMatrix(model.geometry)
    R = rel.np()
    for x, y in pairs:
        R[x, y] = R[y, x] = code
    out = HexagonicModel(model.geometry)
    out.rel = rel
    return out


def coded_model(g: Geometry, codes: np.ndarray) -> HexagonicModel:
    """A model on g whose relation data is the matrix ``codes``."""
    rel = RelationMatrix(g)
    rel._np = codes
    out = HexagonicModel(g)
    out.rel = rel
    return out


def random_codes(g: Geometry, alphabet, share: float, seed: int) -> np.ndarray:
    """g's relation data with a share of its pairs given random symmetric
    codes drawn from ``alphabet``."""
    rng = np.random.default_rng(seed)
    codes = dense_oracle(g)
    noise = rng.choice(np.array(alphabet, dtype=codes.dtype), size=codes.shape)
    codes = np.where(rng.random(codes.shape) < share, noise, codes)
    return np.triu(codes) + np.triu(codes, 1).T


_ALPHABETS = ((COLLINEAR, SPECIAL), (EQUAL, COLLINEAR, SPECIAL, OPPOSITE),
              tuple(range(len(REL_DISPLAY))))


def oracle_model(g: Geometry) -> HexagonicModel:
    """A model on g whose relation data is the dense oracle's matrix."""
    return coded_model(g, dense_oracle(g))


def line_pairs(g: Geometry, li: int, mi: int):
    return itertools.product(g.lines[li], g.lines[mi])


def test_catalogue_structure():
    for m in (3, 4, 5):
        cat = PositionCatalogue(m)
        assert len(cat.entries) == 26
        assert len(cat.by_sig) == 26          # signatures pairwise distinct
        levels = Counter(cat.level_of(e.tuple4) for e in cat.entries)
        assert levels == {0: 1, 1: 3, 2: 12, 3: 10}


def test_catalogue_duality_and_inverse():
    cat = PositionCatalogue(3)
    for e in cat.entries:
        assert cat.by_tuple[e.dual_tuple()].dual_tuple() == e.tuple4
        assert cat.by_tuple[e.inverse_tuple()].inverse_tuple() == e.tuple4
    # the positional first/fourth interchange-and-dualize rule, outside
    # the matching class where the fourth entry refers to the partner
    dual = {EQUAL: OPPOSITE, COLLINEAR: SPECIAL, SYMPLECTIC: SYMPLECTIC,
            SPECIAL: COLLINEAR, OPPOSITE: EQUAL}
    for e in cat.entries:
        if e.shape == "matching":
            continue
        a, b, c, d = e.tuple4
        assert e.dual_tuple() == (dual[d], dual[b], dual[c], dual[a])
    assert cat.by_tuple[parse_display("0110")].dual_tuple() == parse_display("2332")


def test_display_round_trip():
    for disp in ("0110", "2332", "13/23/21", "3/2223/2", "1223", "3/23/23/23/2"):
        assert to_display(parse_display(disp)) == disp


def test_position_trivial_cases(gr_model):
    g = gr_model.geometry
    assert gr_model.position_of(5, 5) == parse_display("0110")
    # two lines of a planar pencil meet and are coplanar in the model
    li = 0
    x = g.lines[li][0]
    for mi in g.lines_through[x]:
        if mi != li:
            pos = gr_model.position_of(li, mi)
            assert pos in (parse_display("0111"), parse_display("0113/2"),
                           parse_display("0112"))
    # position of a coplanar (pencil-mate) pair specifically
    pencil_mates = [mi for mi in g.lines_through[x]
                    if mi != li and gr_model.position_of(li, mi) == parse_display("0111")]
    assert pencil_mates


def test_free_points(gr_model, gr_census):
    g = gr_model.geometry
    assert gr_model.free_points(3, 3) == ()
    li, mi = seeded_instances(gr_census, "2332", 1, seed=0)[0]
    assert gr_model.free_points(li, mi) == tuple(g.lines[li])
    li, mi = seeded_instances(gr_census, "0111", 1, seed=0)[0]
    meet = set(g.lines[li]) & set(g.lines[mi])
    assert set(gr_model.free_points(li, mi)) == set(g.lines[li]) - meet


def test_locally_opposite(gr_model):
    g = gr_model.geometry
    x = 0
    through = g.lines_through[x]
    li = through[0]
    assert not gr_model.locally_opposite_at(x, li, li)
    opp_mates = [mi for mi in through if mi != li
                 and gr_model.locally_opposite_at(x, li, mi)]
    coplanar = [mi for mi in through if mi != li
                and gr_model.position_of(li, mi) == parse_display("0111")]
    assert opp_mates and coplanar
    assert not any(gr_model.locally_opposite_at(x, li, mi) for mi in coplanar)
    other = next(mi for mi in range(len(g.lines))
                 if not (g.line_bits[mi] >> x & 1))
    with pytest.raises(PositionError):
        gr_model.locally_opposite_at(x, li, other)


@pytest.mark.parametrize("name", ["h2", "h3", "gr_w52", "gr_q72"])
def test_local_opposites_match_definition(name, request):
    # every point of the small models; 40 seeded points of Gr(Q+(7,2)),
    # whose 1575 points take too long for the tier-1 suite
    g = request.getfixturevalue(name)
    model = HexagonicModel(g)
    points = range(g.n) if name != "gr_q72" else random.Random(0).sample(range(g.n), 40)
    for x in points:
        assert model.local_opposites(x) == local_opposites_oracle(model, x)


def test_local_opposites_on_lazy_model(h2):
    # a fresh geometry, since relation matrices are cached per geometry
    fresh = Geometry(h2.n, h2.lines, h2.kind, order=h2.order)
    lazy = HexagonicModel(fresh)
    x = 5
    table = lazy.local_opposites(x)
    assert any(table.values())
    assert set(lazy.rel._rows) <= {p for k in h2.lines_through[x] for p in h2.lines[k]}
    assert table == local_opposites_oracle(oracle_model(h2), x)
    assert lazy.rel._np is None


def lazy_coded_model(g: Geometry, codes: np.ndarray) -> HexagonicModel:
    """A model on g whose relation rows are the rows of ``codes``, held in
    the row memo of a matrix that has no dense table."""
    rel = RelationMatrix(g)
    rel._rows = {x: codes[x].tobytes() for x in range(g.n)}
    out = HexagonicModel(g)
    out.rel = rel
    return out


@settings(max_examples=12)
@given(alphabet=st.sampled_from(_ALPHABETS),
       share=st.sampled_from((0.0, 0.02, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       lazy=st.booleans())
@example(alphabet=(COLLINEAR, SPECIAL), share=1.0, seed=0, lazy=False)
@example(alphabet=tuple(range(len(REL_DISPLAY))), share=0.3, seed=1, lazy=True)
def test_local_opposites_block_matches_sets_on_random_codes(h2, alphabet, share, seed, lazy):
    # the numpy block read equals the set-based one at every point of H(2)
    # relation data with a share of its pairs given random symmetric codes
    codes = random_codes(h2, alphabet, share, seed)
    model = (lazy_coded_model if lazy else coded_model)(h2, codes)
    for x in range(h2.n):
        assert model.local_opposites(x) == local_opposites_sets(model, x), x
    assert (model.rel._np is None) == lazy


@pytest.mark.parametrize("name", ["h2", "gr_q72"])
def test_local_opposites_block_matches_sets_on_models(name, request):
    # every point of H(2), 20 seeded points of Gr(Q+(7,2)); on a lazy model
    # (a fresh copy of the geometry) and on a dense one
    g = request.getfixturevalue(name)
    points = range(g.n) if name == "h2" else random.Random(7).sample(range(g.n), 20)
    dense = HexagonicModel(g)
    dense.rel.np()
    lazy = HexagonicModel(fresh_copy(g))
    for x in points:
        want = local_opposites_sets(dense, x)
        assert lazy.local_opposites(x) == dense.local_opposites(x) == want, x
        assert want == local_opposites_sets(lazy, x)
    assert lazy.rel._np is None


def test_local_opposites_on_doctored_data(h2):
    # in these geometries a point of L - x special to one point of K - x is
    # special to all of them, and x is collinear to every point of a line
    # through it; relation data breaking either must still match the definition
    model = HexagonicModel(h2)
    x = 0
    k, l = h2.lines_through[x][:2]
    p, q = (next(p for p in h2.lines[i] if p != x) for i in (k, l))
    assert l in model.local_opposites(x)[k]
    for pair in ((p, q), (x, q)):
        doc = doctored(model, [pair], SYMPLECTIC)
        assert l not in doc.local_opposites(x)[k]
        assert doc.local_opposites(x) == local_opposites_oracle(doc, x)


def test_census_against_scalar_path(gr_model, gr_census):
    # the vectorized census must agree with the naive scalar census on a
    # submodel; compare counts restricted to a block of lines
    import numpy as np
    g = gr_model.geometry
    rng = random.Random(23)
    sample = rng.sample(range(len(g.lines)), 60)
    scalar = Counter()
    for li in sample:
        for mi in sample:
            pos = gr_model.position_of(li, mi)
            assert not isinstance(pos, CatalogueMiss)
            scalar[to_display(pos)] += 1
    assert sum(scalar.values()) == 3600
    assert set(scalar) <= set(gr_census.counts)


def test_census_partition_and_diagonal(gr_model, gr_census):
    g = gr_model.geometry
    nl = len(g.lines)
    assert gr_census.total == nl * nl
    assert sum(gr_census.counts.values()) + gr_census.miss_count == nl * nl
    assert gr_census.counts["0110"] == nl
    assert gr_census.miss_count == 0
    # realized set is the catalogue minus the nine positions that need a
    # singular subspace of dimension at least 3
    unrealized = {e.display for e in gr_model.catalogue.entries} - set(gr_census.counts)
    assert unrealized == {"1111", "2222", "3/23/23/23/2", "13/23/23/2",
                          "3/23/23/22", "13/213/2", "113/23/2", "3/23/222",
                          "3/223/22"}


def test_census_inverse_symmetry(gr_model, gr_census):
    cat = gr_model.catalogue
    for disp, count in gr_census.counts.items():
        inv = to_display(cat.by_tuple[parse_display(disp)].inverse_tuple())
        assert gr_census.counts[inv] == count


def test_census_duality_closed(gr_model, gr_census):
    cat = gr_model.catalogue
    realized = {parse_display(d) for d in gr_census.counts}
    for t in realized:
        assert cat.by_tuple[t].dual_tuple() in realized


def test_table1_spec_examples(gr_model, gr_census):
    # combing (0112) with K = L gives successor (1223)
    li, mi = seeded_instances(gr_census, "0112", 1, seed=1)[0]
    x = min(gr_model.free_points(li, mi))
    k = find_combing_line(gr_model, li, mi, x)
    succ = gr_model.catalogue.entry(parse_display("0112")).successor
    assert to_display(succ) == "1223"
    # (011 3/2) has successor (1 3/2 2 2)
    e = gr_model.catalogue.entry(parse_display("0113/2"))
    assert to_display(e.successor) == "13/222"
    with pytest.raises(PositionError):
        li, mi = seeded_instances(gr_census, "2332", 1, seed=1)[0]
        find_combing_line(gr_model, li, mi, gr_model.geometry.lines[li][0])


def test_comb_traces(gr_model, gr_census):
    tr = comb_to_opposite(gr_model, 7, 7)
    assert [to_display(s.position) for s in tr.steps] == ["0110", "0112", "1223"]
    li, mi = seeded_instances(gr_census, "2332", 1, seed=2)[0]
    assert comb_to_opposite(gr_model, li, mi).steps == []
    li, mi = seeded_instances(gr_census, "13/23/21", 1, seed=2)[0]
    tr = comb_to_opposite(gr_model, li, mi)
    assert [to_display(s.position) for s in tr.steps] == ["13/23/21", "13/222", "2223"]


def test_levels(gr_model, gr_census):
    for disp, want in (("2332", 0), ("1223", 1), ("0110", 3), ("2223", 1)):
        li, mi = seeded_instances(gr_census, disp, 1, seed=3)[0]
        assert gr_model.level(li, mi) == want
        assert len(comb_to_opposite(gr_model, li, mi).steps) == want


def test_catalogue_miss_is_value(gr_model):
    doc = doctored(gr_model, line_pairs(gr_model.geometry, 1, 2), EQUAL)
    pos = doc.position_of(1, 2)
    assert isinstance(pos, CatalogueMiss)
    assert pos.display.startswith("miss:")
    assert gr_model.position_of(1, 2) != pos
    # what needs the pair's catalogue entry refuses the miss, naming the pair
    x = gr_model.geometry.lines[1][0]
    for call in (doc.level, doc.free_points, lambda li, mi: find_combing_line(doc, li, mi, x),
                 lambda li, mi: comb_to_opposite(doc, li, mi)):
        with pytest.raises(PositionError, match=r"^pair \(1,2\) is not a catalogue position$"):
            call(1, 2)


def test_census_counts_misses(h2):
    # a pair whose relation data matches no catalogue position is counted
    # and reported, never raised; the oracle sees the same doctored data
    li = 0
    mi = next(m for m in range(len(h2.lines)) if not h2.line_bits[li] & h2.line_bits[m])
    doc = doctored(HexagonicModel(h2), line_pairs(h2, li, mi), NEAR_OPPOSITE)
    assert isinstance(doc.position_of(li, mi), CatalogueMiss)
    assert isinstance(doc.position_of(mi, li), CatalogueMiss)
    census = position_census(doc)
    oracle = census_scalar(doc, instance_cap=10000)
    assert census.miss_count == oracle.miss_count > 0
    assert census.counts == oracle.counts
    assert instance_lists(census) == instance_lists(oracle)
    assert sum(census.counts.values()) + census.miss_count == census.total
    assert census.misses
    for m in census.misses:
        assert isinstance(m, CatalogueMiss)
        assert m.display.startswith("miss:")
        assert isinstance(doc.position_of(m.line_a, m.line_b), CatalogueMiss)


def test_alg1_and_alg2(gr_model, gr_census):
    rng = random.Random(101)
    nl = len(gr_model.geometry.lines)
    runs = 0
    while runs < 12:
        li = rng.randrange(nl)
        targets = [rng.randrange(nl) for _ in range(3)]
        try:
            run = combing_algorithm_1(gr_model, li, targets)
        except AlgorithmViolation:
            continue
        runs += 1
        for b, a in zip(run.levels_before, run.levels_after):
            assert (b == 0 and a == 0) or a == b - 1
        zeros = [i for i, b in enumerate(run.levels_before) if b == 0]
        if zeros:
            try:
                run2 = combing_algorithm_2(gr_model, li, targets, zeros[0])
            except AlgorithmViolation:
                continue
            for b, a in zip(run2.levels_before, run2.levels_after):
                if b == 0:
                    assert a <= 1
    # combing back demands a designated line locally opposite the base
    li = 0
    close = next(mi for mi in gr_model.geometry.lines_through[
        gr_model.geometry.lines[0][0]] if mi != 0)
    with pytest.raises(AlgorithmViolation):
        combing_algorithm_2(gr_model, li, [close], 0)


def test_combing_rejects_swapped_special_partners(h2):
    # relation data that keeps an opposite pair (L, M) terminal but swaps
    # the special partners on M of two points of L: the partner read for
    # the free point shares no neighbour with it in the geometry, which is
    # a geometry error, not a negative shift count
    li = 0
    mi = next(m for m in range(len(h2.lines))
              if HexagonicModel(h2).position_of(li, m) == TERMINAL)
    codes = RelationMatrix(h2).np()
    x1, x2 = h2.lines[li][:2]
    partner = {a: next(b for b in h2.lines[mi] if codes[a, b] == SPECIAL) for a in (x1, x2)}
    for a, b in ((x1, x2), (x2, x1)):
        codes[a, partner[a]] = codes[partner[a], a] = OPPOSITE
        codes[a, partner[b]] = codes[partner[b], a] = SPECIAL
    doc = coded_model(h2, codes)
    assert doc.position_of(li, mi) == TERMINAL
    assert min(doc.free_points(li, mi)) == x1
    with pytest.raises(GeometryError, match="not a special pair"):
        combing_algorithm_1(doc, li, [mi])


def comb_until_opposite_all(model, li, targets, bound=64):
    """Drive the two algorithms until the base line is opposite every target.

    Applies the first algorithm while at least two targets are at level 2
    or more, combs back when exactly one is, and finishes with the first
    algorithm; returns the sequence of base lines."""
    seq = [li]
    cur = li
    for _ in range(bound):
        levels = [model.level(cur, t) for t in targets]
        if all(lv == 0 for lv in levels):
            return seq
        high = [i for i, lv in enumerate(levels) if lv >= 2]
        if len(high) == 1 and any(lv == 0 for lv in levels):
            back = next(i for i, lv in enumerate(levels) if lv == 0)
            cur = combing_algorithm_2(model, cur, targets, back).result
        else:
            cur = combing_algorithm_1(model, cur, targets).result
        seq.append(cur)
    raise NonterminatingComb(f"combing driver exceeded {bound} iterations")


def test_comb_driver(gr_model):
    rng = random.Random(55)
    nl = len(gr_model.geometry.lines)
    done = 0
    attempts = 0
    while done < 5 and attempts < 60:
        attempts += 1
        li = rng.randrange(nl)
        targets = [rng.randrange(nl) for _ in range(3)]
        try:
            seq = comb_until_opposite_all(gr_model, li, targets)
        except (AlgorithmViolation, NoCombingLine):
            continue
        assert all(gr_model.level(seq[-1], t) == 0 for t in targets)
        done += 1
    assert done == 5


def test_census_on_rank3_grassmannian(gr_w52):
    # outside the rank-4 models the catalogue still covers every pair
    model = HexagonicModel(gr_w52)
    census = position_census(model)
    assert census.miss_count == 0
    assert sum(census.counts.values()) == 945 * 945
    assert census.counts == {
        "0110": 945, "0111": 5670, "0112": 11340, "0113/2": 5670,
        "113/22": 22680, "1223": 90720, "123/22": 45360, "13/212": 22680,
        "13/222": 45360, "13/23/21": 7560, "2223": 181440, "2332": 241920,
        "3/2223": 181440, "3/2223/2": 30240,
    }
    realized = {parse_display(d) for d in census.counts}
    for t in realized:
        assert model.catalogue.by_tuple[t].dual_tuple() in realized
    # instances are ordered pairs: the scalar path places each one at its
    # position, not at the inverse position
    for d, pairs in census.instances.items():
        assert all(to_display(model.position_of(li, mi)) == d for li, mi in pairs[:50])
    # combing works here too
    li, mi = seeded_instances(census, "0113/2", 1, seed=6)[0]
    assert len(comb_to_opposite(model, li, mi).steps) == 3


def test_matrix_symmetry_on_model(gr_model):
    m = gr_model.rel.np()
    assert (m == m.T).all()


def test_positions_on_hexagon(h2):
    # hexagons qualify: line pairs realize the symplectic-free chain
    model = HexagonicModel(h2)
    census = position_census(model)
    assert set(census.counts) == {"0110", "0112", "1223", "2332"}
    assert census.miss_count == 0
    scalar = census_scalar(model, instance_cap=10)
    assert scalar.counts == census.counts
    li, mi = seeded_instances(census, "2332", 1, seed=4)[0]
    tr = comb_to_opposite(model, li, mi)
    assert tr.steps == []
    li, mi = seeded_instances(census, "1223", 1, seed=4)[0]
    assert len(comb_to_opposite(model, li, mi).steps) == 1


def test_signature_of_manual_matrix():
    mat = [[COLLINEAR] * 3, [COLLINEAR] * 3, [COLLINEAR] * 3]
    cat = PositionCatalogue(3)
    assert cat.by_sig[matrix_key(mat)].display == "1111"


def test_census_on_four_point_lines(h3):
    # the split Cayley hexagon H(3) has 4-point lines
    model = HexagonicModel(h3)
    census = position_census(model)
    oracle = census_scalar(model, instance_cap=10000)
    assert census.counts == oracle.counts == {"0110": 364, "0112": 4368, "1223": 39312,
                                              "2332": 88452}
    assert census.miss_count == oracle.miss_count == 0
    assert instance_lists(census) == instance_lists(oracle)


@pytest.mark.parametrize("share", (0.0, 0.02))
def test_four_point_census_does_not_depend_on_block_size(h3, share):
    # H(3) with a quota of 7, at m = 4: the scan of every row and the
    # exhaustive census (instances merged across its squares and the parts
    # beyond them; with 2% of the codes redrawn, misses that occur only
    # below the diagonal also run its lower pass) equal the pair-by-pair
    # census for each block size
    model = coded_model(h3, random_codes(h3, _ALPHABETS[1], share, 0))
    oracle = census_scalar(model, instance_cap=7)
    assert (oracle.miss_count > 0) == (share > 0)
    for block in (5, 16):
        with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=7):
            for census in (position_census(model), census_exhaustive(model)):
                assert census_fields(census) == census_fields(oracle)


def test_census_rejects_keys_beyond_int64(h34):
    # H(3,4) has 5-point lines, whose keys reach 252**10 > 2**63: the census
    # refuses rather than wrap, while the scalar path stays exact
    model = HexagonicModel(h34)
    assert model.m == 5
    with pytest.raises(PositionError, match="int64 bound"):
        position_census(model)
    assert model.position_of(0, 0) == parse_display("0110")


#: sha256 of the Gr(Q+(7,2)) census instances as sorted-key JSON, recorded
#: from the census that packed its keys in int64 over all 56 column codes
GR_Q72_INSTANCES_SHA256 = "b4372747fe8f6b99032b2eac214091f95cf24a549dd1a570f427b859d914b5da"


def test_golden_census_instances(gr_census):
    doc = json.dumps({d: pairs.tolist() for d, pairs in gr_census.instances.items()},
                     sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == GR_Q72_INSTANCES_SHA256


def test_census_memory_and_recipes_build_no_line_bits(monkeypatch):
    # a Gr(Q+(7,2)) of its own, so that no other test has read its line
    # bitsets: after np(), its census keeps less than 4 MiB (its 170,000
    # instances took 15.6 MiB as (li, mi) tuples), and the two recipes that
    # read the census build no line bitsets on it
    monkeypatch.setattr(recipes, "_GEOMETRIES", {})
    model = recipes.grassmannian_model()
    model.rel.np()
    tracemalloc.start()
    try:
        census = recipes.grassmannian_census()
        retained = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert retained < 4 << 20
    assert sum(map(len, census.instances.values())) == 170000
    for name, params in (("positions-catalogue", {}), ("table1", {"instances": 10})):
        assert run_recipe(name, **params).status == "PASS"
    assert "line-bits" not in model.geometry._derived


@settings(max_examples=10)
@given(seed=st.integers(0, 2 ** 32 - 1), k=st.integers(0, 10001))
@example(seed=0, k=10000)
@example(seed=0, k=10001)
def test_seeded_instances_sample_the_tuple_lists(gr_census, seed, k):
    # on every realized position, and on one with no instances, the rows
    # drawn are what sampling the list of (li, mi) tuples of ints drew
    for d in [*gr_census.realized(), "3/23/23/23/2"]:
        pool = [tuple(p) for p in gr_census.instances.get(d, np.empty((0, 2))).tolist()]
        want = pool if len(pool) <= k else random.Random(seed).sample(pool, k)
        got = seeded_instances(gr_census, d, k, seed)
        assert got == want
        assert all(type(v) is int for pair in got for v in pair)


@settings(max_examples=12)
@given(alphabet=st.sampled_from(((COLLINEAR, SPECIAL), (EQUAL, COLLINEAR, SPECIAL, OPPOSITE),
                                 tuple(range(len(REL_DISPLAY))))),
       share=st.sampled_from((0.02, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(alphabet=tuple(range(len(REL_DISPLAY))), share=1.0, seed=0)
def test_census_matches_scalar_on_random_codes(h2, alphabet, share, seed):
    # H(2) relation data with a share of its pairs given random symmetric
    # codes.  The census packs the u columns that occur in base u: small
    # alphabets keep u**3 within uint16 keys, and all six codes everywhere
    # make u close to 6**3 (at least 36 sorted columns occur, checked
    # below), so keys need uint32
    codes = random_codes(h2, alphabet, share, seed)
    model = coded_model(h2, codes)
    census = position_census(model)
    oracle = census_scalar(model, instance_cap=10000)
    assert census.counts == oracle.counts
    assert instance_lists(census) == instance_lists(oracle)
    assert census.miss_count == oracle.miss_count
    assert ([(m.line_a, m.line_b, m.matrix) for m in census.misses]
            == [(m.line_a, m.line_b, m.matrix) for m in oracle.misses])
    if share == 1.0 and len(alphabet) == len(REL_DISPLAY):
        occurring = {tuple(sorted(codes[list(l), p].tolist()))
                     for l in h2.lines for p in range(h2.n)}
        assert len(occurring) >= 36


def test_census_budget(h2):
    # all 63 * 63 pairs are charged before the first block of 16 lines
    model = HexagonicModel(h2)
    full = position_census(model)
    for budget in (0, 10, 32 * 63, 63 * 63 - 1):
        with S.budget(budget), pytest.raises(
                BudgetExceeded, match=f"^position census exceeded {budget} pairs$"):
            position_census(model)
    with S.budget(63 * 63):
        assert position_census(model) == full
    with S.budget(None):
        assert position_census(model) == full


def test_census_reads_relations_on_calling_thread(monkeypatch, h2):
    # relation rows and the pair matrices of miss examples are read on the
    # thread that called the census, with the miss (mi, li) beyond the
    # first block of H(2)'s 4
    li = 0
    mi = max(m for m in range(len(h2.lines)) if not h2.line_bits[li] & h2.line_bits[m])
    doc = doctored(HexagonicModel(h2), line_pairs(h2, li, mi), NEAR_OPPOSITE)
    threads = []
    for owner, name in ((HexagonicModel, "pair_matrix"), (RelationMatrix, "row"),
                        (RelationMatrix, "np")):
        def recorded(*args, _fn=getattr(owner, name)):
            threads.append(threading.get_ident())
            return _fn(*args)
        monkeypatch.setattr(owner, name, recorded)
    census = position_census(doc)
    assert census.misses and mi >= positions.CENSUS_BLOCK
    assert threads and set(threads) == {threading.get_ident()}


def test_census_starts_no_thread(monkeypatch, h2):
    def start(self):
        raise AssertionError(f"thread {self.name} started")

    model = HexagonicModel(h2)
    full = position_census(model)
    monkeypatch.setattr(threading.Thread, "start", start)
    assert position_census(model) == full


@pytest.mark.parametrize("point", (1, 3))
def test_census_refuses_an_asymmetric_relation_matrix(h2, point):
    # the census reads the lower triangle as the transpose of the upper
    # one, so one point pair (0, point) coded differently both ways round
    # is refused
    codes = dense_oracle(h2)
    codes[0, point] = NEAR_OPPOSITE if codes[point, 0] != NEAR_OPPOSITE else OPPOSITE
    with pytest.raises(PositionError, match=r"^census is not symmetric under pair reversal$"):
        position_census(coded_model(h2, codes))


def packed_pairs(model: HexagonicModel) -> int:
    """The pair keys the exhaustive census of model packs."""
    sizes = []

    def counted(*args):
        key = pair_keys(*args)
        sizes.append(key.size)
        return key

    pair_keys = _pair_keys
    with mock.patch.dict(globals(), _pair_keys=counted):
        census_exhaustive(model)
    return sum(sizes)


def packed_rows(model: HexagonicModel) -> tuple[PositionCensus, list]:
    """The census of model, and the lines of the rows it packs whole, one
    list per block, in the order it packs them."""
    blocks = []

    def counted(R, lines, rows, dtype):
        blocks.append(rows.tolist())
        return row_keys(R, lines, rows, dtype)

    row_keys = positions._row_keys
    with mock.patch.object(positions, "_row_keys", counted):
        census = position_census(model)
    return census, blocks


@settings(max_examples=10)
@given(alphabet=st.sampled_from(_ALPHABETS),
       share=st.sampled_from((0.0, 0.02, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from((1, 5, 16, 64)),
       quota=st.sampled_from((1, 7, 10000)))
@example(alphabet=tuple(range(len(REL_DISPLAY))), share=1.0, seed=0, block=5, quota=10000)
def test_census_packs_no_pair_twice(h2, alphabet, share, seed, block, quota):
    # a hexagon has no generators, so the census scans every row once, in
    # blocks, to count and collect; the exhaustive census packs the upper
    # triangle once, and the lower triangle at most once, even when every
    # position is rarer than its quota
    model = coded_model(h2, random_codes(h2, alphabet, share, seed))
    nl = len(h2.lines)
    with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=quota):
        census, blocks = packed_rows(model)
        assert packed_pairs(model) <= nl ** 2
    assert census.orbits == nl
    assert blocks == [list(range(i, min(i + block, nl))) for i in range(0, nl, block)]


@pytest.mark.parametrize("block, quota", ((16, 10000), (5, 7), (64, 1)))
def test_orbit_census_scans_each_row_once(gr_w52, block, quota):
    # Gr(W(5,2)) is line-transitive: the census counts row 0, then scans
    # rows 0, 1, ... once each, and stops after the block that completes the
    # last position it collects there (one with no EQUAL entry: those take
    # the diagonal or the pairs of lines that meet)
    nl = len(gr_w52.lines)
    with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=quota):
        census, blocks = packed_rows(HexagonicModel(gr_w52))
        oracle = census_exhaustive(HexagonicModel(gr_w52))
    assert census.orbits == 1 and blocks[0] == [0]
    rows = sum(blocks[1:], [])
    assert rows == list(range(len(rows))) and blocks[1:] == [
        rows[i:i + block] for i in range(0, len(rows), block)]
    last = max(li for d, pairs in census.instances.items() if "0" not in d for li, _ in pairs)
    assert blocks[-1][0] <= last <= blocks[-1][-1]
    assert census_fields(census) == census_fields(oracle)


def test_census_reads_little_of_the_lower_triangle(monkeypatch, gr_w52):
    # with one instance per position every position is settled by the
    # first rows, so the exhaustive census packs little beyond the upper
    # triangle
    monkeypatch.setattr(positions, "CENSUS_INSTANCES", 1)
    nl = len(gr_w52.lines)
    assert packed_pairs(HexagonicModel(gr_w52)) <= 0.6 * nl * nl


def test_census_budget_in_recipes(monkeypatch, gr_model, gr_census):
    # a budget below the 14175**2 pairs cuts the census short whether or
    # not a full census is kept; a census cut short is not kept
    g = gr_model.geometry
    cut = {"name": "budget", "passed": True, "witness": "position census exceeded 1000 pairs"}
    kept = {k: v for k, v in g._derived.items() if k != "position-census"}
    for derived in (g._derived, kept):
        monkeypatch.setattr(g, "_derived", derived)
        for name, params in (("positions-catalogue", {}), ("table1", {"trials": 0})):
            rep = run_recipe(name, budget=1000, **params)
            assert rep.status == "PARTIAL"
            assert rep.assertions[-1] == cut
    assert "position-census" not in kept
    monkeypatch.undo()
    rep = run_recipe("positions-catalogue", budget=len(g.lines) ** 2)
    assert rep.status == "PASS"
    assert rep.payload() == run_recipe("positions-catalogue").payload()


def test_lazy_model_reads_few_rows(h2):
    # a fresh geometry, since relation matrices are cached per geometry
    fresh = Geometry(h2.n, h2.lines, h2.kind, order=h2.order)
    lazy = HexagonicModel(fresh)
    dense = oracle_model(h2)
    lazy.position_of(0, 40)
    assert len(lazy.rel._rows) <= 2 * lazy.m
    nl = len(h2.lines)
    for li in range(nl):
        for mi in range(nl):
            assert lazy.position_of(li, mi) == dense.position_of(li, mi)
            assert lazy.free_points(li, mi) == dense.free_points(li, mi)
    assert lazy.rel._np is None


# -- the orbit census and its certificate ----------------------------------------


@pytest.mark.parametrize("name, orbits", (("h2", 63), ("h3", 364), ("gr_w52", 1), ("gr_q72", 1)))
def test_orbit_census_equals_the_exhaustive_census(name, orbits, request):
    # hexagons have no generators, so every line is its own orbit; the
    # generators from the form make both Grassmannians line-transitive
    # (the census of Gr(Q+(7,2)) is the one the recipes keep)
    g = request.getfixturevalue(name)
    census = (request.getfixturevalue("gr_census") if name == "gr_q72"
              else position_census(HexagonicModel(g)))
    assert census.orbits == orbits
    assert census_fields(census) == census_fields(census_exhaustive(HexagonicModel(g)))


@pytest.fixture(scope="module")
def gr_w52_census(gr_w52):
    return census_fields(census_exhaustive(HexagonicModel(gr_w52)))


def line_array(g: Geometry) -> np.ndarray:
    return np.array(g.lines, dtype=np.intp)


@settings(max_examples=10)
@given(data=st.data())
def test_a_generator_with_two_point_images_swapped_is_refused(gr_w52, gr_w52_census, data):
    # swapping the images of two base points sends a line through one of
    # them and not the other off the base lines; tried first, the doctored
    # generator is refused and the census is unchanged
    base = gr_w52.meta["base"]
    R = HexagonicModel(gr_w52).rel.np().view(np.uint8)
    certify = groups.certifier(base, line_array(gr_w52), R)
    images = list(groups.point_images(base))
    k = data.draw(st.integers(0, len(images) - 1))
    p, q = data.draw(st.lists(st.integers(0, base.n - 1), min_size=2, max_size=2, unique=True))
    swapped = images[k].copy()
    swapped[[p, q]] = swapped[[q, p]]
    assert certify(images[k]) is not None
    assert certify(swapped) is None
    with mock.patch.object(groups, "point_images", lambda b: iter([swapped] + images)):
        census = position_census(HexagonicModel(gr_w52))
    assert census.orbits == 1
    assert census_fields(census) == gr_w52_census


def test_a_recoded_pair_fails_every_generator(gr_w52):
    # one symmetric pair of Gr(W(5,2)) coded SPECIAL instead of SYMPLECTIC:
    # every candidate moves that pair, so none keeps the relation data, and
    # the census counts every row
    model = HexagonicModel(gr_w52)
    assert model.rel.rel(0, 1) == SYMPLECTIC
    doc = doctored(model, [(0, 1)], SPECIAL)
    base = gr_w52.meta["base"]
    certify = groups.certifier(base, line_array(gr_w52), doc.rel.np().view(np.uint8))
    assert not any(certify(images) is not None for images in groups.point_images(base))
    census = position_census(doc)
    assert census.orbits == len(gr_w52.lines)
    assert census_fields(census) == census_fields(census_exhaustive(doc))


def test_an_off_diagonal_equal_turns_off_the_meeting_rule(gr_w52):
    # the pair (0, 5) of Gr(W(5,2)) coded EQUAL: one candidate still keeps
    # the relation data, so the census counts orbit rows, but a matrix
    # holding EQUAL no longer implies lines that meet, so only the diagonal
    # is read as listed pairs and the rest comes from the row scan
    doc = doctored(HexagonicModel(gr_w52), [(0, 5)], EQUAL)
    listed = []

    def counted(R, lines, li, mi, dtype):
        listed.append(len(li))
        return listed_keys(R, lines, li, mi, dtype)

    listed_keys = positions._listed_keys
    with mock.patch.object(positions, "_listed_keys", counted):
        census = position_census(doc)
    assert 1 < census.orbits < len(gr_w52.lines)
    assert listed == [len(gr_w52.lines)]
    assert census_fields(census) == census_fields(census_exhaustive(doc))


# -- properties of the signature key -------------------------------------------


def _matrices(m: int, count: int):
    cell = st.integers(0, len(REL_DISPLAY) - 1)
    return st.lists(st.lists(st.lists(cell, min_size=m, max_size=m), min_size=m, max_size=m),
                    min_size=count, max_size=count)


@st.composite
def _matrix_pair(draw):
    """Two m x m relation matrices; the second is often a row and column
    permutation of the first, so that equal signatures occur."""
    m = draw(st.sampled_from((3, 4)))
    a, b = draw(_matrices(m, 2))
    if draw(st.booleans()):
        rows, cols = draw(st.permutations(range(m))), draw(st.permutations(range(m)))
        b = [[a[i][j] for j in cols] for i in rows]
    return a, b


@given(_matrix_pair())
def test_key_equal_iff_signature_equal(pair):
    a, b = pair
    assert (matrix_key(a) == matrix_key(b)) == (matrix_signature(a) == matrix_signature(b))


@given(st.sampled_from((3, 4)).flatmap(lambda m: _matrices(m, 1)))
def test_key_of_transpose_is_half_swap(mats):
    mat = mats[0]
    transpose = [list(c) for c in zip(*mat)]
    assert matrix_key(transpose) == _swap_key(matrix_key(mat), len(mat))


# -- the signature memo ----------------------------------------------------------


@settings(max_examples=15)
@given(alphabet=st.sampled_from(_ALPHABETS),
       share=st.sampled_from((0.0, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       pairs=st.lists(st.tuples(st.integers(0, 62), st.integers(0, 62)), min_size=1,
                      max_size=40))
@example(alphabet=tuple(range(len(REL_DISPLAY))), share=1.0, seed=0, pairs=[(0, 1), (0, 0)])
def test_memoized_position_matches_matrix_key(h2, alphabet, share, seed, pairs):
    # each pair is looked up twice, the second time from the memo; with all
    # six codes on every pair nearly every pair misses the catalogue
    model = coded_model(h2, random_codes(h2, alphabet, share, seed))
    for li, mi in pairs + pairs:
        mat = model.pair_matrix(li, mi)
        entry = model.catalogue.by_sig.get(matrix_key(mat))
        pos = model.position_of(li, mi)
        if entry is None:
            assert isinstance(pos, CatalogueMiss)
            assert (pos.line_a, pos.line_b, pos.matrix) == (li, mi, mat)
        else:
            assert pos == entry.tuple4
    assert len(model._signatures) <= len(set(pairs))


def test_census_fills_the_position_memo(h2):
    # the census keys every distinct pair matrix through the model's memo,
    # so position_of on any pair afterwards, instances and misses alike,
    # never calls matrix_key
    model = coded_model(h2, random_codes(h2, tuple(range(len(REL_DISPLAY))), 0.3, 0))
    with mock.patch.object(positions, "matrix_key", wraps=matrix_key) as key:
        model.position_of(0, 1)
        assert key.call_count == 1
        key.reset_mock()
        census = position_census(model)
        assert census.miss_count and census.misses
        # once per distinct matrix, the one of (0, 1) read from the memo
        assert key.call_count == len(model._signatures) - 1
        key.reset_mock()
        nl = len(h2.lines)
        looked_up = [(li, mi) for pairs in census.instances.values() for li, mi in pairs]
        looked_up += [(m.line_a, m.line_b) for m in census.misses]
        looked_up += list(itertools.product(range(nl), repeat=2))
        for li, mi in looked_up:
            model.position_of(li, mi)
    assert key.call_count == 0


@settings(max_examples=10)
@given(alphabet=st.sampled_from(_ALPHABETS),
       share=st.sampled_from((0.0, 0.02, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       quota=st.sampled_from((1, 7, 10000)))
def test_census_does_not_depend_on_block_size(h2, alphabet, share, seed, quota):
    # the block size only splits the work: counts, instances (the first
    # ``quota`` pairs of each position in row-major order) and misses of the
    # census and of the exhaustive census are those of the pair-by-pair
    # census for each
    model = coded_model(h2, random_codes(h2, alphabet, share, seed))
    want = census_fields(census_scalar(model, instance_cap=quota))
    for block in (1, 5, 16, 64):
        with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=quota):
            for census in (position_census(model), census_exhaustive(model)):
                assert census_fields(census) == want
