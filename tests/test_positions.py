import hashlib
import itertools
import json
import random
import threading
from collections import Counter
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from liegeom import positions, search as S
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
    return PositionCensus(counts, miss_examples, miss_count, inst, nl * nl)


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
    assert census.instances == oracle.instances
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
    assert census.instances == oracle.instances


@pytest.mark.parametrize("share", (0.0, 0.02))
def test_four_point_census_does_not_depend_on_block_size(h3, share):
    # H(3) with a quota of 7: instances merge across the squares and the
    # parts beyond them at m = 4; with 2% of its codes redrawn, misses that
    # occur only below the diagonal also run the lower pass
    model = coded_model(h3, random_codes(h3, _ALPHABETS[1], share, 0))
    oracle = census_scalar(model, instance_cap=7)
    assert (oracle.miss_count > 0) == (share > 0)
    for block in (5, 16):
        with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=7):
            census = position_census(model)
        assert (census.counts, census.instances, census.miss_count) == (
            oracle.counts, oracle.instances, oracle.miss_count)
        assert ([(m.line_a, m.line_b, m.matrix) for m in census.misses]
                == [(m.line_a, m.line_b, m.matrix) for m in oracle.misses])


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
    doc = json.dumps(gr_census.instances, sort_keys=True).encode()
    assert hashlib.sha256(doc).hexdigest() == GR_Q72_INSTANCES_SHA256


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
    assert census.instances == oracle.instances
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
    """The pair keys the census of model packs."""
    sizes = []

    def counted(*args):
        key = pair_keys(*args)
        sizes.append(key.size)
        return key

    pair_keys = positions._pair_keys
    with mock.patch.object(positions, "_pair_keys", counted):
        position_census(model)
    return sum(sizes)


@settings(max_examples=10)
@given(alphabet=st.sampled_from(_ALPHABETS),
       share=st.sampled_from((0.0, 0.02, 0.3, 1.0)),
       seed=st.integers(0, 2 ** 32 - 1),
       block=st.sampled_from((1, 5, 16, 64)),
       quota=st.sampled_from((1, 7, 10000)))
@example(alphabet=tuple(range(len(REL_DISPLAY))), share=1.0, seed=0, block=5, quota=10000)
def test_census_packs_no_pair_twice(h2, alphabet, share, seed, block, quota):
    # the upper triangle is packed once, and the lower triangle at most
    # once, even when every position is rarer than its quota
    model = coded_model(h2, random_codes(h2, alphabet, share, seed))
    with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=quota):
        assert packed_pairs(model) <= len(h2.lines) ** 2


def test_census_reads_little_of_the_lower_triangle(monkeypatch, gr_w52):
    # with one instance per position every position is settled by the
    # first rows, so little beyond the upper triangle is packed
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
    # the block size only splits the work: counts,
    # instances (the first ``quota`` pairs of each position in row-major
    # order) and misses are those of the pair-by-pair census for each
    model = coded_model(h2, random_codes(h2, alphabet, share, seed))
    oracle = census_scalar(model, instance_cap=quota)
    want = (oracle.counts, oracle.instances, oracle.miss_count,
            [(m.line_a, m.line_b, m.matrix) for m in oracle.misses])
    for block in (1, 5, 16, 64):
        with mock.patch.multiple(positions, CENSUS_BLOCK=block, CENSUS_INSTANCES=quota):
            census = position_census(model)
        assert (census.counts, census.instances, census.miss_count,
                [(m.line_a, m.line_b, m.matrix) for m in census.misses]) == want
