import copy
import itertools
import random

import numpy as np
import pytest

from liegeom.constructors import PolarFormSpec, polar_space
from liegeom.geometry import Geometry, Kind, bit_indices, bitset, line_grassmannian
from liegeom.relations import (
    COLLINEAR,
    EQUAL,
    NEAR_OPPOSITE,
    OPPOSITE,
    SPECIAL,
    SYMPLECTIC,
    RelationMatrix,
    RelationError,
    classify_pair,
    geometry_family,
    grassmannian_base,
    opposition_sets,
    relation_matrix,
)
from test_geometry import distance_bitsets, np_adjacency


def test_classify_trivial(h2):
    assert classify_pair(h2, 4, 4) == EQUAL
    x, y = h2.lines[0][0], h2.lines[0][1]
    assert classify_pair(h2, x, y) == COLLINEAR


def test_hexagon_has_no_symplectic_pairs(h2):
    m = relation_matrix(h2).np()
    assert (m == SYMPLECTIC).sum() == 0
    assert (m == SPECIAL).sum() == 63 * 24
    assert (m == OPPOSITE).sum() == 63 * 32


def test_symmetry_exhaustive_h2(h2):
    m = relation_matrix(h2).np()
    assert (m == m.T).all()


def test_opposite_points(h2, w32):
    o = opposition_sets(h2)
    assert all(b.bit_count() == 32 for b in o.opp)
    ow = opposition_sets(w32)
    assert all(b.bit_count() == 8 for b in ow.opp)


def test_grassmannian_opposition_constant(gr_q72):
    o = opposition_sets(gr_q72)
    sizes = set(o.sizes())
    assert len(sizes) == 1


def test_no_near_opposite_on_models(gr_q72, gr_model):
    assert (gr_model.rel.np() == NEAR_OPPOSITE).sum() == 0


def test_scalar_matches_dense(gr_q72):
    rng = random.Random(7)
    dense = dense_oracle(gr_q72)
    for _ in range(1500):
        x, y = rng.randrange(gr_q72.n), rng.randrange(gr_q72.n)
        assert classify_pair(gr_q72, x, y) == dense[x, y]


# -- oracles -----------------------------------------------------------------


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


def dense_line_opposition(p: Geometry) -> np.ndarray:
    """Boolean matrix of pairwise line opposition in a polar space."""
    nl = len(p.lines)
    adj = np_adjacency(p, strict=False)
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
    return opp


def dense_oracle(g: Geometry) -> np.ndarray:
    """Reference relation matrix of g from numpy matrix products, independent
    of the bitset kernel.  Connected input only: it has no diameter check
    for hexagons."""
    fam, n = geometry_family(g), g.n
    adj = np_adjacency(g, strict=True)
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
        opp = dense_line_opposition(base)
        codes[far & opp] = OPPOSITE
        codes[far & ~opp] = NEAR_OPPOSITE
    return codes


def build_row_scan(self, x: int) -> bytes:
    """Reference lazy row of RelationMatrix `self`: one point at a time
    over the distance layers of x (the row before the bitset kernel)."""
    g, fam = self.geometry, self.family
    row = bytearray(self.n)
    layers = distance_bitsets(g, x)
    for d, layer in enumerate(layers):
        for y in bit_indices(layer):
            if d == 0:
                row[y] = EQUAL
            elif d == 1:
                row[y] = COLLINEAR
            elif fam in ("quadrangle", "polar"):
                row[y] = SYMPLECTIC
            elif d == 2:
                cn = ((g.adj[x] & g.adj[y]) & ~(1 << x) & ~(1 << y)).bit_count()
                row[y] = SPECIAL if cn == 1 else SYMPLECTIC
            elif d == 3:
                if fam == "hexagon":
                    row[y] = OPPOSITE
                else:
                    base = grassmannian_base(g)
                    row[y] = OPPOSITE if opposite_lines_polar(base, x, y) else NEAR_OPPOSITE
            else:
                raise RelationError(f"distance {d} pair unsupported for {fam}")
    return bytes(row)


def test_lazy_rows_match_dense(h2, h3, w32, w52, gr_w52, gr_q72):
    # kernel = scan oracle = dense oracle: every row of the small models,
    # 100 seeded rows of Gr(Q+(7,2))
    for g, rows in ((h2, None), (h3, None), (w32, None), (w52, None), (gr_w52, None),
                    (gr_q72, 100)):
        m, dense = RelationMatrix(g), dense_oracle(g)
        xs = range(g.n) if rows is None else random.Random(5).sample(range(g.n), rows)
        for x in xs:
            assert m.row(x) == build_row_scan(m, x) == dense[x].tobytes(), (g.name, x)
    assert (RelationMatrix(w52).np() == dense_oracle(w52)).all()


def _two_copies(g, **kw):
    """Disjoint union of two copies of g."""
    lines = list(g.lines) + [tuple(p + g.n for p in l) for l in g.lines]
    return Geometry(2 * g.n, lines, **kw)


def test_lazy_rows_on_disconnected_geometries(w32, w52, h2):
    # polar: points off x's component are symplectic, as in the dense
    # oracle (the scan gave them EQUAL)
    g = _two_copies(w32, kind=Kind("polar", 2))
    m, dense = RelationMatrix(g), dense_oracle(g)
    for x in range(g.n):
        assert m.row(x) == dense[x].tobytes()
    assert set(m.row(0)[w32.n:]) == {SYMPLECTIC}
    # hexagon and Grassmannian: distance > 3 raises, from every reader of
    # the relation (the hexagon branch of opposition sets once gave 95 bits)
    g = _two_copies(h2, kind=Kind("polygon", 6))
    for read in (lambda: RelationMatrix(g).row(0), lambda: RelationMatrix(g).np(),
                 lambda: opposition_sets(g), lambda: classify_pair(g, 0, 1)):
        with pytest.raises(RelationError, match="distance > 3"):
            read()
    gr = line_grassmannian(_two_copies(w52, kind=Kind("polar", 3)))
    with pytest.raises(RelationError, match="distance > 3"):
        RelationMatrix(gr).row(5)


def _doctored_grassmannian(gr):
    """A copy of Grassmannian gr whose base gains collinearities: a point a
    off line y becomes collinear with all of y, so lines through a that
    were opposite y are not opposite any more, while gr's own collinearity
    (and so the distance 3) is kept."""
    base = copy.copy(grassmannian_base(gr))
    y = 0
    a = next(a for a in range(base.n)
             if not base.line_bits[y] >> a & 1 and (base.adj[a] & base.line_bits[y]).bit_count() == 1)
    adj = list(base.adj)
    for b in base.lines[y]:
        adj[a] |= 1 << b
        adj[b] |= 1 << a
    base.adj, base._derived = tuple(adj), {}
    return Geometry(gr.n, gr.lines, gr.kind, name=gr.name, meta={"base": base})


def test_lazy_rows_near_opposite_on_doctored_base(gr_w52):
    # no built-in model has near-opposite pairs; a doctored base makes some,
    # from either half of the polar opposition test (row x through a sees
    # a in perp_all[y]; row y sees a point of y^perp-all on x)
    g = _doctored_grassmannian(gr_w52)
    m, dense = RelationMatrix(g), dense_oracle(g)
    for x in range(g.n):
        assert m.row(x) == build_row_scan(m, x) == dense[x].tobytes()
    full = m.np()
    near = [(int(x), int(y)) for x, y in zip(*(full == NEAR_OPPOSITE).nonzero())]
    assert near and (full == full.T).all()
    assert all(0 in pair for pair in near)
    x, y = near[0]
    assert classify_pair(g, x, y) == NEAR_OPPOSITE
    assert relation_matrix(gr_w52).rel(x, y) == OPPOSITE


def test_lazy_rows_exhaustive_gr_q63():
    # all 3640 rows of Gr(Q(6,3)) against the dense oracle; the scan oracle
    # on 20 seeded rows
    g = line_grassmannian(polar_space(PolarFormSpec("parabolic", 6, 3)))
    rel = RelationMatrix(g)
    assert g.n == 3640
    m = rel.np()
    assert ((m == OPPOSITE).sum(axis=1) == 2187).all()
    assert not (m == NEAR_OPPOSITE).any()
    assert (m == m.T).all()
    assert (m == dense_oracle(g)).all()
    for x in random.Random(3).sample(range(g.n), 20):
        assert rel.row(x) == build_row_scan(rel, x)


def test_polar_pairs_are_symplectic(w52):
    m = relation_matrix(w52).np()
    vals = set(m.flatten().tolist())
    assert vals == {EQUAL, COLLINEAR, SYMPLECTIC}


def test_opposite_lines_polar_examples(w32, q72):
    assert not opposite_lines_polar(w32, 0, 0)
    # two meeting lines are never opposite
    li = 0
    x = w32.lines[li][0]
    mi = next(m for m in w32.lines_through[x] if m != li)
    assert not opposite_lines_polar(w32, li, mi)
    # disjoint lines spanning a singular 3-space of Q+(7,2) are not opposite
    pair = _solid_line_pair(q72)
    assert pair is not None
    assert not opposite_lines_polar(q72, *pair)


def _solid_line_pair(g):
    """Two disjoint lines, each collinear with all points of the other."""
    for li in range(len(g.lines)):
        perp_all = g.full_mask
        for p in g.lines[li]:
            perp_all &= g.adj[p]
        for mi in range(li + 1, len(g.lines)):
            if g.line_bits[mi] & g.line_bits[li]:
                continue
            if not (g.line_bits[mi] & ~perp_all):
                return li, mi
    return None


def test_not_opposite_is_hyperplane(h2, gr_q72, gr_model):
    # proper subset meeting every line; on hexagonic models, one-or-all
    for g in (h2, gr_q72):
        o = opposition_sets(g)
        for x in range(0, g.n, max(1, g.n // 40)):
            no = o.notopp[x]
            assert no != g.full_mask
            for lb, l in zip(g.line_bits, g.lines):
                c = (no & lb).bit_count()
                assert c in (1, len(l))


def test_classify_unsupported_kind():
    from liegeom.constructors import pg
    with pytest.raises(RelationError):
        classify_pair(pg(2, 2), 0, 1)


# -- hexagonic facts checked on the Grassmannian model -------------------------


def _sampled_paths(g, rel, rng, count):
    """Random paths x - y - z - u of distinct collinear steps."""
    out = []
    while len(out) < count:
        x = rng.randrange(g.n)
        y = rng.choice(bit_indices(g.adj[x] & ~(1 << x)))
        z = rng.choice(bit_indices(g.adj[y] & ~(1 << y) & ~(1 << x)))
        u = rng.choice(bit_indices(g.adj[z] & ~(1 << z) & ~(1 << y)))
        out.append((x, y, z, u))
    return out


def test_joinjoin_on_model(gr_q72, gr_model):
    import numpy as np
    rng = random.Random(11)
    R = gr_model.rel
    M = R.np()
    for x, y, z, u in _sampled_paths(gr_q72, R, rng, 4000):
        opp = M[x, u] == OPPOSITE
        both_special = M[x, z] == SPECIAL and M[y, u] == SPECIAL
        assert opp == both_special
    # symplectic-then-collinear never reaches an opposite point
    for _ in range(2000):
        x = rng.randrange(gr_q72.n)
        v = int(rng.choice(np.nonzero(M[x] == SYMPLECTIC)[0]))
        u = rng.choice(bit_indices(gr_q72.adj[v] & ~(1 << v)))
        assert M[x, u] != OPPOSITE


def test_pentagon_on_model(gr_q72, gr_model):
    import numpy as np
    rng = random.Random(13)
    M = gr_model.rel.np()
    checked = 0
    while checked < 800:
        x = rng.randrange(gr_q72.n)
        y1 = int(rng.choice(np.nonzero(M[x] == SPECIAL)[0]))
        nbrs = [w for w in bit_indices(gr_q72.adj[y1] & ~(1 << y1))
                if M[x, w] == SPECIAL]
        if not nbrs:
            continue
        y2 = rng.choice(nbrs)
        z1 = _centre(gr_q72, x, y1)
        z2 = _centre(gr_q72, x, y2)
        assert z1 == z2 or gr_q72.collinear(z1, z2)
        checked += 1


def _centre(g, a, b):
    common = g.adj[a] & g.adj[b] & ~(1 << a) & ~(1 << b)
    assert common.bit_count() == 1
    return common.bit_length() - 1


def _all_relation_incidences(g, model, rel_code):
    """(point, line) pairs where the point has rel_code to every line point."""
    import numpy as np
    m = model.rel.np()
    lines = np.array(g.lines, dtype=np.int32)
    mask = (m[:, lines] == rel_code).all(axis=2)
    xs, ls = np.nonzero(mask)
    return list(zip(xs.tolist(), ls.tolist()))


def test_point_special_line_on_model(gr_q72, gr_model):
    pairs = _all_relation_incidences(gr_q72, gr_model, SPECIAL)
    assert pairs, "no point is special to a full line"
    rng = random.Random(17)
    for x, li in rng.sample(pairs, 400):
        centres = sorted({_centre(gr_q72, x, y) for y in gr_q72.lines[li]})
        assert gr_q72.line_id(centres) is not None


def test_point_symplectic_line_on_model(gr_q72, gr_model):
    # the rank-4 Grassmannian model realizes no all-symplectic point-line
    # incidence (no realized position has an all-symplectic row), so the
    # singular-span property is checked over whatever instances exist
    pairs = _all_relation_incidences(gr_q72, gr_model, SYMPLECTIC)
    rng = random.Random(19)
    for x, li in rng.sample(pairs, min(200, len(pairs))):
        common = gr_q72.adj[x]
        for y in gr_q72.lines[li]:
            common &= gr_q72.adj[y]
        common &= ~(1 << x) & ~gr_q72.line_bits[li]
        assert common != 0
        pts = bit_indices(common) + list(gr_q72.lines[li])
        for a, b in itertools.combinations(pts, 2):
            assert gr_q72.collinear(a, b)
    if not pairs:
        cols = {tuple(sorted(col)) for e in gr_model.catalogue.entries
                for col in zip(*e.template(3))
                if e.display in ("13/23/21", "13/23/22", "3/2223/2")}
        assert (SYMPLECTIC, SYMPLECTIC, SYMPLECTIC) not in cols


def test_census_shape(h2):
    c = relation_matrix(h2).census()
    assert c == {"0": 63, "1": 378, "2": 1512, "3": 2016}
