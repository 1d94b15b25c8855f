import hashlib
import json

import pytest
from hypothesis import given, settings, strategies as st

from liegeom.constructors import (
    ConstructionError,
    PolarFormSpec,
    _anisotropic_coefficient,
    _check_polar_axioms,
    _lines_from_pairs,
    _pair_rows,
    _points_where,
    _polar_form,
    geometry_by_name,
    hermitian_quadrangle,
    hermitian_subquadrangle,
    pg,
    polar_space,
    projective_points,
    span_points,
    split_cayley_hexagon,
)
from liegeom.gf import field
from liegeom.geometry import Geometry, Kind, is_generalized_polygon, validate

#: fingerprint (points, lines, hash) and sha256 prefix of the coordinates
#: of each constructor geometry, as the pair-scan construction
#: (lines_from_pairs_scan) gave them; the subquadrangle pins its parent points
GOLDEN = {
    "PG(2,2)": (7, 7, "17a08595f6e43aea", "a18322d62a1879b7"),
    "PG(3,3)": (40, 130, "edc5a04b85919016", "26e4ea24ff557da1"),
    "W(3,2)": (15, 15, "9cf5e458659dd3b7", "b642d9cc015fe54b"),
    "W(5,2)": (63, 315, "e4d96d9d8546fb7c", "19fc9d08c4baad13"),
    "Q(4,3)": (40, 40, "3739dd27251443c8", "5ffd16b8f2b64f1b"),
    "Q(6,3)": (364, 3640, "0818bd5b21e4b188", "413668eac70105fd"),
    "Q+(7,2)": (135, 1575, "b1ad177c53a4e21c", "da7ecfc690e810f9"),
    "Q-(5,2)": (27, 45, "acec1bab3cff421b", "a31be4049dd23b04"),
    "H(3,4)": (45, 27, "2d5ff95725274cc6", "73944852ef7dead0"),
    "sub:H(3,4)": (15, 15, "b05900e1f8d69863", "31ad20eecccd26af"),
    "H(2)": (63, 63, "15ea6bbcba067925", "1de4cbdef074f96c"),
    "H(3)": (364, 364, "0aa52ee8d40ab756", "858eb9c843caf4c6"),
    "H(4)": (1365, 1365, "5a3072bb4ac90822", "3acbe19fa728fd09"),
}


def golden_digest(g: Geometry, coords) -> tuple:
    fp = g.fingerprint()
    text = json.dumps(coords, separators=(",", ":"))
    return (fp["points"], fp["lines"], fp["hash"], hashlib.sha256(text.encode()).hexdigest()[:16])


# -- the pair-scan line builder and its per-pair forms, the oracle of the
# -- form tables and the covered-bitset builder -------------------------------


def lines_from_pairs_scan(F, pts, pair_ok, member):
    """Collect full lines {span(x,y)} for admissible pairs lying in the point set."""
    index = {v: i for i, v in enumerate(pts)}
    lines = set()
    for i in range(len(pts)):
        for j in range(i + 1, len(pts)):
            if not pair_ok(pts[i], pts[j]):
                continue
            sp = span_points(F, pts[i], pts[j])
            if all(member(v) for v in sp):
                lines.add(tuple(sorted(index[v] for v in sp)))
    return sorted(lines)


def alternating_form(F, x, y):
    s = 0
    for i in range(0, len(x) - 1, 2):
        s = F.add(s, F.sub(F.mul(x[i], y[i + 1]), F.mul(x[i + 1], y[i])))
    return s


def quadratic_value(F, spec, x):
    s = 0
    d = spec.dim
    hyp_pairs = {"hyperbolic": (d + 1) // 2, "parabolic": d // 2, "elliptic": (d - 1) // 2}
    for i in range(hyp_pairs[spec.family]):
        s = F.add(s, F.mul(x[2 * i], x[2 * i + 1]))
    if spec.family == "parabolic":
        s = F.add(s, F.mul(x[d], x[d]))
    elif spec.family == "elliptic":
        u, v = x[d - 1], x[d]
        dd = _anisotropic_coefficient(F)
        s = F.add(s, F.add(F.mul(u, u), F.add(F.mul(u, v), F.mul(dd, F.mul(v, v)))))
    return s


def hermitian_value(F, x, y):
    """Anti-diagonal Hermitian form sum_i x_i * conj(y_{d-i}); conj = Frobenius^(k/2)."""
    d = len(x) - 1
    s = 0
    for i in range(d + 1):
        s = F.add(s, F.mul(x[i], F.frobenius(y[d - i], F.k // 2)))
    return s


def polar_scan(spec):
    """(field, isotropic points, pair predicate) of a polar family, point by point."""
    F = field(spec.q)
    pts = projective_points(F, spec.dim)
    if spec.family == "sp":
        return F, pts, lambda x, y: alternating_form(F, x, y) == 0
    if spec.family == "hermitian":
        pts = [v for v in pts if hermitian_value(F, v, v) == 0]
        return F, pts, lambda x, y: hermitian_value(F, x, y) == 0
    pts = [v for v in pts if quadratic_value(F, spec, v) == 0]
    return F, pts, lambda x, y: True  # span membership decides


def _cross(F, v, w):
    return (
        F.sub(F.mul(v[1], w[2]), F.mul(v[2], w[1])),
        F.sub(F.mul(v[2], w[0]), F.mul(v[0], w[2])),
        F.sub(F.mul(v[0], w[1]), F.mul(v[1], w[0])),
    )


def _dot(F, v, w):
    s = 0
    for a, b in zip(v, w):
        s = F.add(s, F.mul(a, b))
    return s


def zorn_product_is_zero(F, x, y):
    """Product of two trace-zero split octonions in Zorn form.

    x = (a, v, w) stands for the vector matrix [[a, v], [w, -a]].
    """
    a, v, w = x[0], x[1:4], x[4:7]
    c, v2, w2 = y[0], y[1:4], y[4:7]
    nc = F.neg(c)
    na = F.neg(a)
    if F.add(F.mul(a, c), _dot(F, v, w2)) != 0:
        return False
    if F.add(F.mul(na, nc), _dot(F, w, v2)) != 0:
        return False
    cr = _cross(F, w, w2)
    for i in range(3):
        t = F.add(F.mul(a, v2[i]), F.sub(F.mul(nc, v[i]), cr[i]))
        if t != 0:
            return False
    cr = _cross(F, v, v2)
    for i in range(3):
        t = F.add(F.mul(c, w[i]), F.add(F.mul(na, w2[i]), cr[i]))
        if t != 0:
            return False
    return True


#: (family, dim, q) with at most 165 points; "pg" is the projective space
SMALL_SPECS = [
    ("pg", 2, 2), ("pg", 2, 3), ("pg", 2, 4), ("pg", 3, 2), ("pg", 3, 3), ("pg", 3, 4),
    ("pg", 4, 2), ("pg", 4, 3), ("pg", 5, 2),
    ("sp", 1, 3), ("sp", 3, 2), ("sp", 3, 3), ("sp", 3, 4), ("sp", 5, 2),
    ("parabolic", 2, 4), ("parabolic", 4, 2), ("parabolic", 4, 3), ("parabolic", 4, 4),
    ("parabolic", 6, 2),
    ("hyperbolic", 1, 3), ("hyperbolic", 3, 2), ("hyperbolic", 3, 3), ("hyperbolic", 3, 4),
    ("hyperbolic", 5, 2), ("hyperbolic", 5, 3), ("hyperbolic", 7, 2),
    ("elliptic", 3, 2), ("elliptic", 3, 3), ("elliptic", 3, 4), ("elliptic", 5, 2),
    ("elliptic", 5, 3),
    ("hermitian", 2, 4), ("hermitian", 3, 4), ("hermitian", 4, 4),
]


@pytest.mark.parametrize("spec", SMALL_SPECS, ids=lambda s: "%s-%d-%d" % s)
@settings(max_examples=3)
@given(data=st.data())
def test_line_builder_matches_pair_scan(spec, data):
    family, dim, q = spec
    if family == "pg":
        F = field(q)
        pts = projective_points(F, dim)
        pair_ok = lambda x, y: True  # noqa: E731
    else:
        spec = PolarFormSpec(family, dim, q)
        F, pts, pair_ok = polar_scan(spec)
        point_ok, pair_ok_cols = _polar_form(F, spec)
        assert _points_where(F, dim, point_ok) == pts
    # a point subset drops the lines through its missing points: the
    # member check of _lines_from_pairs
    drop = data.draw(st.sets(st.integers(0, len(pts) - 1), max_size=len(pts) // 8))
    sub = [v for i, v in enumerate(pts) if i not in drop]
    members = set(sub)
    want = lines_from_pairs_scan(F, sub, pair_ok, lambda v: v in members)
    if family == "pg":
        rows = [(1 << len(sub)) - 1] * len(sub)
    else:
        rows = _pair_rows(sub, pair_ok_cols)
    assert _lines_from_pairs(F, sub, rows) == want


def test_hexagon_lines_match_pair_scan(h2, h3):
    for g in (h2, h3):
        F = g.meta["field"]
        pts = [v for v in projective_points(F, 6)
               if F.add(F.mul(v[0], v[0]), _dot(F, v[1:4], v[4:7])) == 0]
        assert tuple(pts) == g.meta["coords"]
        want = lines_from_pairs_scan(
            F, pts, lambda x, y: zorn_product_is_zero(F, x, y) and zorn_product_is_zero(F, y, x),
            lambda v: True)
        assert list(g.lines) == want


def gaussian(n, k, q):
    """Number of k-dim subspaces of an n-dim space over GF(q)."""
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (k - i) - 1
    return num // den


def test_pg_counts_against_gaussian_oracle():
    assert (pg(2, 2).n, len(pg(2, 2).lines)) == (gaussian(3, 1, 2), gaussian(3, 2, 2))
    assert (pg(3, 2).n, len(pg(3, 2).lines)) == (gaussian(4, 1, 2), gaussian(4, 2, 2))
    assert (pg(2, 3).n, len(pg(2, 3).lines)) == (13, 13)


def test_symplectic_counts():
    w32 = polar_space(PolarFormSpec("sp", 3, 2))
    assert (w32.n, len(w32.lines)) == (15, 15)
    assert validate(w32).order == (2, 2)
    assert w32.kind.param == 2
    w52 = polar_space(PolarFormSpec("sp", 5, 2))
    # points of PG(5,2); lines via the residual recursion 63*15/3
    assert (w52.n, len(w52.lines)) == (63, 315)
    assert w52.kind.param == 3


def test_hyperbolic_counts():
    q72 = polar_space(PolarFormSpec("hyperbolic", 7, 2))
    # (q^3+1)(q^2+1)(q+1) points; 135*35/3 lines
    assert (q72.n, len(q72.lines)) == (135, 1575)
    assert q72.kind.param == 4
    q52 = polar_space(PolarFormSpec("hyperbolic", 5, 2))
    assert (q52.n, len(q52.lines)) == (35, 105)
    assert q52.kind.param == 3


def test_parabolic_and_elliptic():
    q62 = polar_space(PolarFormSpec("parabolic", 6, 2))
    assert q62.n == 63 and q62.kind.param == 3
    qm52 = polar_space(PolarFormSpec("elliptic", 5, 2))
    assert qm52.n == 27 and qm52.kind.param == 2
    assert validate(qm52).order == (2, 4)


def test_hermitian_gq_counts(h34):
    q = 2
    assert h34.n == (q * q + 1) * (q ** 3 + 1)
    assert len(h34.lines) == (q ** 3 + 1) * (q + 1)
    assert validate(h34).order == (4, 2)
    assert is_generalized_polygon(h34, 4)


def test_hermitian_subquadrangle(h34):
    sub = h34.meta["subgq"]
    assert (sub.n, len(sub.lines)) == (15, 15)
    assert validate(sub).order == (2, 2)
    assert is_generalized_polygon(sub, 4)
    # closure: parent lines meeting the point set twice truncate to sub-lines
    parent_pts = set(sub.meta["parent_points"])
    sub_line_sets = {tuple(sorted(sub.meta["parent_points"][p] for p in l))
                     for l in sub.lines}
    for l in h34.lines:
        cut = tuple(sorted(p for p in l if p in parent_pts))
        if len(cut) >= 2:
            assert cut in sub_line_sets
            assert len(cut) == 3
    # every subGQ point on exactly q+1 = 3 sub-lines
    assert all(len(v) == 3 for v in sub.lines_through)


def test_subgq_geodesically_convex_in_parent(h34):
    sub = h34.meta["subgq"]
    from liegeom.geometry import bitset
    from test_geometry import convex_closure
    seed = list(sub.meta["parent_points"])
    assert convex_closure(h34, seed, with_lines=False) == bitset(seed)


def test_split_cayley_validates(h2, h3):
    for g, q in ((h2, 2), (h3, 3)):
        assert g.n == (1 + q) * (1 + q * q + q ** 4)
        assert len(g.lines) == g.n
        assert validate(g).order == (q, q)
        assert is_generalized_polygon(g, 6)


def test_split_cayley_q4():
    g = split_cayley_hexagon(4)
    assert (g.n, len(g.lines)) == (1365, 1365)
    assert validate(g).order == (4, 4)
    assert golden_digest(g, g.meta["coords"]) == GOLDEN["H(4)"]


@pytest.mark.parametrize("name", [k for k in GOLDEN if k not in ("sub:H(3,4)", "H(4)")])
def test_golden_constructor_fingerprints(name):
    g = geometry_by_name(name)
    assert golden_digest(g, g.meta["coords"]) == GOLDEN[name]
    if name == "H(3,4)":
        sub = hermitian_subquadrangle(g)
        assert golden_digest(sub, sub.meta["parent_points"]) == GOLDEN["sub:H(3,4)"]


def test_split_cayley_point_set_is_parabolic_quadric(h2):
    # same ambient form as Q(6,2): x3^2 + x0 x4 + x1 x5 + x2 x6 = 0
    q62 = polar_space(PolarFormSpec("parabolic", 6, 2))
    assert h2.n == q62.n
    F = h2.meta["field"]
    for v in h2.meta["coords"]:
        a, w1, w2 = v[0], v[1:4], v[4:7]
        s = F.mul(a, a)
        for x, y in zip(w1, w2):
            s = F.add(s, F.mul(x, y))
        assert s == 0


def test_hexagon_lines_are_quadric_lines(h2):
    # every hexagon line is a totally singular line of the quadric
    pts = set(h2.meta["coords"])
    from liegeom.constructors import span_points
    F = h2.meta["field"]
    for l in h2.lines[:50]:
        vs = [h2.meta["coords"][p] for p in l]
        assert all(v in pts for v in span_points(F, vs[0], vs[1]))


def test_polar_axiom_gate():
    with pytest.raises(ConstructionError):
        polar_space(PolarFormSpec("sp", 4, 2))   # even projective dimension
    with pytest.raises(ConstructionError):
        polar_space(PolarFormSpec("hermitian", 3, 2))  # non-square order
    with pytest.raises(ConstructionError):
        PolarFormSpec("unitary", 3, 4)


def test_polar_axiom_gate_rejects_non_polar_geometries(h2):
    # a hexagon has points collinear with no point of a line
    relabelled = Geometry(h2.n, h2.lines, Kind("polar", 2))
    with pytest.raises(ConstructionError,
                       match=r"one-or-all violated at point 1, line 0 \(\|perp cap line\| = 0\)"):
        _check_polar_axioms(relabelled)
    # in a projective plane every perp is the whole point set
    with pytest.raises(ConstructionError, match="perp of point 0 is not proper"):
        _check_polar_axioms(pg(2, 2))
    # a line met by a point in 2 of its 3 points
    bad = Geometry(4, [(0, 1, 2), (2, 3), (1, 3)], Kind("polar", 2))
    with pytest.raises(ConstructionError, match=r"at point 3, line 0 \(\|perp cap line\| = 2\)"):
        _check_polar_axioms(bad)
    for g in (polar_space(PolarFormSpec("sp", 3, 2)), polar_space(PolarFormSpec("elliptic", 5, 2))):
        _check_polar_axioms(g)


def test_polar_axiom_gate_builds_no_line_bitsets(h2):
    # |perp cap line| is counted from the line's points, so refusing a
    # geometry builds no line bitsets for the message
    for g in (Geometry(h2.n, h2.lines, Kind("polar", 2)),
              Geometry(4, [(0, 1, 2), (2, 3), (1, 3)], Kind("polar", 2))):
        with pytest.raises(ConstructionError, match="one-or-all violated"):
            _check_polar_axioms(g)
        assert "line-bits" not in g._derived


def test_hermitian_subquadrangle_requires_coords(h34):
    from liegeom.geometry import Geometry
    bare = Geometry.from_json(h34.to_json())
    with pytest.raises(ConstructionError):
        hermitian_subquadrangle(bare)
