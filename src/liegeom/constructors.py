"""Concrete small geometries: projective and polar spaces, generalised
quadrangles and the split Cayley hexagon.

All constructors enumerate projective points in lexicographic order of
the normalized coordinate vector (first nonzero coordinate scaled to 1),
so point IDs are reproducible run to run.  Every output is validated
against its family axioms before it is returned.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from functools import partial
from typing import Callable, Iterable, Iterator, Sequence

import numpy as np

from .gf import GF, field
from .geometry import (
    Geometry,
    GeometryError,
    Kind,
    bit_indices,
    bitset,
    is_generalized_polygon,
    one_or_all,
    span,
    validate,
)


class ConstructionError(GeometryError):
    pass


# -- projective machinery ---------------------------------------------------


def projective_points(F: GF, dim: int) -> list[tuple[int, ...]]:
    """Normalized representatives of the points of PG(dim, q), lex order."""
    pts = []
    for lead in range(dim + 1):
        for tail in itertools.product(F.elements, repeat=dim - lead):
            v = (0,) * lead + (1,) + tail
            pts.append(v)
    pts.sort()
    return pts


def normalize(F: GF, v: Sequence[int]) -> tuple[int, ...]:
    for c in v:
        if c:
            inv = F.inv(c)
            return tuple(F.mul(inv, x) for x in v)
    raise ConstructionError("zero vector has no projective point")


def span_points(F: GF, x: Sequence[int], y: Sequence[int]) -> list[tuple[int, ...]]:
    """The q+1 projective points of the span of two independent vectors."""
    out = [normalize(F, y)]
    for c in F.elements:
        out.append(normalize(F, tuple(F.add(xi, F.mul(c, yi)) for xi, yi in zip(x, y))))
    return sorted(set(out))


# Forms are evaluated on coordinate columns: a vector is a list of arrays,
# one per coordinate, so one expression covers a single point, a point
# list, or (rows x columns) all pairs at once by broadcasting.


def _dot(A, terms) -> np.ndarray:
    """Sum of the products a*b over the (a, b) terms, in GF arithmetic A."""
    add, mul, _ = A
    s = 0
    for a, b in terms:
        s = add[s, mul[a, b]]
    return s


def _points_where(F: GF, dim: int, point_ok: Callable) -> list[tuple[int, ...]]:
    """The points of PG(dim, q), lex order, whose coordinates pass point_ok."""
    pts = projective_points(F, dim)
    cols = list(np.array(pts, dtype=np.uint8).T)
    return [pts[i] for i in np.flatnonzero(point_ok(cols))]


def _pair_rows(pts: list[tuple[int, ...]], pair_ok: Callable) -> Iterator[int]:
    """Row i: the bitset of the j with pair_ok(pts[i], pts[j]).  Computed a
    block of rows at a time, so the arrays stay near 2^16 entries whatever
    n is, and the rows take n^2 bits in all, as the collinearity does."""
    n = len(pts)
    C = np.array(pts, dtype=np.uint8)
    ys = [C[None, :, k] for k in range(C.shape[1])]
    step = max(1, (1 << 16) // n)
    for lo in range(0, n, step):
        block = pair_ok([C[lo:lo + step, k, None] for k in range(C.shape[1])], ys)
        for row in np.packbits(block, axis=1, bitorder="little"):
            yield int.from_bytes(row.tobytes(), "little")


def _lines_from_pairs(F: GF, pts: list[tuple[int, ...]],
                      admissible: Iterable[int]) -> list[tuple[int, ...]]:
    """The lines span(x, y), for admissible pairs, that lie in the point set.

    admissible yields, for each point i in turn, the bitset of the points
    that make an admissible pair with it.  Each line is spanned once:
    covered[i] holds the points already on a found line through point i,
    and the pairs they make with i are skipped.
    """
    index = {v: i for i, v in enumerate(pts)}
    covered = [1 << i for i in range(len(pts))]
    lines = []
    for i, row in enumerate(admissible):
        # admissible partners j > i that no found line through i covers
        todo = row >> i + 1 << i + 1 & ~covered[i]
        while todo:
            j = (todo & -todo).bit_length() - 1
            ids = [index.get(v) for v in span_points(F, pts[i], pts[j])]
            bits = bitset(p for p in ids if p is not None)
            todo &= ~bits
            if None in ids:
                continue
            for p in ids:
                covered[p] |= bits
            lines.append(tuple(sorted(ids)))
    return sorted(lines)


# -- projective spaces -------------------------------------------------------


def pg(n: int, q: int) -> Geometry:
    """The projective space PG(n, q) as a point-line geometry."""
    if n < 2:
        raise ConstructionError("pg requires n >= 2")
    F = field(q)
    pts = projective_points(F, n)
    lines = _lines_from_pairs(F, pts, [(1 << len(pts)) - 1] * len(pts))
    g = Geometry(len(pts), lines, Kind("other"), name=f"PG({n},{q})",
                 meta={"coords": tuple(pts), "field": F})
    rep = validate(g)
    if not rep.partial_linear or not rep.connected:
        raise ConstructionError(f"PG({n},{q}) failed validation: {rep.violations[:3]}")
    return g


# -- polar spaces -------------------------------------------------------------


#: polar family -> the name prefix of its geometries, as in W(5,2) or Q+(7,2)
POLAR_NAMES = {"sp": "W", "parabolic": "Q", "hyperbolic": "Q+", "elliptic": "Q-",
               "hermitian": "H"}


@dataclass(frozen=True)
class PolarFormSpec:
    """Family + ambient projective dimension + coordinate field order."""

    family: str          # sp | parabolic | hyperbolic | elliptic | hermitian
    dim: int             # projective dimension of the ambient space
    q: int               # order of the coordinate field

    def __post_init__(self):
        if self.family not in POLAR_NAMES:
            raise ConstructionError(f"unknown polar family {self.family!r}")


def _polar_form(F: GF, spec: PolarFormSpec) -> tuple[Callable, Callable]:
    """(point_ok, pair_ok) of a polar family, on coordinate columns.

    Two isotropic points span a totally isotropic line iff the form
    vanishes on the pair: the alternating or Hermitian form itself, and
    for a quadric Q its polar form, which is Q(x + y) as Q(x) = Q(y) = 0.
    """
    A = F.arrays()
    add, mul, neg = A
    d = spec.dim
    if spec.family == "sp":
        if d % 2 == 0:
            raise ConstructionError("symplectic forms need odd projective dimension")

        def form(x, y):
            return _dot(A, [t for i in range(0, d, 2)
                            for t in ((x[i], y[i + 1]), (neg[x[i + 1]], y[i]))])
    elif spec.family == "hermitian":
        if F.k % 2:
            raise ConstructionError("hermitian forms need a square field order")
        # anti-diagonal form sum_i x_i * conj(y_{d-i}), conj = Frobenius^(k/2)
        conj = np.array([F.frobenius(a, F.k // 2) for a in F.elements], dtype=np.uint8)

        def form(x, y):
            return _dot(A, [(x[i], conj[y[d - i]]) for i in range(d + 1)])
    else:
        # x0 x1 + x2 x3 + ... over the hyperbolic pairs, plus x_d^2
        # (parabolic) or u^2 + uv + dd v^2 on the last two (elliptic)
        hyp_pairs = {"hyperbolic": (d + 1) // 2, "parabolic": d // 2,
                     "elliptic": (d - 1) // 2}[spec.family]
        dd = _anisotropic_coefficient(F) if spec.family == "elliptic" else 0

        def quadric(x):
            terms = [(x[2 * i], x[2 * i + 1]) for i in range(hyp_pairs)]
            if spec.family == "parabolic":
                terms.append((x[d], x[d]))
            elif spec.family == "elliptic":
                u, v = x[d - 1], x[d]
                terms += [(u, u), (u, v), (dd, mul[v, v])]
            return _dot(A, terms)

        return (lambda x: quadric(x) == 0,
                lambda x, y: quadric([add[a, b] for a, b in zip(x, y)]) == 0)

    def pair_ok(x, y):
        return form(x, y) == 0
    return (lambda x: pair_ok(x, x)), pair_ok


def _anisotropic_coefficient(F: GF) -> int:
    """d with x^2 + x + d irreducible over GF(q), i.e. no root."""
    for dd in F.elements:
        if all(F.add(F.mul(x, x), F.add(x, dd)) != 0 for x in F.elements):
            return dd
    raise ConstructionError(f"no irreducible x^2+x+d over GF({F.q})")


def polar_space(spec: PolarFormSpec) -> Geometry:
    """Isotropic points and totally isotropic lines of the given form."""
    fam, d, q = spec.family, spec.dim, spec.q
    F = field(q)
    point_ok, pair_ok = _polar_form(F, spec)
    pts = _points_where(F, d, point_ok)
    if not pts:
        raise ConstructionError(f"form {spec} has no isotropic points")
    lines = _lines_from_pairs(F, pts, _pair_rows(pts, pair_ok))
    g0 = Geometry(len(pts), lines)
    g = Geometry(len(pts), lines, Kind("polar", _polar_rank(g0)),
                 name=f"{POLAR_NAMES[fam]}({d},{q})",
                 order=validate(g0).order, meta={"coords": tuple(pts), "field": F, "spec": spec})
    _check_polar_axioms(g)
    return g


def _polar_rank(g: Geometry) -> int:
    """1 + dimension of a maximal singular subspace, by greedy extension."""
    bits, gens = 1, 1                   # the span of point 0
    while True:
        common = g.full_mask
        for x in bit_indices(bits):
            common &= g.adj[x]
        common &= ~bits
        if not common:
            return gens
        bits = span(g, bit_indices(bits | common & -common))[0]
        gens += 1


def _check_polar_axioms(g: Geometry) -> None:
    """One-or-all test plus properness of every perp: every point must see
    at least one point of each line, and the points that see two or more
    must see them all.
    """
    for li in range(len(g.lines)):
        ge1, ge2, common = one_or_all(g, li)
        bad = g.full_mask & ~ge1 | ge2 & ~common
        if bad:
            x = (bad & -bad).bit_length() - 1
            c = (g.adj[x] & g.line_bits[li]).bit_count()
            raise ConstructionError(
                f"one-or-all violated at point {x}, line {li} (|perp cap line| = {c})")
    for x in range(g.n):
        if g.adj[x] == g.full_mask:
            raise ConstructionError(f"perp of point {x} is not proper")


# -- Hermitian quadrangle and its symplectic subquadrangle -------------------


def hermitian_quadrangle(q: int) -> Geometry:
    """H(3, q^2), the Hermitian generalised quadrangle of order (q^2, q)."""
    g = polar_space(PolarFormSpec("hermitian", 3, q * q))
    if not is_generalized_polygon(g, 4):
        raise ConstructionError("Hermitian H(3,q^2) failed the quadrangle test")
    return g


def hermitian_subquadrangle(h: Geometry) -> Geometry:
    """Substructure of a Hermitian GQ on its subfield points.

    Keeps the points whose normalized coordinates lie in GF(q) inside
    GF(q^2) and truncates the lines meeting that set at least twice.
    The output must validate as a generalised quadrangle of order (q,q).
    """
    if "coords" not in h.meta or "spec" not in h.meta:
        raise ConstructionError("geometry carries no coordinate data")
    spec: PolarFormSpec = h.meta["spec"]
    if spec.family != "hermitian":
        raise ConstructionError("not a Hermitian geometry")
    F: GF = h.meta["field"]
    q0 = F.p ** (F.k // 2)
    sub = set(F.subfield_elements(q0))
    keep = [i for i, v in enumerate(h.meta["coords"]) if all(c in sub for c in v)]
    remap = {p: i for i, p in enumerate(keep)}
    keep_set = set(keep)
    sub_lines = []
    for l in h.lines:
        cut = sorted(remap[p] for p in l if p in keep_set)
        if len(cut) >= 2:
            sub_lines.append(cut)
    g = Geometry(len(keep), sub_lines, Kind("polar", 2),
                 name=f"W(sub:{h.name})", order=(q0, q0),
                 meta={"parent": h, "parent_points": tuple(keep)})
    if not is_generalized_polygon(g, 4) or validate(g).order != (q0, q0):
        raise ConstructionError("subfield structure failed the GQ validation")
    return g


# -- split Cayley hexagon -----------------------------------------------------


def _zorn_product_is_zero(A, x, y) -> np.ndarray:
    """Whether the product x*y of two trace-zero split octonions in Zorn
    form vanishes, in GF arithmetic A.

    x = (a, v, w) stands for the vector matrix [[a, v], [w, -a]].
    """
    add, mul, neg = A
    a, v, w = x[0], x[1:4], x[4:7]
    c, v2, w2 = y[0], y[1:4], y[4:7]
    na, nc = neg[a], neg[c]
    zero = _dot(A, [(a, c), *zip(v, w2)]) == 0
    zero &= _dot(A, [(na, nc), *zip(w, v2)]) == 0
    for i in range(3):
        j, k = (i + 1) % 3, (i + 2) % 3
        # a v2 - c v - (w x w2) and c w - a w2 + (v x v2), coordinate i
        zero &= _dot(A, [(a, v2[i]), (nc, v[i]), (neg[w[j]], w2[k]), (w[k], w2[j])]) == 0
        zero &= _dot(A, [(c, w[i]), (na, w2[i]), (v[j], v2[k]), (neg[v[k]], v2[j])]) == 0
    return zero


def split_cayley_hexagon(q: int) -> Geometry:
    """The split Cayley hexagon of order (q, q).

    Points: singular trace-zero split octonions up to scalars, i.e. the
    parabolic quadric a^2 + v.w = 0 in PG(6, q).  Lines: 2-spaces on
    which the octonion multiplication vanishes identically, i.e. the
    spans of pairs whose product is zero.  The output must pass the
    generalised-hexagon test; the algebraic recipe is only trusted
    through that gate.
    """
    F = field(q)
    A = F.arrays()
    pts = _points_where(F, 6, lambda x: _dot(A, [(x[0], x[0]), *zip(x[1:4], x[4:7])]) == 0)
    expected_points = (1 + q) * (1 + q * q + q**4)
    if len(pts) != expected_points:
        raise ConstructionError(
            f"quadric point count {len(pts)} != {expected_points}")
    # conj(x) = -x for trace-zero x and conj reverses products, so
    # conj(xy) = yx: xy = 0 already makes the product zero in both orders
    lines = _lines_from_pairs(F, pts, _pair_rows(pts, partial(_zorn_product_is_zero, A)))
    g = Geometry(len(pts), lines, Kind("polygon", 6), name=f"H({q})", order=(q, q),
                 meta={"coords": tuple(pts), "field": F})
    rep = validate(g)
    if rep.order != (q, q) or not is_generalized_polygon(g, 6):
        raise ConstructionError("split Cayley construction failed hexagon validation")
    return g


def geometry_by_name(name: str) -> Geometry:
    """Rebuild a constructor geometry from its canonical name.

    Used to recover the base of a Grassmannian loaded from JSON, where
    only the name survives serialization.
    """
    m = re.fullmatch(r"PG\((\d+),(\d+)\)", name)
    if m:
        return pg(int(m.group(1)), int(m.group(2)))
    prefixes = "|".join(map(re.escape, POLAR_NAMES.values()))
    m = re.fullmatch(rf"({prefixes})\((\d+),(\d+)\)", name)
    if m:
        family = {prefix: f for f, prefix in POLAR_NAMES.items()}[m.group(1)]
        return polar_space(PolarFormSpec(family, int(m.group(2)), int(m.group(3))))
    m = re.fullmatch(r"H\((\d+)\)", name)
    if m:
        return split_cayley_hexagon(int(m.group(1)))
    raise ConstructionError(f"cannot rebuild a geometry named {name!r}")
