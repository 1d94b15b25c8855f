import itertools
import json
import os
import random
import subprocess
import sys
from collections import Counter, deque
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from liegeom import geometry
from liegeom.constructors import geometry_by_name, pg, polar_space, PolarFormSpec
from liegeom.geometry import (
    Geometry,
    GeometryError,
    Kind,
    bit_indices,
    bitset,
    incidence_girth_diameter,
    is_gamma_space,
    is_generalized_polygon,
    line_grassmannian,
    one_or_all,
    point_residual,
    singular_planes,
    span,
    validate,
)
from liegeom.recipes import model_geometry
from liegeom.relations import SYMPLECTIC, relation_matrix


# -- oracles --------------------------------------------------------------------


def recompute_collinearity(g):
    """Independent rebuild of the collinearity bitsets from the line list."""
    adj = [1 << i for i in range(g.n)]
    for l in g.lines:
        bits = bitset(l)
        for p in l:
            adj[p] |= bits
    return tuple(adj)


def distance_bitsets(g, x):
    """Bitsets of points at distance 0, 1, 2, ... from x."""
    layers = [1 << x]
    seen = 1 << x
    frontier = seen
    while True:
        grow = 0
        for i in bit_indices(frontier):
            grow |= g.adj[i]
        frontier = grow & ~seen
        if not frontier:
            return layers
        layers.append(frontier)
        seen |= frontier


def _dist_array(g, x):
    dist = [-1] * g.n
    for d, layer in enumerate(distance_bitsets(g, x)):
        for z in bit_indices(layer):
            dist[z] = d
    return dist


def convex_closure(g, seed, with_lines=True):
    """Smallest superset of seed closed under geodesics (and full lines).

    Returns a bitset.  Iterates to a fixed point; all geodesics between
    members are included, so BFS tie-breaking cannot matter.
    """
    cur = bitset(seed)
    dist_cache = {}
    while True:
        members = bit_indices(cur)
        grow = cur
        for i, x in enumerate(members):
            if x not in dist_cache:
                dist_cache[x] = _dist_array(g, x)
            dx = dist_cache[x]
            for y in members[i + 1:]:
                if y not in dist_cache:
                    dist_cache[y] = _dist_array(g, y)
                dy = dist_cache[y]
                d = dx[y]
                if d >= 2:
                    for z in range(g.n):
                        if dx[z] + dy[z] == d:
                            grow |= 1 << z
                elif d == 1 and with_lines:
                    li = g.line_through(x, y)
                    if li is not None:
                        grow |= g.line_bits[li]
        if grow == cur:
            return cur
        cur = grow


def np_adjacency(g, strict=True):
    """Boolean matrix of the collinearity bitsets (which a test may have
    doctored apart from the lines); the diagonal is False when strict and
    True otherwise."""
    width = (g.n + 7) // 8
    rows = b"".join(bits.to_bytes(width, "little") for bits in g.adj)
    a = np.unpackbits(np.frombuffer(rows, dtype=np.uint8).reshape(g.n, width),
                      axis=1, count=g.n, bitorder="little").astype(bool)
    np.fill_diagonal(a, not strict)
    return a


def is_gamma_space_counts(g):
    """Whether each point sees 0, 1 or all points of every line, from
    numpy counts over the adjacency matrix."""
    adj = np_adjacency(g, strict=False)
    return all(np.isin(adj[:, list(l)].sum(axis=1), (0, 1, len(l))).all()
               for l in g.lines)


def subspace_closure(g: Geometry, bits: int) -> int:
    """The least superset of bits containing every line that meets it in
    two or more points.

    Each point is visited once after it joins: a line meeting the result
    twice is added when the later of its two points is visited.
    """
    todo = bits
    while todo:
        low = todo & -todo
        todo ^= low
        for li in g.lines_through[low.bit_length() - 1]:
            lb = g.line_bits[li]
            new = lb & ~bits
            if new and lb & bits & ~low:
                bits |= new
                todo |= new
    return bits


def subspace_closure_pairs(g, pts):
    """The closure under lines through pairs, one pair at a time."""
    span = set(pts)
    changed = True
    while changed:
        changed = False
        for x in list(span):
            for y in list(span):
                li = g.line_through(x, y) if x < y else None
                if li is not None and not set(g.lines[li]) <= span:
                    span.update(g.lines[li])
                    changed = True
    return bitset(span)


def singular_planes_pairs(g):
    """The planes as unions of the lines joining an off-line point p to the
    points of a line it is collinear with, kept when singular and closed."""
    planes = set()
    for li, l in enumerate(g.lines):
        common = g.full_mask
        for p in l:
            common &= g.adj[p]
        for p in bit_indices(common & ~g.line_bits[li]):
            pts = set(l)
            for x in l:
                pts.update(g.lines[g.line_through(p, x)])
            key = tuple(sorted(pts))
            bits = bitset(pts)
            if key not in planes and all(not bits & ~g.adj[x] for x in pts) \
                    and subspace_closure_pairs(g, pts) == bits:
                planes.add(key)
    return sorted(planes)


def _lines_inside(g, bits):
    """Ascending IDs of the lines all of whose points lie in bits."""
    out = []
    for x in bit_indices(bits):
        for li in g.lines_through[x]:
            if g.lines[li][0] == x and not g.line_bits[li] & ~bits:
                out.append(li)
    return sorted(out)


def planes_by_closure(g, line_ids):
    """Each singular plane on some line of line_ids once, as its point
    bitset and the ascending IDs of the lines inside it.

    Requires a gamma space (checked once per geometry), where the span of a
    line L and a point p collinear with all of L is singular: the plane on
    L and p.  covered[l] holds the points of the planes found so far that
    contain line l, and the points p they hold are skipped for l.
    """
    if not g.cached("gamma-space", lambda: is_gamma_space(g)):
        raise GeometryError("singular planes require a gamma space")
    covered = [0] * len(g.lines)
    for li in line_ids:
        todo = one_or_all(g, li)[2] & ~g.line_bits[li] & ~covered[li]
        while todo:
            plane = subspace_closure(g, g.line_bits[li] | todo & -todo)
            todo &= ~plane
            inside = _lines_inside(g, plane)
            for lj in inside:
                covered[lj] |= plane
            yield plane, inside


def fano():
    return pg(2, 2)


def ag23():
    """The affine plane of order 3: point 3x + y is (x, y) in GF(3)^2, and
    the lines are the 12 cosets of its four 1-dimensional subspaces."""
    lines = set()
    for dx, dy in ((0, 1), (1, 0), (1, 1), (1, 2)):
        for x, y in itertools.product(range(3), repeat=2):
            lines.add(tuple(sorted(3 * ((x + t * dx) % 3) + (y + t * dy) % 3 for t in range(3))))
    return Geometry(9, lines)


def test_validate_fano():
    rep = validate(fano())
    assert rep.valid and rep.partial_linear and rep.connected
    assert rep.order == (2, 2)


def test_validate_flags_repeated_line():
    g = Geometry(4, [(0, 1, 2), (0, 1, 3)])
    rep = validate(g)
    assert not rep.partial_linear
    assert rep.violations and rep.violations[0][0] == "pair-on-two-lines"
    # two copies of {0} share no pair of points, but are one line twice
    rep = validate(Geometry(3, [(0,), (0,), (0, 1, 2)]))
    assert not rep.partial_linear
    assert rep.violations == [("duplicated-line", (0,), 0, 1)]


def test_line_listing_a_point_twice_is_refused():
    with pytest.raises(GeometryError, match="lists a point twice"):
        Geometry(3, [(0, 0, 1), (1, 2)])
    with pytest.raises(GeometryError, match="lists a point twice"):
        Geometry.from_json('{"points":3,"lines":[[0,0,1],[1,2]]}')


def test_line_with_no_points_is_refused():
    with pytest.raises(GeometryError, match="^a line has no points$"):
        Geometry(3, [(), (0, 1, 2)])
    with pytest.raises(GeometryError, match="a line has no points"):
        Geometry.from_json('{"points":3,"lines":[[],[0,1,2]]}')


def test_girth_diameter():
    assert incidence_girth_diameter(fano()) == (6, 3)
    w32 = polar_space(PolarFormSpec("sp", 3, 2))
    assert incidence_girth_diameter(w32) == (8, 4)


def incidence_girth_diameter_bfs(g):
    """Oracle: a deque BFS from every node of the incidence graph; girth
    from the shortest cycle closed by a non-tree edge over all roots."""
    n = g.n
    nodes = n + len(g.lines)
    nbrs = [[] for _ in range(nodes)]
    for li, l in enumerate(g.lines):
        for p in l:
            nbrs[p].append(n + li)
            nbrs[n + li].append(p)
    diameter = 0
    girth = None
    for root in range(nodes):
        dist = [-1] * nodes
        parent = [-1] * nodes
        dist[root] = 0
        dq = deque([root])
        while dq:
            u = dq.popleft()
            for v in nbrs[u]:
                if dist[v] < 0:
                    dist[v] = dist[u] + 1
                    parent[v] = u
                    dq.append(v)
                elif v != parent[u] and u < v:
                    c = dist[u] + dist[v] + 1
                    if girth is None or c < girth:
                        girth = c
        if -1 in dist:
            raise GeometryError("incidence graph is disconnected")
        diameter = max(diameter, max(dist))
    return (girth or 0, diameter)


def assert_girth_diameter_matches_bfs(g):
    try:
        want = incidence_girth_diameter_bfs(g)
    except GeometryError:
        with pytest.raises(GeometryError, match="disconnected"):
            incidence_girth_diameter(g)
        return None
    assert incidence_girth_diameter(g) == want
    return want


def test_girth_diameter_matches_bfs_oracle(h2, h3, w32):
    assert assert_girth_diameter_matches_bfs(h2) == (12, 6)
    assert assert_girth_diameter_matches_bfs(h3) == (12, 6)
    assert assert_girth_diameter_matches_bfs(w32) == (8, 4)
    assert assert_girth_diameter_matches_bfs(fano()) == (6, 3)
    w32_as_hexagon = Geometry(w32.n, w32.lines, Kind("polygon", 6))
    assert assert_girth_diameter_matches_bfs(w32_as_hexagon) == (8, 4)
    assert not is_generalized_polygon(w32_as_hexagon, 6)
    two_h2 = Geometry(2 * h2.n, list(h2.lines) + [tuple(p + h2.n for p in l) for l in h2.lines],
                      Kind("polygon", 6))
    assert assert_girth_diameter_matches_bfs(two_h2) is None
    assert not is_generalized_polygon(two_h2, 6)


def test_girth_diameter_in_several_passes(h2, w32, monkeypatch):
    # roots split over passes of 5: the girth is the least over the passes
    monkeypatch.setattr(geometry, "ROOTS_PER_PASS", 5)
    assert assert_girth_diameter_matches_bfs(h2) == (12, 6)
    assert assert_girth_diameter_matches_bfs(w32) == (8, 4)
    assert assert_girth_diameter_matches_bfs(fano()) == (6, 3)
    two_h2 = Geometry(2 * h2.n, list(h2.lines) + [tuple(p + h2.n for p in l) for l in h2.lines])
    assert assert_girth_diameter_matches_bfs(two_h2) is None
    # a triangle at the end of a path: the first pass, on the path, sees
    # only longer cycles
    lollipop = Geometry(9, [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 6), (6, 7), (7, 8), (6, 8)])
    assert assert_girth_diameter_matches_bfs(lollipop) == (6, 15)


@pytest.mark.parametrize("roots_per_pass", [3, 4096])
@given(st.integers(1, 9).flatmap(lambda n: st.tuples(
    st.just(n), st.lists(st.sets(st.integers(0, n - 1), min_size=1, max_size=4), max_size=12))))
def test_girth_diameter_matches_bfs_on_random_incidences(roots_per_pass, drawn):
    n, lines = drawn
    old = geometry.ROOTS_PER_PASS
    geometry.ROOTS_PER_PASS = roots_per_pass
    try:
        assert_girth_diameter_matches_bfs(Geometry(n, lines))
    finally:
        geometry.ROOTS_PER_PASS = old


def test_girth_diameter_h2(h2):
    assert incidence_girth_diameter(h2) == (12, 6)
    assert is_generalized_polygon(h2, 6)
    assert not is_generalized_polygon(h2, 4)


def test_is_generalized_polygon_quadrangle(w32):
    assert is_generalized_polygon(w32, 4)
    assert not is_generalized_polygon(w32, 6)


def test_collinearity_recompute(h2, w52):
    for g in (h2, w52):
        assert recompute_collinearity(g) == g.adj


def test_singular_planes_counts(w32, w52):
    assert singular_planes(w32) == []
    assert len(singular_planes(w52)) == 135
    assert len(singular_planes(pg(3, 2))) == 15


def test_singular_planes_q72(q72):
    planes = singular_planes(q72)
    assert len(planes) == 2025
    assert all(len(p) == 7 for p in planes)


def test_gamma_space_gate():
    # a triangle of 3-point lines is a partial linear space but not a gamma
    # space: point 0 is collinear with 2 and 4 on the line (2, 3, 4), not 3
    g = Geometry(6, [(0, 1, 2), (2, 3, 4), (4, 5, 0)])
    assert validate(g).partial_linear
    assert not is_gamma_space(g)


@st.composite
def partial_linear_spaces(draw):
    """Up to 9 points, keeping each drawn line that meets every line kept
    so far in at most one point."""
    n = draw(st.integers(2, 9))
    lines = []
    for cand in draw(st.lists(st.sets(st.integers(0, n - 1), min_size=2, max_size=4),
                              max_size=12)):
        if all(len(cand & l) <= 1 for l in lines):
            lines.append(cand)
    return Geometry(n, lines)


@given(g=partial_linear_spaces())
@example(g=Geometry(4, [(0, 1, 2), (0, 3), (1, 3)]))    # 3 sees 0 and 1, not 2
@example(g=Geometry(7, pg(2, 2).lines))
def test_is_gamma_space_matches_counts(g):
    assert is_gamma_space(g) == is_gamma_space_counts(g)


@pytest.mark.parametrize("alias", ["w32", "w52", "q72", "hexagon-2", "h34", "gr-w52",
                                   "gr-q72"])
def test_is_gamma_space_matches_counts_on_models(alias):
    g = model_geometry(alias)
    assert is_gamma_space(g) == is_gamma_space_counts(g)


def test_line_grassmannian_counts(q72, w52, gr_q72, gr_w52):
    assert gr_q72.n == 1575 and len(gr_q72.lines) == 14175
    assert gr_w52.n == 315 and len(gr_w52.lines) == 945
    g3 = line_grassmannian(pg(3, 2))
    assert g3.n == 35
    for g in (gr_q72, gr_w52):
        assert validate(g).partial_linear


def test_line_grassmannian_requires_planes(w32):
    with pytest.raises(GeometryError):
        line_grassmannian(w32)


def test_point_residual_w52(w52):
    res = point_residual(w52, 0)
    assert (res.n, len(res.lines)) == (15, 15)
    assert is_generalized_polygon(res, 4)
    assert validate(res).order == (2, 2)


def test_point_residual_pg32():
    res = point_residual(pg(3, 2), 0)
    assert (res.n, len(res.lines)) == (7, 7)
    assert validate(res).order == (2, 2)


def test_point_residual_needs_planes(w32):
    with pytest.raises(GeometryError):
        point_residual(w32, 0)


def test_point_residual_of_grassmannian_connected(gr_q72):
    import random
    rng = random.Random(31)
    for p in rng.sample(range(gr_q72.n), 60):
        res = point_residual(gr_q72, p)
        rep = validate(res)
        assert rep.partial_linear and rep.connected
        assert res.n == 27


def _plane_spanned(g, la, lb):
    """Bitset of the singular plane spanned by two meeting lines, or None."""
    perp = g.full_mask
    for x in g.lines[la]:
        perp &= g.adj[x]
    if g.line_bits[lb] & ~perp:
        return None
    plane = subspace_closure(g, g.line_bits[la] | g.line_bits[lb])
    return plane if all(not plane & ~g.adj[x] for x in bit_indices(plane)) else None


def point_residual_pairs(g, p):
    """Lines of the point residual at p, spanning a plane from every pair
    of lines through p (the library spans each plane once)."""
    through = g.lines_through[p]
    res_lines = set()
    for a, b in itertools.combinations(through, 2):
        plane = _plane_spanned(g, a, b)
        if plane is not None:
            pencil = tuple(i for i, li in enumerate(through)
                           if not g.line_bits[li] & ~plane)
            if len(pencil) >= 2:
                res_lines.add(pencil)
    return sorted(res_lines)


@pytest.mark.parametrize("alias, points", [("w52", None), ("q72", 20), ("q63", 8)])
def test_point_residual_matches_pairs(alias, points):
    g = (polar_space(PolarFormSpec("parabolic", 6, 3)) if alias == "q63"
         else model_geometry(alias))
    sample = range(g.n) if points is None else random.Random(17).sample(range(g.n), points)
    for p in sample:
        res = point_residual(g, p)
        assert res.lines == tuple(point_residual_pairs(g, p))
        assert res.n == len(g.lines_through[p])
        assert res.meta["lines_of_base"] == g.lines_through[p]


def test_point_residual_spans_each_plane_once(monkeypatch, w52):
    # 15 lines and 15 planes through each point of W(5,2); a plane holds 3
    # of those lines, and pairwise spanning spanned each plane 3 times
    spans = []
    raw = geometry.span
    monkeypatch.setattr(geometry, "span", lambda g, pts: spans.append(pts) or raw(g, pts))
    for p in range(w52.n):
        res = point_residual(w52, p)
        assert len(res.lines) == 15
    assert len(spans) == 63 * 15


def test_residuals_built_once_per_point(monkeypatch):
    # on a fresh W(5,2), the typeb recognizer, the hyperbolic-pencil tags
    # and coroltits share one residual per point
    import sys
    from liegeom import recipes
    raw = geometry.point_residual
    built = Counter()

    def counting(g, p):
        built[p] += 1
        return raw(g, p)
    for name, mod in list(sys.modules.items()):
        if name.startswith("liegeom") and getattr(mod, "point_residual", None) is raw:
            monkeypatch.setattr(mod, "point_residual", counting)
    monkeypatch.setattr(recipes, "_GEOMETRIES", {})
    assert recipes.run_recipe("typeb-grassmannian").passed
    assert recipes.run_recipe("coroltits", points=63).passed
    assert len(built) == 63 and set(built.values()) == {1}


def test_cached_builds_once():
    g = fano()
    calls = []
    for _ in range(3):
        assert g.cached("k", lambda: calls.append(1) or len(calls)) == 1
    assert calls == [1]
    assert fano().cached("k", lambda: 2) == 2


def test_subspace_closure_matches_pairs(w52, gr_w52):
    rng = random.Random(5)
    for g in (pg(3, 2), w52, gr_w52):
        for size in (1, 2, 3, 4):
            for _ in range(10):
                pts = rng.sample(range(g.n), size)
                want = subspace_closure_pairs(g, pts)
                assert subspace_closure(g, bitset(pts)) == want
                bits, inside = span(g, pts)
                assert bits == want and inside == _lines_inside(g, bits)
        for li in range(5):
            assert subspace_closure(g, bitset(g.lines[li][:2])) == g.line_bits[li]
            assert span(g, g.lines[li][:2])[0] == g.line_bits[li]


def test_singular_planes_match_pairs_oracle(w52, q72, gr_w52):
    for g in (pg(3, 2), pg(3, 3), pg(4, 2), w52, q72, gr_w52):
        assert singular_planes(g) == singular_planes_pairs(g)


def assert_planes_match_closure(g, points):
    """The plane kernel, singular_planes and point_residual at each of
    points agree with the closure-based kernel."""
    want = list(planes_by_closure(g, range(len(g.lines))))
    assert list(geometry._planes_on(g, range(len(g.lines)))) == want
    assert singular_planes(g) == sorted(tuple(bit_indices(plane)) for plane, _ in want)
    for p in points:
        through = g.lines_through[p]
        index = {li: i for i, li in enumerate(through)}
        res_lines = [tuple(index[li] for li in inside if li in index)
                     for _, inside in planes_by_closure(g, through)]
        if res_lines:
            assert point_residual(g, p).lines == Geometry(len(through), res_lines).lines
        else:
            with pytest.raises(GeometryError):
                point_residual(g, p)


@st.composite
def projective_sections(draw, space=pg(3, 2)):
    """A drawn set S of at least 3 points of PG(3,2), relabelled in order,
    with the traces on S of the lines meeting it twice or more, and 1-point
    lines at a drawn subset of S: a gamma space in which any two points are
    collinear, so that every line and point off it span a plane."""
    label = {x: i for i, x in enumerate(sorted(
        draw(st.sets(st.integers(0, space.n - 1), min_size=3))))}
    traces = [[label[x] for x in l if x in label] for l in space.lines]
    singles = draw(st.sets(st.integers(0, len(label) - 1)))
    return Geometry(len(label), [l for l in traces if len(l) >= 2] + [[x] for x in singles])


@given(g=st.one_of(partial_linear_spaces().filter(is_gamma_space), projective_sections()))
@example(g=ag23())
@example(g=Geometry(7, [*pg(2, 2).lines, (0,)]))    # a 1-point line inside the plane
def test_plane_kernel_matches_closure(g):
    assert_planes_match_closure(g, range(g.n))


def test_ag23_plane_is_the_closure_of_the_join():
    # the join of a line and a point off it has 7 of the 9 points; only the
    # closure, the whole plane, holds the lines on the other pairs
    g = ag23()
    line, p = g.lines[0], next(x for x in range(g.n) if x not in g.lines[0])
    join = set(line).union(*(g.lines[g.line_through(p, x)] for x in line))
    assert len(join) == 7
    assert singular_planes(g) == [tuple(range(9))]


@pytest.mark.parametrize("name", ["PG(3,2)", "PG(3,3)", "W(5,2)", "Q+(7,2)", "Q(6,3)",
                                  "Gr(W(5,2))"])
def test_plane_kernel_matches_closure_on_models(name):
    g = (line_grassmannian(geometry_by_name(name[3:-1])) if name.startswith("Gr(")
         else geometry_by_name(name))
    assert_planes_match_closure(g, random.Random(3).sample(range(g.n), min(g.n, 40)))


@given(g=st.one_of(partial_linear_spaces(), projective_sections()), data=st.data())
@example(g=Geometry(3, [(0,), (0, 1, 2)]), data=None)    # a 1-point line twice
def test_a_copied_line_is_refused(g, data):
    assume(g.lines)
    li = 0 if data is None else data.draw(st.integers(0, len(g.lines) - 1))
    assert validate(g).partial_linear and Geometry.from_json(g.to_json()) == g
    twice = Geometry(g.n, [*g.lines, g.lines[li]])
    assert not validate(twice).partial_linear
    with pytest.raises(GeometryError):
        Geometry.from_json(twice.to_json())


@given(g=st.one_of(partial_linear_spaces(), projective_sections()), data=st.data())
def test_line_id_matches_a_scan_of_the_lines(g, data):
    draws = [st.sets(st.integers(0, g.n - 1), max_size=1), st.sets(st.integers(0, g.n - 1))]
    if g.lines:
        line = data.draw(st.sampled_from(g.lines))
        draws += [st.just(set(line)), st.sets(st.sampled_from(line), min_size=1)]
    pts = data.draw(st.one_of(draws))
    want = next((li for li, l in enumerate(g.lines) if l == tuple(sorted(pts))), None)
    assert g.line_id(pts) == want


@settings(max_examples=40)
@given(alias=st.sampled_from(["hexagon-2", "w32", "q72", "gr-w52", "gr-q72"]), data=st.data())
def test_lazy_line_bits_and_line_through(alias, data):
    # a geometry keeps no line bitsets until they are read, then builds
    # bitset(l) for each line once; line_through tests membership in the
    # line and finds what the bit test on those bitsets found
    g = model_geometry(alias)
    fresh = Geometry(g.n, g.lines, g.kind)
    assert "line-bits" not in fresh._derived
    assert fresh.line_bits == tuple(bitset(l) for l in g.lines)
    assert fresh.line_bits is fresh._derived["line-bits"]
    with pytest.raises(AttributeError):
        fresh.line_bits = ()
    x = data.draw(st.integers(0, g.n - 1))
    near = [p for li in g.lines_through[x] for p in g.lines[li]]
    y = data.draw(st.one_of(st.integers(0, g.n - 1), st.sampled_from(near or [x])))
    want = next((li for li in g.lines_through[x] if fresh.line_bits[li] >> y & 1), None)
    assert g.line_through(x, y) == want


def validate_violations_oracle(g):
    """validate's violations, with each pair keyed by its tuple."""
    out = [("duplicated-line", l, li, li + 1)
           for li, l in enumerate(g.lines[:-1]) if l == g.lines[li + 1]]
    seen = {}
    for li, l in enumerate(g.lines):
        for pair in itertools.combinations(l, 2):
            if pair in seen:
                out.append(("pair-on-two-lines", pair, seen[pair], li))
            else:
                seen[pair] = li
    return out


@given(st.integers(1, 8).flatmap(lambda n: st.tuples(st.just(n), st.lists(
    st.sets(st.integers(0, n - 1), min_size=1), max_size=10))))
def test_validate_violations_match_tuple_keys(drawn):
    n, lines = drawn
    g = Geometry(n, lines)
    assert validate(g).violations == validate_violations_oracle(g)


def polar_rank_by_closure(g):
    """1 + dimension of a maximal singular subspace, by greedy extension
    from point 0 with subspace_closure."""
    bits, gens = 1, 1
    while True:
        common = g.full_mask
        for x in bit_indices(bits):
            common &= g.adj[x]
        common &= ~bits
        if not common:
            return gens
        bits = subspace_closure(g, bits | common & -common)
        gens += 1


#: (family, projective dimension, q, rank) of the polar spaces the tests build
POLAR_RANKS = [
    ("sp", 1, 3, 1), ("sp", 3, 2, 2), ("sp", 3, 3, 2), ("sp", 3, 4, 2), ("sp", 5, 2, 3),
    ("sp", 7, 2, 4), ("parabolic", 2, 4, 1), ("parabolic", 4, 2, 2), ("parabolic", 4, 3, 2),
    ("parabolic", 4, 4, 2), ("parabolic", 6, 2, 3), ("parabolic", 6, 3, 3),
    ("hyperbolic", 1, 3, 1), ("hyperbolic", 3, 2, 2), ("hyperbolic", 3, 3, 2),
    ("hyperbolic", 3, 4, 2), ("hyperbolic", 5, 2, 3), ("hyperbolic", 5, 3, 3),
    ("hyperbolic", 7, 2, 4), ("elliptic", 3, 2, 1), ("elliptic", 3, 3, 1),
    ("elliptic", 3, 4, 1), ("elliptic", 5, 2, 2), ("elliptic", 5, 3, 2),
    ("hermitian", 2, 4, 1), ("hermitian", 3, 4, 2), ("hermitian", 4, 4, 2),
]


@pytest.mark.parametrize("family, dim, q, rank", POLAR_RANKS)
def test_polar_rank_matches_closure(family, dim, q, rank):
    from liegeom.constructors import _polar_rank
    g = polar_space(PolarFormSpec(family, dim, q))
    assert _polar_rank(g) == polar_rank_by_closure(g) == g.kind.param == rank


@pytest.mark.parametrize("base, fingerprint", [
    ("W(7,2)", {"points": 5355, "lines": 80325, "hash": "fea7cd3ccc9016a1"}),
    ("Q(6,3)", {"points": 3640, "lines": 14560, "hash": "ff10ee40340dacf7"}),
    ("Q+(7,2)", {"points": 1575, "lines": 14175, "hash": "f125aed6fe208efb"}),
])
def test_polar_grassmannian_fingerprints(base, fingerprint):
    assert line_grassmannian(geometry_by_name(base)).fingerprint() == fingerprint


@pytest.mark.slow
def test_elliptic_rank4_grassmannian_fingerprint():
    # about 4 s and a 250 MiB peak on 2 vCPUs: run with pytest -m slow
    g = line_grassmannian(geometry_by_name("Q-(9,2)"))
    assert g.fingerprint() == {"points": 19635, "lines": 530145, "hash": "12c05d6c6eb2bb3b"}


#: address space of the child that builds Gr(Q+(9,2)), in bytes (ulimit -v 4000000)
HYPERBOLIC_RANK5_CAP = 4_000_000 * 1024
#: bound on that child's peak resident set, in KiB
HYPERBOLIC_RANK5_PEAK_KIB = 1 << 20


@pytest.mark.slow
def test_hyperbolic_rank5_grassmannian_fingerprint_in_4gb():
    # 830,025 lines; about 7 s and a 360 MiB peak on 2 vCPUs.  Built in a
    # child whose own RLIMIT_AS is the cap; a build that keeps one bitset
    # per line peaks near 2 GiB, over the bound on the child's peak
    code = (
        "import json, resource\n"
        f"resource.setrlimit(resource.RLIMIT_AS, ({HYPERBOLIC_RANK5_CAP}, {HYPERBOLIC_RANK5_CAP}))\n"
        "from liegeom.constructors import geometry_by_name\n"
        "from liegeom.geometry import line_grassmannian\n"
        "g = line_grassmannian(geometry_by_name('Q+(9,2)'))\n"
        "print(json.dumps(g.fingerprint()))\n"
        "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)\n")
    src = str(Path(geometry.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src, *filter(None, [os.environ.get("PYTHONPATH")])]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         timeout=600)
    assert out.returncode == 0, out.stderr[-2000:]
    fingerprint, peak_kib = out.stdout.splitlines()
    assert json.loads(fingerprint) == {"points": 23715, "lines": 830025,
                                       "hash": "d03dc47e3ec20283"}
    assert int(peak_kib) < HYPERBOLIC_RANK5_PEAK_KIB


def test_convex_closure_basics(w52):
    assert convex_closure(w52, [3]) == 1 << 3
    li = w52.lines[10]
    got = convex_closure(w52, [li[0], li[1]])
    assert got == bitset(li)
    # idempotent and monotone
    seed = [0, 5, 9]
    c1 = convex_closure(w52, seed)
    assert convex_closure(w52, bit_indices(c1)) == c1
    assert c1 & bitset(seed) == bitset(seed)
    assert convex_closure(w52, seed[:2]) & ~c1 == 0


def test_convex_closure_symp_is_polar(gr_q72, gr_model):
    rel = gr_model.rel
    pair = next((x, y) for x in range(40) for y in range(gr_q72.n)
                if rel.rel(x, y) == SYMPLECTIC)
    bits = convex_closure(gr_q72, pair)
    members = bit_indices(bits)
    inner = [li for li, lb in enumerate(gr_q72.line_bits) if not (lb & ~bits)]
    assert inner, "symp closure contains no full line"
    for x in members:
        for li in inner:
            c = (gr_q72.adj[x] & gr_q72.line_bits[li]).bit_count()
            assert c in (1, len(gr_q72.lines[li]))


def test_json_round_trip(h2):
    text = h2.to_json()
    g2 = Geometry.from_json(text)
    assert g2 == h2
    assert g2.to_json() == text
    assert g2.kind.as_str() == "polygon:6"


@pytest.mark.parametrize("alias", ["hexagon-2", "gr-w52"])
@given(data=st.data())
def test_json_round_trip_line_subsets(alias, data):
    # any partial linear space on the model's points survives the trip,
    # including points on no line
    g = model_geometry(alias)
    keep = data.draw(st.sets(st.integers(0, len(g.lines) - 1)))
    sub = Geometry(g.n, [g.lines[i] for i in keep], name=f"{g.name} subset")
    back = Geometry.from_json(sub.to_json())
    assert back == sub
    assert back.adj == sub.adj
    assert back.fingerprint() == sub.fingerprint()


def test_json_import_rejects_mislabelled_kind(h2, w32):
    # the claimed kind is checked: W(3,2) is no hexagon (every one of its
    # points would block alone), H(2) is no polar space, and W(3,2) has
    # polar rank 2
    for g, kind in ((w32, "polygon:6"), (h2, "polar:2"), (w32, "polar:3")):
        doc = json.loads(g.to_json())
        doc["kind"] = kind
        with pytest.raises(GeometryError):
            Geometry.from_json(json.dumps(doc))


def test_json_import_rejects_duplicates():
    doc = {"name": "bad", "kind": "other", "order": None, "points": 3,
           "lines": [[0, 1, 2], [2, 1, 0]]}
    with pytest.raises(GeometryError):
        Geometry.from_json(json.dumps(doc))


def test_json_import_normalizes_unsorted():
    doc = {"name": "g", "kind": "other", "order": None, "points": 5,
           "lines": [[2, 1, 0], [0, 3, 4]]}
    warnings = []
    g = Geometry.from_json(json.dumps(doc), warn=warnings.append)
    assert warnings
    assert (0, 1, 2) in g.lines


def test_kind_round_trip():
    for s in ("polygon:6", "polar:3", "grassmannian:W(5,2)", "other"):
        assert Kind.from_str(s).as_str() == s
