import itertools
import random
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, strategies as st

from liegeom import search as S
from liegeom.geometry import GeometryError, bit_indices, bitset
from liegeom.recipes import run_recipe
from liegeom.relations import geometry_family, opposition_sets


# -- scan oracles: the point-by-point versions of the bitset kernels ------------


def enumerate_blocking_sets_scan(g, k, minimal_only=False):
    o = opposition_sets(g)
    opp = o.opp
    notopp_pts = [tuple(bit_indices(b)) for b in o.notopp]
    results = []

    def minimal(pts):
        for drop in range(len(pts)):
            inter = g.full_mask
            for i, p in enumerate(pts):
                if i != drop:
                    inter &= opp[p]
            if inter == 0:
                return False
        return True

    def dfs(chosen, inter, excluded):
        if inter == 0:
            if len(chosen) == k:
                got = tuple(sorted(chosen))
                if not minimal_only or minimal(got):
                    results.append(got)
            elif not minimal_only:
                chosen_bits = bitset(chosen)
                rest = [p for p in range(g.n)
                        if not (chosen_bits >> p & 1) and not (excluded >> p & 1)]
                for extra in combinations(rest, k - len(chosen)):
                    results.append(tuple(sorted(chosen + list(extra))))
            return
        if len(chosen) == k:
            return
        w = (inter & -inter).bit_length() - 1
        chosen_bits = bitset(chosen)
        cands = [p for p in notopp_pts[w]
                 if not (excluded >> p & 1) and not (chosen_bits >> p & 1)]
        taken = 0
        for p in cands:
            dfs(chosen + [p], inter & opp[p], excluded | taken)
            taken |= 1 << p
    dfs([], g.full_mask, 0)
    return sorted(set(results))


def is_geometric_line_counts(g, pts):
    o = opposition_sets(g)
    pts = list(pts)
    m = len(pts)
    counts = [0] * g.n
    for p in pts:
        for w in bit_indices(o.opp[p]):
            counts[w] += 1
    return all(c in (0, m - 1) for c in counts)


def geometric_line_closure_scan(g, triple):
    if not S.is_round_up_triple(g, *triple):
        raise GeometryError("closure requires a round-up triple")
    o = opposition_sets(g)
    cur = bitset(triple)
    union = 0
    for p in triple:
        union |= o.opp[p]
    while True:
        grow = cur
        for v in range(g.n):
            if not (cur >> v & 1) and not (o.opp[v] & ~union):
                grow |= 1 << v
        if grow == cur:
            break
        for v in bit_indices(grow & ~cur):
            union |= o.opp[v]
        cur = grow
    pts = tuple(bit_indices(cur))
    return pts if is_geometric_line_counts(g, pts) else None


def hyperbolic_line_scan(g, a, b):
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    c = S.special_center(g, a, b)
    d2 = S._distance2_bits(g)
    o = opposition_sets(g)
    h = g.adj[c] & ~(1 << c)
    found = False
    for q in bit_indices(o.opp[c]):
        if (d2[q] >> a & 1) and (d2[q] >> b & 1):
            h &= d2[q]
            found = True
    if not found:
        raise GeometryError("no point opposite the centre is special to both")
    pts = tuple(bit_indices(h))
    if not (h >> a & 1) or not (h >> b & 1):
        raise GeometryError("hyperbolic line does not contain its defining pair")
    regular = all(
        (d2[q] & g.adj[c]) == h
        for q in bit_indices(o.opp[c])
        if (d2[q] & h).bit_count() >= 2)
    return S.HyperbolicLine(c, pts, regular)


def all_hyperbolic_lines_scan(g):
    d2 = S._distance2_bits(g)
    out = set()
    for a in range(g.n):
        for b in bit_indices(d2[a]):
            if b > a:
                out.add(hyperbolic_line_scan(g, a, b).points)
    return sorted(out)


@dataclass
class Distance3Trace:
    line_pair: tuple[int, int]
    points: tuple[int, ...]


def distance3_trace(g, li, mi):
    """Points close to both of two opposite lines of a hexagon."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("distance-3 traces are defined here for hexagons")
    if not S.opposite_lines_polygon(g, li, mi):
        raise GeometryError(f"lines {li} and {mi} are not opposite")
    close = S.close_to_lines(g)
    pts = tuple(bit_indices(close[li] & close[mi]))
    s = len(g.lines[li]) - 1
    if len(pts) != s + 1:
        raise GeometryError(f"trace has {len(pts)} points, expected {s + 1}")
    return Distance3Trace((li, mi), pts)


def trace_regular(g, tr):
    """[N,M]3 = [L,M]3 whenever N is opposite M and shares >= 2 trace points."""
    li, mi = tr.line_pair
    bits = bitset(tr.points)
    close = S.close_to_lines(g)
    for ni in range(len(g.lines)):
        if ni == mi or not S.opposite_lines_polygon(g, ni, mi):
            continue
        t = close[ni] & close[mi]
        if (t & bits).bit_count() >= 2 and t != bits:
            return False
    return True


def all_distance3_traces_pairwise(g):
    return sorted({distance3_trace(g, li, mi).points
                   for li, mi in S.opposite_line_pairs(g)})


def test_common_opposite(h2):
    assert S.common_opposite(h2, [0]) is not None
    # any 2-set admits a common opposite, any full line does not
    rng = random.Random(3)
    for _ in range(200):
        a, b = rng.sample(range(h2.n), 2)
        assert S.common_opposite(h2, [a, b]) is not None
    for l in h2.lines[:20]:
        assert S.common_opposite(h2, l) is None


def test_blocking_sets_match_brute_force_w32(w32):
    # independent oracle: full scan over all k-subsets
    o = opposition_sets(w32)
    for k in (3, 4):
        brute = sorted(
            s for s in itertools.combinations(range(w32.n), k)
            if o.common_opposite_bits(s) == 0)
        fast = S.enumerate_blocking_sets(w32, k)
        assert fast == brute


def test_blocking_sets_minimal_only_w32(w32):
    # with the flag, supersets of smaller blocking sets are dropped
    all4 = S.enumerate_blocking_sets(w32, 4)
    min4 = S.enumerate_blocking_sets(w32, 4, minimal_only=True)
    block3 = S.enumerate_blocking_sets(w32, 3)
    kept = set(min4)
    for s in all4:
        has_blocking_sub = any(set(b) <= set(s) for b in block3)
        assert (s in kept) == (not has_blocking_sub)


def test_blocking_3sets_w32_classify(w32):
    found = S.enumerate_blocking_sets(w32, 3)
    tags = {}
    for b in found:
        tags.setdefault(S.classify_blocking_set(w32, b), []).append(b)
    assert set(tags) == {"Line", "HyperbolicLine"}
    assert len(tags["Line"]) == 15
    assert len(tags["HyperbolicLine"]) == 20


def test_blocking_budget(h2):
    with pytest.raises(S.BudgetExceeded):
        S.enumerate_blocking_sets(h2, 3, budget=10)


def test_soundness_sample(h2):
    found = S.enumerate_blocking_sets(h2, 3, minimal_only=True)
    assert S.blocking_soundness_sample(h2, 3, found, seed=0)


def test_round_up_triples_basics(h2):
    l = h2.lines[0]
    assert S.is_round_up_triple(h2, *l)
    with pytest.raises(GeometryError):
        S.is_round_up_triple(h2, 1, 1, 2)


def test_rut_counterexample_witness(h2):
    # a line pair plus an off-line point special to one of them fails
    l = h2.lines[0]
    d2 = S._distance2_bits(h2)
    from liegeom.geometry import bit_indices
    z = next(z for z in bit_indices(d2[l[0]]) if not (h2.line_bits[0] >> z & 1))
    assert not S.is_round_up_triple(h2, l[0], l[1], z)


def test_rut_dual_route(h2):
    # the enumerator's inline bitset test against the definitional check
    ruts = set(S.enumerate_round_up_triples(h2))
    rng = random.Random(41)
    for t in list(ruts)[:100]:
        assert S.is_round_up_triple(h2, *t)
        assert S.exactly_one_opposite(h2, t) == 0
    missed = 0
    while missed < 200:
        t = tuple(sorted(rng.sample(range(h2.n), 3)))
        if t in ruts:
            continue
        assert not S.is_round_up_triple(h2, *t)
        missed += 1


def test_rut_h2_census(h2):
    ruts = S.enumerate_round_up_triples(h2)
    assert len(ruts) == 651
    # base-point mimics the full scan restricted to that point
    base0 = S.enumerate_round_up_triples(h2, base_point=0)
    assert base0 == [t for t in ruts if 0 in t]


def test_pairwise_opposite_triples_not_rut_h3(h3):
    o = opposition_sets(h3)
    rng = random.Random(5)
    found = 0
    while found < 300:
        a = rng.randrange(h3.n)
        b = rng.choice(S.bit_indices(o.opp[a]) if hasattr(S, "bit_indices") else
                       __import__("liegeom.geometry", fromlist=["bit_indices"]).bit_indices(o.opp[a]))
        c = rng.randrange(h3.n)
        if c in (a, b) or not (o.opp[a] >> c & 1) or not (o.opp[b] >> c & 1):
            continue
        assert not S.is_round_up_triple(h3, a, b, c)
        found += 1


def test_geometric_line_closure(h2):
    l = h2.lines[0]
    assert S.geometric_line_closure(h2, l) == tuple(l)
    hyp = S.all_hyperbolic_lines(h2)[0]
    assert S.geometric_line_closure(h2, hyp) == tuple(hyp)
    d2 = S._distance2_bits(h2)
    from liegeom.geometry import bit_indices
    z = next(z for z in bit_indices(d2[l[0]]) if not (h2.line_bits[0] >> z & 1))
    with pytest.raises(GeometryError):
        S.geometric_line_closure(h2, (l[0], l[1], z))


def test_trace_closure_h3_not_geometric(h3):
    # in odd characteristic a trace triple is never a round-up triple,
    # matching the absence of trace geometric lines
    traces = S.all_distance3_traces(h3)
    rng = random.Random(9)
    for tr in rng.sample(traces, 50):
        for trip in itertools.combinations(tr, 3):
            assert not S.is_round_up_triple(h3, *trip)


def test_hyperbolic_line_h2(h2):
    hyps = S.all_hyperbolic_lines(h2)
    assert len(hyps) == 252
    assert all(len(h) == 3 for h in hyps)
    h = S.hyperbolic_line(h2, hyps[0][0], hyps[0][1])
    assert h.regular
    assert set(h.points) == set(hyps[0])


def test_hyperbolic_line_h3(h3):
    d2 = S._distance2_bits(h3)
    from liegeom.geometry import bit_indices
    a = 0
    b = bit_indices(d2[0])[0]
    h = S.hyperbolic_line(h3, a, b)
    assert len(h.points) == 4
    assert h.regular


def test_distance3_trace(h2):
    pairs = S.opposite_line_pairs(h2)
    assert len(pairs) == 1008
    tr = distance3_trace(h2, *pairs[0])
    assert len(tr.points) == 3
    assert trace_regular(h2, tr)
    li = 0
    x = h2.lines[0][0]
    mi = next(m for m in h2.lines_through[x] if m != li)
    with pytest.raises(GeometryError):
        distance3_trace(h2, li, mi)


def test_trace_regularity_h3_sampled(h3):
    pairs = S.opposite_line_pairs(h3)
    rng = random.Random(1)
    for li, mi in rng.sample(pairs, 40):
        assert trace_regular(h3, distance3_trace(h3, li, mi))


def test_gq_dominating(h34):
    for l in h34.lines[:5]:
        assert S.gq_dominating_check(h34, l)
    sub = h34.meta["subgq"]
    ov = S.enumerate_ovoids(sub)[0]
    lifted = [sub.meta["parent_points"][p] for p in ov]
    assert S.gq_dominating_check(h34, lifted)
    assert not S.gq_dominating_check(h34, lifted[:4])


def test_ovoids_w32(w32):
    ovs = S.enumerate_ovoids(w32)
    assert len(ovs) == 6
    for ov in ovs:
        assert len(ov) == 5
        assert S.is_ovoid(w32, ov)
    assert not S.is_ovoid(w32, w32.lines[0])
    assert not S.is_ovoid(w32, ovs[0][:4])


def test_classify_line_tag(h2, gr_w52):
    assert S.classify_blocking_set(h2, h2.lines[0]) == "Line"
    assert S.classify_blocking_set(gr_w52, gr_w52.lines[0]) == "PlanarPencil"


def test_every_line_is_geometric(h2, h3, gr_w52):
    rng = random.Random(2)
    for g in (h2, h3, gr_w52):
        for li in rng.sample(range(len(g.lines)), 40):
            assert S.is_geometric_line(g, g.lines[li])


def test_prop_330_instance_h2(h2):
    o = opposition_sets(h2)
    for pair in itertools.combinations(range(h2.n), 2):
        assert o.common_opposite_bits(pair) != 0


def test_lemma_330b_h2(h2):
    o = opposition_sets(h2)
    for x in range(h2.n):
        for y in range(h2.n):
            if x != y:
                assert o.opp[x] & ~o.opp[y]


def test_prop_330_instance_h3(h3):
    o = opposition_sets(h3)
    opp = o.opp
    n = h3.n
    for i in range(n):
        oi = opp[i]
        for j in range(i + 1, n):
            oij = oi & opp[j]
            if not oij:
                continue
            for k in range(j + 1, n):
                if not (oij & opp[k]):
                    raise AssertionError(f"triple ({i},{j},{k}) blocks")
    # no pair may block either
    for i in range(n):
        for j in range(i + 1, n):
            assert opp[i] & opp[j]


def hyperplanes_pg(g):
    """Hyperplane point-bitsets of a PG geometry (dual points)."""
    from liegeom.constructors import projective_points
    F = g.meta["field"]
    coords = g.meta["coords"]
    out = []
    for h in projective_points(F, len(coords[0]) - 1):
        bits = 0
        for i, v in enumerate(coords):
            s = 0
            for a, b in zip(h, v):
                s = F.add(s, F.mul(a, b))
            if s == 0:
                bits |= 1 << i
        out.append(bits)
    return out


def test_typead_pg32_blocking_points_are_lines():
    # sets of 3 points met by every hyperplane are exactly the lines
    from liegeom.constructors import pg
    g = pg(3, 2)
    hyps = hyperplanes_pg(g)
    blocking = [s for s in itertools.combinations(range(g.n), 3)
                if all(h & bitset(s) for h in hyps)]
    assert sorted(blocking) == sorted(map(tuple, g.lines))


# -- bitset kernels against the scan oracles ---------------------------------------


@pytest.fixture(scope="module")
def h2_dual(h2):
    # the dual hexagon of H(2): its hyperbolic lines are the special pairs
    # themselves and are not regular, unlike those of H(q)
    from liegeom.geometry import Geometry, Kind
    return Geometry(len(h2.lines), [h2.lines_through[p] for p in range(h2.n)],
                    Kind("polygon", 6), name="H(2) dual")


def _special_pairs(g):
    d2 = S._distance2_bits(g)
    return [(a, b) for a in range(g.n) for b in bit_indices(d2[a]) if b > a]


def test_hyperbolic_lines_equal_scan(h2, h3, h2_dual):
    for g in (h2, h3, h2_dual):
        assert S.all_hyperbolic_lines(g) == all_hyperbolic_lines_scan(g)
    h3_pairs = random.Random(4).sample(_special_pairs(h3), 300)
    for g, pairs in ((h2, _special_pairs(h2)), (h3, h3_pairs),
                     (h2_dual, _special_pairs(h2_dual))):
        lines = [S.hyperbolic_line(g, a, b) for a, b in pairs]
        assert lines == [hyperbolic_line_scan(g, a, b) for a, b in pairs]
        assert {h.regular for h in lines} == {g is not h2_dual}


def test_hyperbolic_lines_only_in_hexagons(w32, gr_w52):
    for g in (w32, gr_w52):
        for fn in (S.all_hyperbolic_lines, all_hyperbolic_lines_scan):
            with pytest.raises(GeometryError):
                fn(g)


def test_distance3_traces_equal_pairwise(h2, h3, h2_dual, w32):
    for g in (h2, h3, h2_dual):
        assert S.all_distance3_traces(g) == all_distance3_traces_pairwise(g)
    for fn in (S.all_distance3_traces, all_distance3_traces_pairwise):
        with pytest.raises(GeometryError):
            fn(w32)


def _perturbed(g, sets, rng):
    # each set with one member swapped for a random point
    out = []
    for s in sets:
        s = list(s)
        s[rng.randrange(len(s))] = rng.randrange(g.n)
        out.append(s)
    return out


def test_is_geometric_line_equals_counts(h2, h3, h2_dual, w32, gr_w52):
    rng = random.Random(6)
    for g in (h2, h3, h2_dual, w32, gr_w52):
        cands = [list(l) for l in g.lines]
        if geometry_family(g) == "hexagon":
            cands += [list(h) for h in S.all_hyperbolic_lines(g)]
            cands += [list(t) for t in S.all_distance3_traces(g)]
        else:
            cands += [list(gl) for gl in S.enumerate_geometric_lines(g, base_point=0)]
        cands = rng.sample(cands, min(len(cands), 600))
        cands += _perturbed(g, cands, rng) + [[], [0], [0, 0], cands[0] + cands[0][:1]]
        got = [S.is_geometric_line(g, s) for s in cands]
        assert got == [is_geometric_line_counts(g, s) for s in cands]
        assert True in got and False in got


def test_geometric_line_closure_equals_scan(h2, h3, h2_dual, w32, gr_w52):
    for g, bases in ((h2, None), (h3, (0, 100, 200)), (h2_dual, None), (w32, None),
                     (gr_w52, (0, 157))):
        ruts = sorted({t for p in (bases or (None,))
                       for t in S.enumerate_round_up_triples(g, base_point=p)})
        assert ruts
        got = [S.geometric_line_closure(g, t) for t in ruts]
        assert got == [geometric_line_closure_scan(g, t) for t in ruts]


def test_blocking_sets_equal_scan(h2, h3, h2_dual, w32, gr_w52):
    cases = [(h2, 3, True), (h2, 3, False), (h3, 3, True), (h2_dual, 3, True),
             (h2_dual, 2, False), (w32, 3, False), (w32, 4, True), (w32, 4, False),
             (gr_w52, 3, True)]
    for g, k, minimal_only in cases:
        assert (S.enumerate_blocking_sets(g, k, minimal_only=minimal_only)
                == enumerate_blocking_sets_scan(g, k, minimal_only=minimal_only))
    assert len(S.enumerate_blocking_sets(gr_w52, 3, minimal_only=True)) == 2205


def test_rut_witness_special_pair_equals_scan(h2):
    # the special-pair branch of the round-up-triple lemma check against
    # its per-point loop, on triples through a special pair
    from liegeom.recipes import _rut_lemma_witness
    from liegeom.relations import COLLINEAR, classify_pair
    o = opposition_sets(h2)
    d2 = S._distance2_bits(h2)
    outcomes = set()
    for a, b in random.Random(8).sample(_special_pairs(h2), 60):
        c = S.special_center(h2, a, b)
        for z in range(h2.n):
            if z in (a, b) or COLLINEAR in (classify_pair(h2, a, z), classify_pair(h2, b, z)):
                continue
            tb = bitset((a, b, z))
            want = None
            for y in bit_indices(o.opp[c]):
                if all(d2[y] >> p & 1 for p in (a, b)) and tb & ~(h2.adj[c] & d2[y]):
                    want = f"not inside centre-perp cap special-trace of {y}"
                    break
            assert _rut_lemma_witness(h2, [], (a, b, z)) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


# -- budgets ------------------------------------------------------------------------


def test_hyperbolic_lines_budget(h2):
    with pytest.raises(S.BudgetExceeded):
        S.all_hyperbolic_lines(h2, budget=10)
    # one node per special pair: 63 points with 24 special points each
    assert len(S.all_hyperbolic_lines(h2, budget=63 * 24 // 2)) == 252


def test_ovoids_budget(w32):
    with pytest.raises(S.BudgetExceeded):
        S.enumerate_ovoids(w32, budget=3)


def test_recipes_report_partial_on_budget():
    # 720 nodes cover the H(2) blocking search but not its 756 special pairs
    for name, params, budget, cut in (("bshex", {"q": 2}, 720, "hyperbolic-line scan"),
                                      ("geomlines-hex", {"q": 2}, 10, "triple scan"),
                                      ("obs-gq", {}, 5, "ovoid search")):
        rep = run_recipe(name, budget=budget, **params)
        assert rep.status == "PARTIAL"
        assert rep.assertions[-1]["name"] == "budget"
        assert rep.assertions[-1]["witness"].startswith(cut)


def test_budget_keeps_a_failed_check(monkeypatch):
    # with a classifier that tags every set wrongly, bshex has failed before
    # its 720 nodes run out in the hyperbolic-line scan: it stays FAIL
    monkeypatch.setattr(S, "classify_blocking_set", lambda g, b: "Unknown")
    rep = run_recipe("bshex", budget=720, q=2)
    assert rep.status == "FAIL"
    failed = [a["name"] for a in rep.assertions if not a["passed"]]
    assert "classification-exact" in failed
    assert rep.assertions[-1]["name"] == "budget"
    assert rep.assertions[-1]["witness"].startswith("hyperbolic-line scan")


# -- properties -----------------------------------------------------------------------


@pytest.mark.parametrize("alias", ["hexagon-2", "gr-w52"])
@given(data=st.data())
def test_is_geometric_line_property(alias, data):
    from liegeom.recipes import model_geometry
    g = model_geometry(alias)
    pts = data.draw(st.lists(st.integers(0, g.n - 1), max_size=6, unique=True))
    assert S.is_geometric_line(g, pts) == is_geometric_line_counts(g, pts)


@given(st.lists(st.integers(0, 600)))
def test_bit_indices_inverts_bitset(pts):
    assert bit_indices(bitset(pts)) == sorted(set(pts))
