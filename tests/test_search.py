import functools
import itertools
import random
from collections import Counter
from dataclasses import dataclass
from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from liegeom import recipes, search as S
from liegeom.geometry import GeometryError, bit_indices, bitset
from liegeom.positions import HexagonicModel, position_census
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


def round_up_triples_scan(g, base_point=None):
    """Every pair (j, k) tested against each first point i."""
    o = opposition_sets(g)
    opp, notopp = o.opp, o.notopp
    n = g.n
    out = []
    if base_point is None:
        firsts = range(n)
    else:
        firsts = (base_point,)
    for i in firsts:
        oi = opp[i]
        lo = 0 if base_point is not None else i + 1
        for j in range(lo, n):
            if j == i:
                continue
            V = oi ^ opp[j]
            W = ~(oi | opp[j]) & g.full_mask
            for k in range(j + 1, n):
                if k == i:
                    continue
                if not (V & notopp[k]) and not (opp[k] & W):
                    out.append(tuple(sorted((i, j, k))))
    return sorted(set(out))


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


@functools.cache
def distance2_rows(g):
    """Per point x: the points at distance 2 from x, folded from g.adj."""
    out = []
    for x in range(g.n):
        grow = 0
        for y in bit_indices(g.adj[x]):
            grow |= g.adj[y]
        out.append(grow & ~g.adj[x])
    return tuple(out)


@dataclass
class HyperbolicLine:
    center: int
    points: tuple[int, ...]
    regular: bool


def hyperbolic_line_scan(g, a, b):
    """Hyperbolic line through a special pair, with its regularity: every
    point opposite the centre special to two or more of its points has
    the same trace."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("hyperbolic lines are defined here for hexagons")
    c = S.special_center(g, a, b)
    d2 = distance2_rows(g)
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
    return HyperbolicLine(c, pts, regular)


def regular_by_fold(g, hl):
    """Regularity read off the rows d2[p], p in H: the points special to
    two or more points of H are those in two or more rows."""
    d2 = distance2_rows(g)
    ge1 = ge2 = 0
    for p in hl.points:
        ge2 |= ge1 & d2[p]
        ge1 |= d2[p]
    h = bitset(hl.points)
    return all((d2[q] & g.adj[hl.center]) == h
               for q in bit_indices(opposition_sets(g).opp[hl.center] & ge2))


def all_hyperbolic_lines_scan(g):
    d2 = distance2_rows(g)
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


def lines_opposite_pairwise(g, li, mi):
    """Hexagon line opposition from g.adj: distinct lines with no point of
    one collinear-or-equal to a point of the other."""
    return li != mi and not any(g.adj[x] & g.line_bits[mi] for x in g.lines[li])


def opposite_line_pairs_pairwise(g):
    return [(li, mi) for li, mi in combinations(range(len(g.lines)), 2)
            if lines_opposite_pairwise(g, li, mi)]


def close_to_line(g, li):
    """Points off line li collinear with one of its points."""
    bits = 0
    for x in g.lines[li]:
        bits |= g.adj[x]
    return bits & ~g.line_bits[li]


def distance3_trace(g, li, mi):
    """Points close to both of two opposite lines of a hexagon."""
    if geometry_family(g) != "hexagon":
        raise GeometryError("distance-3 traces are defined here for hexagons")
    if not lines_opposite_pairwise(g, li, mi):
        raise GeometryError(f"lines {li} and {mi} are not opposite")
    pts = tuple(bit_indices(close_to_line(g, li) & close_to_line(g, mi)))
    s = len(g.lines[li]) - 1
    if len(pts) != s + 1:
        raise GeometryError(f"trace has {len(pts)} points, expected {s + 1}")
    return Distance3Trace((li, mi), pts)


def trace_regular(g, tr):
    """[N,M]3 = [L,M]3 whenever N is opposite M and shares >= 2 trace points."""
    li, mi = tr.line_pair
    bits = bitset(tr.points)
    cm = close_to_line(g, mi)
    for ni in range(len(g.lines)):
        if not lines_opposite_pairwise(g, ni, mi):
            continue
        t = close_to_line(g, ni) & cm
        if (t & bits).bit_count() >= 2 and t != bits:
            return False
    return True


def all_distance3_traces_pairwise(g):
    if geometry_family(g) != "hexagon":
        raise GeometryError("distance-3 traces are defined here for hexagons")
    return sorted({distance3_trace(g, li, mi).points
                   for li, mi in opposite_line_pairs_pairwise(g)})


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
    with S.budget(10), pytest.raises(S.BudgetExceeded):
        S.enumerate_blocking_sets(h2, 3)


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
    d2 = distance2_rows(h2)
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
    d2 = distance2_rows(h2)
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
    assert S.hyperbolic_line(h2, hyps[0][0], hyps[0][1]) == hyps[0]
    assert hyperbolic_line_scan(h2, hyps[0][0], hyps[0][1]).regular


def test_hyperbolic_line_h3(h3):
    d2 = distance2_rows(h3)
    a = 0
    b = bit_indices(d2[0])[0]
    assert len(S.hyperbolic_line(h3, a, b)) == 4
    assert hyperbolic_line_scan(h3, a, b).regular


def test_distance3_trace(h2):
    pairs = opposite_line_pairs_pairwise(h2)
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
    rng = random.Random(1)
    pairs = []
    while len(pairs) < 40:
        li, mi = rng.sample(range(len(h3.lines)), 2)
        if lines_opposite_pairwise(h3, li, mi):
            pairs.append((li, mi))
    for li, mi in pairs:
        assert trace_regular(h3, distance3_trace(h3, li, mi))


def test_hexagon_line_table_equals_pairwise(h2, h3, h2_dual):
    for g, sample in ((h2, None), (h2_dual, None), (h3, 40)):
        close, opp = S._hexagon_line_table(g)
        lines = range(len(g.lines))
        assert all(opp[li] >> mi & 1 == opp[mi] >> li & 1 for li in lines for mi in lines)
        rows = lines if sample is None else random.Random(10).sample(lines, sample)
        for li in rows:
            assert close[li] == close_to_line(g, li)
            assert opp[li] == bitset(mi for mi in lines if lines_opposite_pairwise(g, li, mi))
    assert sum(b.bit_count() for b in S._hexagon_line_table(h2)[1]) == 2 * 1008


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
    d2 = distance2_rows(g)
    return [(a, b) for a in range(g.n) for b in bit_indices(d2[a]) if b > a]


def test_hyperbolic_lines_equal_scan(h2, h3, h2_dual):
    for g in (h2, h3, h2_dual):
        assert S.all_hyperbolic_lines(g) == all_hyperbolic_lines_scan(g)
    h3_pairs = random.Random(4).sample(_special_pairs(h3), 300)
    for g, pairs in ((h2, _special_pairs(h2)), (h3, h3_pairs),
                     (h2_dual, _special_pairs(h2_dual))):
        scans = [hyperbolic_line_scan(g, a, b) for a, b in pairs]
        assert [S.hyperbolic_line(g, a, b) for a, b in pairs] == [h.points for h in scans]
        assert [regular_by_fold(g, h) for h in scans] == [h.regular for h in scans]
        assert {h.regular for h in scans} == {g is not h2_dual}


def test_hyperbolic_lines_only_in_hexagons(w32, gr_w52):
    for g in (w32, gr_w52):
        for fn in (S.all_hyperbolic_lines, all_hyperbolic_lines_scan):
            with pytest.raises(GeometryError):
                fn(g)


@settings(max_examples=40)
@given(data=st.data())
def test_hyperbolic_cap_equals_scan(h3, h2_dual, data):
    # the per-centre cap, read by hyperbolic_line and by the lemma witness,
    # on a regular hexagon and on one whose hyperbolic lines are not regular
    for g in (h3, h2_dual):
        a, b = data.draw(st.sampled_from(_special_pairs(g)))
        if data.draw(st.booleans()):
            a, b = b, a
        line = hyperbolic_line_scan(g, a, b).points
        assert S.hyperbolic_line(g, a, b) == line
        assert S._special_trace_cap(g, S.special_center(g, a, b), a, b)[1] == bitset(line)


def test_special_trace_cap_equals_centre_caps(h2):
    # one fold over the points opposite the centre and special to both
    # equals the bulk caps at that centre, on every special pair of H(2)
    opp = opposition_sets(h2).opp
    pairs = _special_pairs(h2)
    assert len(pairs) == 756
    for a, b in pairs:
        c = S.special_center(h2, a, b)
        qs, cap = S._special_trace_cap(h2, c, a, b)
        assert qs and cap == S._centre_caps(h2, c, opp[c])[a, b]
        assert S._special_trace_cap(h2, c, b, a) == (qs, cap)
        assert S.hyperbolic_line(h2, b, a) == tuple(bit_indices(cap))


def test_centre_without_opposite_points_is_refused():
    # centre 0 with its opposition row emptied has no point trace, so the
    # special pairs it is the centre of get no cap: the build must refuse
    # them, not return a shorter set
    from liegeom.constructors import split_cayley_hexagon
    from liegeom.relations import OppositionSets, _opposition_sets
    g = split_cayley_hexagon(2)
    o = _opposition_sets(g)
    g.cached("opposition-sets", lambda: OppositionSets(g, (0,) + o.opp[1:], o.notopp))
    with pytest.raises(GeometryError, match="no point opposite the centre"):
        S.all_hyperbolic_lines(g)


def test_trace_with_a_collinear_pair_is_refused():
    # the trace on centre 0 of a point q opposite it gains x, the other
    # point of the line through 0 and a trace point y; x < q, so the rows
    # still give the same special pairs, and the capped pair (x, y) is
    # collinear, not special
    from liegeom.constructors import split_cayley_hexagon
    from liegeom.relations import OppositionSets, _opposition_sets
    g = split_cayley_hexagon(2)
    o = _opposition_sets(g)
    q = o.opp[0].bit_length() - 1
    y = bit_indices(o.notopp[q] & g.adj[0])[0]
    x = (g.adj[0] & g.adj[y] & ~(1 | 1 << y)).bit_length() - 1
    assert y != 0 and x < q
    notopp = o.notopp[:q] + (o.notopp[q] | 1 << x,) + o.notopp[q + 1:]
    g.cached("opposition-sets", lambda: OppositionSets(g, o.opp, notopp))
    with pytest.raises(GeometryError, match="not special"):
        S.all_hyperbolic_lines(g)


def test_distance3_traces_equal_pairwise(h2, h3, h2_dual, w32):
    for g in (h2, h3, h2_dual):
        assert S.all_distance3_traces(g) == all_distance3_traces_pairwise(g)
    for fn in (S.all_distance3_traces, all_distance3_traces_pairwise):
        with pytest.raises(GeometryError):
            fn(w32)


def test_classify_tags_exactly_the_traces(h2, h3, h2_dual):
    rng = random.Random(15)
    for g, sample in ((h2, None), (h2_dual, None), (h3, 200)):
        traces = all_distance3_traces_pairwise(g)
        trace_set = set(traces)
        if sample is not None:
            traces = rng.sample(traces, sample)
        o = opposition_sets(g)
        swapped = []
        for t in traces:
            # one member swapped for a point opposite the others: the set
            # stays pairwise opposite, so only trace membership can reject it
            i = rng.randrange(len(t))
            rest = t[:i] + t[i + 1:]
            cands = bit_indices(o.common_opposite_bits(rest) & ~bitset(t))
            swapped.append(sorted(rest + (rng.choice(cands),)))
        assert any(tuple(s) not in trace_set for s in swapped)
        for s in [list(t) for t in traces] + swapped + _perturbed(g, traces, rng):
            is_trace = S.classify_blocking_set(g, s) == "Distance3Trace"
            assert is_trace == (tuple(sorted(s)) in trace_set)


def test_distance3_traces_fresh_list(h2):
    first = S.all_distance3_traces(h2)
    want = list(first)
    first[0] = (-1,)
    first.pop()
    assert S.all_distance3_traces(h2) == want


def _perturbed(g, sets, rng):
    # each set with one member swapped for a random point
    out = []
    for s in sets:
        s = list(s)
        s[rng.randrange(len(s))] = rng.randrange(g.n)
        out.append(s)
    return out


def _is_hyperbolic_line_by_scan(g, s):
    # a pairwise special set that is the scanned hyperbolic line of its
    # two least points
    d2 = distance2_rows(g)
    if not all(d2[a] >> b & 1 for a, b in combinations(s, 2)):
        return False
    try:
        return hyperbolic_line_scan(g, s[0], s[1]).points == s
    except GeometryError:
        return False


def test_classify_tags_exactly_the_hyperbolic_lines(h2, h3, h2_dual):
    # the lists are compared with the scan in test_hyperbolic_lines_equal_scan;
    # here the scan decides each set
    rng = random.Random(17)
    for g, sample in ((h2, None), (h2_dual, None), (h3, 200)):
        hyps = S.all_hyperbolic_lines(g)
        if sample is not None:
            hyps = rng.sample(hyps, sample)
        outcomes = set()
        for s in [list(h) for h in hyps] + _perturbed(g, hyps, rng):
            s = tuple(sorted(s))
            want = _is_hyperbolic_line_by_scan(g, s)
            assert (S.classify_blocking_set(g, s) == "HyperbolicLine") == want
            outcomes.add(want)
        assert outcomes == {True, False}


def _is_hyperbolic_pencil(g, pts):
    """Lines of the base through one point, hyperbolic in the point residual."""
    from liegeom.geometry import residual
    from liegeom.relations import grassmannian_base
    try:
        base = grassmannian_base(g)
    except GeometryError:
        return False
    common = base.full_mask
    for li in pts:
        common &= base.line_bits[li]
    if common.bit_count() != 1:
        return False
    p = common.bit_length() - 1
    res = residual(base, p)
    rmap = S.residual_point_map(base, res)
    return S._is_polar_hyperbolic(res, sorted(rmap[li] for li in pts))


def test_classify_tags_exactly_the_hyperbolic_pencils(w52, gr_w52):
    rng = random.Random(18)
    gls = S.enumerate_geometric_lines(gr_w52)
    through = [rng.sample(w52.lines_through[rng.randrange(w52.n)], 3) for _ in range(300)]
    sets = [list(gl) for gl in gls] + through + _perturbed(gr_w52, gls + through, rng)
    # the oracle compares point sets and would tag a repeated line; the
    # classifier does not, so the sets compared have no repeated member
    sets = [tuple(sorted(s)) for s in sets if len(set(s)) == len(s)]
    outcomes = set()
    for s in sets:
        want = _is_hyperbolic_pencil(gr_w52, s)
        assert (S.classify_blocking_set(gr_w52, s) == "HyperbolicPencil") == want
        outcomes.add(want)
    assert outcomes == {True, False}
    assert S.all_hyperbolic_pencils(gr_w52) == sorted(s for s in set(sets)
                                                      if _is_hyperbolic_pencil(gr_w52, s))


def test_hyperbolic_lines_budget_holds_once_cached(h2):
    assert len(S.all_hyperbolic_lines(h2)) == 252
    # 63 points with 24 special points each: 756 special pairs
    with S.budget(755), pytest.raises(S.BudgetExceeded,
                                      match="hyperbolic-line scan exceeded 755 pairs"):
        S.all_hyperbolic_lines(h2)
    with S.budget(756):
        assert len(S.all_hyperbolic_lines(h2)) == 252


def test_hyperbolic_lines_fresh_list(h2):
    first = S.all_hyperbolic_lines(h2)
    want = list(first)
    first[0] = (-1,)
    first.pop()
    assert S.all_hyperbolic_lines(h2) == want


def test_hexagon_recognizers_build_no_relation_row():
    # the classifier and the round-up-triple lemma check read opposition
    # rows and adjacency only; a fresh H(2) keeps its relation matrix empty
    from liegeom.constructors import split_cayley_hexagon
    from liegeom.recipes import _rut_lemma_witness
    from liegeom.relations import relation_matrix
    g = split_cayley_hexagon(2)
    traces = S.all_distance3_traces(g)
    hyps = S.all_hyperbolic_lines(g)
    tags = S.tag_census(g, list(g.lines) + hyps + traces)
    assert {tag: len(sets) for tag, sets in tags.items()} == {
        "Distance3Trace": len(traces), "HyperbolicLine": 252, "Line": 63}
    ruts = S.enumerate_round_up_triples(g)
    assert len(ruts) == 651
    assert all(_rut_lemma_witness(g, t) is None for t in ruts)
    assert relation_matrix(g)._rows == {}


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


def test_round_up_triples_equal_scan(h2, h2_dual, w32, gr_w52):
    for g in (h2, h2_dual, w32, gr_w52):
        assert S.enumerate_round_up_triples(g) == round_up_triples_scan(g)


@pytest.mark.parametrize("alias", ["hexagon-2", "hexagon-3", "gr-w52"])
@settings(max_examples=25)
@given(data=st.data())
def test_round_up_triples_through_a_point_equal_scan(alias, data):
    from liegeom.recipes import model_geometry
    g = model_geometry(alias)
    p = data.draw(st.integers(0, g.n - 1))
    assert (S.enumerate_round_up_triples(g, base_point=p)
            == round_up_triples_scan(g, base_point=p))


@given(n=st.integers(3, 9), data=st.data())
def test_round_up_triples_equal_scan_on_any_opposition(n, data):
    # in a quadrangle opposite means non-collinear, so 2-point lines give
    # every symmetric opposition relation; unlike on the models, in-bucket
    # pairs here can fail the subset check
    from liegeom.geometry import Geometry, Kind
    pairs = data.draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1))
                               .filter(lambda e: e[0] != e[1]), max_size=2 * n))
    g = Geometry(n, set(map(frozenset, pairs)), Kind("polygon", 4))
    p = data.draw(st.integers(0, n - 1))
    assert S.enumerate_round_up_triples(g) == round_up_triples_scan(g)
    assert (S.enumerate_round_up_triples(g, base_point=p)
            == round_up_triples_scan(g, base_point=p))


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
    d2 = distance2_rows(h2)
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
            assert _rut_lemma_witness(h2, (a, b, z)) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def _opposite_triples(g, seed, count):
    """count random triples of pairwise opposite points, each with two
    points of some distance-3 trace among them, ascending."""
    opp = opposition_sets(g).opp
    rng = random.Random(seed)
    traces = S.all_distance3_traces(g)
    out = []
    while len(out) < count:
        tr = rng.choice(traces)
        a, b = rng.sample(tr, 2)
        if opp[a] >> b & 1 and (cands := bit_indices(opp[a] & opp[b])):
            out.append(tuple(sorted((a, b, rng.choice(cands)))))
    return out


def test_rut_witness_trace_scan_equals_full_scan(h2, h3):
    # the pairwise-opposite branch reads only the traces through t[0] or
    # t[1] and names the same first failing trace as a scan of all traces
    # in ascending order
    from liegeom.recipes import _rut_lemma_witness
    outcomes = set()
    for g in (h2, h3):
        traces = S.all_distance3_traces(g)
        for t in _opposite_triples(g, 9, 150):
            tb = bitset(t)
            want = next((f"meets trace {tr} twice without containment" for tr in traces
                         if (bitset(tr) & tb).bit_count() >= 2 and tb & ~bitset(tr)), None)
            assert _rut_lemma_witness(g, t) == want
            outcomes.add(want is None)
    assert outcomes == {True, False}


def test_rut_witness_trace_scan_budget(h2):
    # one node per trace examined, all of them through t[0] or t[1]
    from liegeom.recipes import _rut_lemma_witness
    t = next(t for t in _opposite_triples(h2, 10, 50) if _rut_lemma_witness(h2, t) is None)
    through = S._traces_through(h2)
    scanned = len(set(through[t[0]]) | set(through[t[1]]))
    assert 0 < scanned < len(S.all_distance3_traces(h2))
    with S.budget(scanned):
        assert _rut_lemma_witness(h2, t) is None
    with S.budget(scanned - 1), pytest.raises(
            S.BudgetExceeded, match=f"^trace scan exceeded {scanned - 1} traces$"):
        _rut_lemma_witness(h2, t)


# -- budgets ------------------------------------------------------------------------


def test_hyperbolic_lines_budget(h2):
    with S.budget(10), pytest.raises(S.BudgetExceeded):
        S.all_hyperbolic_lines(h2)
    # one node per special pair: 63 points with 24 special points each
    with S.budget(63 * 24 // 2):
        assert len(S.all_hyperbolic_lines(h2)) == 252


def test_ovoids_budget(w32):
    with S.budget(3), pytest.raises(S.BudgetExceeded):
        S.enumerate_ovoids(w32)


def test_blocking_search_node_counts(h2, w32):
    # the least budgets that complete, one node per search call; the
    # non-minimal W(3,2) 4-sets also count the nodes that fill up a
    # blocking set with arbitrary points
    for g, k, minimal_only, nodes in ((h2, 3, True, 700), (w32, 3, True, 44),
                                      (w32, 4, False, 207)):
        full = S.enumerate_blocking_sets(g, k, minimal_only=minimal_only)
        with S.budget(nodes):
            assert S.enumerate_blocking_sets(g, k, minimal_only=minimal_only) == full
        with S.budget(nodes - 1), pytest.raises(S.BudgetExceeded):
            S.enumerate_blocking_sets(g, k, minimal_only=minimal_only)


def test_ovoid_search_node_counts(w32, h34):
    for g, nodes in ((w32, 33), (h34.meta["subgq"], 34)):
        full = S.enumerate_ovoids(g)
        with S.budget(nodes):
            assert S.enumerate_ovoids(g) == full
        with S.budget(nodes - 1), pytest.raises(S.BudgetExceeded):
            S.enumerate_ovoids(g)


def _triple_scan_nodes(g):
    # one node per point bucketed and one per in-bucket pair tested
    opp, notopp = opposition_sets(g).opp, opposition_sets(g).notopp
    total = 0
    for i in range(g.n):
        sizes = Counter(opp[j] & notopp[i] for j in range(i + 1, g.n))
        total += g.n - 1 - i + sum(m * (m - 1) // 2 for m in sizes.values())
    return total


def test_round_up_triples_budget(h2):
    # one node per point bucketed and one per in-bucket pair tested: the
    # first point alone buckets the other n - 1 points
    with S.budget(h2.n - 2), pytest.raises(S.BudgetExceeded, match="triple scan exceeded"):
        S.enumerate_round_up_triples(h2)
    total = _triple_scan_nodes(h2)
    ruts = S.enumerate_round_up_triples(h2)
    assert len(ruts) == 651
    with S.budget(total):
        assert S.enumerate_round_up_triples(h2) == ruts
    with S.budget(total - 1), pytest.raises(S.BudgetExceeded):
        S.enumerate_round_up_triples(h2)


@functools.cache
def _metered(h2, w32):
    """name -> (message prefix, unit, least budget that completes, search)
    for each metered search on a small geometry."""
    model = HexagonicModel(h2)
    return {
        "blocking": ("blocking-set search", "nodes", 700,
                     lambda: S.enumerate_blocking_sets(h2, 3, minimal_only=True)),
        "ovoids": ("ovoid search", "nodes", 33, lambda: S.enumerate_ovoids(w32)),
        "hyperbolic": ("hyperbolic-line scan", "pairs", 756,
                       lambda: S.all_hyperbolic_lines(h2)),
        "census": ("position census", "pairs", 63 * 63, lambda: position_census(model)),
        "triples": ("triple scan", "nodes", _triple_scan_nodes(h2),
                    lambda: S.enumerate_round_up_triples(h2)),
    }


@functools.cache
def _unbudgeted(h2, w32, name):
    return _metered(h2, w32)[name][3]()


@settings(max_examples=40)
@given(data=st.data())
def test_budget_cuts_exactly_below_the_need(h2, w32, data):
    name = data.draw(st.sampled_from(sorted(_metered(h2, w32))))
    what, unit, need, search = _metered(h2, w32)[name]
    b = data.draw(st.integers(0, need + 50))
    with S.budget(b):
        if b >= need:
            assert search() == _unbudgeted(h2, w32, name)
        else:
            with pytest.raises(S.BudgetExceeded, match=f"^{what} exceeded {b} {unit}$"):
                search()


def test_budget_is_scoped(h2):
    with S.budget(10):
        with S.budget(1000):
            assert len(S.all_hyperbolic_lines(h2)) == 252
        with pytest.raises(S.BudgetExceeded, match="exceeded 10 pairs"):
            S.all_hyperbolic_lines(h2)
        with pytest.raises(S.BudgetExceeded, match="exceeded 5 nodes"):
            with S.budget(5):
                S.enumerate_blocking_sets(h2, 3)
        with pytest.raises(S.BudgetExceeded, match="exceeded 10 pairs"):
            S.all_hyperbolic_lines(h2)
    assert len(S.all_hyperbolic_lines(h2)) == 252
    rep = run_recipe("bshex", q=2, budget=5)
    assert rep.status == "PARTIAL"
    assert len(S.enumerate_blocking_sets(h2, 3, minimal_only=True)) == 651


def test_budgeted_bshex_stops_before_the_classifier_builds(monkeypatch):
    # on a fresh H(2), 720 nodes cover the 700 of the blocking search; the
    # first set tested against the hyperbolic lines is charged the 756
    # special pairs before the set is built
    monkeypatch.setattr(recipes, "_GEOMETRIES", {})
    rep = run_recipe("bshex", q=2, budget=720)
    assert rep.status == "PARTIAL"
    assert [a["name"] for a in rep.assertions] == ["budget"]
    assert rep.assertions[0]["witness"] == "hyperbolic-line scan exceeded 720 pairs"
    assert "hyperbolic-lines" not in recipes.model_geometry("hexagon-2")._derived


def test_geomlines_recipe_scans_the_triples_once(monkeypatch):
    # the recipe closes the round-up triples it already holds instead of
    # scanning them again through enumerate_geometric_lines
    raw, calls = S.enumerate_round_up_triples, []
    monkeypatch.setattr(S, "enumerate_round_up_triples",
                        lambda *args, **kw: calls.append(kw) or raw(*args, **kw))
    rep = run_recipe("geomlines-hex", q=2)
    assert rep.passed and len(calls) == 1


def test_hyperbolic_pencil_catches_only_geometry_errors(monkeypatch, gr_w52):
    from liegeom.geometry import Geometry, Kind
    pts = (0, 1, 2)
    assert gr_w52.line_id(pts) is None
    # a base that cannot be rebuilt from its name leaves the set unclassified
    unbuildable = Geometry(gr_w52.n, gr_w52.lines, Kind("grassmannian", of="X(9,9)"))
    assert S.classify_blocking_set(unbuildable, pts) == "Unclassified"
    # a programming error in the base lookup is not read as "Unclassified"

    def broken(g):
        raise KeyError("base")
    monkeypatch.setattr(S, "grassmannian_base", broken)
    with pytest.raises(KeyError):
        S.classify_blocking_set(gr_w52, pts)


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
