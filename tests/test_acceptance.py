"""Acceptance suite: one test per criterion, each printing a PASS line.

Time limits are asserted where the criterion states one; all counts are
pinned against independent counting-formula oracles or frozen golden
values from the first verified runs.
"""

import itertools
import time

import pytest

from liegeom import search as S
from liegeom.geometry import is_generalized_polygon, validate
from liegeom.recipes import grassmannian_census, grassmannian_model, model_geometry, run_recipe


def _report(n, label, detail=""):
    print(f"CRITERION {n:>2} PASS  {label}  {detail}")


def _assert_recipe(rep):
    failed = [a for a in rep.assertions if not a["passed"]]
    assert rep.status == "PASS", failed


def test_criterion_01_constructors():
    t0 = time.time()
    q = 2
    pg22 = model_geometry_or_build("pg22")
    assert (pg22.n, len(pg22.lines)) == ((q**3 - 1) // (q - 1),) * 2 == (7, 7)
    w32 = model_geometry("w32")
    assert (w32.n, len(w32.lines)) == (15, 15) and validate(w32).order == (2, 2)
    w52 = model_geometry("w52")
    assert (w52.n, len(w52.lines)) == (2**6 - 1, (2**6 - 1) * 15 // 3) == (63, 315)
    q72 = model_geometry("q72")
    assert (q72.n, len(q72.lines)) == ((2**3 + 1) * (2**2 + 1) * 3, 135 * 35 // 3) \
        == (135, 1575)
    h34 = model_geometry("h34")
    assert (h34.n, len(h34.lines)) == ((4 + 1) * (8 + 1), (8 + 1) * 3) == (45, 27)
    assert validate(h34).order == (4, 2)
    sub = h34.meta["subgq"]
    assert (sub.n, len(sub.lines)) == (15, 15) and validate(sub).order == (2, 2)
    h2 = model_geometry("hexagon-2")
    assert (h2.n, len(h2.lines)) == ((1 + 2) * (1 + 4 + 16),) * 2 == (63, 63)
    assert is_generalized_polygon(h2, 6)
    h3 = model_geometry("hexagon-3")
    assert (h3.n, len(h3.lines)) == ((1 + 3) * (1 + 9 + 81),) * 2 == (364, 364)
    elapsed = time.time() - t0
    assert elapsed < 10, f"constructors took {elapsed:.1f}s"
    _report(1, "constructor validation", f"({elapsed:.1f}s)")


def model_geometry_or_build(alias):
    if alias == "pg22":
        from liegeom.constructors import pg
        return pg(2, 2)
    return model_geometry(alias)


def test_criterion_02_bshex():
    model_geometry("hexagon-2")             # construction outside the budget
    t0 = time.time()
    rep2 = run_recipe("bshex", q=2)
    _assert_recipe(rep2)
    census2 = next(a["witness"] for a in rep2.assertions
                   if a["name"] == "blocking-census")
    assert census2 == {"Distance3Trace": 336, "HyperbolicLine": 252, "Line": 63}
    t_h2 = time.time() - t0
    assert t_h2 < 1.0, f"H(2) blocking audit took {t_h2:.2f}s"
    t0 = time.time()
    rep3 = run_recipe("bshex", q=3)
    _assert_recipe(rep3)
    census3 = next(a["witness"] for a in rep3.assertions
                   if a["name"] == "blocking-census")
    assert census3 == {"HyperbolicLine": 3276, "Line": 364}
    t_h3 = time.time() - t0
    assert t_h3 < 600, f"H(3) blocking search took {t_h3:.0f}s"
    _report(2, "blocking-set classification exact in H(2), H(3)",
            f"(H(2) {t_h2:.1f}s, H(3) {t_h3:.0f}s)")


def test_criterion_03_geometric_lines():
    rep2 = run_recipe("geomlines-hex", q=2)
    _assert_recipe(rep2)
    assert next(a["witness"] for a in rep2.assertions
                if a["name"] == "geometric-lines") == 651
    t0 = time.time()
    rep3 = run_recipe("geomlines-hex", q=3)
    _assert_recipe(rep3)
    assert next(a["witness"] for a in rep3.assertions
                if a["name"] == "geometric-lines") == 3640
    elapsed = time.time() - t0
    assert elapsed < 1800
    _report(3, "geometric lines = lines + hyperbolic (+ traces iff q even)",
            f"(H(3) {elapsed:.0f}s)")


def test_criterion_04_round_up_triples():
    g = model_geometry("hexagon-2")
    t0 = time.time()
    ruts = S.enumerate_round_up_triples(g)
    assert len(ruts) == 651
    from liegeom.recipes import _rut_lemma_witness
    for t in ruts:
        assert _rut_lemma_witness(g, t) is None
    elapsed = time.time() - t0
    assert elapsed < 5, f"round-up triple audit took {elapsed:.1f}s"
    _report(4, "all 651 round-up triples of H(2) satisfy the containment lemmas",
            f"({elapsed:.1f}s)")


def test_criterion_05_position_catalogue():
    # fresh unless an earlier test left the census on the model geometry;
    # probed without building anything
    from liegeom.recipes import _GEOMETRIES
    gr = _GEOMETRIES.get("gr-q72")
    fresh = gr is None or "position-census" not in gr._derived
    t0 = time.time()
    rep = run_recipe("positions-catalogue")
    _assert_recipe(rep)
    elapsed = time.time() - t0
    census = grassmannian_census()
    assert census.miss_count == 0
    assert len(census.counts) == 17
    import json
    import pathlib
    golden = json.loads((pathlib.Path(__file__).parent / "golden"
                         / "grq72_positions.json").read_text())
    assert census.counts == golden
    if fresh:
        assert elapsed < 120, f"census took {elapsed:.0f}s"
    _report(5, "pair census on the 1575-point model: 17 positions, 0 misses",
            f"({elapsed:.0f}s{'' if fresh else ', cached'})")


def test_criterion_06_table1_transitions():
    t0 = time.time()
    rep = run_recipe("table1", instances=100, trials=0)
    _assert_recipe(rep)
    elapsed = time.time() - t0
    assert elapsed < 300, f"table-1 audit took {elapsed:.0f}s"
    levels = next(a["witness"] for a in rep.assertions
                  if a["name"] == "levels-by-position")
    assert set(levels.values()) <= {1, 2, 3}
    _report(6, "combing transitions match the table on 100 instances/position",
            f"({elapsed:.0f}s)")


def test_criterion_07_combing_algorithms():
    t0 = time.time()
    rep = run_recipe("table1", instances=0, trials=500)
    _assert_recipe(rep)
    counts = next(a["witness"] for a in rep.assertions if a["name"] == "alg-counts")
    assert counts["alg1_runs"] >= 50 and counts["alg2_runs"] >= 10
    elapsed = time.time() - t0
    _report(7, "combing algorithms: level audit clean over 500 seeded trials",
            f"({counts['alg1_runs']} ALG1 runs, {counts['alg2_runs']} ALG2 runs, "
            f"{elapsed:.0f}s)")


def test_criterion_08_typeb_grassmannian():
    t0 = time.time()
    rep = run_recipe("typeb-grassmannian")
    _assert_recipe(rep)
    census = next(a["witness"] for a in rep.assertions
                  if a["name"] == "geometric-line-census")
    assert census == {"HyperbolicPencil": 1260, "PlanarPencil": 945}
    elapsed = time.time() - t0
    assert elapsed < 900, f"typeB audit took {elapsed:.0f}s"
    _report(8, "Gr(W(5,2)) geometric lines: 945 pencils + 1260 hyperbolic pencils",
            f"({elapsed:.0f}s)")


def test_criterion_09_residue_round_up_triples():
    rep = run_recipe("coroltits", points=50)
    _assert_recipe(rep)
    _report(9, "ambient and residual round-up triples coincide at 50 points")


def test_criterion_10_ovoid_kernel():
    t0 = time.time()
    rep = run_recipe("obs-gq")
    _assert_recipe(rep)
    elapsed = time.time() - t0
    assert elapsed < 10
    _report(10, "all 6 subquadrangle ovoids dominate H(3,4) minimally",
            f"({elapsed:.2f}s)")


def test_criterion_11_nonexistence_sweep():
    rep = run_recipe("nonex", tmax=100)
    _assert_recipe(rep)
    _report(11, "orders (t+t^2, t) excluded for t <= 100; (240,15) fails minus-integrality")


def test_criterion_12_determinism():
    for name, params in (("nonex", {"tmax": 40}), ("obs-gq", {}),
                         ("coroltits", {"points": 12}), ("bshex", {"q": 2})):
        a = run_recipe(name, seed=7, **params).payload()
        b = run_recipe(name, seed=7, **params).payload()
        assert a == b, f"recipe {name} is not reproducible"
    _report(12, "identical report payloads across reruns at fixed seed")
