"""Named verification recipes with machine-readable reports.

run_recipe builds the RunReport (recipe name and seed) and hands it, with
the options, to the recipe, which records its parameters and geometry
fingerprints and runs a list of assertions against constructed
geometries.  A recipe that runs a search declares ``budget`` but never
reads it: run_recipe sets it for the run (search.budget), and a search
cut short by it ends the recipe there, the one budget policy.
Reports are deterministic for a fixed seed (wall time is excluded from
the comparable payload).
"""

from __future__ import annotations

import random
import time
from collections import Counter
from dataclasses import dataclass, field as dfield
from itertools import combinations
from typing import Optional

from . import search as S
from .constructors import (
    PolarFormSpec,
    hermitian_quadrangle,
    hermitian_subquadrangle,
    polar_space,
    split_cayley_hexagon,
)
from .geometry import Geometry, Kind, bit_indices, bitset, line_grassmannian, residual
from .orders import HexOrder, feasible_hexagon_order, multiplicity_integrality, verify_nonex
from .positions import (
    AlgorithmViolation,
    HexagonicModel,
    TERMINAL,
    combing_algorithm_1,
    combing_algorithm_2,
    comb_to_opposite,
    find_combing_line,
    parse_display,
    position_census,
    seeded_instances,
)
from .relations import opposition_sets

#: recipe name -> the function of this module that runs it.  The function
#: is looked up by name when the recipe runs, so a function patched onto the
#: module (as the benchmark's tracer does) is the one called.
_RECIPES = {
    "bshex": "_recipe_bshex",
    "geomlines-hex": "_recipe_geomlines_hex",
    "typeb-grassmannian": "_recipe_typeb",
    "positions-catalogue": "_recipe_positions",
    "table1": "_recipe_table1",
    "coroltits": "_recipe_coroltits",
    "nonex": "_recipe_nonex",
    "obs-gq": "_recipe_obsgq",
}
RECIPE_NAMES = tuple(_RECIPES)

_GEOMETRIES: dict[str, Geometry] = {}


def model_geometry(alias: str) -> Geometry:
    """Shared constructions, cached per process.  What is derived from
    them is cached on each geometry (Geometry.cached)."""
    if alias in _GEOMETRIES:
        return _GEOMETRIES[alias]
    if alias.startswith("hexagon-"):
        g = split_cayley_hexagon(int(alias.split("-")[1]))
    elif alias == "w32":
        g = polar_space(PolarFormSpec("sp", 3, 2))
    elif alias == "w52":
        g = polar_space(PolarFormSpec("sp", 5, 2))
    elif alias == "q72":
        g = polar_space(PolarFormSpec("hyperbolic", 7, 2))
    elif alias == "gr-q72":
        g = line_grassmannian(model_geometry("q72"), name="Gr(Q+(7,2))")
    elif alias == "gr-w52":
        g = line_grassmannian(model_geometry("w52"), name="Gr(W(5,2))")
    elif alias == "h34":
        g = hermitian_quadrangle(2)
        g.meta["subgq"] = hermitian_subquadrangle(g)
    else:
        raise ValueError(f"unknown geometry alias {alias}")
    _GEOMETRIES[alias] = g
    return g


@dataclass
class RunReport:
    recipe: str
    seed: int
    params: dict = dfield(default_factory=dict)
    geometries: dict = dfield(default_factory=dict)
    assertions: list = dfield(default_factory=list)
    status: str = "PASS"
    wall_time_s: float = 0.0

    def check(self, name: str, passed: bool, witness=None):
        self.assertions.append({"name": name, "passed": bool(passed),
                                "witness": witness})
        if not passed:
            self.status = "FAIL"

    def info(self, name: str, witness):
        self.assertions.append({"name": name, "passed": True, "witness": witness})

    @property
    def passed(self) -> bool:
        return self.status == "PASS"

    def payload(self) -> dict:
        return {
            "schema": 1,
            "recipe": self.recipe,
            "params": self.params,
            "seed": self.seed,
            "geometries": self.geometries,
            "assertions": self.assertions,
            "status": self.status,
        }

    def document(self) -> dict:
        doc = self.payload()
        doc["wall_time_s"] = round(self.wall_time_s, 3)
        return doc


def run_recipe(name: str, seed: int = 0, **params) -> RunReport:
    """Run a recipe with the options params.  When a search exceeds the
    budget the recipe ends: a report that passed so far becomes PARTIAL, a
    failed one stays FAIL, and the budget message is its last assertion."""
    if name not in _RECIPES:
        raise ValueError(f"unknown recipe {name}; choose from {RECIPE_NAMES}")
    rep = RunReport(name, seed)
    t0 = time.perf_counter()
    try:
        with S.budget(params.get("budget")):
            globals()[_RECIPES[name]](rep, **params)
    except S.BudgetExceeded as exc:
        if rep.status == "PASS":
            rep.status = "PARTIAL"
        rep.info("budget", str(exc))
    rep.wall_time_s = time.perf_counter() - t0
    return rep


# -- hexagon blocking sets -----------------------------------------------------


def _recipe_bshex(rep: RunReport, q: int = 2, budget: Optional[int] = None) -> None:
    g = model_geometry(f"hexagon-{q}")
    rep.params, rep.geometries = {"q": q}, {"hexagon": g.fingerprint()}
    s = g.order[0]
    blocking = S.enumerate_blocking_sets(g, s + 1, minimal_only=True)
    counts = {k: len(v) for k, v in S.tag_census(g, blocking).items()}
    rep.info("blocking-census", counts)
    if g.n <= 100:
        # no smaller blocking sets exist, so the minimal filter is inert
        rep.check("minimal-filter-inert",
                  blocking == S.enumerate_blocking_sets(g, s + 1))
    allowed = {"Line", "HyperbolicLine"} | ({"Distance3Trace"} if s % 2 == 0 else set())
    rep.check("classification-exact", set(counts) <= allowed,
              {"unexpected": sorted(set(counts) - allowed)})
    rep.check("all-lines-blocking", counts.get("Line", 0) == len(g.lines))
    rep.check("soundness-sample",
              S.blocking_soundness_sample(g, s + 1, blocking, seed=rep.seed))
    o = opposition_sets(g)
    if s % 2 == 1:
        traces = S.all_distance3_traces(g)
        rep.check("traces-admit-opposite",
                  all(o.common_opposite_bits(t) != 0 for t in traces),
                  {"traces": len(traces)})
        rep.check("no-trace-blocking", counts.get("Distance3Trace", 0) == 0)
    # every (s)-set admits a common opposite (small-set guarantee)
    if s == 2:
        ok = all(o.common_opposite_bits(p) != 0 for p in combinations(range(g.n), 2))
        rep.check("s-sets-admit-opposite", ok)
    hyp = S.all_hyperbolic_lines(g)
    rep.check("hyperbolic-size", all(len(h) == q + 1 for h in hyp), {"count": len(hyp)})
    rep.check("hyperbolic-count-matches", counts.get("HyperbolicLine", 0) == len(hyp))


# -- geometric lines and round-up triples in hexagons ----------------------------


def _rut_lemma_witness(g: Geometry, t) -> Optional[str]:
    """Check the applicable round-up-triple containment; None when fine."""
    pairs = ((t[0], t[1]), (t[0], t[2]), (t[1], t[2]))
    li = next((lid for a, b in pairs if (lid := g.line_through(a, b)) is not None), None)
    if li is not None:
        if any(not (g.line_bits[li] >> p & 1) for p in t):
            return "collinear pair not inside a common line"
        return None
    notopp = opposition_sets(g).notopp
    tb = bitset(t)
    pair = next(((a, b) for a, b in pairs if (notopp[a] & ~g.adj[a]) >> b & 1), None)
    if pair is not None:
        c = S.special_center(g, *pair)
        qs, cap = S._special_trace_cap(g, c, *pair)
        if qs and tb & ~cap:
            y = next(y for y in bit_indices(qs) if tb & ~(g.adj[c] & notopp[y]))
            return f"not inside centre-perp cap special-trace of {y}"
        return None
    # pairwise opposite: containment in every trace meeting it twice, and
    # such a trace holds t[0] or t[1]
    through = S._traces_through(g)
    tick = S.Meter("trace scan", "traces").tick
    for tr in sorted(set(through[t[0]] + through[t[1]])):
        tick()
        trb = bitset(tr)
        if (trb & tb).bit_count() >= 2 and tb & ~trb:
            return f"meets trace {tr} twice without containment"
    return None


def _recipe_geomlines_hex(rep: RunReport, q: int = 2, budget: Optional[int] = None) -> None:
    g = model_geometry(f"hexagon-{q}")
    rep.params, rep.geometries = {"q": q}, {"hexagon": g.fingerprint()}
    ruts = S.enumerate_round_up_triples(g)
    rep.info("rut-count", len(ruts))
    bad = None
    for t in ruts:
        w = _rut_lemma_witness(g, t)
        if w is not None:
            bad = {"triple": t, "witness": w}
            break
    rep.check("rut-lemmas", bad is None, bad)
    gls = {gl for t in ruts if (gl := S.geometric_line_closure(g, t)) is not None}
    lines = set(map(tuple, g.lines))
    hyp = set(S.all_hyperbolic_lines(g))
    expect = lines | hyp | (set(S.all_distance3_traces(g)) if q % 2 == 0 else set())
    rep.info("geometric-lines", len(gls))
    rep.check("equals-recognizers", gls == expect,
              {"missing": len(expect - gls), "extra": len(gls - expect)})
    rep.check("lines-are-geometric",
              all(S.is_geometric_line(g, l) for l in g.lines))
    rep.check("geometric-lines-block",
              all(S.common_opposite(g, gl) is None for gl in gls))


# -- type B small-rank Grassmannian ---------------------------------------------


def _recipe_typeb(rep: RunReport, budget: Optional[int] = None) -> None:
    base = model_geometry("w52")
    g = model_geometry("gr-w52")
    rep.geometries = {"base": base.fingerprint(), "grassmannian": g.fingerprint()}
    gls = S.enumerate_geometric_lines(g)
    tags = S.tag_census(g, gls)
    counts = {k: len(v) for k, v in tags.items()}
    rep.info("geometric-line-census", counts)
    rep.check("only-pencil-types", set(counts) <= {"PlanarPencil", "HyperbolicPencil"},
              {"unexpected": sorted(set(counts) - {"PlanarPencil", "HyperbolicPencil"})})
    rep.check("all-pencils-found", counts.get("PlanarPencil", 0) == len(g.lines))
    hyp = set(S.all_hyperbolic_pencils(g))
    rep.check("hyperbolic-pencils-exact",
              set(map(tuple, tags.get("HyperbolicPencil", []))) == hyp,
              {"recognizer-count": len(hyp)})
    rep.check("lines-are-geometric",
              all(S.is_geometric_line(g, l) for l in g.lines))


# -- positions catalogue ----------------------------------------------------------


def grassmannian_model() -> HexagonicModel:
    g = model_geometry("gr-q72")
    return g.cached("hexagonic-model", lambda: HexagonicModel(g))


def grassmannian_census():
    """The Gr(Q+(7,2)) census, built once per process.  Every read is charged
    its line pairs, so a budget cuts it short even when one is cached."""
    g = model_geometry("gr-q72")
    S.Meter("position census", "pairs").tick(len(g.lines) ** 2)
    return g.cached("position-census", lambda: position_census(grassmannian_model()))


def _recipe_positions(rep: RunReport, budget: Optional[int] = None) -> None:
    model = grassmannian_model()
    g = model.geometry
    rep.geometries = {"grassmannian": g.fingerprint()}
    census = grassmannian_census()
    rep.info("realized-positions", {d: census.counts[d] for d in census.realized()})
    rep.check("census-partition", sum(census.counts.values()) + census.miss_count
              == census.total, {"total": census.total})
    rep.info("catalogue-miss-count", census.miss_count)
    rep.check("diagonal-is-equal-position",
              census.counts.get("0110", 0) == len(g.lines))
    # the census construction itself verifies the inverse law for every
    # signature key; re-assert on a seeded sample through the scalar path
    rng = random.Random(rep.seed)
    ok = True
    for _ in range(500):
        li, mi = rng.randrange(len(g.lines)), rng.randrange(len(g.lines))
        a, b = model.position_of(li, mi), model.position_of(mi, li)
        if model.catalogue.entry(a).inverse_tuple() != b:
            ok = False
            break
    rep.check("inverse-law", ok)
    realized = {parse_display(d) for d in census.realized()}
    rep.check("duality-closed",
              all(model.catalogue.entry(t).dual_tuple() in realized for t in realized))
    unrealized = {e.display for e in model.catalogue.entries} - set(census.realized())
    rep.info("unrealized-positions", sorted(unrealized))


# -- combing table and algorithms ---------------------------------------------------


def _recipe_table1(rep: RunReport, instances: int = 100, trials: int = 500,
                   budget: Optional[int] = None) -> None:
    model = grassmannian_model()
    g = model.geometry
    rep.params = {"instances": instances, "trials": trials}
    rep.geometries = {"grassmannian": g.fingerprint()}
    census = grassmannian_census()
    # criterion: every realized non-terminal position combs per the table
    fails = []
    comb_steps = {}
    for disp in census.realized():
        tup = parse_display(disp)
        if tup == TERMINAL:
            continue
        for li, mi in seeded_instances(census, disp, instances, rep.seed):
            try:
                if li != mi:
                    # free points come in (sorted) line order; comb_to_opposite
                    # searches the first, the least, itself
                    for x in model.free_points(li, mi)[1:]:
                        find_combing_line(model, li, mi, x)
                tr = comb_to_opposite(model, li, mi)
            except Exception as exc:  # noqa: BLE001 - collected as witnesses
                fails.append({"pair": (li, mi), "position": disp, "error": str(exc)})
                continue
            if len(tr.steps) > 3 or len(tr.steps) != model.level(li, mi):
                fails.append({"pair": (li, mi), "position": disp,
                              "steps": len(tr.steps)})
            comb_steps[disp] = len(tr.steps)
    rep.check("table1-transitions", not fails, fails[:5])
    rep.info("levels-by-position", comb_steps)

    # combing algorithm trials
    rng = random.Random(rep.seed)
    nl = len(g.lines)
    alg1_runs = alg1_skips = alg2_runs = alg2_skips = 0
    violations = []
    for _ in range(trials):
        li = rng.randrange(nl)
        targets = [rng.randrange(nl) for _ in range(rng.choice((3, 4, 5)))]
        try:
            run = combing_algorithm_1(model, li, targets)
        except AlgorithmViolation:
            alg1_skips += 1
            continue
        alg1_runs += 1
        before, after = run.levels_before, run.levels_after
        if sum(1 for b in before if b >= 2) >= 2 and max(after) >= max(before):
            violations.append({"targets": targets, "before": before, "after": after})
        for b, a in zip(before, after):
            if b == 0 and a != 0:
                violations.append({"opposite-target-moved": (li, targets, b, a)})
            if b >= 1 and a != b - 1:
                violations.append({"level-not-decremented": (li, targets, b, a)})
        zeros = [i for i, b in enumerate(before) if b == 0]
        if zeros:
            try:
                run2 = combing_algorithm_2(model, li, targets, zeros[0])
            except AlgorithmViolation:
                alg2_skips += 1
                continue
            alg2_runs += 1
            for b, a in zip(run2.levels_before, run2.levels_after):
                if b == 0 and a > 1:
                    violations.append({"combingprep4": (li, targets, b, a)})
    rep.info("alg-counts", {"alg1_runs": alg1_runs, "alg1_precondition_skips": alg1_skips,
                            "alg2_runs": alg2_runs, "alg2_precondition_skips": alg2_skips})
    rep.check("alg-zero-violations", not violations, violations[:5])
    if trials:
        rep.check("alg-coverage", alg1_runs >= max(20, trials // 20) and alg2_runs >= 10)


# -- corolTits residue round-up triples ----------------------------------------------


def _recipe_coroltits(rep: RunReport, points: int = 50) -> None:
    base = model_geometry("w52")
    g = model_geometry("gr-w52")
    rep.params = {"points": points}
    rep.geometries = {"base": base.fingerprint(), "grassmannian": g.fingerprint()}
    rng = random.Random(rep.seed)
    sample = rng.sample(range(base.n), min(points, base.n))
    rep.info("sampled-points", sample)
    mismatches = []
    for p in sample:
        res = residual(base, p)
        res_gq = Geometry(res.n, res.lines, Kind("polar", 2), name=res.name)
        rmap = S.residual_point_map(base, res)
        for trip in combinations(base.lines_through[p], 3):
            amb = S.is_round_up_triple(g, *trip)
            loc = S.is_round_up_triple(res_gq, *(rmap[li] for li in trip))
            if amb != loc:
                mismatches.append({"point": p, "triple": trip,
                                   "ambient": amb, "residual": loc})
    rep.check("residue-rut-equivalence", not mismatches, mismatches[:5])


# -- Feit-Higman ---------------------------------------------------------------------


def _recipe_nonex(rep: RunReport, tmax: int = 100) -> None:
    rep.params = {"tmax": tmax}
    res = verify_nonex(tmax)
    rep.check("all-orders-excluded", res.all_excluded,
              {"feasible": res.failures})
    rep.info("excluded-count", len(res.excluded))
    rep.info("exclusions-by-condition", dict(Counter(cond for _, _, cond in res.excluded)))
    if tmax >= 15:
        t15 = next((c for t, s, c in res.excluded if t == 15), None)
        rep.check("t15-minus-integrality", t15 == "minus-integrality", t15)
        plus, minus = multiplicity_integrality(HexOrder(240, 15))
        rep.check("order-240-15", plus and not minus, {"plus": plus, "minus": minus})
    rep.check("existing-orders-feasible",
              all(feasible_hexagon_order(HexOrder(*o))
                  for o in ((2, 2), (3, 3), (8, 2), (2, 8))))


# -- ovoidal blocking kernel ----------------------------------------------------------


def _recipe_obsgq(rep: RunReport, budget: Optional[int] = None) -> None:
    g = model_geometry("h34")
    sub = g.meta["subgq"]
    rep.geometries = {"hermitian": g.fingerprint(), "subgq": sub.fingerprint()}
    ovoids = S.enumerate_ovoids(sub)
    rep.check("subgq-ovoid-count", len(ovoids) == 6, len(ovoids))
    parent = sub.meta["parent_points"]
    ok_dom = ok_min = True
    for ov in ovoids:
        lifted = [parent[p] for p in ov]
        if not S.gq_dominating_check(g, lifted):
            ok_dom = False
        for sub4 in combinations(lifted, 4):
            if S.gq_dominating_check(g, sub4):
                ok_min = False
    rep.check("ovoids-dominate", ok_dom)
    rep.check("proper-subsets-fail", ok_min)
    rep.check("ovoid-size-is-s-plus-one",
              all(len(ov) == g.order[0] + 1 for ov in ovoids))
    tags = list(S.tag_census(g, (tuple(sorted(parent[p] for p in ov)) for ov in ovoids)))
    rep.check("classified-as-subgq-ovoid", tags == ["OvoidOfSubGQ"], tags)
