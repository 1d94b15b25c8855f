"""Workload definitions: models built in set-up, timed operations, output checks.

An operation is one recipe run or one pair classification.  Its ``run``
is timed; its ``check`` runs afterwards, untimed, and returns the
problems it found (an empty list when the outputs are right).  The
expected values are the paper's numbers, the golden position census
under ``tests/golden``, and payload digests recorded at seed 0.

The full bshex and geomlines-hex recipes on H(3) take 80-100 s and do
not fit in one benchmark run, so hexagon-search runs both recipes on
H(2) and, on H(3), the parts of them that fit: the exhaustive search for
blocking s-sets (there are none), the hyperbolic lines and distance-3
traces, the classification of every line and hyperbolic line, the
soundness sample, and the round-up triples and geometric lines through
seeded points.  polar-grassmannians classifies the pairs of seeded rows
of Gr(Q(6,3)) on the lazy row path instead of all 3640 rows.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Optional

from liegeom import recipes
from liegeom import search as S
from liegeom.geometry import Geometry
from liegeom.relations import OPPOSITE, RelationMatrix, opposition_sets, relation_matrix

ROOT = Path(__file__).resolve().parent.parent

#: sha256 of each recipe payload at seed 0, recorded at commit 9a9abad
SEED0_DIGESTS = {
    "bshex-h2": "5b2cf561b957c5b63ad2a178a5eb3433af4ca12a753c5bef64e7040a47e110f5",
    "geomlines-h2": "5452891dec44e1b18ae9e07f75305d30dc39022a0ef8b223b59b72d3f59d98b2",
    "typeb-grassmannian": "5f1b00391f884c7686d09a6d79856cb32d9b2358a4e6b2b373259c8c60482e5e",
    "coroltits": "8d615cd17bec201dacbe974098ff2c2e8a910d96630fee40fc151864690404bc",
    "obs-gq": "382fee0ee11bdb4e56644e940733528772e9ea5b3da0c0710605d73586f872fe",
    "nonex": "6b95da19043f2b33f3f30b6bd50f113d595cf1f0026e2ea993d4e0eac8e51779",
    "positions-catalogue": "bcc5b78d99e77952b0d70039e55b644ebf596612353961d07c6f80118894a19d",
    "table1": "a5224da678bd50f4aa291eb845f71152b1eda073b3b93605e2e6605c6a9d7631",
}

#: points of H(3) whose geometric lines are enumerated, per iteration
H3_BASE_POINTS = 20
#: rows of Gr(Q(6,3)) classified on the lazy path, per iteration
GRQ63_ROWS = 300
#: table1 size: instances per position and combing-algorithm trials
TABLE1 = {"instances": 10, "trials": 500}
TABLE1_LEVELS = {"0110": 3, "0111": 3, "0112": 2, "0113/2": 3, "1113/2": 3, "113/22": 2,
                 "1223": 1, "123/22": 2, "13/212": 2, "13/222": 2, "13/23/21": 3,
                 "13/23/22": 2, "2223": 1, "3/2222": 2, "3/2223": 1, "3/2223/2": 2}
GRQ63_FILE = "grq63.json"
GRQ63_DENSE = "grq63-dense.npy"


@dataclass
class Context:
    seed: int
    workdir: Optional[Path] = None


@dataclass
class Op:
    name: str
    phase: Optional[str]        # end-to-end phase timing it adds to
    run: Callable[[Context], object]
    check: Callable[[Context, object], list]


@dataclass
class Workload:
    name: str
    models: tuple[str, ...]     # recipes.model_geometry aliases built in set-up
    ops: tuple[Op, ...]


def payload_digest(rep) -> str:
    text = json.dumps(rep.payload(), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def recipe_op(name: str, phase: Optional[str], recipe: str, expect: dict, **params) -> Op:
    """Run one recipe; check PASS, the seed-independent witnesses and the digest."""

    def run(ctx: Context):
        return recipes.run_recipe(recipe, seed=ctx.seed, **params)

    def check(ctx: Context, rep) -> list:
        problems = []
        if rep.status != "PASS":
            failed = [a["name"] for a in rep.assertions if not a["passed"]]
            problems.append(f"status {rep.status}, failed assertions {failed}")
        witnesses = {a["name"]: a["witness"] for a in rep.assertions}
        for key, want in expect.items():
            want = want() if callable(want) else want
            if witnesses.get(key) != want:
                problems.append(f"witness {key} = {witnesses.get(key)!r}, expected {want!r}")
        if ctx.seed == 0 and payload_digest(rep) != SEED0_DIGESTS[name]:
            problems.append("payload digest differs from the one recorded at seed 0")
        return problems

    return Op(name, phase, run, check)


def _expect(got: dict, want: dict) -> list:
    return [f"{k} = {got.get(k)!r}, expected {v!r}" for k, v in want.items() if got.get(k) != v]


# -- hexagon-search: H(3) parts of bshex and geomlines-hex ----------------------


def _h3_blocking(ctx: Context) -> dict:
    g = recipes.model_geometry("hexagon-3")
    s = g.order[0]
    small = S.enumerate_blocking_sets(g, s, minimal_only=True)
    hyp = S.all_hyperbolic_lines(g)
    traces = S.all_distance3_traces(g)
    o = opposition_sets(g)
    tags: dict[str, int] = {}
    for b in list(g.lines) + hyp:
        tag = S.classify_blocking_set(g, b)
        tags[tag] = tags.get(tag, 0) + 1
    return {
        "blocking s-sets": len(small),
        "hyperbolic lines": len(hyp),
        "hyperbolic line sizes": sorted({len(h) for h in hyp}),
        "traces": len(traces),
        "traces without common opposite": sum(1 for t in traces
                                              if o.common_opposite_bits(t) == 0),
        "tags": tags,
        "soundness sample": S.blocking_soundness_sample(g, s + 1, set(g.lines) | set(hyp),
                                                        seed=ctx.seed),
    }


def _check_h3_blocking(ctx: Context, out: dict) -> list:
    return _expect(out, {
        "blocking s-sets": 0, "hyperbolic lines": 3276, "hyperbolic line sizes": [4],
        "traces": 7371, "traces without common opposite": 0,
        "tags": {"Line": 364, "HyperbolicLine": 3276}, "soundness sample": True})


def _h3_geomlines(ctx: Context) -> dict:
    g = recipes.model_geometry("hexagon-3")
    traces = S.all_distance3_traces(g)
    found = {}
    for p in random.Random(ctx.seed).sample(range(g.n), H3_BASE_POINTS):
        ruts = S.enumerate_round_up_triples(g, base_point=p)
        gls = S.enumerate_geometric_lines(g, base_point=p)
        tags: dict[str, int] = {}
        for gl in gls:
            tag = S.classify_blocking_set(g, gl)
            tags[tag] = tags.get(tag, 0) + 1
        found[p] = {"round-up triples": len(ruts), "geometric lines": len(set(gls)),
                    "through the point": all(p in gl for gl in gls), "tags": tags}
    return {"traces": len(traces), "found": found}


def _check_h3_geomlines(ctx: Context, out: dict) -> list:
    # q odd: the geometric lines through a point are its 4 lines and the
    # 36 hyperbolic lines through it (108 special points, 3 per line)
    want = {"round-up triples": 120, "geometric lines": 40, "through the point": True,
            "tags": {"Line": 4, "HyperbolicLine": 36}}
    problems = _expect(out, {"traces": 7371})
    for p, got in out["found"].items():
        problems += [f"point {p}: {msg}" for msg in _expect(got, want)]
    return problems


# -- polar-grassmannians: lazy-path pair classification of Gr(Q(6,3)) ------------


def prepare_grq63(workdir: Path) -> None:
    """Dense-path relation matrix of the generated Gr(Q(6,3)), the reference."""
    import numpy as np
    g = Geometry.from_json((workdir / GRQ63_FILE).read_text())
    np.save(workdir / GRQ63_DENSE, RelationMatrix(g, eager_threshold=g.n).np())


def _grq63_pairs(ctx: Context) -> dict:
    g = Geometry.from_json((ctx.workdir / GRQ63_FILE).read_text())
    m = relation_matrix(g)
    rows = sorted(random.Random(ctx.seed).sample(range(g.n), GRQ63_ROWS))
    return {"n": g.n, "lines": len(g.lines), "rows": {x: m.row(x) for x in rows}}


def _check_grq63_pairs(ctx: Context, out: dict) -> list:
    import numpy as np
    problems = _expect(out, {"n": 3640, "lines": 14560})
    dense = np.load(ctx.workdir / GRQ63_DENSE, mmap_mode="r")
    opposite = bytes([OPPOSITE])
    for x, row in out["rows"].items():
        if row != dense[x].tobytes():
            problems.append(f"row {x} differs from the dense-path row")
        if row.count(opposite) != 2187:
            problems.append(f"point {x} has {row.count(opposite)} opposites, expected 2187")
    return problems


def _golden_positions() -> dict:
    return json.loads((ROOT / "tests" / "golden" / "grq72_positions.json").read_text())


WORKLOADS = {w.name: w for w in (
    # search does nearly all the work; positions does none
    Workload(
        "hexagon-search",
        ("hexagon-2", "hexagon-3"),
        (
            recipe_op("bshex-h2", "bshex_s", "bshex",
                      {"blocking-census": {"Distance3Trace": 336, "HyperbolicLine": 252,
                                           "Line": 63}}, q=2),
            Op("bshex-h3", "bshex_s", _h3_blocking, _check_h3_blocking),
            recipe_op("geomlines-h2", "geomlines_s", "geomlines-hex",
                      {"geometric-lines": 651, "rut-count": 651}, q=2),
            Op("geomlines-h3", "geomlines_s", _h3_geomlines, _check_h3_geomlines),
        ),
    ),
    # positions does nearly all the work, in two uses of the signatures: the
    # bulk census of 14175^2 line pairs, then scalar position_of calls while
    # combing (table1 reuses the census, so census_s carries the relation
    # matrix and the census); search does none
    Workload(
        "line-positions",
        ("gr-q72",),
        (
            recipe_op("positions-catalogue", "census_s", "positions-catalogue",
                      {"realized-positions": _golden_positions, "catalogue-miss-count": 0}),
            recipe_op("table1", "table1_s", "table1",
                      {"levels-by-position": TABLE1_LEVELS}, **TABLE1),
        ),
    ),
    # the only workload on the lazy RelationMatrix rows (n > 2000) and on a
    # geometry imported from JSON, whose base is rebuilt from its name; also
    # the remaining recipes; positions does none
    Workload(
        "polar-grassmannians",
        ("w52", "gr-w52", "h34"),
        (
            Op("grq63-pairs", "paircensus_s", _grq63_pairs, _check_grq63_pairs),
            recipe_op("typeb-grassmannian", None, "typeb-grassmannian",
                      {"geometric-line-census": {"HyperbolicPencil": 1260,
                                                 "PlanarPencil": 945}}),
            recipe_op("coroltits", None, "coroltits", {}, points=63),
            recipe_op("obs-gq", None, "obs-gq", {"subgq-ovoid-count": 6}),
            recipe_op("nonex", None, "nonex", {"excluded-count": 9999}, tmax=10000),
        ),
    ),
)}


def assert_cold() -> None:
    """Refuse to time a process whose recipe caches are already filled."""
    for name in ("_GEOMETRIES", "_MODEL_CACHE", "_CENSUS_CACHE"):
        if getattr(recipes, name, None):
            raise RuntimeError(f"recipes.{name} is not empty at the start of a run")


def setup(workload: Workload) -> None:
    for alias in workload.models:
        recipes.model_geometry(alias)
