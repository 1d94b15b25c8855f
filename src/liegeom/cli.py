"""Command-line front end.

Subcommands: build, relations, positions, search, check, fh, verify.
Every command reads/writes the JSON geometry interchange format and
emits JSON reports; --seed fixes all sampled choices.  --threads changes
nothing: the position census uses the CPUs the process may run on, and
every result is identical for any CPU count.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Optional

from . import search as S
from .constructors import (
    PolarFormSpec,
    hermitian_quadrangle,
    hermitian_subquadrangle,
    pg,
    polar_space,
    split_cayley_hexagon,
    twisted_triality_hexagon,
)
from .geometry import Geometry, line_grassmannian, validate
from .orders import HexOrder, multiplicity_integrality, st_square_check, verify_nonex
from .positions import CatalogueMiss, HexagonicModel, comb_to_opposite, position_census, to_display
from .recipes import RECIPE_NAMES, run_recipe
from .relations import NEAR_OPPOSITE, relation_matrix, opposition_sets


def _emit(doc, out: Optional[str]):
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_geometry(path: str) -> Geometry:
    with open(path) as fh:
        return Geometry.from_json(fh.read(), warn=lambda m: print(f"warning: {m}", file=sys.stderr))


def _cmd_build(args) -> int:
    if args.what == "pg":
        g = pg(args.n, args.q)
    elif args.what == "polar":
        g = polar_space(PolarFormSpec(args.family, args.dim, args.q))
    elif args.what == "hexagon":
        if args.variant == "twisted":
            g = twisted_triality_hexagon(args.q)
        else:
            g = split_cayley_hexagon(args.q)
    elif args.what == "hermitian-gq":
        g = hermitian_quadrangle(args.q)
        if args.subgq:
            g = hermitian_subquadrangle(g)
    else:
        raise SystemExit(f"unknown build target {args.what}")
    if args.grassmannian:
        g = line_grassmannian(g, name=f"Gr({g.name})")
    rep = validate(g)
    if not rep.partial_linear:
        raise SystemExit("construction failed partial-linearity validation")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(g.to_json() + "\n")
        print(f"wrote {g.name or 'geometry'}: {g.n} points, {len(g.lines)} lines -> {args.out}")
    else:
        print(g.to_json())
    return 0


def _cmd_relations(args) -> int:
    g = _load_geometry(args.geometry)
    m = relation_matrix(g)
    o = opposition_sets(g)
    size_hist: dict[int, int] = {}
    for s in o.sizes():
        size_hist[s] = size_hist.get(s, 0) + 1
    doc = {
        "schema": 1,
        "geometry": g.fingerprint(),
        "census": m.census(),
        "opposite-set-sizes": size_hist,
    }
    if args.census:
        near = []
        import numpy as np
        mat = m.np()
        xs, ys = np.nonzero(mat == NEAR_OPPOSITE)
        for x, y in list(zip(xs.tolist(), ys.tolist()))[:100]:
            near.append([x, y])
        doc["near-opposite-pairs"] = near
    _emit(doc, args.out)
    return 0


def _cmd_positions(args) -> int:
    g = _load_geometry(args.geometry)
    model = HexagonicModel(g)
    if args.pair:
        li, mi = args.pair
        pos = model.position_of(li, mi)
        doc = {"pair": [li, mi],
               "position": pos.display if isinstance(pos, CatalogueMiss) else to_display(pos)}
        if not isinstance(pos, CatalogueMiss):
            doc["level"] = model.level(li, mi)
            doc["free-points"] = list(model.free_points(li, mi))
        _emit(doc, args.out)
        return 0
    if args.comb:
        li, mi = args.comb
        tr = comb_to_opposite(model, li, mi)
        doc = {"start": li, "target": mi, "final": tr.final,
               "steps": [{"line": s.line, "position": to_display(s.position),
                          "x": s.x, "k": s.k, "replacement": s.replacement}
                         for s in tr.steps]}
        _emit(doc, args.out)
        return 0
    try:
        census = position_census(model, budget=args.budget)
    except S.BudgetExceeded as exc:
        return _emit_partial(g, exc, args.out)
    doc = {
        "schema": 1,
        "geometry": g.fingerprint(),
        "census": census.counts,
        "total-ordered-pairs": census.total,
        "catalogue-misses": census.miss_count,
        "miss-examples": [m.display for m in census.misses],
    }
    _emit(doc, args.out)
    return 0


def _parse_points(text: str) -> list[int]:
    return [int(tok) for tok in text.replace(",", " ").split()]


def _cmd_search(args) -> int:
    g = _load_geometry(args.geometry)
    budget = args.budget
    try:
        return _run_search(args, g, budget)
    except S.BudgetExceeded as exc:
        return _emit_partial(g, exc, args.out)


def _emit_partial(g: Geometry, exc: S.BudgetExceeded, out) -> int:
    """Report a run cut short by its budget; the exit status is 1."""
    _emit({"schema": 1, "geometry": g.fingerprint(), "status": "PARTIAL",
           "error": str(exc)}, out)
    return 1


def _run_search(args, g, budget) -> int:
    if args.mode == "blocking":
        found = S.enumerate_blocking_sets(g, args.k, minimal_only=args.minimal_only,
                                          budget=budget)
        doc = {"schema": 1, "geometry": g.fingerprint(), "k": args.k,
               "count": len(found)}
        if args.classify:
            census: dict[str, int] = {}
            tagged = []
            for b in found:
                tag = S.classify_blocking_set(g, b)
                census[tag] = census.get(tag, 0) + 1
                tagged.append({"points": list(b), "tag": tag})
            doc["census"] = census
            doc["sets"] = tagged if len(tagged) <= args.limit else tagged[:args.limit]
        else:
            doc["sets"] = [list(b) for b in found[:args.limit]]
    elif args.mode == "rut":
        ruts = S.enumerate_round_up_triples(g, base_point=args.base_point, budget=budget)
        doc = {"schema": 1, "geometry": g.fingerprint(), "count": len(ruts),
               "partial": args.base_point is not None,
               "triples": [list(t) for t in ruts[:args.limit]]}
    elif args.mode == "geometric-lines":
        gls = S.enumerate_geometric_lines(g, base_point=args.base_point, budget=budget)
        census: dict[str, int] = {}
        for gl in gls:
            tag = S.classify_blocking_set(g, gl)
            census[tag] = census.get(tag, 0) + 1
        doc = {"schema": 1, "geometry": g.fingerprint(), "count": len(gls),
               "census": census, "sets": [list(x) for x in gls[:args.limit]]}
    else:
        raise SystemExit(f"unknown search mode {args.mode}")
    _emit(doc, args.out)
    return 0


def _cmd_check(args) -> int:
    g = _load_geometry(args.geometry)
    pts = _parse_points(args.points)
    if args.what == "dominating":
        ok = S.gq_dominating_check(g, pts)
    elif args.what == "ovoid":
        ok = S.is_ovoid(g, pts)
    else:
        raise SystemExit(f"unknown check {args.what}")
    _emit({"schema": 1, "check": args.what, "points": pts, "result": ok}, args.out)
    return 0 if ok else 1


def _cmd_fh(args) -> int:
    if args.verify_nonex:
        res = verify_nonex(args.tmax)
        doc = {"schema": 1, "tmax": args.tmax,
               "all-excluded": res.all_excluded,
               "excluded": len(res.excluded),
               "feasible-counterexamples": res.failures}
        _emit(doc, args.out)
        return 0 if res.all_excluded else 1
    o = HexOrder(args.s, args.t)
    sq = st_square_check(o)
    plus = minus = None
    if sq:
        plus, minus = multiplicity_integrality(o)
    doc = {"schema": 1, "s": args.s, "t": args.t, "st_square": sq,
           "plus_integral": plus, "minus_integral": minus,
           "feasible": bool(sq and plus and minus)}
    _emit(doc, args.out)
    return 0


def _cmd_verify(args) -> int:
    params = {}
    if args.q is not None:
        params["q"] = args.q
    if args.tmax is not None:
        params["tmax"] = args.tmax
    if args.points is not None:
        params["points"] = args.points
    if args.instances is not None:
        params["instances"] = args.instances
    if args.trials is not None:
        params["trials"] = args.trials
    rep = run_recipe(args.recipe, seed=args.seed, budget=args.budget, **params)
    _emit(rep.document(), args.out)
    return 0 if rep.passed else 1


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--out", help="write the JSON result to this file")
    common.add_argument("--seed", type=int, default=0)
    common.add_argument("--threads", type=int, default=1,
                        help="ignored: the position census uses the CPUs the process "
                             "may run on, and results are identical for any CPU count")
    common.add_argument("--budget", type=int, default=None,
                        help="node budget for exhaustive searches; line pairs "
                             "for the position census")
    ap = argparse.ArgumentParser(prog="liegeom",
                                 description="small Lie incidence geometries: "
                                             "construction, censuses, exhaustive search")
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, **kw):
        return sub.add_parser(name, parents=[common], **kw)

    b = add("build", help="construct a geometry and write its JSON")
    b.add_argument("what", choices=("pg", "polar", "hexagon", "hermitian-gq"))
    b.add_argument("--n", type=int, default=3)
    b.add_argument("--dim", type=int, default=3)
    b.add_argument("--q", type=int, default=2)
    b.add_argument("--family", choices=("sp", "parabolic", "hyperbolic", "elliptic",
                                        "hermitian"), default="sp")
    b.add_argument("--variant", choices=("split", "twisted"), default="split")
    b.add_argument("--subgq", action="store_true")
    b.add_argument("--grassmannian", action="store_true")
    b.set_defaults(fn=_cmd_build)

    r = add("relations", help="pair-relation census of a geometry")
    r.add_argument("--geometry", required=True)
    r.add_argument("--census", action="store_true")
    r.set_defaults(fn=_cmd_relations)

    p = add("positions", help="line-pair position census and combing")
    p.add_argument("--geometry", required=True)
    p.add_argument("--census", action="store_true")
    p.add_argument("--pair", type=int, nargs=2, metavar=("L", "M"))
    p.add_argument("--comb", type=int, nargs=2, metavar=("L", "M"))
    p.set_defaults(fn=_cmd_positions)

    s = add("search", help="blocking sets, round-up triples, geometric lines")
    s.add_argument("mode", choices=("blocking", "rut", "geometric-lines"))
    s.add_argument("--geometry", required=True)
    s.add_argument("--k", type=int, default=3)
    s.add_argument("--classify", action="store_true")
    s.add_argument("--minimal-only", action="store_true")
    s.add_argument("--base-point", type=int, default=None)
    s.add_argument("--limit", type=int, default=200, help="cap on listed results")
    s.set_defaults(fn=_cmd_search)

    c = add("check", help="point-set predicates")
    c.add_argument("what", choices=("dominating", "ovoid"))
    c.add_argument("--geometry", required=True)
    c.add_argument("--points", required=True, help="comma separated point IDs")
    c.set_defaults(fn=_cmd_check)

    f = add("fh", help="hexagon order feasibility")
    f.add_argument("--s", type=int)
    f.add_argument("--t", type=int)
    f.add_argument("--verify-nonex", action="store_true")
    f.add_argument("--tmax", type=int, default=100)
    f.set_defaults(fn=_cmd_fh)

    v = add("verify", help="run a named verification recipe")
    v.add_argument("recipe", choices=RECIPE_NAMES)
    v.add_argument("--q", type=int)
    v.add_argument("--tmax", type=int)
    v.add_argument("--points", type=int)
    v.add_argument("--instances", type=int)
    v.add_argument("--trials", type=int)
    v.set_defaults(fn=_cmd_verify)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
