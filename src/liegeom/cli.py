"""Command-line front end.

Subcommands: build, relations, positions, search, check, fh, verify.
Every command reads/writes the JSON geometry interchange format and
emits JSON reports.  Each command, build target, search mode and verify
recipe has its own parser carrying only the options its handler reads,
so an option given where it would be ignored, a point or line ID
outside the geometry, or a loaded geometry the command cannot run on,
is a usage error (exit 2).  The options of ``verify <recipe>`` are the
recipe function's keyword parameters, budget among them where it takes
one, typed from their defaults; a --q, there or on ``build``, must be
the order of a field gf.field builds, and build options that name no
constructible geometry are a usage error; --seed fixes all sampled
choices.  verify's --threads is the one exception: it changes nothing,
because every recipe, the position census included, runs on the calling
thread, and no result depends on --threads.
"""

from __future__ import annotations

import argparse
import inspect
import json
import sys
from collections import Counter
from typing import Optional

from . import recipes
from . import search as S
from .constructors import (
    POLAR_NAMES,
    ConstructionError,
    PolarFormSpec,
    hermitian_quadrangle,
    hermitian_subquadrangle,
    pg,
    polar_space,
    split_cayley_hexagon,
)
from .geometry import Geometry, GeometryError, line_grassmannian, validate
from .gf import FieldError, field
from .orders import HexOrder, multiplicity_integrality, st_square_check
from .positions import (
    CatalogueMiss,
    HexagonicModel,
    PositionError,
    comb_to_opposite,
    position_census,
    to_display,
)
from .relations import (
    NEAR_OPPOSITE,
    RelationError,
    geometry_family,
    opposition_sets,
    relation_matrix,
)


def _emit(doc, out: Optional[str]):
    text = json.dumps(doc, indent=2, sort_keys=True, default=str)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _load_geometry(args) -> Geometry:
    """The geometry in the --geometry file; a file that is not one, or not
    one of the kind it claims, is a usage error (exit 2)."""
    try:
        with open(args.geometry) as fh:
            return Geometry.from_json(fh.read(),
                                      warn=lambda m: print(f"warning: {m}", file=sys.stderr))
    except (OSError, GeometryError) as exc:
        args.error(f"{args.geometry}: {exc}")


def _in_range(args, option: str, values, stop: float, start: int = 0) -> None:
    """A value of option outside [start, stop) is a usage error (exit 2);
    None stands for an option not given."""
    for v in values:
        if v is not None and not start <= v < stop:
            args.error(f"argument {option}: {v} is not in [{start}, {stop})")


def _cmd_build(args) -> int:
    try:
        g = args.make(args)
    except (ConstructionError, FieldError) as exc:
        args.error(str(exc))
    if getattr(args, "grassmannian", False):
        g = line_grassmannian(g)
    if not g.n:
        args.error(f"{g.name or 'the geometry'} has no points")
    if not validate(g).partial_linear:
        raise SystemExit("construction failed partial-linearity validation")
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(g.to_json() + "\n")
        print(f"wrote {g.name or 'geometry'}: {g.n} points, {len(g.lines)} lines -> {args.out}")
    else:
        print(g.to_json())
    return 0


def _on_geometry(args) -> int:
    """Load --geometry, emit the report args.run makes of it, or of the
    model args.load makes of it, under the --budget given; a geometry with
    no points or one the command does not support is a usage error, and a
    run cut short by its budget reports PARTIAL and exits 1."""
    g = _load_geometry(args)
    if not g.n:
        args.error(f"{args.geometry}: the geometry has no points")
    try:
        geometry_family(g)
        subject = args.load(g) if "load" in args else g
    except (RelationError, PositionError) as exc:
        args.error(f"{args.geometry}: {exc}")
    try:
        with S.budget(vars(args).get("budget")):
            doc, code = args.run(args, subject), 0
    except S.BudgetExceeded as exc:
        doc, code = {"schema": 1, "geometry": g.fingerprint(), "status": "PARTIAL",
                     "error": str(exc)}, 1
    _emit(doc, args.out)
    return code


def _relations(args, g) -> dict:
    m = relation_matrix(g)
    o = opposition_sets(g)
    doc = {
        "schema": 1,
        "geometry": g.fingerprint(),
        "census": m.census(),
        "opposite-set-sizes": Counter(o.sizes()),
    }
    if args.census:
        near = []
        import numpy as np
        mat = m.np()
        xs, ys = np.nonzero(mat == NEAR_OPPOSITE)
        for x, y in list(zip(xs.tolist(), ys.tolist()))[:100]:
            near.append([x, y])
        doc["near-opposite-pairs"] = near
    return doc


def _positions(args, model: HexagonicModel) -> dict:
    g = model.geometry
    if args.budget is not None and not args.census:
        args.error("--budget applies to --census only")
    _in_range(args, "--pair" if args.pair else "--comb", args.pair or args.comb or (),
              len(g.lines))
    if args.pair:
        li, mi = args.pair
        pos = model.position_of(li, mi)
        doc = {"pair": [li, mi],
               "position": pos.display if isinstance(pos, CatalogueMiss) else to_display(pos)}
        if not isinstance(pos, CatalogueMiss):
            doc["level"] = model.level(li, mi)
            doc["free-points"] = list(model.free_points(li, mi))
        return doc
    if args.comb:
        li, mi = args.comb
        tr = comb_to_opposite(model, li, mi)
        return {"start": li, "target": mi, "final": tr.final,
                "steps": [{"line": s.line, "position": to_display(s.position),
                           "x": s.x, "k": s.k, "replacement": s.replacement}
                          for s in tr.steps]}
    census = position_census(model)
    return {
        "schema": 1,
        "geometry": g.fingerprint(),
        "census": census.counts,
        "total-ordered-pairs": census.total,
        "catalogue-misses": census.miss_count,
        "miss-examples": [m.display for m in census.misses],
    }


def _search_blocking(args, g) -> dict:
    _in_range(args, "--k", [args.k], float("inf"), start=1)
    found = S.enumerate_blocking_sets(g, args.k, minimal_only=args.minimal_only)
    doc = {"schema": 1, "geometry": g.fingerprint(), "k": args.k, "count": len(found)}
    if args.classify:
        tags = S.tag_census(g, found)
        tag_of = {b: tag for tag, sets in tags.items() for b in sets}
        doc["census"] = {tag: len(sets) for tag, sets in tags.items()}
        doc["sets"] = [{"points": list(b), "tag": tag_of[b]} for b in found[:args.limit]]
    else:
        doc["sets"] = [list(b) for b in found[:args.limit]]
    return doc


def _search_rut(args, g) -> dict:
    _in_range(args, "--base-point", [args.base_point], g.n)
    ruts = S.enumerate_round_up_triples(g, base_point=args.base_point)
    return {"schema": 1, "geometry": g.fingerprint(), "count": len(ruts),
            "partial": args.base_point is not None,
            "triples": [list(t) for t in ruts[:args.limit]]}


def _search_geometric_lines(args, g) -> dict:
    _in_range(args, "--base-point", [args.base_point], g.n)
    gls = S.enumerate_geometric_lines(g, base_point=args.base_point)
    census = {tag: len(sets) for tag, sets in S.tag_census(g, gls).items()}
    return {"schema": 1, "geometry": g.fingerprint(), "count": len(gls),
            "census": census, "sets": [list(x) for x in gls[:args.limit]]}


def _cmd_check(args) -> int:
    g = _load_geometry(args)
    _in_range(args, "--points", args.points, g.n)
    ok = args.test(g, args.points)
    _emit({"schema": 1, "check": args.what, "points": args.points, "result": ok}, args.out)
    return 0 if ok else 1


def _cmd_fh(args) -> int:
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
    params = {name: getattr(args, name) for name in args.params}
    rep = recipes.run_recipe(args.recipe, seed=args.seed, **params)
    _emit(rep.document(), args.out)
    return 0 if rep.passed else 1


#: options shared between commands, each given only to the parsers that read it
_SHARED = {
    "geometry": dict(required=True, help="geometry JSON file"),
    "budget": dict(type=int, default=None, help="node budget for exhaustive searches; "
                                                "line pairs for the position census"),
    "seed": dict(type=int, default=0),
    "threads": dict(type=int, default=1,
                    help="ignored: every recipe, the position census included, runs "
                         "on the calling thread, and no result depends on it"),
}


def _leaf(sub, name: str, *shared: str, help=None, **defaults) -> argparse.ArgumentParser:
    """A parser that runs a handler: --out, the named shared options, the
    handler's defaults, and args.error for usage errors argparse cannot
    express."""
    p = sub.add_parser(name, help=help)
    p.add_argument("--out", help="write the JSON result to this file")
    for opt in shared:
        p.add_argument(f"--{opt}", **_SHARED[opt])
    p.set_defaults(error=p.error, **defaults)
    return p


def _count(text: str) -> int:
    if int(text) < 0:
        raise argparse.ArgumentTypeError(f"{text} is negative")
    return int(text)


def _field_order(text: str) -> int:
    try:
        field(int(text))
    except FieldError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    return int(text)


def _point_ids(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.replace(",", " ").split()]
    except ValueError:
        raise argparse.ArgumentTypeError(f"{text!r} is not a list of point IDs") from None


def _recipe_parser(sub, name: str) -> None:
    """verify <name>: one option per keyword parameter of the recipe; an int
    or None (budget) default takes a count, and q a field order."""
    params = [p for p in inspect.signature(getattr(recipes, recipes._RECIPES[name]))
              .parameters.values() if p.default is not inspect.Parameter.empty]
    v = _leaf(sub, name, "seed", "threads", fn=_cmd_verify,
              params=tuple(p.name for p in params))
    for p in params:
        kind = (_field_order if p.name == "q" else _count
                if p.default is None or type(p.default) is int else type(p.default))
        v.add_argument("--" + p.name.replace("_", "-"), type=kind, default=p.default)


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(prog="liegeom",
                                 description="small Lie incidence geometries: "
                                             "construction, censuses, exhaustive search")
    sub = ap.add_subparsers(dest="command", required=True)

    def group(name, dest, help):
        return sub.add_parser(name, help=help).add_subparsers(dest=dest, required=True)

    targets = group("build", "what", "construct a geometry and write its JSON")
    b = _leaf(targets, "pg", fn=_cmd_build, make=lambda a: pg(a.n, a.q))
    b.add_argument("--n", type=_count, default=3)
    b.add_argument("--grassmannian", action="store_true")
    b = _leaf(targets, "polar", fn=_cmd_build,
              make=lambda a: polar_space(PolarFormSpec(a.family, a.dim, a.q)))
    b.add_argument("--family", choices=tuple(POLAR_NAMES), default="sp")
    b.add_argument("--dim", type=_count, default=3)
    b.add_argument("--grassmannian", action="store_true")
    _leaf(targets, "hexagon", fn=_cmd_build, make=lambda a: split_cayley_hexagon(a.q))
    b = _leaf(targets, "hermitian-gq", fn=_cmd_build,
              make=lambda a: hermitian_subquadrangle(hermitian_quadrangle(a.q))
              if a.subgq else hermitian_quadrangle(a.q))
    b.add_argument("--subgq", action="store_true")
    for b in targets.choices.values():
        b.add_argument("--q", type=_field_order, default=2)

    r = _leaf(sub, "relations", "geometry", help="pair-relation census of a geometry",
              fn=_on_geometry, run=_relations)
    r.add_argument("--census", action="store_true")

    p = _leaf(sub, "positions", "geometry", "budget", help="line-pair position census "
              "and combing", fn=_on_geometry, run=_positions, load=HexagonicModel)
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument("--census", action="store_true")
    mode.add_argument("--pair", type=int, nargs=2, metavar=("L", "M"))
    mode.add_argument("--comb", type=int, nargs=2, metavar=("L", "M"))

    modes = group("search", "mode", "blocking sets, round-up triples, geometric lines")
    s = _leaf(modes, "blocking", "geometry", "budget", fn=_on_geometry, run=_search_blocking)
    s.add_argument("--k", type=int, default=3)
    s.add_argument("--classify", action="store_true")
    s.add_argument("--minimal-only", action="store_true")
    for name, run in (("rut", _search_rut), ("geometric-lines", _search_geometric_lines)):
        s = _leaf(modes, name, "geometry", "budget", fn=_on_geometry, run=run)
        s.add_argument("--base-point", type=int, default=None)
    for s in modes.choices.values():
        s.add_argument("--limit", type=_count, default=200, help="cap on listed results")

    checks = group("check", "what", "point-set predicates")
    for name, test in (("dominating", S.gq_dominating_check), ("ovoid", S.is_ovoid)):
        c = _leaf(checks, name, "geometry", fn=_cmd_check, test=test)
        c.add_argument("--points", type=_point_ids, required=True,
                       help="comma separated point IDs")

    f = _leaf(sub, "fh", help="hexagon order feasibility", fn=_cmd_fh)
    f.add_argument("--s", type=int, required=True)
    f.add_argument("--t", type=int, required=True)

    recipe_parsers = group("verify", "recipe", "run a named verification recipe")
    for name in recipes.RECIPE_NAMES:
        _recipe_parser(recipe_parsers, name)
    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
