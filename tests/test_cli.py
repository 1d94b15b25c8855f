import argparse
import inspect
import json
import shlex
from pathlib import Path

import pytest

from liegeom import recipes
from liegeom.cli import build_parser, main
from liegeom.constructors import PolarFormSpec, polar_space
from liegeom.geometry import Geometry, Kind, line_grassmannian


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


def test_build_and_reload(tmp_path, capsys):
    path = tmp_path / "w32.json"
    code, _ = run(capsys, "build", "polar", "--family", "sp", "--dim", "3",
                  "--q", "2", "--out", str(path))
    assert code == 0
    doc = json.loads(path.read_text())
    assert doc["points"] == 15 and len(doc["lines"]) == 15
    assert doc["kind"] == "polar:2"


def test_build_grassmannian_flag(tmp_path, capsys):
    path = tmp_path / "gr.json"
    code, _ = run(capsys, "build", "pg", "--n", "3", "--q", "2",
                  "--grassmannian", "--out", str(path))
    assert code == 0
    assert json.loads(path.read_text())["points"] == 35


def test_relations_census(tmp_path, capsys):
    geom = tmp_path / "h2.json"
    run(capsys, "build", "hexagon", "--q", "2", "--out", str(geom))
    code, out = run(capsys, "relations", "--geometry", str(geom), "--census")
    assert code == 0
    doc = json.loads(out)
    assert doc["census"] == {"0": 63, "1": 378, "2": 1512, "3": 2016}
    assert doc["near-opposite-pairs"] == []


def test_search_blocking_cli(tmp_path, capsys):
    geom = tmp_path / "h2.json"
    run(capsys, "build", "hexagon", "--q", "2", "--out", str(geom))
    code, out = run(capsys, "search", "blocking", "--geometry", str(geom),
                    "--k", "3", "--classify", "--minimal-only")
    assert code == 0
    doc = json.loads(out)
    assert doc["count"] == 651
    assert doc["census"] == {"Line": 63, "HyperbolicLine": 252,
                             "Distance3Trace": 336}


def test_search_rut_base_point(tmp_path, capsys):
    geom = tmp_path / "w32.json"
    run(capsys, "build", "polar", "--family", "sp", "--dim", "3", "--q", "2",
        "--out", str(geom))
    code, out = run(capsys, "search", "rut", "--geometry", str(geom),
                    "--base-point", "0")
    assert code == 0
    assert json.loads(out)["partial"] is True


def test_positions_pair_and_comb(tmp_path, capsys):
    geom = tmp_path / "gr.json"
    run(capsys, "build", "polar", "--family", "sp", "--dim", "5", "--q", "2",
        "--grassmannian", "--out", str(geom))
    code, out = run(capsys, "positions", "--geometry", str(geom),
                    "--pair", "0", "0")
    assert code == 0
    assert json.loads(out)["position"] == "0110"
    code, out = run(capsys, "positions", "--geometry", str(geom),
                    "--comb", "0", "0")
    assert code == 0
    doc = json.loads(out)
    assert [s["position"] for s in doc["steps"]] == ["0110", "0112", "1223"]


def test_check_dominating(tmp_path, capsys):
    geom = tmp_path / "w32.json"
    run(capsys, "build", "polar", "--family", "sp", "--dim", "3", "--q", "2",
        "--out", str(geom))
    doc = json.loads((geom).read_text())
    line = ",".join(map(str, doc["lines"][0]))
    code, out = run(capsys, "check", "dominating", "--geometry", str(geom),
                    "--points", line)
    assert code == 0 and json.loads(out)["result"] is True
    code, out = run(capsys, "check", "ovoid", "--geometry", str(geom),
                    "--points", line)
    assert code == 1 and json.loads(out)["result"] is False


def test_fh_cli(capsys):
    code, out = run(capsys, "fh", "--s", "240", "--t", "15")
    assert code == 0
    doc = json.loads(out)
    assert doc["st_square"] and doc["plus_integral"] and not doc["minus_integral"]


def test_verify_recipe_cli(capsys):
    code, out = run(capsys, "verify", "nonex", "--tmax", "60")
    assert code == 0
    doc = json.loads(out)
    assert doc["status"] == "PASS" and doc["schema"] == 1


def test_verify_determinism_across_threads(capsys):
    def payload(*argv):
        code, out = run(capsys, *argv)
        assert code == 0
        doc = json.loads(out)
        doc.pop("wall_time_s")
        return doc

    a = payload("verify", "coroltits", "--points", "8", "--seed", "11")
    b = payload("verify", "coroltits", "--points", "8", "--seed", "11",
                "--threads", "4")
    assert a == b
    c = payload("verify", "coroltits", "--points", "8", "--seed", "12")
    assert c["assertions"][0]["witness"] != a["assertions"][0]["witness"]


def test_search_budget_partial(tmp_path, capsys):
    geom = tmp_path / "h2.json"
    run(capsys, "build", "hexagon", "--q", "2", "--out", str(geom))
    code, out = run(capsys, "search", "blocking", "--geometry", str(geom),
                    "--k", "3", "--budget", "10")
    assert code == 1
    assert json.loads(out)["status"] == "PARTIAL"


def test_classifier_build_is_budgeted(h2_file, capsys):
    # 720 nodes cover the 700 of the minimal blocking search; the first set
    # the classifier tests against the hyperbolic lines is charged H(2)'s
    # 756 special pairs
    code, out = run(capsys, "search", "blocking", "--geometry", h2_file, "--k", "3",
                    "--minimal-only", "--classify", "--budget", "720")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "PARTIAL"
    assert doc["error"] == "hyperbolic-line scan exceeded 720 pairs"


def test_positions_census_budget(tmp_path, capsys):
    # H(2) has 63 lines: the census is charged its 63 * 63 pairs before it starts
    geom = tmp_path / "h2.json"
    run(capsys, "build", "hexagon", "--q", "2", "--out", str(geom))
    code, out = run(capsys, "positions", "--geometry", str(geom), "--census",
                    "--budget", "10")
    assert code == 1
    doc = json.loads(out)
    assert doc["status"] == "PARTIAL"
    assert doc["error"] == "position census exceeded 10 pairs"
    for budget in ([], ["--budget", str(63 * 63)]):
        code, out = run(capsys, "positions", "--geometry", str(geom), "--census", *budget)
        assert code == 0
        doc = json.loads(out)
        assert doc["total-ordered-pairs"] == 63 * 63
        assert doc["census"] == {"0110": 63, "0112": 378, "1223": 1512, "2332": 2016}


def test_import_rejects_bad_geometry(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps({"name": "x", "kind": "other", "order": None,
                               "points": 4, "lines": [[0, 1, 2], [1, 2, 3]]}))
    with pytest.raises(SystemExit) as exc:
        run(capsys, "relations", "--geometry", str(bad))
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def w32_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "w32.json"
    assert main(["build", "polar", "--family", "sp", "--dim", "3", "--q", "2",
                 "--out", str(path)]) == 0
    return str(path)


@pytest.fixture(scope="module")
def unsupported_files(tmp_path_factory):
    # PG(3,2) has kind other, and the line Grassmannian of the conic Q(2,2)
    # has no points; build refuses to write the latter, so it is written here
    d = tmp_path_factory.mktemp("cli")
    assert main(["build", "pg", "--n", "3", "--q", "2", "--out", str(d / "pg.json")]) == 0
    empty = Geometry(0, [], Kind("grassmannian", of="Q(2,2)"))
    (d / "empty.json").write_text(empty.to_json() + "\n")
    return {"{pg}": str(d / "pg.json"), "{empty}": str(d / "empty.json")}


@pytest.fixture(scope="module")
def refused_files(tmp_path_factory, h2, gr_w52):
    # geometry files the loader refuses: malformed documents, ones that fail
    # the import checks, and Grassmannians that are not the line
    # Grassmannian of the base their kind names
    d = tmp_path_factory.mktemp("cli")
    relabelled = Geometry(gr_w52.n, [[gr_w52.n - 1 - p for p in l] for l in gr_w52.lines],
                          gr_w52.kind)
    assert gr_w52.kind.of == "W(5,2)" and relabelled.lines != gr_w52.lines
    # H(2) with one line listing its first point twice: the only fault
    h2_point_twice = json.loads(h2.to_json())
    h2_point_twice["lines"][0].insert(0, h2.lines[0][0])
    docs = {
        "duplicated": {"points": 3, "lines": [[0, 1, 2], [2, 1, 0]]},
        "point-twice": {"points": 3, "lines": [[0, 0, 1], [1, 2]]},
        "empty-line": {"points": 3, "lines": [[], [0, 1, 2]]},
        "h2-point-twice": h2_point_twice,
        "not-partial-linear": {"points": 4, "lines": [[0, 1, 2], [1, 2, 3]]},
        "id-out-of-range": {"points": 3, "lines": [[0, 1, 3]]},
        "no-hexagon": json.loads(Geometry(h2.n, h2.lines[1:], Kind("polygon", 6)).to_json()),
        "no-lines": {"points": 3},
        "negative-points": {"points": -1, "lines": []},
        "fractional-points": {"points": 2.5, "lines": []},
        "string-ids": {"points": 3, "lines": [["0", "1", "2"]]},
        "polar-x": {"kind": "polar:x", "points": 3, "lines": [[0, 1, 2]]},
        "kind-not-a-string": {"kind": 6, "points": 3, "lines": [[0, 1, 2]]},
        "order-not-a-list": {"order": 2, "points": 3, "lines": [[0, 1, 2]]},
        "not-an-object": [3, [[0, 1, 2]]],
        "gr-h2-3-points": {"kind": "grassmannian:H(2)", "points": 3, "lines": [[0, 1, 2]]},
        "gr-zzz": {"kind": "grassmannian:zzz", "points": 3, "lines": [[0, 1, 2]]},
        "gr-w52-relabelled": json.loads(relabelled.to_json()),
    }
    texts = {name: json.dumps(doc) for name, doc in docs.items()}
    texts["not-json"] = "{points: 3"
    for name, text in texts.items():
        (d / f"{name}.json").write_text(text + "\n")
    return {f"{{{name}}}": str(d / f"{name}.json") for name in [*texts, "missing"]}


@pytest.mark.parametrize("argv", [
    ("build", "pg", "--seed", "1"),
    ("build", "hexagon", "--grassmannian"),
    ("search", "rut", "--geometry", "{geom}", "--k", "4"),
    ("verify", "nonex", "--q", "3"),
    ("positions", "--geometry", "{geom}"),
    ("positions", "--geometry", "{geom}", "--pair", "0", "0", "--comb", "0", "0"),
    ("positions", "--geometry", "{geom}", "--pair", "0", "0", "--budget", "5"),
    ("fh",),
    ("fh", "--s", "3"),
    ("fh", "--s", "3", "--t", "3", "--tmax", "5"),
    ("fh", "--verify-nonex", "--s", "3"),
    ("fh", "--verify-nonex"),
    ("verify", "nonex", "--budget", "5"),
    ("verify", "coroltits", "--budget", "5"),
    ("verify", "table1", "--instances", "-1"),
    ("verify", "bshex", "--budget", "-1"),
    ("search", "blocking", "--geometry", "{geom}", "--limit", "-1"),
    ("search", "rut", "--geometry", "{geom}", "--limit", "-1"),
    ("search", "geometric-lines", "--geometry", "{geom}", "--limit", "-1"),
    ("check", "ovoid", "--geometry", "{geom}", "--points", "0,x"),
    ("verify", "bshex", "--q", "6"),
    ("verify", "geomlines-hex", "--q", "1"),
    ("build", "hexagon", "--q", "0"),
    ("build", "hermitian-gq", "--q", "5"),
    ("build", "hermitian-gq", "--q", "16"),
    ("build", "polar", "--family", "hermitian", "--dim", "3", "--q", "3"),
    ("build", "pg", "--q", "25"),
    ("build", "hexagon", "--q", "27"),
    ("verify", "bshex", "--q", "32"),
    ("verify", "geomlines-hex", "--q", "49"),
    ("build", "pg", "--n", "1"),
    ("build", "polar", "--dim", "4"),
    ("build", "polar", "--dim", "-1"),
    ("relations", "--geometry", "{pg}", "--census"),
    ("positions", "--geometry", "{empty}", "--census"),
    ("search", "blocking", "--geometry", "{pg}"),
    ("build", "polar", "--family", "parabolic", "--dim", "2", "--grassmannian"),
    ("relations", "--geometry", "{empty}"),
    ("search", "rut", "--geometry", "{empty}"),
    ("search", "blocking", "--geometry", "{empty}"),
    ("relations", "--geometry", "{duplicated}"),
    ("check", "ovoid", "--geometry", "{point-twice}", "--points", "0"),
    ("check", "ovoid", "--geometry", "{empty-line}", "--points", "0"),
    ("relations", "--geometry", "{h2-point-twice}"),
    ("positions", "--geometry", "{h2-point-twice}", "--pair", "0", "1"),
    ("search", "rut", "--geometry", "{h2-point-twice}"),
    ("check", "ovoid", "--geometry", "{h2-point-twice}", "--points", "0"),
    ("positions", "--geometry", "{not-partial-linear}", "--census"),
    ("search", "blocking", "--geometry", "{id-out-of-range}"),
    ("check", "ovoid", "--geometry", "{no-hexagon}", "--points", "0"),
    ("relations", "--geometry", "{not-json}"),
    ("positions", "--geometry", "{no-lines}", "--census"),
    ("search", "rut", "--geometry", "{negative-points}"),
    ("check", "dominating", "--geometry", "{fractional-points}", "--points", "0"),
    ("relations", "--geometry", "{string-ids}"),
    ("search", "geometric-lines", "--geometry", "{polar-x}"),
    ("relations", "--geometry", "{kind-not-a-string}"),
    ("positions", "--geometry", "{order-not-a-list}", "--census"),
    ("check", "ovoid", "--geometry", "{not-an-object}", "--points", "0"),
    ("search", "rut", "--geometry", "{missing}"),
    ("relations", "--geometry", "{gr-h2-3-points}"),
    ("positions", "--geometry", "{gr-h2-3-points}", "--census"),
    ("search", "geometric-lines", "--geometry", "{gr-h2-3-points}"),
    ("relations", "--geometry", "{gr-zzz}"),
    ("positions", "--geometry", "{gr-zzz}", "--pair", "0", "0"),
    ("search", "blocking", "--geometry", "{gr-zzz}"),
    ("relations", "--geometry", "{gr-w52-relabelled}"),
    ("positions", "--geometry", "{gr-w52-relabelled}", "--census"),
    ("search", "rut", "--geometry", "{gr-w52-relabelled}"),
], ids=" ".join)
def test_ignored_or_crashing_options_are_usage_errors(w32_file, unsupported_files, refused_files,
                                                      capsys, argv):
    files = {"{geom}": w32_file, **unsupported_files, **refused_files}
    with pytest.raises(SystemExit) as exc:
        main([files.get(a, a) for a in argv])
    assert exc.value.code == 2
    assert "error:" in capsys.readouterr().err


@pytest.fixture(scope="module")
def h2_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "h2.json"
    assert main(["build", "hexagon", "--q", "2", "--out", str(path)]) == 0
    return str(path)


# H(2) has 63 points and 63 lines
@pytest.mark.parametrize("argv", [
    ("check", "dominating", "--geometry", "{geom}", "--points", "0,63"),
    ("check", "ovoid", "--geometry", "{geom}", "--points", "0,-1"),
    ("search", "rut", "--geometry", "{geom}", "--base-point", "999"),
    ("search", "rut", "--geometry", "{geom}", "--base-point", "-1"),
    ("search", "geometric-lines", "--geometry", "{geom}", "--base-point", "63"),
    ("search", "geometric-lines", "--geometry", "{geom}", "--base-point", "-1"),
    ("search", "blocking", "--geometry", "{geom}", "--k", "0"),
    ("positions", "--geometry", "{geom}", "--pair", "0", "999"),
    ("positions", "--geometry", "{geom}", "--pair", "-1", "0"),
    ("positions", "--geometry", "{geom}", "--comb", "-1", "5"),
    ("positions", "--geometry", "{geom}", "--comb", "0", "63"),
], ids=" ".join)
def test_ids_outside_the_geometry_are_usage_errors(h2_file, capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main([a.replace("{geom}", h2_file) for a in argv])
    assert exc.value.code == 2
    assert "is not in [" in capsys.readouterr().err


def test_readme_cli_lines_parse():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("\n## CLI\n", 1)[1].split("```\n", 2)[1]
    lines = [shlex.split(line) for line in block.splitlines() if line.startswith("liegeom ")]
    assert len(lines) >= 10
    for argv in lines:
        build_parser().parse_args(argv[1:])


def _subparser(parser, *path):
    for name in path:
        parser = next(a for a in parser._actions
                      if isinstance(a, argparse._SubParsersAction)).choices[name]
    return parser


@pytest.mark.parametrize("name", recipes.RECIPE_NAMES)
def test_verify_options_are_the_recipe_parameters(name):
    fn = getattr(recipes, recipes._RECIPES[name])
    want = {"--" + p.name.replace("_", "-"): p.default
            for p in inspect.signature(fn).parameters.values()
            if p.default is not inspect.Parameter.empty}
    shared = {"--help", "--out", "--seed", "--threads"}
    got = {a.option_strings[-1]: a.default
           for a in _subparser(build_parser(), "verify", name)._actions
           if a.option_strings and a.option_strings[-1] not in shared}
    assert got == want


def test_build_polar_grassmannian_json(tmp_path, capsys):
    # the input perfbench's polar-grassmannians workload prepares
    path = tmp_path / "grq63.json"
    code, _ = run(capsys, "build", "polar", "--family", "parabolic", "--dim", "6",
                  "--q", "3", "--grassmannian", "--out", str(path))
    assert code == 0
    want = line_grassmannian(polar_space(PolarFormSpec("parabolic", 6, 3))).to_json()
    assert path.read_text() == want + "\n"
