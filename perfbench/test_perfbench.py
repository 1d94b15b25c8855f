"""Self-tests of the benchmark, on the seconds-long H(2) recipes.

    python3 -m pytest perfbench -q
"""

import json

import pytest

import run
import tracer as T

H2_OPS = ["bshex-h2", "geomlines-h2"]


def test_self_time_is_inclusive_time_minus_children():
    now = [0.0]

    def tick(dt):
        now[0] += dt

    tr = T.Tracer(clock=lambda: now[0])
    leaf = tr.wrap("leaf", lambda: tick(2.0), hot=True)

    def _mid():
        tick(1.0)
        leaf()
        tick(0.5)
        leaf()

    mid = tr.wrap("mid", _mid)
    with tr.span("root"):
        tick(0.25)
        mid()
        tick(0.25)

    st = tr.stats
    assert (st["leaf"].calls, st["leaf"].s, st["leaf"].self_s) == (2, 4.0, 4.0)
    assert (st["mid"].calls, st["mid"].s, st["mid"].self_s) == (1, 5.5, 1.5)
    assert (st["root"].s, st["root"].self_s) == (6.0, 0.5)
    assert sum(v.self_s for v in st.values()) == st["root"].s
    # hot calls are aggregated only; the other spans point at their parent
    spans = {s.name: (i, s) for i, s in enumerate(tr.spans)}
    assert set(spans) == {"root", "mid"}
    root_index, root = spans["root"]
    _, mid_span = spans["mid"]
    assert root.parent is None and mid_span.parent == root_index
    assert (mid_span.start, mid_span.end) == (0.25, 5.75)


def test_exception_still_closes_the_span():
    tr = T.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tr.wrap("boom", boom)()
    assert tr.stats["boom"].calls == 1 and not tr._stack


def _full(trace=False, tamper=None, seed=0):
    return run.spawn({"workload": "hexagon-search", "seed": seed, "workdir": None,
                      "mode": "full", "trace": trace, "only": H2_OPS, "tamper": tamper})


def test_outputs_pass_at_seed_0():
    result = _full()
    assert [(op["name"], op["ok"], op["problems"]) for op in result["ops"]] == \
        [(name, True, []) for name in H2_OPS]


def test_tampered_output_is_counted_as_failed():
    result = _full(tamper="bshex-h2")
    ok = {op["name"]: op["ok"] for op in result["ops"]}
    assert ok == {"bshex-h2": False, "geomlines-h2": True}
    assert run.tally({"plain": [result], "traced": []}) == (2, 1)


def test_every_metric_is_emitted_and_self_times_add_up():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    plain, traced = _full(seed=5), _full(trace=True, seed=5)
    samples = {"setups": [plain["setup_s"]], "plain": [plain], "traced": [traced]}
    e2e = run.end_to_end(samples)
    layers = run.per_layer(samples, 0.0)
    assert {k: u for k, (_, u) in e2e.items()} == \
        {m["name"]: m["unit"] for m in spec["end_to_end"]}
    assert {k: u for k, (_, u) in layers.items()} == \
        {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert run.accounting_problems(samples) == []
    assert traced["trace"]["missing"] == []
    assert all(v > 0 for v, _ in e2e.values())
    assert layers["search.enumerate_blocking_sets.results"][0] == 2 * 651  # bshex runs it twice on H(2)
    assert layers["recipes.bshex.self_s"][0] > 0
