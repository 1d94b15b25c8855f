"""Benchmark of the liegeom verifier.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout.  Workloads (see workloads.py):
hexagon-search, line-positions, polar-grassmannians.

Each run is a closed loop with one client: it starts one fresh
interpreter at a time (child.py), so every iteration begins with empty
module caches, and the next starts only after the previous one ended.
A run interleaves set-up-only children with full iterations until
``--seconds`` would be exceeded (at least one full iteration).  Every
iteration uses the run's seed.  Timings are medians over the iterations.

With ``--trace 0`` the last line of standard output carries the
end-to-end metrics (setup_s, verify_s, peak_rss_mb).  With
``--trace 1`` untraced and traced iterations alternate, and it carries
the per-layer metrics of the traced ones: calls, inclusive and self
seconds of each wrapped function, the untraced remainder and the trace
overhead.  The line before it is a JSON report with the phase timings,
per-operation medians, sample counts, output problems and the run
environment.  Traced runs also write their spans to
``.bench_out/<workload>-seed<seed>-spans.json``.

The exit code is non-zero, and no result is printed, when the checkout
has no ``src/liegeom`` or a child process fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_ONLY_CHILDREN = 3
#: children still running this many seconds after the start are stopped,
#: so that a run always ends within 180 s
RUN_LIMIT_S = 170
_STARTED = time.monotonic()
WORKLOADS = ("hexagon-search", "line-positions", "polar-grassmannians")


class ChildFailed(RuntimeError):
    pass


def _python(args: list) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    timeout = max(1.0, _STARTED + RUN_LIMIT_S - time.monotonic())
    proc = subprocess.run([sys.executable, *args], cwd=ROOT, env=env, capture_output=True,
                          text=True, timeout=timeout)
    if proc.returncode != 0:
        raise ChildFailed(f"{' '.join(args[:3])} exited {proc.returncode}: "
                          f"{proc.stderr.strip()[-2000:]}")
    return proc


def spawn(cfg: dict) -> dict:
    cfg = dict(cfg, spawned=time.monotonic())
    proc = _python([str(HERE / "child.py"), json.dumps(cfg)])
    return json.loads(proc.stdout.strip().splitlines()[-1])


def prepare(workload: str, seed: int, workdir: Path) -> None:
    """Untimed inputs, made once per run."""
    if workload != "polar-grassmannians":
        return
    _python(["-m", "liegeom.cli", "build", "polar", "--family", "parabolic", "--dim", "6",
             "--q", "3", "--grassmannian", "--out", str(workdir / "grq63.json")])
    spawn({"workload": workload, "seed": seed, "workdir": str(workdir), "mode": "prepare"})


def _cpu_times() -> tuple[int, int]:
    """(steal, total) jiffies of all CPUs since boot."""
    with open("/proc/stat") as fh:
        values = [int(v) for v in fh.readline().split()[1:]]
    return (values[7] if len(values) > 7 else 0), sum(values)


def measure(workload: str, seed: int, seconds: float, trace: bool, workdir: Path) -> dict:
    """Set-up-only and full iterations, interleaved, until ``seconds`` are used.

    Set-up-only children are spread over the run, one before each full
    iteration and the rest at the end, so that slow minutes of a shared
    machine do not fall on all of them at once.
    """
    base = {"workload": workload, "seed": seed, "workdir": str(workdir)}
    start = time.monotonic()
    setups, plain, traced = [], [], []
    longest = 0.0
    while True:
        setups.append(spawn(dict(base, mode="setup"))["setup_s"])
        with_trace = trace and len(traced) < len(plain)
        t0 = time.monotonic()
        result = spawn(dict(base, mode="full", trace=with_trace))
        longest = max(longest, time.monotonic() - t0)
        if with_trace:
            traced.append(result)
        else:
            plain.append(result)
            setups.append(result["setup_s"])
        complete = plain and (traced or not trace)
        if complete and time.monotonic() - start + longest > seconds:
            break
    while len(setups) - len(plain) < SETUP_ONLY_CHILDREN:
        setups.append(spawn(dict(base, mode="setup"))["setup_s"])
    return {"setups": setups, "plain": plain, "traced": traced}


def tally(samples: dict) -> tuple[int, int]:
    """(attempted, failed) operations over all full iterations."""
    runs = samples["plain"] + samples["traced"]
    return (sum(len(r["ops"]) for r in runs),
            sum(1 for r in runs for op in r["ops"] if not op["ok"]))


def _median(values) -> float:
    return statistics.median(values) if values else 0.0


def _phase_s(result: dict, phase: str) -> float:
    return sum(op["s"] for op in result["ops"] if op["phase"] == phase)


def end_to_end(samples: dict) -> dict:
    plain = samples["plain"]
    return {
        "setup_s": (_median(samples["setups"]), "s"),
        "verify_s": (_median([r["verify_s"] for r in plain]), "s"),
        "peak_rss_mb": (_median([r["peak_rss_mb"] for r in plain]), "MiB"),
    }


def per_layer(samples: dict, failed_frac: float) -> dict:
    import tracer as T
    traced = samples["traced"]
    out = {}
    for name in T.traced_names():
        rows = [r["trace"]["stats"].get(name, [0, 0.0, 0.0, 0]) for r in traced]
        if not name.startswith("recipes."):
            out[f"{name}.calls"] = (_median([r[0] for r in rows]), "count")
            out[f"{name}.s"] = (_median([r[1] for r in rows]), "s")
        out[f"{name}.self_s"] = (_median([r[2] for r in rows]), "s")
        if name in T.RESULT_COUNTS and name != "positions.position_census":
            out[f"{name}.results"] = (_median([r[3] for r in rows]), "count")
    census = [r["trace"]["stats"].get("positions.position_census", [0, 0.0, 0.0, 0])
              for r in traced]
    out["positions.position_census.pairs_per_s"] = (
        _median([c[3] / c[1] if c[1] else 0.0 for c in census]), "1/s")
    traced_verify = _median([r["verify_s"] for r in traced])
    out["bench.traced_verify_s"] = (traced_verify, "s")
    out["bench.untraced_s"] = (_median([
        sum(v[2] for k, v in r["trace"]["verify"].items() if k.startswith("bench."))
        for r in traced]), "s")
    out["trace_overhead_s"] = (traced_verify - _median([r["verify_s"] for r in samples["plain"]]),
                               "s")
    out["failed_frac"] = (failed_frac, "fraction")
    return out


def accounting_problems(samples: dict) -> list:
    """Self times of a traced iteration must add up to its verify time."""
    problems = []
    for r in samples["traced"]:
        accounted = sum(v[2] for v in r["trace"]["verify"].values())
        if abs(accounted - r["verify_s"]) > 1e-3 * (1 + len(r["ops"])):
            problems.append(f"traced self times add to {accounted:.6f}s, "
                            f"verify_s is {r['verify_s']:.6f}s")
    return problems


def report(samples: dict, env: dict) -> dict:
    plain = samples["plain"]
    ops, phases = {}, {}
    for r in plain:
        for op in r["ops"]:
            ops.setdefault(op["name"], []).append(op["s"])
            if op["phase"]:
                phases[op["phase"]] = None
    detail = {
        "samples": {"setups": len(samples["setups"]), "plain": len(plain),
                    "traced": len(samples["traced"])},
        "verify_s_samples": [r["verify_s"] for r in plain],
        "setup_s_samples": samples["setups"],
        "phases": {p: {"median_s": _median([_phase_s(r, p) for r in plain]), "n": len(plain)}
                   for p in phases},
        "ops_median_s": {k: _median(v) for k, v in ops.items()},
        "problems": [f"{op['name']}: {p}" for r in plain + samples["traced"]
                     for op in r["ops"] for p in op["problems"]][:10],
        "environment": env,
    }
    if samples["traced"]:
        # a renamed function reads zero in every metric it names
        detail["not_traced"] = samples["traced"][0]["trace"]["missing"]
        verify = samples["traced"][0]["trace"]["verify"]
        top = sorted(verify.items(), key=lambda kv: -kv[1][2])[:15]
        detail["traced_self_s_top"] = {k: round(v[2], 4) for k, v in top}
    return detail


def environment(first: dict, steal0: tuple, steal1: tuple) -> dict:
    ticks = os.sysconf("SC_CLK_TCK")
    steal, total = steal1[0] - steal0[0], steal1[1] - steal0[1]
    return {"nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": first.get("numpy"), "blas_threads": first.get("blas_threads"),
            "loadavg": os.getloadavg(), "steal_s": steal / ticks,
            "steal_frac": steal / total if total else 0.0}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=34.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "liegeom" / "__init__.py").is_file():
        print(f"no liegeom sources under {ROOT / 'src'}; run from a checkout",
              file=sys.stderr)
        return 2
    workdir = ROOT / ".bench_work" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    steal0 = _cpu_times()
    try:
        prepare(args.workload, args.seed, workdir)
        samples = measure(args.workload, args.seed, args.seconds, bool(args.trace), workdir)
    except (ChildFailed, subprocess.TimeoutExpired) as exc:
        print(f"benchmark aborted: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    env = environment(samples["plain"][0], steal0, _cpu_times())

    attempted, failed = tally(samples)
    problems = accounting_problems(samples)
    if args.trace:
        metrics = per_layer(samples, failed / attempted)
        out = ROOT / ".bench_out"
        out.mkdir(exist_ok=True)
        (out / f"{args.workload}-seed{args.seed}-spans.json").write_text(
            json.dumps(samples["traced"][0]["trace"]["spans"]))
    else:
        metrics = end_to_end(samples)
    detail = report(samples, env)
    detail["problems"] += problems
    print(json.dumps(detail))
    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
