"""One cold-process iteration of a benchmark workload.

Started by run.py as ``python3 perfbench/child.py '<json config>'`` with
the checkout's ``src`` on PYTHONPATH.  The config names the workload,
seed, mode (``setup``: import and build the models only; ``full``: also
run and check every operation; ``prepare``: write the reference inputs
into the work directory), whether to trace, and the parent's
``time.monotonic()`` at spawn, so that set-up time counts from the
interpreter's start.  Optional keys: ``only`` (operation names to run)
and ``tamper`` (an operation whose report is corrupted before it is
checked, for the self-tests).  The result is one JSON object on the last
line of standard output.
"""

import contextlib
import ctypes
import json
import resource
import sys
import time
import traceback
from pathlib import Path


def _blas_threads():
    """OpenBLAS thread count of this process, read through ctypes; None if unknown."""
    with open("/proc/self/maps") as fh:
        libs = {line.split()[-1] for line in fh if "openblas" in line.lower() and "/" in line}
    for path in sorted(libs):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return fn()
    return None


def run_ops(workload, ctx, tracer, only, tamper) -> list:
    results = []
    for op in workload.ops:
        if only is not None and op.name not in only:
            continue
        span = tracer.span(f"bench.{op.name}") if tracer else contextlib.nullcontext()
        t0 = time.perf_counter()
        try:
            with span:
                out = op.run(ctx)
            seconds = time.perf_counter() - t0
            if op.name == tamper:
                out.assertions[0]["witness"] = {"tampered": True}
            problems = op.check(ctx, out)
        except Exception:                       # noqa: BLE001 - counted as a failed operation
            seconds = time.perf_counter() - t0
            problems = ["raised: " + traceback.format_exc(limit=3)]
        results.append({"name": op.name, "phase": op.phase, "s": seconds,
                        "ok": not problems, "problems": problems[:5]})
    return results


def _stats(stats: dict) -> dict:
    return {k: [v.calls, v.s, v.self_s, v.results] for k, v in stats.items()}


def main(cfg: dict) -> dict:
    import workloads as W
    W.assert_cold()
    workload = W.WORKLOADS[cfg["workload"]]
    ctx = W.Context(cfg["seed"], Path(cfg["workdir"]) if cfg.get("workdir") else None)
    if cfg["mode"] == "prepare":
        W.prepare_grq63(ctx.workdir)
        return {}

    tracer = None
    if cfg.get("trace"):
        import tracer as T
        tracer = T.Tracer()
        missing = T.install(tracer)
    with tracer.span("bench.setup") if tracer else contextlib.nullcontext():
        W.setup(workload)
    out = {"setup_s": time.monotonic() - cfg["spawned"]}
    if cfg["mode"] == "setup":
        return out

    before = tracer.snapshot() if tracer else None
    ops = run_ops(workload, ctx, tracer, cfg.get("only"), cfg.get("tamper"))
    import numpy
    out.update(ops=ops, verify_s=sum(o["s"] for o in ops),
               peak_rss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
               numpy=numpy.__version__, blas_threads=_blas_threads())
    if tracer:
        after = tracer.snapshot()
        out["trace"] = {"stats": _stats(after), "verify": _stats(T.diff(after, before)),
                        "spans": [list(sp) for sp in tracer.spans if sp is not None],
                        "dropped_spans": tracer.dropped_spans, "missing": missing}
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
