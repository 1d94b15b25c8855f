"""Span tracer for the benchmark's traced runs.

The tracer wraps named functions of the ``liegeom`` modules from outside
the package: nothing under ``src`` changes.  A function is replaced in
every module namespace that holds it (``recipes`` imports positions
functions by name, ``search`` imports ``opposition_sets`` by name, ...),
and methods are replaced on their class.

Every wrapped call updates per-name statistics: calls, inclusive seconds
and self seconds (inclusive time minus the time of traced calls made
inside it).  Calls of ordinary functions are also kept as spans with
name, start, end and parent.  Hot functions, called up to ~10^6 times
per run, are only aggregated.
"""

from __future__ import annotations

import contextlib
import functools
import sys
import time
from dataclasses import dataclass
from typing import Callable, NamedTuple, Optional

#: recipe name -> the recipes-module function that implements it
RECIPE_FUNCTIONS = {
    "bshex": "_recipe_bshex",
    "geomlines-hex": "_recipe_geomlines_hex",
    "typeb-grassmannian": "_recipe_typeb",
    "positions-catalogue": "_recipe_positions",
    "table1": "_recipe_table1",
    "coroltits": "_recipe_coroltits",
    "nonex": "_recipe_nonex",
    "obs-gq": "_recipe_obsgq",
}

#: (module, qualified name) of every traced public function, by layer
LAYERS = {
    "constructors": ("split_cayley_hexagon", "polar_space", "hermitian_quadrangle",
                     "hermitian_subquadrangle", "geometry_by_name"),
    "geometry": ("line_grassmannian", "singular_planes", "Geometry.from_json",
                 "validate", "point_residual"),
    "relations": ("relation_matrix", "RelationMatrix.np", "RelationMatrix.row",
                  "RelationMatrix.census", "polar_line_opposition", "opposition_sets",
                  "grassmannian_base", "classify_pair"),
    "search": ("enumerate_blocking_sets", "all_hyperbolic_lines", "all_distance3_traces",
               "classify_blocking_set", "blocking_soundness_sample",
               "enumerate_round_up_triples", "geometric_line_closure",
               "enumerate_geometric_lines", "enumerate_ovoids", "gq_dominating_check"),
    "positions": ("position_census", "HexagonicModel.position_of",
                  "HexagonicModel.free_points", "HexagonicModel.locally_opposite_at",
                  "find_combing_line", "comb_to_opposite", "combing_algorithm_1",
                  "combing_algorithm_2"),
    "orders": ("verify_nonex",),
}

#: aggregated only: each is called 10^4 to 10^6 times in some workload
HOT = frozenset({
    "relations.classify_pair", "relations.opposition_sets", "relations.relation_matrix",
    "relations.RelationMatrix.row", "relations.grassmannian_base", "search.geometric_line_closure",
    "search.classify_blocking_set", "positions.HexagonicModel.position_of",
    "positions.HexagonicModel.free_points", "positions.HexagonicModel.locally_opposite_at",
    "positions.find_combing_line",
})

#: functions whose results are also counted: sets found, census pairs
RESULT_COUNTS = {
    "search.enumerate_blocking_sets": len,
    "search.enumerate_round_up_triples": len,
    "positions.position_census": lambda census: census.total,
}


#: spans kept per process; later calls are still counted in the statistics
MAX_SPANS = 200_000


def traced_names() -> list[str]:
    """Stat names of every traced function, recipes last."""
    names = [f"{mod}.{qual}" for mod, quals in LAYERS.items() for qual in quals]
    return names + [f"recipes.{r}" for r in RECIPE_FUNCTIONS]


@dataclass
class Stat:
    calls: int = 0
    s: float = 0.0
    self_s: float = 0.0
    results: int = 0


class Span(NamedTuple):
    name: str
    start: float
    end: float
    parent: Optional[int]       # index of the parent span, None at a root


class Tracer:
    """Call statistics and spans, timed by ``clock``."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, Stat] = {}
        self.spans: list[Optional[Span]] = []
        self.dropped_spans = 0
        # open calls: [start, seconds in traced children, own span index,
        # parent span index]; a hot call takes its parent's index
        self._stack: list[list] = []

    def _enter(self, hot: bool) -> list:
        parent = self._stack[-1][2] if self._stack else None
        index = parent
        if not hot:
            if len(self.spans) < MAX_SPANS:
                index = len(self.spans)
                self.spans.append(None)         # filled in when the call ends
            else:
                self.dropped_spans += 1
        frame = [self.clock(), 0.0, index, parent]
        self._stack.append(frame)
        return frame

    def _exit(self, name: str, frame: list, hot: bool, count: Optional[int] = None) -> None:
        end = self.clock()
        self._stack.pop()
        duration = end - frame[0]
        stat = self.stats.get(name)
        if stat is None:
            stat = self.stats[name] = Stat()
        stat.calls += 1
        stat.s += duration
        stat.self_s += duration - frame[1]
        if count is not None:
            stat.results += count
        if self._stack:
            self._stack[-1][1] += duration
        if not hot and frame[2] != frame[3]:
            self.spans[frame[2]] = Span(name, frame[0], end, frame[3])

    def wrap(self, name: str, fn: Callable, hot: bool = False,
             count: Optional[Callable] = None) -> Callable:
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = self._enter(hot)
            n = None
            try:
                result = fn(*args, **kwargs)
                if count is not None:
                    n = count(result)
                return result
            finally:
                self._exit(name, frame, hot, n)
        return traced

    @contextlib.contextmanager
    def span(self, name: str):
        """Time a block of the benchmark itself as a span."""
        frame = self._enter(False)
        try:
            yield
        finally:
            self._exit(name, frame, False)

    def snapshot(self) -> dict[str, Stat]:
        return {k: Stat(v.calls, v.s, v.self_s, v.results) for k, v in self.stats.items()}


def diff(after: dict[str, Stat], before: dict[str, Stat]) -> dict[str, Stat]:
    """Statistics accumulated between two snapshots."""
    out = {}
    for k, a in after.items():
        b = before.get(k, Stat())
        if a.calls != b.calls:
            out[k] = Stat(a.calls - b.calls, a.s - b.s, a.self_s - b.self_s,
                          a.results - b.results)
    return out


def install(tracer: Tracer) -> list[str]:
    """Wrap every traced function of the imported liegeom package.

    Returns the names that were not found, so a renamed function shows up
    as missing instead of silently reading zero.
    """
    modules = [m for n, m in list(sys.modules.items())
               if m is not None and (n == "liegeom" or n.startswith("liegeom."))]
    targets = [(mod, qual, f"{mod}.{qual}") for mod, quals in LAYERS.items() for qual in quals]
    targets += [("recipes", fn, f"recipes.{r}") for r, fn in RECIPE_FUNCTIONS.items()]
    missing = []
    for mod, qual, name in targets:
        owner = sys.modules.get(f"liegeom.{mod}")
        *path, attr = qual.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        raw = vars(owner).get(attr) if owner is not None else None
        if raw is None:
            missing.append(name)
            continue
        hot, count = name in HOT, RESULT_COUNTS.get(name)
        if path:                               # a method: patch the class
            if isinstance(raw, staticmethod):
                setattr(owner, attr, staticmethod(tracer.wrap(name, raw.__func__, hot, count)))
            else:
                setattr(owner, attr, tracer.wrap(name, raw, hot, count))
            continue
        wrapped = tracer.wrap(name, raw, hot, count)
        for m in modules:
            for key, value in list(vars(m).items()):
                if value is raw:
                    setattr(m, key, wrapped)
    return missing
