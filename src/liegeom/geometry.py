"""Immutable point-line incidence geometries over dense integer point IDs.

Collinearity is kept as one Python-int bitset per point (diagonal bit set:
a point counts as collinear with itself, which is the convention every
closure computation here relies on; strict-perp consumers subtract the
diagonal explicitly).  Geometries are frozen after construction so the
bitsets can be shared freely.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field as dfield
from typing import Iterable, Iterator, Optional, Sequence


class GeometryError(ValueError):
    pass


@dataclass(frozen=True)
class Kind:
    """Family tag: polygon:<n>, polar:<rank>, grassmannian:<of>, other."""

    family: str
    param: Optional[int] = None
    of: Optional[str] = None

    def as_str(self) -> str:
        if self.family == "polygon":
            return f"polygon:{self.param}"
        if self.family == "polar":
            return f"polar:{self.param}"
        if self.family == "grassmannian":
            return f"grassmannian:{self.of or ''}"
        return "other"

    @staticmethod
    def from_str(s: str) -> "Kind":
        for family in ("polygon", "polar"):
            if s.startswith(family + ":"):
                try:
                    return Kind(family, int(s.split(":", 1)[1]))
                except ValueError:
                    raise GeometryError(f"kind {s!r} needs an integer parameter") from None
        if s.startswith("grassmannian"):
            rest = s.split(":", 1)[1] if ":" in s else ""
            return Kind("grassmannian", of=rest or None)
        return Kind("other")


class Geometry:
    """A partial linear space with precomputed collinearity bitsets.

    `lines` are sorted tuples of 0-based point IDs; the line list itself is
    sorted, so equal geometries have identical serialized form.
    """

    def __init__(self, n: int, lines: Iterable[Sequence[int]], kind: Kind = Kind("other"),
                 name: str = "", order: Optional[tuple[int, int]] = None, meta: Optional[dict] = None):
        lines = sorted(tuple(sorted(l)) for l in lines)
        for l in lines:
            if not l:
                raise GeometryError("a line has no points")
            if l[0] < 0 or l[-1] >= n:
                raise GeometryError(f"line {l} has point IDs outside [0, {n})")
            if len(set(l)) < len(l):
                raise GeometryError(f"line {l} lists a point twice")
        self.n = n
        self.lines = tuple(lines)
        self.kind = kind
        self.name = name
        self.order = order
        self.meta = meta or {}

        adj = [1 << i for i in range(n)]
        lines_through: list[list[int]] = [[] for _ in range(n)]
        for li, l in enumerate(self.lines):
            bits = 0
            for p in l:
                bits |= 1 << p
                lines_through[p].append(li)
            for p in l:
                adj[p] |= bits
        self.adj = tuple(adj)
        self.lines_through = tuple(tuple(v) for v in lines_through)
        self.full_mask = (1 << n) - 1
        self._derived: dict = {}

    def cached(self, key, build):
        """build(), called once per geometry and key.  Everything derived
        from a geometry (gamma-space verdict, pair table, relation matrix,
        opposition sets, line tables, residuals, position models) is kept
        here."""
        if key not in self._derived:
            self._derived[key] = build()
        return self._derived[key]

    @property
    def line_bits(self) -> tuple[int, ...]:
        """The point bitset of each line, built on first read: one n-bit int
        per line is more than a large geometry needs to keep."""
        return self.cached("line-bits", lambda: tuple(map(bitset, self.lines)))

    # -- basic queries --------------------------------------------------

    def line_id(self, pts: Sequence[int]) -> Optional[int]:
        """Line ID of the line whose points are pts, scanning the lines
        through the least of them."""
        key = tuple(sorted(pts))
        if not key or not 0 <= key[0] < self.n:
            return None
        for li in self.lines_through[key[0]]:
            if self.lines[li] == key:
                return li
        return None

    def collinear(self, x: int, y: int) -> bool:
        return bool(self.adj[x] >> y & 1)

    def line_through(self, x: int, y: int) -> Optional[int]:
        """Line ID of the unique line on two distinct collinear points."""
        for li in self.lines_through[x]:
            if y in self.lines[li]:
                return li
        return None

    def __eq__(self, other):
        return isinstance(other, Geometry) and self.n == other.n and self.lines == other.lines

    def __hash__(self):
        return hash((self.n, self.lines))

    def __repr__(self):
        nm = self.name or self.kind.as_str()
        return f"<Geometry {nm}: {self.n} points, {len(self.lines)} lines>"

    # -- serialization ---------------------------------------------------

    def to_json(self) -> str:
        doc = {
            "name": self.name,
            "kind": self.kind.as_str(),
            "order": list(self.order) if self.order else None,
            "points": self.n,
            "lines": [list(l) for l in self.lines],
        }
        return json.dumps(doc, separators=(",", ":"), sort_keys=True)

    @staticmethod
    def from_json(text: str, warn=None) -> "Geometry":
        try:
            doc = json.loads(text)
        except json.JSONDecodeError as exc:
            raise GeometryError(f"not JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise GeometryError("a geometry is a JSON object")
        n, lines, kind, order = (doc.get("points"), doc.get("lines"), doc.get("kind", "other"),
                                 doc.get("order"))
        if type(n) is not int or n < 0:
            raise GeometryError(f"points must be an integer >= 0, not {n!r}")
        if not (isinstance(lines, list) and all(
                isinstance(l, list) and all(type(p) is int for p in l) for l in lines)):
            raise GeometryError("lines must be a list of lists of integer point IDs")
        if not isinstance(kind, str):
            raise GeometryError(f"kind must be a string, not {kind!r}")
        if order is not None and not (isinstance(order, list) and all(type(v) is int for v in order)):
            raise GeometryError(f"order must be a list of integers or null, not {order!r}")
        for l in lines:
            if sorted(l) != l and warn is not None:
                warn(f"line {l} not sorted; normalizing")
        g = Geometry(
            n, lines, Kind.from_str(kind),
            name=doc.get("name", ""),
            order=tuple(order) if order else None,
        )
        rep = validate(g)
        if not rep.partial_linear:
            raise GeometryError(f"import violates partial linearity: {rep.violations[:3]}")
        # the claimed kind is checked too, except a Grassmannian's base
        k = g.kind
        if k.family == "polygon" and not is_generalized_polygon(g, k.param):
            raise GeometryError(f"import is not a generalized {k.param}-gon")
        if k.family == "polar":
            from .constructors import _check_polar_axioms, _polar_rank
            _check_polar_axioms(g)
            if (rank := _polar_rank(g)) != k.param:
                raise GeometryError(f"import is a polar space of rank {rank}, not {k.param}")
        return g

    def fingerprint(self) -> dict:
        digest = hashlib.sha256(self.to_json().encode()).hexdigest()[:16]
        return {"points": self.n, "lines": len(self.lines), "hash": digest}


def _bit_indices(bits: int):
    while bits:
        low = bits & -bits
        yield low.bit_length() - 1
        bits ^= low


def bit_indices(bits: int) -> list[int]:
    return list(_bit_indices(bits))


def bitset(points: Iterable[int]) -> int:
    out = 0
    for p in points:
        out |= 1 << p
    return out


# -- validation ----------------------------------------------------------


@dataclass
class ValidationReport:
    partial_linear: bool
    connected: bool
    order: Optional[tuple[int, int]]
    thick: bool
    violations: list = dfield(default_factory=list)

    @property
    def valid(self) -> bool:
        return self.partial_linear and self.connected and not self.violations


def validate(g: Geometry) -> ValidationReport:
    """Check partial linearity (no line twice, no two points on two
    lines), degree uniformity and connectivity."""
    # the lines are sorted, so the copies of a line are adjacent
    violations = [("duplicated-line", l, li, li + 1)
                  for li, l in enumerate(g.lines[:-1]) if l == g.lines[li + 1]]
    n = g.n
    pair_seen = {}      # keyed x * n + y, as in _pair_lines
    for li, l in enumerate(g.lines):
        for i, x in enumerate(l):
            for y in l[i + 1:]:
                key = x * n + y
                if key in pair_seen:
                    violations.append(("pair-on-two-lines", (x, y), pair_seen[key], li))
                else:
                    pair_seen[key] = li
    partial_linear = not violations
    deg = [len(v) for v in g.lines_through]
    sizes = [len(l) for l in g.lines] or [0]
    order = None
    if sizes and min(sizes) == max(sizes) and deg and min(deg) == max(deg):
        order = (min(sizes) - 1, min(deg) - 1)
    thick = bool(sizes) and min(sizes) >= 3 and min(deg or [0]) >= 3
    return ValidationReport(partial_linear, _connected(g), order, thick, violations)


def _connected(g: Geometry) -> bool:
    if g.n == 0:
        return True
    seen = 1
    frontier = 1
    while frontier:
        grow = 0
        for i in _bit_indices(frontier):
            grow |= g.adj[i]
        frontier = grow & ~seen
        seen |= grow
    return seen == g.full_mask


# -- graph metrics ---------------------------------------------------------


#: roots per pass of incidence_girth_diameter, so its bitsets take at most
#: 3 * nodes * 4096 bits however large the geometry is
ROOTS_PER_PASS = 4096


def incidence_girth_diameter(g: Geometry) -> tuple[int, int]:
    """Girth and diameter of the bipartite point-line incidence graph.

    Breadth-first search from every node, bit-sliced over the roots of a
    pass: nodes are the points, then the lines, and bit r of seen[v] says
    that the search from root lo + r has reached node v.  One step ORs the
    frontier words of each node's neighbours; a node that a root reaches
    from two nodes of the previous layer (ge2) closes a cycle of twice the
    depth, so the least such depth gives the girth (exact for unweighted
    graphs), and the last depth that reaches a new node the diameter.
    """
    n = g.n
    nbrs = [tuple(n + li for li in through) for through in g.lines_through] + list(g.lines)
    girth = diameter = 0
    for lo in range(0, len(nbrs), ROOTS_PER_PASS):
        roots = min(ROOTS_PER_PASS, len(nbrs) - lo)
        seen = [1 << v - lo if lo <= v < lo + roots else 0 for v in range(len(nbrs))]
        frontier = seen[:]
        depth = 0
        while True:
            layer = []
            cycle = False
            for v, nb in enumerate(nbrs):
                ge1 = ge2 = 0
                for u in nb:
                    ge2 |= ge1 & frontier[u]
                    ge1 |= frontier[u]
                new = ge1 & ~seen[v]
                seen[v] |= new
                cycle = cycle or bool(ge2 & new)
                layer.append(new)
            if not any(layer):
                break
            depth += 1
            frontier = layer
            if cycle and not 0 < girth <= 2 * depth:
                girth = 2 * depth
        if any(s != (1 << roots) - 1 for s in seen):
            raise GeometryError("incidence graph is disconnected")
        diameter = max(diameter, depth)
    return (girth, diameter)


def is_generalized_polygon(g: Geometry, gonality: int) -> bool:
    """True iff the incidence graph has diameter n and girth 2n, thickly."""
    rep = validate(g)
    if not rep.partial_linear or not rep.connected or not rep.thick:
        return False
    try:
        girth, diam = incidence_girth_diameter(g)
    except GeometryError:
        return False
    return girth == 2 * gonality and diam == gonality


# -- gamma spaces, planes, residues, Grassmannians -------------------------


def one_or_all(g: Geometry, li: int) -> tuple[int, int, int]:
    """The one fold over the perps of line li's points: the points
    collinear-or-equal to one or more of them (ge1), to two or more (ge2)
    and to all of them (common)."""
    ge1 = ge2 = 0
    common = g.full_mask
    for p in g.lines[li]:
        ge2 |= ge1 & g.adj[p]
        ge1 |= g.adj[p]
        common &= g.adj[p]
    return ge1, ge2, common


def is_gamma_space(g: Geometry) -> bool:
    """Each point collinear with 0, 1 or all points of every line."""
    return not any(ge2 & ~common for _, ge2, common in
                   (one_or_all(g, li) for li in range(len(g.lines))))


def _pair_lines(g: Geometry) -> dict[int, int]:
    """The line on each pair of points, keyed x * n + y for both orders of
    every two points x, y of a line, and x * n + x for a 1-point line {x};
    built once per geometry."""
    def build():
        n = g.n
        table = {}
        for li, l in enumerate(g.lines):
            for x in l:
                for y in l:
                    if x != y or len(l) == 1:
                        table[x * n + y] = li
        return table
    return g.cached("pair-lines", build)


def span(g: Geometry, pts: Iterable[int]) -> tuple[int, list[int]]:
    """The least subspace on the points pts, closed over the pair table:
    each point that joins is paired with every earlier one and with itself,
    and a line found on a pair adds its missing points.  Returns its point
    bitset and the ascending IDs of the lines found, which are the lines
    inside it."""
    n, pairs = g.n, _pair_lines(g)
    pts = list(pts)
    bits = bitset(pts)
    inside = set()
    for i, y in enumerate(pts):
        row = y * n
        for x in pts[:i + 1]:
            lj = pairs.get(row + x)
            if lj is not None and lj not in inside:
                inside.add(lj)
                if new := g.line_bits[lj] & ~bits:
                    bits |= new
                    pts += _bit_indices(new)
    return bits, sorted(inside)


def _planes_on(g: Geometry, line_ids: Iterable[int]) -> Iterator[tuple[int, list[int]]]:
    """Each singular plane on some line of line_ids once, as its point
    bitset and the ascending IDs of the lines inside it.

    Requires a gamma space (checked once per geometry), where the span of a
    line L and a point p collinear with all of L is singular: the plane on
    L and p, their span.  covered[l] holds the points of the planes found
    so far that contain line l, and the points p they hold are skipped
    for l.
    """
    if not g.cached("gamma-space", lambda: is_gamma_space(g)):
        raise GeometryError("singular planes require a gamma space")
    covered = [0] * len(g.lines)
    for li in line_ids:
        todo = one_or_all(g, li)[2] & ~g.line_bits[li] & ~covered[li]
        while todo:
            plane, inside = span(g, [*g.lines[li], (todo & -todo).bit_length() - 1])
            todo &= ~plane
            for lj in inside:
                covered[lj] |= plane
            yield plane, inside


def singular_planes(g: Geometry) -> list[tuple[int, ...]]:
    """All singular subspaces of projective dimension 2; requires a gamma
    space."""
    return sorted(tuple(_bit_indices(plane))
                  for plane, _ in _planes_on(g, range(len(g.lines))))


def line_grassmannian(g: Geometry, name: str = "") -> Geometry:
    """Points: lines of g.  Lines: planar pencils {lines of pi through p}."""
    in_plane_count = [0] * len(g.lines)
    pencils = set()
    for plane, plane_lines in _planes_on(g, range(len(g.lines))):
        at = {}
        for li in plane_lines:
            in_plane_count[li] += 1
            for p in g.lines[li]:
                at.setdefault(p, []).append(li)
        pencils.update(map(tuple, at.values()))
    missing = [li for li, c in enumerate(in_plane_count) if c == 0]
    if missing:
        raise GeometryError(f"{len(missing)} lines lie in no plane (first: {missing[0]})")
    return Geometry(len(g.lines), sorted(pencils),
                    Kind("grassmannian", of=g.name or g.kind.as_str()),
                    name=name or (f"Gr({g.name})" if g.name else "Gr"),
                    meta={"base": g})


def point_residual(g: Geometry, p: int) -> Geometry:
    """Geometry on the lines through p; lines are the pencils at p in planes on p."""
    through = g.lines_through[p]
    if not through:
        raise GeometryError(f"point {p} lies on no line")
    # a plane on p holds lines through p, so the planes on p are the
    # planes on the lines through p
    index = {li: i for i, li in enumerate(through)}
    res_lines = [tuple(index[li] for li in plane_lines if li in index)
                 for _, plane_lines in _planes_on(g, through)]
    if not res_lines:
        raise GeometryError(f"no plane through point {p}")
    return Geometry(len(through), res_lines, Kind("other"),
                    name=(f"Res({g.name},{p})" if g.name else f"Res({p})"),
                    meta={"base": g, "base_point": p, "lines_of_base": through})


def residual(g: Geometry, p: int) -> Geometry:
    """The point residual of g at p, built once per geometry."""
    return g.cached(("residual", p), lambda: point_residual(g, p))
