"""Symmetries of polar line Grassmannians, taken from the base's form and
certified on the geometry before use, and the line orbits they generate.

The candidate generators are linear maps from the form of the base polar
space (Taylor, The Geometry of the Classical Groups, 1992): for a quadric
Q with polar form B, the reflections x -> x - B(x,v) Q(v)^-1 v in vectors
v with Q(v) != 0; for a symplectic form B, the transvections
x -> x + B(x,v) v.  The vectors v are the first GENERATORS suitable
normalized points of PG(d, q), those with the most nonzero coordinates
first and ascending among equals.  Hermitian bases, hexagons and
geometries with no base get none.

No candidate is trusted: certify keeps one only if it permutes the base
points, maps base lines to base lines and Grassmannian lines to
Grassmannian lines, and leaves the given relation matrix unchanged.  How
many candidates pass decides only how many orbits there are, never what
is counted through them.
"""

from __future__ import annotations

from typing import Callable, Iterator, Optional

import numpy as np

from .constructors import polar_forms, projective_points
from .gf import field
from .geometry import Geometry
from .relations import grassmannian_base

#: candidate generators per geometry, from the first suitable vectors
GENERATORS = 16


def _encode(vectors: np.ndarray, q: int) -> np.ndarray:
    """Each row of coordinates read as one integer in base q."""
    code = np.zeros(len(vectors), dtype=np.int64)
    for c in vectors.T:
        code = code * q + c
    return code


def point_images(base: Geometry) -> Iterator[np.ndarray]:
    """For each candidate generator of the base's form in turn, the ID of
    the image of each base point, or -1 where the image is no base point."""
    spec, coords = base.meta.get("spec"), base.meta.get("coords")
    if spec is None or coords is None or spec.family == "hermitian":
        return
    F = field(spec.q)
    add, mul, neg = F.arrays()
    inv = np.array([0] + [F.inv(a) for a in range(1, F.q)], dtype=np.uint8)
    quadric, form = polar_forms(F, spec)
    vectors = sorted(projective_points(F, spec.dim), key=lambda v: (v.count(0), v))
    V = np.array(vectors, dtype=np.uint8)
    scale = quadric(list(V.T)) if quadric is not None else np.ones(len(V), dtype=np.uint8)
    X = np.array(coords, dtype=np.uint8)
    codes = _encode(X, F.q)
    order = np.argsort(codes)
    known = codes[order]
    for k in np.flatnonzero(scale)[:GENERATORS]:
        c = form(list(X.T), vectors[k])
        if quadric is not None:
            c = neg[mul[c, inv[scale[k]]]]
        Y = add[X, mul[c[:, None], V[k]]]
        # normalize: scale each row by the inverse of its first nonzero entry
        lead = Y[np.arange(len(Y)), (Y != 0).argmax(axis=1)]
        y = _encode(mul[inv[lead][:, None], Y], F.q)
        at = np.minimum(np.searchsorted(known, y), len(known) - 1)
        yield np.where(known[at] == y, order[at], -1)


def _indexer(table: np.ndarray) -> Callable[[np.ndarray], Optional[np.ndarray]]:
    """index(rows): the index in ``table`` of each row of ``rows``, or None if
    a row is not in it.  The entries of each row ascend, the table's rows
    ascend, and two entries determine a row of the table, as two points do
    a line."""
    width = int(table.max()) + 1
    first = table[:, 0] * width + table[:, 1]

    def index(rows):
        at = np.searchsorted(first, rows[:, 0] * width + rows[:, 1])
        at = np.minimum(at, len(table) - 1)
        return at if np.array_equal(table[at], rows) else None
    return index


#: rows of the relation matrix compared per gather by a certificate
CHECK_ROWS = 256


def certifier(base: Geometry, lines: np.ndarray,
              R: np.ndarray) -> Callable[[np.ndarray], Optional[np.ndarray]]:
    """certify(images): the permutation of the rows of ``lines``, the lines
    of a Grassmannian of base, induced by the images of the base points;
    None unless the images permute the base points and map base lines to
    base lines (sigma, on the Grassmannian's points) and the rows of lines
    to rows of lines, and R[sigma][:, sigma] == R."""
    base_lines = np.array(base.lines, dtype=lines.dtype)
    base_line_index, line_index = _indexer(base_lines), _indexer(lines)
    ones = np.ones(base.n, dtype=np.int64)

    def certify(images):
        if images.min() < 0 or not np.array_equal(np.bincount(images, minlength=base.n), ones):
            return None
        sigma = base_line_index(np.sort(images[base_lines], axis=1))
        if sigma is None:
            return None
        perm = line_index(np.sort(sigma[lines], axis=1))
        if perm is None or not all(
                np.array_equal(np.take(R[sigma[i:i + CHECK_ROWS]], sigma, axis=1),
                               R[i:i + CHECK_ROWS]) for i in range(0, len(R), CHECK_ROWS)):
            return None
        return perm
    return certify


def line_orbits(g: Geometry, lines: np.ndarray, R: np.ndarray) -> np.ndarray:
    """orbit[L]: the least line in the orbit of line L under the certified
    generators; L itself when none is certified.  lines holds g's lines,
    one row each, and R is the relation matrix on g's points that each
    generator must leave unchanged.  Candidates stop once the lines form
    one orbit."""
    label = np.arange(len(lines))
    if g.kind.family != "grassmannian":
        return label
    base = grassmannian_base(g)
    if len(base.lines) != g.n:
        return label
    certify = certifier(base, lines, R)
    perms = []
    for images in point_images(base):
        perm = certify(images)
        if perm is None:
            continue
        perms.append(perm)
        # hook each line onto the least label of its images, then jump each
        # label to its own label, until nothing moves
        while True:
            last = label
            for p in perms:
                label = np.minimum(label, label[p])
                label[p] = np.minimum(label[p], label)
            label = label[label]
            if np.array_equal(label, last):
                break
        if not label.any():
            break
    return label
