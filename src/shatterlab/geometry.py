"""Exact rational geometry: point/half-space arrangements and line-cell counts.

All predicates run over ``fractions.Fraction``; there is no floating point
anywhere in this module, so general-position checks are exact.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

from .dims import _sauer_sum
from .errors import (InputError, rational_text, reading, require_int, require_iterable,
                     require_rational)

__all__ = [
    "PointArrangement",
    "region_count_general_position",
    "line_arrangement_cells",
]


def _as_fraction_vector(vec, r):
    if not isinstance(vec, (list, tuple)) or len(vec) != r:
        raise InputError(f"vector {vec!r} is not a list of length {r}")
    return tuple(require_rational(v, "coordinate") for v in vec)


def _as_halfspace(halfspace, r):
    if not isinstance(halfspace, (list, tuple)) or len(halfspace) != 2:
        raise InputError(f"half-space {halfspace!r} is not a (normal, offset) pair")
    normal, offset = halfspace
    return _as_fraction_vector(normal, r), require_rational(offset, "offset")


@dataclass(frozen=True)
class PointArrangement:
    """Rational points and half-spaces in Q^r.

    A point p lies in half-space (normal, offset) when <normal, p> >= offset.
    """

    dimension: int
    points: tuple[tuple[Fraction, ...], ...]
    halfspaces: tuple[tuple[tuple[Fraction, ...], Fraction], ...]

    def __post_init__(self):
        r = require_int(self.dimension, "dimension r", 1)
        object.__setattr__(self, "points", tuple(
            _as_fraction_vector(p, r) for p in require_iterable(self.points, "points")))
        object.__setattr__(self, "halfspaces", tuple(
            _as_halfspace(h, r) for h in require_iterable(self.halfspaces, "half-spaces")))

    def to_json_dict(self):
        return {
            "r": self.dimension,
            "points": [[rational_text(c) for c in p] for p in self.points],
            "halfspaces": [{"normal": [rational_text(c) for c in n],
                            "offset": rational_text(c0)}
                           for n, c0 in self.halfspaces],
        }

    @classmethod
    def from_json_dict(cls, data):
        with reading("arrangement object"):
            return cls(data["r"], tuple(data.get("points", [])),
                       tuple((h["normal"], h["offset"]) for h in data.get("halfspaces", [])))

    def in_general_position(self):
        """True when every m <= r normals are independent and no point lies
        on a bounding hyperplane.  Only the subsets of size min(r, N) of the
        N normals are ranked: every smaller subset lies in one of them, and
        a subset of an independent set is independent."""
        normals = [h[0] for h in self.halfspaces]
        m = min(self.dimension, len(normals))
        if any(_rank(subset) < m for subset in itertools.combinations(normals, m)):
            return False
        for normal, offset in self.halfspaces:
            for p in self.points:
                if sum(a * b for a, b in zip(normal, p)) == offset:
                    return False
        return True


def _rank(rows):
    mat = [list(row) for row in rows]
    rank = 0
    cols = len(mat[0]) if mat else 0
    for c in range(cols):
        pivot = next((i for i in range(rank, len(mat)) if mat[i][c] != 0), None)
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        pr = mat[rank]
        for i in range(len(mat)):
            if i != rank and mat[i][c] != 0:
                factor = mat[i][c] / pr[c]
                mat[i] = [a - factor * b for a, b in zip(mat[i], pr)]
        rank += 1
    return rank


def region_count_general_position(r, s):
    """Closed-form piece count for s general-position hyperplanes in R^r:
    the sum of C(s, i) for i <= r, whose terms past s are 0, so the work
    grows with min(r, s)."""
    r, s = require_int(r, "r", 1), require_int(s, "s", 0)
    return _sauer_sum(s, r)


def _intersect(l1, l2):
    (a1, b1), c1 = l1
    (a2, b2), c2 = l2
    det = a1 * b2 - a2 * b1
    if det == 0:
        return None
    x = (c1 * b2 - c2 * b1) / det
    y = (a1 * c2 - a2 * c1) / det
    return (x, y)


def line_arrangement_cells(lines):
    """Exact cell count of a general-position line arrangement in Q^2.

    Lines are ((a, b), c) with equation a*x + b*y = c.  Counted via Euler's
    relation on the one-point compactification: with V proper intersection
    points and each of the s lines split into s edges, the face count is
    1 + s^2 - V.  The general-position preconditions (pairwise non-parallel,
    no three concurrent) are checked exactly and violations are reported.
    """
    norm = PointArrangement(2, (), lines).halfspaces
    for i, ((a, b), _) in enumerate(norm):
        if a == 0 and b == 0:
            raise InputError(f"degenerate line {i}: zero normal")
    s = len(norm)
    points = {}
    for i, j in itertools.combinations(range(s), 2):
        p = _intersect(norm[i], norm[j])
        if p is None:
            raise InputError(f"lines {i} and {j} are parallel")
        if p in points:
            k = points[p][0]
            raise InputError(f"lines {k}, {i}, {j} are concurrent at {p}")
        points[p] = (i, j)
    v = len(points)
    # Each line is cut into s pieces by the s-1 points on it; adding the
    # vertex at infinity gives V+1 vertices and s*s edges on the sphere.
    return 2 - (v + 1) + s * s
