"""Independent lattice-point listing for the tests: a recursive walk.

The walk fixes the first n-1 coordinates one axis at a time over the
integer bounding box of mP and solves the last one per prefix.  It derives
its own integer facets and box from ``P.facets`` and ``P.vertices`` and
shares no code with ``ehrhart.counting``, so it can check the counts and
the interior-shift witnesses there.  It lists every point, so it is slow:
about M^(n-1) prefixes for a box of width M.
"""

from __future__ import annotations

import math
from typing import Iterator

from ehrhart.geometry import Polytope

IntPoint = tuple[int, ...]


def lattice_points(P: Polytope, m: int, strict: bool = False) -> list[IntPoint]:
    """The lattice points of mP (strict: of its interior), in lexicographic
    order."""
    n = P.ambient_dim
    # Facet <a, x> <= p/q with integer a, as q*<a, x> <= m*p - strict.
    rows = []
    for h in P.facets:
        a = [int(c) for c in h.normal]
        q = h.bound.denominator
        rows.append(([q * c for c in a], m * h.bound.numerator - int(strict)))
    box = [(math.ceil(m * min(v[i] for v in P.vertices)),
            math.floor(m * max(v[i] for v in P.vertices))) for i in range(n)]
    points = []
    for prefix, partials in _prefixes(rows, box, n - 1):
        lo, hi = box[-1]
        for (a, rhs), partial in zip(rows, partials):
            room = rhs - partial
            if a[-1] > 0:
                hi = min(hi, room // a[-1])
            elif a[-1] < 0:
                lo = max(lo, -(room // -a[-1]))
            elif room < 0:
                lo, hi = 1, 0
        points.extend(prefix + (z,) for z in range(lo, hi + 1))
    return points


def _prefixes(rows, box, depth: int) -> Iterator[tuple[IntPoint, list[int]]]:
    """(prefix, partials) for every integer point of the first ``depth``
    box axes, where ``partials[i]`` is row i dotted with the prefix."""

    def recurse(axis: int, prefix: IntPoint, partials: list[int]):
        if axis == depth:
            yield prefix, partials
            return
        lo, hi = box[axis]
        for x in range(lo, hi + 1):
            yield from recurse(axis + 1, prefix + (x,),
                               [s + a[axis] * x for s, (a, _) in zip(partials, rows)])

    yield from recurse(0, (), [0] * len(rows))
