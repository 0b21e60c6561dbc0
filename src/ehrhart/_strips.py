"""The strips of a 4D polytope's projection to its first two axes, on
which :mod:`ehrhart.counting` builds the chamber table of a 4D count.

Kept apart from :mod:`ehrhart.counting`, so that a 2D or 3D count, such as
one ``ehrhart count`` child process, neither compiles nor loads it.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import combinations

from .counting import _by_value


def strips(rows: list[tuple], L: int) -> list[tuple]:
    """The vertical decomposition of the projection of a 4D polytope P to
    its first two axes, in u = x1/m: one (end, middle, edges) per strip
    between consecutive cuts, the first coordinates of the vertices and of
    the crossings of two projected edges.  Both u are (numerator,
    denominator) pairs, and ``edges`` are the projected edges that span the
    strip, bottom to top, each x2/m = (p + q*u)/d held as (p, q, d), d > 0.

    ``rows`` holds, sorted, a (row, mask) pair per vertex row of LP, L being
    P's scale: the row in the walk's axis order and its ``P._incidence``.
    Vertices u and v span an edge when no third vertex is tight on every
    facet that is tight at both.  An edge that projects to a point or to a
    segment at one u only lies on a cut.
    """
    lines = set()  # x2 = (a + b*X)/d on lo <= X <= hi in lowest terms, X = L*x1/m
    for (u, f), (v, g) in combinations(rows, 2):  # rows sorted: u1 <= v1
        both = f & g
        if u[0] < v[0] and sum(h & both == both for _, h in rows) == 2:
            (u1, u2), (v1, v2) = u[:2], v[:2]
            a, b, d = u2 * (v1 - u1) - u1 * (v2 - u2), v2 - u2, v1 - u1
            r = math.gcd(a, b, d)
            lines.add((a // r, b // r, d // r, u1, v1))
    cuts = {(row[0], 1) for row, _ in rows}
    for (a, b, d, lo, hi), (e, f, g, lo2, hi2) in combinations(lines, 2):
        den, num = b * g - f * d, e * d - a * g  # where (a + b*X)/d = (e + f*X)/g
        if den < 0:
            den, num = -den, -num
        if den and max(lo, lo2) * den < num < min(hi, hi2) * den:
            r = math.gcd(num, den)
            cuts.add((num // r, den // r))
    cuts = sorted(cuts, key=cmp_to_key(_by_value))
    result = []
    for (s, t), (s1, t1) in zip(cuts, cuts[1:]):
        mn, md = s * t1 + s1 * t, 2 * t * t1  # the strip's middle X = mn/md

        def middle(line: tuple[int, int, int]) -> tuple[int, int]:  # x2 there, times md
            return line[0] * md + line[1] * mn, line[2]

        edges = sorted({line[:3] for line in lines if line[3] * t <= s and line[4] * t1 >= s1},
                       key=cmp_to_key(lambda k, l: _by_value(middle(k), middle(l))))
        result.append(((s1, L * t1), (mn, L * md), [(a, L * b, L * d) for a, b, d in edges]))
    return result
