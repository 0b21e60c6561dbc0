"""The axis order that ``ehrhart.counting._frame`` should choose, for the
tests, by pricing every order of the axes from dot products.

``frame`` finds each facet's vertex rows as the rows r of P with
<a, r> = b for the facet's integer row (a, b), and reads no incidence mask.
An order (..., y, z) walks its leading axes and sections on the last two;
it costs, summed over the facets, 1 + the number of terms of the continued
fraction of -a_y/|a_z| (none when a_z = 0), at most ``_FRAME_STEPS`` terms,
times the width, plus one in 4D, of the facet's vertex rows on each walked
axis.  The first order of least cost wins, in the order of
``itertools.permutations``; as in ``_frame``, P's own order is None, as is
every order of a polygon or a segment.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import permutations
from operator import mul
from typing import Optional

from ehrhart.counting import _FRAME_STEPS
from ehrhart.geometry import Polytope


def continued_fraction_terms(x: Fraction) -> int:
    """The number of terms of the continued fraction of x."""
    terms = 1
    while x.denominator != 1:
        x = 1 / (x - math.floor(x))
        terms += 1
    return terms


def frame(P: Polytope) -> Optional[tuple[int, ...]]:
    """The first cheapest order of P's axes, or None for P's own or n < 3."""
    n = P.ambient_dim
    if n < 3:
        return None
    facets = []
    for a, b in P.facet_rows:
        rows = [row for row in P.rows if sum(map(mul, a, row)) == b]
        widths = [max(r[j] for r in rows) - min(r[j] for r in rows) + (n == 4)
                  for j in range(n)]
        facets.append((a, widths))

    def cost(order: tuple[int, ...]) -> int:
        *walked, y, z = order
        total = 0
        for a, widths in facets:
            steps = 1
            if a[z]:
                steps += min(continued_fraction_terms(Fraction(-a[y], abs(a[z]))),
                             _FRAME_STEPS)
            total += steps * math.prod(widths[j] for j in walked)
        return total

    orders = list(permutations(range(n)))
    costs = [cost(order) for order in orders]
    order = orders[costs.index(min(costs))]
    return None if order == orders[0] else order
