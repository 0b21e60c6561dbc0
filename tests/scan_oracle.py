"""The section scan for the tests: the count of mP as the sum of the
closed-form counts of every section over the integer box of its prefix.

It shares the kernel's section plan and ``_section_count`` with
``ehrhart.counting``, but none of the chamber table: no strip, trapezoid,
cut choice or chain, so it checks the chamber walk for every n >= 2.
"""

from __future__ import annotations

from itertools import product
from operator import mul, sub

from ehrhart.counting import _Kernel, _section_count


def scan_count(K: _Kernel, m: int, strict: bool, box: list[tuple[int, int]]) -> int:
    """Lattice points of mP (strict: of its interior) for n >= 2, m >= 1
    and the non-empty closed ``box`` of mP, each section by a scan."""
    rhs = [m * p - int(strict) for p in K.bounds]
    y0, y1 = box[-2]
    # Fix the prefix but its last coordinate, which then steps C by the
    # last weight column from one section to the next; a 2D kernel's one
    # section is at x = 0 on its axis of zero weights.
    *outer, (lo, hi) = box[:-2] or [(0, 0)]
    step = [w[-1] for w in K.weights]
    total = 0
    for prefix in product(*(range(a, b + 1) for a, b in outer)):
        C = [r - sum(map(mul, w, prefix)) - s * lo
             for r, w, s in zip(rhs, K.weights, step)]
        for _ in range(lo, hi + 1):
            total += _section_count(K.plan, C, y0, y1)
            C = list(map(sub, C, step))
    return total
