"""The chamber table's envelope chains for the tests, by testing every line
against every other.

``real_chain`` takes the arguments of ``ehrhart.counting._real_chain`` and
returns the lines that are lowest on an interval of positive length, found
one line at a time: each other line bounds the interval where this one lies
at or below it, from the left or from the right by the sign of their slope
difference, and a parallel line that lies lower everywhere empties it.  It
shares no step with the chamber table's one-sweep chain.
"""

from __future__ import annotations

from typing import Sequence


def real_chain(lines: Sequence[tuple[int, int, int]], c: Sequence[int],
               y0: tuple[int, int], y1: tuple[int, int]) -> list[tuple[int, int, int]]:
    """The lines (A, B, i), B > 0, lowest on an interval of positive length
    in min_i (c[i] - A*y) / B over the real y0 < y1, in the order given.
    The ends are (numerator, denominator) pairs, denominators positive."""
    chain = []
    for A, B, i in lines:
        (p, q), (r, s) = y0, y1  # line i is lowest on p/q < y < r/s at most
        for a, b, j in lines:  # line i is at or below line j where e*y <= f
            e, f = a * B - A * b, c[j] * B - c[i] * b
            if e > 0 and f * s < r * e:
                r, s = f, e
            elif e < 0 and f * q < p * e:
                p, q = -f, -e
            elif e == 0 and f < 0:  # line j is parallel and lower everywhere
                r, s = p, q
        if p * s < r * q:
            chain.append((A, B, i))
    return chain
