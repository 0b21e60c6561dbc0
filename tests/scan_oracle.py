"""The section scan for the tests: the count of mP as the sum of the
closed-form counts of every section over the integer box of its prefix.

It takes only the kernel's facet lines, bounds and weights from
``ehrhart.counting``, and keeps its own section plan, level cuts
included, section counter, which walks the envelopes of each section
piece by piece, and floor sum.  It shares none of the chamber table: no
strip, trapezoid, cut choice, chain or floor-sum split, so it checks the
chamber walk for every n >= 2.
"""

from __future__ import annotations

from itertools import product
from operator import mul, sub
from typing import Sequence

from ehrhart.counting import _Kernel


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for n >= 0 and m > 0.

    Reduces a and b mod m, summing what they drop, then counts the points
    under the line that are left by columns of the swapped problem: its
    n, m, a, b are the (a*n + b) // m, a, m, (a*n + b) % m of this one.
    """
    total = 0
    while n:
        total += a // m * (n * (n - 1) // 2) + b // m * n
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        n, m, a, b = top // m, a, m, top % m
    return total


def _section_plan(lines: Sequence[tuple[int, int]]) -> tuple:
    """What a section count of the lines A*y + B*z <= C[i] needs of their
    (A, B) alone.  Returns the uppers (A, B, i) with B > 0, the lowers
    (A, -B, i) with B < 0 (z >= (A*y - C[i]) / -B), and the cuts
    (D, i, s, j, t), each D*y <= s*C[i] + t*C[j], in three lists by the
    sign of D, negative D negated.  By Fourier-Motzkin the section is non-empty over the reals
    exactly where the B = 0 rows and every lower-below-upper pair hold.
    """
    uppers, lowers, cuts = [], [], []
    for i, (A, B) in enumerate(lines):
        if B > 0:
            uppers.append((A, B, i))
        elif B < 0:
            lowers.append((A, -B, i))
        else:
            cuts.append((A, i, 1, i, 0))
    cuts += [(Au * Bl + Al * Bu, i, Bl, j, Bu)
             for Au, Bu, i in uppers for Al, Bl, j in lowers]
    return (uppers, lowers, [c for c in cuts if c[0] == 0], [c for c in cuts if c[0] > 0],
            [(-D, i, s, j, t) for D, i, s, j, t in cuts if D < 0])


def _envelope_sum(lines: Sequence[tuple], C: Sequence[int], y: int, y1: int) -> int:
    """Sum over y..y1 of min_i floor((C[i] - A_i*y) / B_i), all B_i > 0.

    Walks the lower envelope left to right, one floor sum per piece.  Each
    piece ends where a faster-falling line passes below, so slopes only
    fall, and only the faster-falling lines stay candidates for the next
    piece.  Comparisons are cross-multiplied, so exact.
    """
    total = 0
    while y <= y1:
        # A line lowest at y.  It stays lowest until a faster-falling line
        # passes below it, which a line tied with it at y does at y + 1.
        A, B, i = lines[0]
        for a, b, j in lines:
            if (C[j] - a * y) * B < (C[i] - A * y) * b:
                A, B, i = a, b, j
        end = y1
        faster = []
        for a, b, j in lines:
            steeper = a * B - A * b
            if steeper > 0:
                faster.append((a, b, j))
                cut = (C[j] * B - C[i] * b) // steeper
                if cut < end:
                    end = cut
        total += _floor_sum(end - y + 1, B, -A, C[i] - A * y)
        y = end + 1
        lines = faster
    return total


def _section_count(plan: tuple, C: Sequence[int], y0: int, y1: int) -> int:
    """Lattice points (y, z) with y0 <= y <= y1 and A*y + B*z <= C[i] for
    every line of the plan: one two-dimensional section of a dilate."""
    uppers, lowers, level, above, below = plan
    for _, i, s, j, t in level:
        if s * C[i] + t * C[j] < 0:
            return 0
    for D, i, s, j, t in above:
        cut = (s * C[i] + t * C[j]) // D
        if cut < y1:
            y1 = cut
    for D, i, s, j, t in below:
        cut = -((s * C[i] + t * C[j]) // D)
        if cut > y0:
            y0 = cut
    if y0 > y1:
        return 0
    # Column y holds floor(upper) - ceil(lower) + 1 >= 0 points, and
    # -ceil(lower) is the same min-of-floors form as the upper envelope.
    return (_envelope_sum(uppers, C, y0, y1) + _envelope_sum(lowers, C, y0, y1)
            + (y1 - y0 + 1))


def scan_count(K: _Kernel, m: int, strict: bool, box: list[tuple[int, int]]) -> int:
    """Lattice points of mP (strict: of its interior) for n >= 2, m >= 1
    and the non-empty closed ``box`` of mP, each section by a scan."""
    plan = _section_plan(K.lines)
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
            total += _section_count(plan, C, y0, y1)
            C = list(map(sub, C, step))
    return total
