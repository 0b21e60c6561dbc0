"""Exact enumeration of lattice points in dilations of a rational polytope.

Counting never constructs the dilated polytope: for a dilation factor m the
facet system of mP is the system of P with every bound scaled by m.  Each
facet <u, x> <= m * p/q is cleared of denominators once, after which all
point tests are pure integer arithmetic.

Counting walks the integer bounding box on the first n-2 axes only.  For
each such prefix the rest of mP is a convex polygon on the last two axes,
counted in closed form: each column of it runs from the upper envelope of
the lower facet lines to the lower envelope of the upper ones, each
envelope has at most F linear pieces, and the lattice points under one
piece are a single Euclid-style floor sum (Beck-Robins, *Computing the
Continuous Discretely*).  A count therefore costs about M^(n-2) prefixes
times a polynomial in F and log M, for a box of width M, instead of the
M^(n-1) prefixes of a walk.  One-dimensional counts solve their single
axis directly.  All that does not depend on m or the prefix (the scaled
facets, the vertex ranges, the upper/lower split of the facet lines and
their Fourier-Motzkin pairs) is derived once per polytope, in one kernel
that also holds the polytope's counts; a bounded memo keeps the kernels
of the last few polytopes, so each count costs one lookup.

The interior shift is decided by counts too.  With the origin strictly
inside P every facet bound is positive, so (m-1)P lies inside int(mP) and
the two have the same lattice points exactly when they have as many.  Only
on a count mismatch are points looked at, to name the least one of int(mP)
outside (m-1)P: the same prefixes and sections, one column y at a time.
Strict counts use q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact because
both sides are integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import mul, sub
from typing import Optional, Sequence

from .errors import BudgetExceeded, OriginNotInterior
from .geometry import Polytope, vertex_ranges

#: Maximum number of bounding-box cells an enumeration may touch.
DEFAULT_BUDGET = 10**8

#: Memo size, in polytopes.  Each memoised polytope keeps every count asked
#: of it, so one report's k(n+1) + m_max counts always fit, whatever k is.
_POLYTOPE_CACHE_SIZE = 16

IntPoint = tuple[int, ...]


# One scaled facet: (normal ints a, bound numerator p, bound denominator q),
# encoding q*<a, x> <= m*p for the dilation m.
_ScaledFacet = tuple[tuple[int, ...], int, int]


class _Kernel:
    """What counting derives from one polytope, and the counts made of it.

    ``facets`` holds the scaled facets; ``ranges`` the per-axis vertex
    (min, max) as (num, den, num, den) integer pairs; ``counts`` every
    count made so far, by (m, strict).  On the last two axes, with the
    first n-2 fixed to a prefix x, facet i is the line
    A_i*y + B_i*z <= m*p_i - strict - <weights[i], x>, where (A_i, B_i) and
    ``weights[i]`` are the last two and the other coefficients of q_i*a_i.
    ``plan`` is the :func:`_section_plan` of those lines.
    """

    def __init__(self, P: Polytope) -> None:
        self.n = P.ambient_dim
        self.facets = [(tuple(int(c) for c in h.normal),  # stored primitive
                        h.bound.numerator, h.bound.denominator) for h in P.facets]
        self.ranges = [(lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                       for lo, hi in vertex_ranges(P)]
        self.counts: dict[tuple[int, bool], int] = {}
        scaled = [[q * c for c in a] for a, _, q in self.facets]
        self.weights = [row[:-2] for row in scaled]
        self.plan = _section_plan([row[-2:] for row in scaled]) if self.n > 1 else None

    def box(self, m: int) -> list[tuple[int, int]]:
        """The integer bounding box of mP: ceil(m*lo) to floor(m*hi) per axis."""
        return [(-(-m * a // b), m * c // d) for a, b, c, d in self.ranges]


#: The kernel of a polytope, built on its first count.
_kernel = lru_cache(maxsize=_POLYTOPE_CACHE_SIZE)(_Kernel)


def _check_budget(K: _Kernel, m: int, budget: int) -> list[tuple[int, int]]:
    if m < 0:
        raise ValueError("dilation factor must be non-negative")
    box = K.box(m)
    cells = math.prod(max(0, hi - lo + 1) for lo, hi in box)
    if cells > budget:
        raise BudgetExceeded(
            f"bounding box of {m}P has {cells} cells, budget is {budget}")
    return box


def _last_axis_interval(facets: Sequence[_ScaledFacet], m: int, strict: bool,
                        lo: int, hi: int) -> tuple[int, int]:
    """The integers of [lo, hi] in mP (strict: in its interior) for a
    one-dimensional P, as (lo, hi), or (1, 0) when there are none.

    Facet (a, p, q) reads q*a*z <= m*p - strict, with a = 1 or a = -1.
    """
    for (a,), p, q in facets:
        rhs = m * p - strict
        if a > 0:
            hi = min(hi, rhs // q)
        else:
            lo = max(lo, -(rhs // q))
    return (lo, hi) if lo <= hi else (1, 0)


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for n >= 0 and m > 0.

    The Euclid-style recurrence of the AtCoder Library's ``floor_sum``:
    reduce a and b mod m, then swap the roles of a and m, in O(log m)
    steps.  Python's floor ``divmod`` makes negative a and b work as-is.
    """
    total = 0
    while n:
        qa, a = divmod(a, m)
        qb, b = divmod(b, m)
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:
            break
        n, b = divmod(top, m)
        m, a = a, m
    return total


# One facet line on the last two axes, A*y + B*z <= C.
_Line = tuple[int, int, int]


def _envelope_sum(lines: Sequence[_Line], y0: int, y1: int) -> int:
    """Sum over y = y0..y1 of min_i floor((C_i - A_i*y) / B_i), all B_i > 0.

    Walks the lower envelope of the lines left to right.  Each piece ends
    where a faster-falling line passes below, so slopes only fall, only
    the faster-falling lines stay candidates for the next piece, and there
    are at most as many pieces as lines, each summed by one
    :func:`_floor_sum`.  Comparisons are cross-multiplied, so exact.
    """
    total = 0
    y = y0
    while y <= y1:
        # A line lowest at y.  It stays lowest until a faster-falling line
        # passes below it, which a line tied with it at y does at y + 1.
        A, B, C = lines[0]
        for a, b, c in lines:
            if (c - a * y) * B < (C - A * y) * b:
                A, B, C = a, b, c
        end = y1
        faster = []
        for a, b, c in lines:
            steeper = a * B - A * b
            if steeper > 0:
                faster.append((a, b, c))
                cut = (c * B - C * b) // steeper
                if cut < end:
                    end = cut
        total += _floor_sum(end - y + 1, B, -A, C - A * y)
        y = end + 1
        lines = faster
    return total


def _section_plan(lines: Sequence[tuple[int, int]]) -> tuple:
    """What a section count of the lines A*y + B*z <= C[i] needs of their
    (A, B) alone.  Returns the uppers (A, B, i) with B > 0, the lowers (A, -B, i) with
    B < 0 (z >= (A*y - C[i]) / -B), and the cuts (D, i, s, j, t), each
    D*y <= s*C[i] + t*C[j], in three lists by the sign of D, negative D
    negated.  By Fourier-Motzkin the section is non-empty over the reals
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
    return (_envelope_sum([(A, B, C[i]) for A, B, i in uppers], y0, y1)
            + _envelope_sum([(A, B, C[i]) for A, B, i in lowers], y0, y1)
            + (y1 - y0 + 1))


def _exact_count(K: _Kernel, m: int, strict: bool) -> int:
    """Lattice points of mP (strict: of its interior), uncached."""
    box = K.box(m)
    if any(lo > hi for lo, hi in box):
        return 0
    if K.n == 1:
        lo, hi = _last_axis_interval(K.facets, m, strict, *box[0])
        return hi - lo + 1  # (1, 0) when empty
    rhs = [m * p - int(strict) for _, p, _ in K.facets]
    y0, y1 = box[-2]
    if K.n == 2:
        return _section_count(K.plan, rhs, y0, y1)
    # Fix the prefix but its last coordinate, which then steps C by the
    # last weight column from one section to the next.
    *outer, (lo, hi) = box[:-2]
    step = [w[-1] for w in K.weights]
    total = 0
    for prefix in product(*(range(a, b + 1) for a, b in outer)):
        C = [r - sum(map(mul, w, prefix)) - s * lo
             for r, w, s in zip(rhs, K.weights, step)]
        for _ in range(lo, hi + 1):
            total += _section_count(K.plan, C, y0, y1)
            C = list(map(sub, C, step))
    return total


def count_points(P: Polytope, m: int, strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattice points of mP (strict: of the interior of mP).

    m = 0 falls out of the facet arithmetic as the single point at the
    origin for the closed count and the empty set for the strict one.
    """
    K = _kernel(P)
    _check_budget(K, m, budget)
    if (m, strict) not in K.counts:
        K.counts[m, strict] = _exact_count(K, m, strict)
    return K.counts[m, strict]


def interior_shift_mismatch(P: Polytope, m: int,
                            budget: int = DEFAULT_BUDGET) -> Optional[IntPoint]:
    """The least lattice point in exactly one of int(mP) and (m-1)P, or
    None when they have the same lattice points (for every m when the
    polar dual of P is a lattice polytope).

    Requires the origin strictly inside P, so that every facet bound b is
    positive and <a, x> <= (m-1)b < mb puts (m-1)P inside int(mP): the two
    are equal exactly when their counts are, and differ in int(mP) only.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    K = _kernel(P)
    if not all(p > 0 for _, p, _ in K.facets):
        raise OriginNotInterior("the interior shift needs the origin strictly inside")
    if (count_points(P, m, strict=True, budget=budget)
            == count_points(P, m - 1, budget=budget)):
        return None
    return _shift_witness(K, m)


def _shift_witness(K: _Kernel, m: int) -> Optional[IntPoint]:
    """The least lattice point of int(mP) outside (m-1)P, or None.

    Walks the count's prefixes in lexicographic order and, within a
    prefix whose two section counts differ, its columns y = y0..y1.  Each
    column of (m-1)P lies in that of int(mP), so the first column whose
    counts differ holds the witness: the inner column's least point, or
    the one just above the outer column when both start there.
    """
    box = K.box(m)
    if any(lo > hi for lo, hi in box):
        return None
    if K.n == 1:
        lo, hi = _last_axis_interval(K.facets, m, True, *box[0])
        olo, ohi = _last_axis_interval(K.facets, m - 1, False, *box[0])
        z = lo if olo > ohi or lo < olo else ohi + 1
        return (z,) if z <= hi else None
    def bottom(C: list[int], y: int) -> int:  # the least z of column y
        return -_envelope_sum([(A, B, C[i]) for A, B, i in K.plan[1]], y, y)

    bounds = [p for _, p, _ in K.facets]
    y0, y1 = box[-2]
    for prefix in product(*(range(a, b + 1) for a, b in box[:-2])):
        dots = [sum(map(mul, w, prefix)) for w in K.weights]
        inner = [m * p - 1 - d for p, d in zip(bounds, dots)]
        outer = [(m - 1) * p - d for p, d in zip(bounds, dots)]
        if _section_count(K.plan, inner, y0, y1) == _section_count(K.plan, outer, y0, y1):
            continue
        for y in range(y0, y1 + 1):
            shared = _section_count(K.plan, outer, y, y)
            if _section_count(K.plan, inner, y, y) != shared:
                z = bottom(inner, y)
                if shared and z == bottom(outer, y):
                    z += shared
                return (*prefix, y, z)
    return None


def clear_count_cache() -> None:
    """Drop the memoised kernels and counts (used by timing-sensitive test code)."""
    _kernel.cache_clear()
