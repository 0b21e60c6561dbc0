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

Listing the points themselves (:func:`lattice_points`) still walks the
first n-1 axes and solves the final one per prefix.  Strict counts use
q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact because both sides are
integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from itertools import product
from operator import mul, sub
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, DualNotLattice
from .geometry import Polytope, has_lattice_dual, vertex_ranges

#: Maximum number of bounding-box cells an enumeration may touch.
DEFAULT_BUDGET = 10**8

#: Memo size, in polytopes.  Each memoised polytope keeps every count asked
#: of it, so one report's k(n+1) + m_max counts always fit, whatever k is.
_POLYTOPE_CACHE_SIZE = 16

IntPoint = tuple[int, ...]
Box = Sequence[tuple[int, int]]


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


def _last_axis_interval(facets: Sequence[_ScaledFacet], partials: Sequence[int],
                        m: int, strict: bool, lo: int, hi: int) -> tuple[int, int]:
    """Feasible integer range of the last coordinate given the first n-1.

    ``partials[i]`` is the inner product of facet i's normal with the fixed
    prefix.  Returns (lo, hi) with lo > hi when empty.
    """
    for (a, p, q), partial in zip(facets, partials):
        rhs = m * p - q * partial
        if strict:
            rhs -= 1
        an = a[-1]
        if an == 0:
            if rhs < 0:
                return 1, 0
        elif an > 0:
            d = q * an
            hi = min(hi, rhs // d)
        else:
            d = -q * an
            lo = max(lo, -(rhs // d))
        if lo > hi:
            return 1, 0
    return lo, hi


def _prefixes(facets: Sequence[_ScaledFacet], box: Box,
              depth: int) -> Iterator[tuple[IntPoint, tuple[int, ...]]]:
    """Yield (prefix, partials) for every integer point of the first
    ``depth`` box axes, where ``partials[i]`` is facet i's normal dotted
    with the prefix."""

    def recurse(axis: int, prefix: tuple[int, ...], partials: tuple[int, ...]):
        if axis == depth:
            yield prefix, partials
            return
        lo, hi = box[axis]
        for x in range(lo, hi + 1):
            updated = tuple(pp + f[0][axis] * x for pp, f in zip(partials, facets))
            yield from recurse(axis + 1, prefix + (x,), updated)

    yield from recurse(0, (), tuple(0 for _ in facets))


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
    if K.n == 1:
        lo, hi = _last_axis_interval(K.facets, (0,) * len(K.facets), m, strict, *box[0])
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


def lattice_points(P: Polytope, m: int, strict: bool = False,
                   budget: int = DEFAULT_BUDGET) -> list[IntPoint]:
    """The lattice points themselves, in lexicographic order."""
    K = _kernel(P)
    box = _check_budget(K, m, budget)
    if any(lo > hi for lo, hi in box):
        return []
    pts = []
    for prefix, partials in _prefixes(K.facets, box, K.n - 1):
        lo, hi = _last_axis_interval(K.facets, partials, m, strict, *box[-1])
        pts.extend(prefix + (z,) for z in range(lo, hi + 1))
    return pts


def interior_shift_mismatch(P: Polytope, m: int,
                            budget: int = DEFAULT_BUDGET) -> Optional[IntPoint]:
    """First witness against (mP interior) and (m-1)P having equal point sets.

    Returns the lexicographically smallest lattice point lying in exactly
    one of the two sets, or None when the sets coincide.  Makes no
    assumption about the dual of P.
    """
    if m < 1:
        raise ValueError("need m >= 1")
    inner = set(lattice_points(P, m, strict=True, budget=budget))
    outer = set(lattice_points(P, m - 1, strict=False, budget=budget))
    difference = inner.symmetric_difference(outer)
    if not difference:
        return None
    return min(difference)


def interior_shift_check(P: Polytope, m: int, budget: int = DEFAULT_BUDGET) -> bool:
    """Whether the interior lattice points of mP are exactly those of (m-1)P.

    Requires the polar dual of P to be a lattice polytope, the hypothesis
    under which the identity is guaranteed.  Then the origin is strictly
    inside P, so every facet bound b is positive and <a, x> <= (m-1)b < mb
    puts (m-1)P inside the interior of mP: the point sets are equal
    exactly when their counts are, and the counts are what is compared.
    """
    if not has_lattice_dual(P):
        raise DualNotLattice("the polar dual of P is not a lattice polytope")
    return (count_points(P, m, strict=True, budget=budget)
            == count_points(P, m - 1, budget=budget))


def clear_count_cache() -> None:
    """Drop the memoised kernels and counts (used by timing-sensitive test code)."""
    _kernel.cache_clear()
