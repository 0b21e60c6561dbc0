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
axis directly.

Listing the points themselves (:func:`lattice_points`) still walks the
first n-1 axes and solves the final one per prefix.  Strict counts use
q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact because both sides are
integers.
"""

from __future__ import annotations

import math
from functools import lru_cache
from typing import Iterator, Optional, Sequence

from .errors import BudgetExceeded, DualNotLattice
from .geometry import Polytope, dual, is_lattice, vertex_ranges

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


@lru_cache(maxsize=_POLYTOPE_CACHE_SIZE)
def _scaled_facets(P: Polytope) -> tuple[_ScaledFacet, ...]:
    out = []
    for h in P.facets:
        a = tuple(int(c) for c in h.normal)  # facets are stored primitive
        out.append((a, h.bound.numerator, h.bound.denominator))
    return tuple(out)


@lru_cache(maxsize=_POLYTOPE_CACHE_SIZE)
def _ranges(P: Polytope) -> tuple[tuple[int, int, int, int], ...]:
    """Per-axis vertex (min, max) as (num, den, num, den) integer pairs."""
    return tuple((lo.numerator, lo.denominator, hi.numerator, hi.denominator)
                 for lo, hi in vertex_ranges(P))


def _box_of(P: Polytope, m: int) -> list[tuple[int, int]]:
    """The integer bounding box of mP: ceil(m*lo) to floor(m*hi) per axis."""
    return [(-(-m * a // b), m * c // d) for a, b, c, d in _ranges(P)]


def _box_cells(box: Box) -> int:
    return math.prod(max(0, hi - lo + 1) for lo, hi in box)


def _check_budget(P: Polytope, m: int, budget: int) -> list[tuple[int, int]]:
    if m < 0:
        raise ValueError("dilation factor must be non-negative")
    box = _box_of(P, m)
    cells = _box_cells(box)
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


def _walk(P: Polytope, m: int, strict: bool, box: Box) -> Iterator[tuple[IntPoint, int, int]]:
    """Yield (prefix, zlo, zhi) for every feasible final-axis interval."""
    facets = _scaled_facets(P)
    n = P.ambient_dim
    last_lo, last_hi = box[n - 1]
    for prefix, partials in _prefixes(facets, box, n - 1):
        zlo, zhi = _last_axis_interval(facets, partials, m, strict, last_lo, last_hi)
        if zlo <= zhi:
            yield prefix, zlo, zhi


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
    where a faster-falling line passes below, so slopes only fall and there
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
        for a, b, c in lines:
            steeper = a * B - A * b
            if steeper > 0:
                end = min(end, (c * B - C * b) // steeper)
        total += _floor_sum(end - y + 1, B, -A, C - A * y)
        y = end + 1
    return total


def _section_count(lines: Sequence[_Line], y0: int, y1: int) -> int:
    """Lattice points (y, z) with y0 <= y <= y1 and A*y + B*z <= C for all
    the lines: one two-dimensional section of a dilate."""
    uppers, lowers = [], []
    cuts = []  # y-only constraints D*y <= E
    for A, B, C in lines:
        if B > 0:
            uppers.append((A, B, C))
        elif B < 0:
            lowers.append((A, -B, C))  # z >= (A*y - C) / -B
        else:
            cuts.append((A, C))
    # Fourier-Motzkin: the section is non-empty over the reals exactly at
    # the y where the B = 0 rows and every lower-below-upper pair hold.
    for Au, Bu, Cu in uppers:
        for Al, Bl, Cl in lowers:
            cuts.append((Au * Bl + Al * Bu, Cu * Bl + Cl * Bu))
    for D, E in cuts:
        if D > 0:
            y1 = min(y1, E // D)
        elif D < 0:
            y0 = max(y0, -(E // -D))
        elif E < 0:
            return 0
    if y0 > y1:
        return 0
    # Column y holds floor(upper) - ceil(lower) + 1 >= 0 points, and
    # -ceil(lower) is the same min-of-floors form as the upper envelope.
    return _envelope_sum(uppers, y0, y1) + _envelope_sum(lowers, y0, y1) + (y1 - y0 + 1)


def _exact_count(P: Polytope, m: int, strict: bool) -> int:
    """Lattice points of mP (strict: of its interior), uncached."""
    box = _box_of(P, m)
    facets = _scaled_facets(P)
    n = P.ambient_dim
    if n == 1:
        lo, hi = _last_axis_interval(facets, (0,) * len(facets), m, strict, *box[0])
        return hi - lo + 1  # (1, 0) when empty
    # Facet i on the last two axes:
    # q*a[-2]*y + q*a[-1]*z <= m*p - q*partial (minus 1 when strict).
    rows = [(q * a[-2], q * a[-1], m * p - int(strict), q) for a, p, q in facets]
    y0, y1 = box[n - 2]
    return sum(
        _section_count([(A, B, C - q * pp) for (A, B, C, q), pp in zip(rows, partials)],
                       y0, y1)
        for _, partials in _prefixes(facets, box, n - 2))


@lru_cache(maxsize=_POLYTOPE_CACHE_SIZE)
def _counts_of(P: Polytope) -> dict[tuple[int, bool], int]:
    return {}


def _count(P: Polytope, m: int, strict: bool) -> int:
    counts = _counts_of(P)
    key = (m, strict)
    if key not in counts:
        counts[key] = _exact_count(P, m, strict)
    return counts[key]


def count_points(P: Polytope, m: int, strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattice points of mP (strict: of the interior of mP).

    m = 0 falls out of the facet arithmetic as the single point at the
    origin for the closed count and the empty set for the strict one.
    """
    _check_budget(P, m, budget)
    return _count(P, m, strict)


def lattice_points(P: Polytope, m: int, strict: bool = False,
                   budget: int = DEFAULT_BUDGET) -> list[IntPoint]:
    """The lattice points themselves, in lexicographic order."""
    box = _check_budget(P, m, budget)
    if _box_cells(box) == 0:
        return []
    pts = []
    for prefix, zlo, zhi in _walk(P, m, strict, box):
        pts.extend(prefix + (z,) for z in range(zlo, zhi + 1))
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

    This is a set comparison, not a cardinality comparison.  Requires the
    polar dual of P to be a lattice polytope, the hypothesis under which
    the identity is guaranteed.
    """
    if not is_lattice(dual(P)):
        raise DualNotLattice("the polar dual of P is not a lattice polytope")
    return interior_shift_mismatch(P, m, budget=budget) is None


def clear_count_cache() -> None:
    """Drop memoised counts (used by timing-sensitive test code)."""
    _counts_of.cache_clear()
    _scaled_facets.cache_clear()
    _ranges.cache_clear()
