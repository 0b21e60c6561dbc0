"""Exact enumeration of lattice points in dilations of a rational polytope.

Counting never constructs the dilated polytope: for a dilation factor m the
facet system of mP is the system of P with every bound scaled by m.  Each
facet <u, x> <= m * p/q is cleared of denominators once, after which all
point tests are pure integer arithmetic.

The walk iterates the integer bounding box on the first n-1 axes and solves
the final axis in closed form from the facet inequalities, so the cost is
proportional to the box cross-section, not its volume.  Strict counts use
q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact because both sides are
integers.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from typing import Iterator, Optional, Sequence, Union

from .errors import BudgetExceeded, DualNotLattice, NonIntegerNormal
from .geometry import HalfSpace, Polytope, dual, is_lattice, vertex_ranges

#: Maximum number of bounding-box cells an enumeration may touch.
DEFAULT_BUDGET = 10**8

#: Memo size, in polytopes.  Each memoised polytope keeps every count asked
#: of it, so one report's k(n+1) + m_max counts always fit, whatever k is.
_POLYTOPE_CACHE_SIZE = 16

IntPoint = tuple[int, ...]
Box = Sequence[tuple[int, int]]


@dataclass(frozen=True)
class CountRecord:
    """Closed and strict-interior lattice-point counts of one dilation."""

    m: int
    closed_count: int
    interior_count: int


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


def _box_of(P: Polytope, m: int) -> list[tuple[int, int]]:
    return [(math.ceil(m * lo), math.floor(m * hi)) for lo, hi in vertex_ranges(P)]


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


def _walk(P: Polytope, m: int, strict: bool, box: Box) -> Iterator[tuple[IntPoint, int, int]]:
    """Yield (prefix, zlo, zhi) for every feasible final-axis interval."""
    facets = _scaled_facets(P)
    n = P.ambient_dim
    last_lo, last_hi = box[n - 1]

    def recurse(axis: int, prefix: tuple[int, ...], partials: tuple[int, ...]):
        if axis == n - 1:
            zlo, zhi = _last_axis_interval(facets, partials, m, strict, last_lo, last_hi)
            if zlo <= zhi:
                yield prefix, zlo, zhi
            return
        lo, hi = box[axis]
        for x in range(lo, hi + 1):
            updated = tuple(pp + f[0][axis] * x for pp, f in zip(partials, facets))
            yield from recurse(axis + 1, prefix + (x,), updated)

    yield from recurse(0, (), tuple(0 for _ in facets))


@lru_cache(maxsize=_POLYTOPE_CACHE_SIZE)
def _counts_of(P: Polytope) -> dict[tuple[int, bool], int]:
    return {}


def _count(P: Polytope, m: int, strict: bool) -> int:
    counts = _counts_of(P)
    key = (m, strict)
    if key not in counts:
        box = _box_of(P, m)
        walked = _walk(P, m, strict, box) if _box_cells(box) else ()
        counts[key] = sum(zhi - zlo + 1 for _, zlo, zhi in walked)
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


def count_record(P: Polytope, m: int, budget: int = DEFAULT_BUDGET) -> CountRecord:
    return CountRecord(m, count_points(P, m, budget=budget),
                       count_points(P, m, strict=True, budget=budget))


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


def height_profile(u: Union[HalfSpace, Sequence[Union[int, Fraction]]],
                   box: Box) -> list[int]:
    """Heights <u, x> of every lattice point of an integer box, sorted.

    The multiset of heights relative to the hyperplane <u, x> = c.  The
    normal must be integral (heights of lattice points are then integers by
    construction); a fractional normal raises ``NonIntegerNormal``.
    """
    normal = u.normal if isinstance(u, HalfSpace) else tuple(Fraction(c) for c in u)
    if any(c.denominator != 1 for c in normal):
        raise NonIntegerNormal(f"normal {normal} is not integral")
    ints = tuple(int(c) for c in normal)
    if len(ints) != len(box):
        raise ValueError("normal and box dimensions differ")
    ranges = [range(lo, hi + 1) for lo, hi in box]
    heights = [sum(a * x for a, x in zip(ints, pt)) for pt in product(*ranges)]
    heights.sort()
    return heights


def clear_count_cache() -> None:
    """Drop memoised counts (used by timing-sensitive test code)."""
    _counts_of.cache_clear()
    _scaled_facets.cache_clear()
