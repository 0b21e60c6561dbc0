"""Exact geometry of full-dimensional rational convex polytopes.

A polytope is held in one canonical integer form: its scale L, the least
positive integer with LP a lattice polytope; the vertices of LP as sorted
integer rows; and its facets as sorted rows (a, b) with a primitive integer
normal a, each meaning <a, x> <= b / L.  The hull (:func:`from_ratios`, one
integer facet scan with no linear program) builds that form from the input
without a ``fractions.Fraction``; the denominator, the vertex ranges and
the polar dual (vertices and facets swapped, no scan) are read off it.
``Fraction`` vertices and (normal, bound) ``Fraction`` facet pairs are
only views of the rows, built on first use and cached in the instance
``__dict__`` beside the four fields, and :mod:`fractions` is imported only
where a point or a view is built.  There is no floating point anywhere in
this package.  The scan suits desk scale (tens of vertices, dimension
<= 4), which a fixed ambient-dimension cap guards.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from operator import itemgetter, mul
from typing import TYPE_CHECKING, Iterable, Optional, Sequence, Union

from .errors import (
    AmbientDimensionCap,
    DimensionDeficient,
    DimensionMismatch,
    EmptyInput,
    OriginNotInterior,
)

if TYPE_CHECKING:  # imported where a point or a view is built, not before
    from fractions import Fraction

Coordinate = Union["Fraction", int, str]

#: Exhaustive facet search and box enumeration blow up beyond desk scale,
#: so no hull is built in a higher dimension.
MAX_DIM = 4


def point(coords: Iterable[Coordinate]) -> tuple[Fraction, ...]:
    """Build a rational point, coercing ints and 'p/q' strings exactly."""
    from fractions import Fraction
    return tuple(Fraction(c) for c in coords)


class Polytope:
    """A full-dimensional rational polytope in canonical integer form: the
    ``scale`` L, the lcm of its vertex denominators; the vertices of LP as
    sorted integer ``rows``; and the complete facet list as sorted
    ``facet_rows`` (a, b), each <a, x> <= b / L with a primitive.  Build
    instances with :func:`from_vertices`, which establishes these
    invariants.  ``vertices`` and ``facets`` are views, built on first use.
    Immutable; equal when the dimensions and vertices are, that is (n, L, rows).
    The fields and views live in ``__dict__``, so pickling and copying use
    the default protocol, which fills it without calling ``__setattr__``.
    """

    def __init__(self, ambient_dim: int, scale: int, rows: tuple,
                 facet_rows: tuple) -> None:
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if not rows:
            raise ValueError("polytope must have vertices")
        for row in rows:
            if len(row) != ambient_dim:
                raise DimensionMismatch(
                    f"vertex row {row} does not live in dimension {ambient_dim}")
        # Written past __setattr__, into the __dict__ the views are cached in.
        self.__dict__.update(ambient_dim=ambient_dim, scale=scale, rows=rows,
                             facet_rows=facet_rows)

    @cached_property
    def vertices(self) -> tuple[tuple[Fraction, ...], ...]:
        """The vertices as ``Fraction`` points, lexicographically sorted."""
        from fractions import Fraction
        return tuple(tuple(Fraction(c, self.scale) for c in row) for row in self.rows)

    @cached_property
    def facets(self) -> tuple[tuple[tuple[Fraction, ...], Fraction], ...]:
        """The facets as sorted (normal, bound) pairs, each the half-space
        <normal, x> <= bound with a primitive integer normal."""
        from fractions import Fraction
        return tuple((tuple(map(Fraction, a)), Fraction(b, self.scale))
                     for a, b in self.facet_rows)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return ((self.ambient_dim, self.scale, self.rows)
                == (other.ambient_dim, other.scale, other.rows))

    def __hash__(self) -> int:
        return hash((self.ambient_dim, self.scale, self.rows))

    def __repr__(self) -> str:
        return (f"Polytope(ambient_dim={self.ambient_dim!r}, "
                f"vertices={self.vertices!r}, facets={self.facets!r})")


def from_vertices(points: Iterable[Iterable[Coordinate]]) -> Polytope:
    """Convex hull of the given rational points: :func:`from_ratios` of
    their exact coordinates."""
    return from_ratios([[(c.numerator, c.denominator) for c in point(p)]
                        for p in points])


def from_ratios(points: Sequence[Sequence[tuple[int, int]]]) -> Polytope:
    """Convex hull of points given by (numerator, denominator) coordinate
    pairs, denominators positive.

    The points are scaled to integers by the lcm L of their denominators,
    and every hyperplane through n of them with all the others on one side
    is a facet <a, x> <= b / L, a primitive.  A point is a vertex when no
    other point lies on every facet through it.  One scan tests the planes
    through the C(N, n) n-subsets of the N unique points against all of
    them, the per-axis extreme points first, so that a plane that is no
    facet soon meets points on both of its sides.  L then drops the factor
    the vertices do not need.  Raises ``DimensionDeficient`` when the points
    do not span the ambient space, and ``AmbientDimensionCap`` when it has
    more than ``MAX_DIM`` dimensions.
    """
    if not points:
        raise EmptyInput("need at least one point")
    n = len(points[0])
    if n < 1:
        raise EmptyInput("points must have at least one coordinate")
    if any(len(p) != n for p in points):
        raise DimensionMismatch("points of mixed dimensions")
    if n > MAX_DIM:
        raise AmbientDimensionCap(f"dimension {n} exceeds cap {MAX_DIM}")
    scale = math.lcm(*(q for p in points for _, q in p))
    ints = sorted({tuple(c * (scale // q) for c, q in p) for p in points})
    extremes = {pick(ints, key=itemgetter(k)) for k in range(n) for pick in (min, max)}
    ints = sorted(extremes) + [p for p in ints if p not in extremes]
    planes = _supporting_planes(ints, n)
    if planes is None:
        raise DimensionDeficient(f"points span fewer than {n} dimensions")
    # The points on every facet through point i: i alone for a vertex, and
    # for any other point also each vertex of the least face that holds it.
    common: list[Optional[set[int]]] = [None] * len(ints)
    for _, _, on in planes:
        on = set(on)
        for i in on:
            common[i] = on if common[i] is None else common[i] & on
    rows = sorted(p for p, c in zip(ints, common) if c is not None and len(c) == 1)
    # Every facet holds a vertex, so g divides each facet bound too.
    g = math.gcd(scale, *(c for row in rows for c in row))
    return Polytope(n, scale // g, tuple(tuple(c // g for c in row) for row in rows),
                    tuple(sorted((a, b // g) for a, b, _ in planes)))


# A facet of the hull of integer points: (a, b, tight) with <a, p> <= b for
# every point p, equality exactly at the indices in tight, and a primitive.
_Plane = tuple[tuple[int, ...], int, list[int]]


def _supporting_planes(points: Sequence[tuple[int, ...]],
                       n: int) -> Optional[list[_Plane]]:
    """The facets of the hull of integer points, by one scan of the
    hyperplanes through n of them, or None when the points do not span R^n.
    Every facet of a full-dimensional polytope holds n affinely independent
    points, so the scan finds each one; points that do not span R^n give no
    hyperplane at all, or one that holds every point.
    """
    zero = (0,) * n
    seen = set()
    planes = []
    for subset in combinations(points, n):
        base = subset[0]
        diffs = [[c - o for c, o in zip(p, base)] for p in subset[1:]]
        if n == 3:
            (p1, p2, p3), (q1, q2, q3) = diffs
            normal = [p2 * q3 - p3 * q2, p3 * q1 - p1 * q3, p1 * q2 - p2 * q1]
        else:
            # The signed (n-1)-minors are orthogonal to every difference.
            normal = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in diffs])
                      for j in range(n)]
        g = math.gcd(*normal)
        if g == 0:
            continue
        a = tuple(c // g for c in normal)
        if a < zero:  # test each plane in one orientation only
            a = tuple(-c for c in a)
        b = sum(map(mul, a, base))
        if (a, b) in seen:
            continue
        seen.add((a, b))
        above = below = False
        tight = []
        for i, p in enumerate(points):
            value = sum(map(mul, a, p))
            if value == b:
                tight.append(i)
            elif value < b:
                below = True
                if above:
                    break
            else:
                above = True
                if below:
                    break
        else:
            if above:
                a, b = tuple(-c for c in a), -b
            elif not below:
                return None
            planes.append((a, b, tight))
    return planes or None


def _det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by cofactor expansion along
    the first row (the empty matrix has determinant 1)."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    if len(rows) == 2:
        (a, b), (c, d) = rows
        return a * d - b * c
    first, rest = rows[0], rows[1:]
    total = 0
    for j, c in enumerate(first):
        if c:
            minor = _det([row[:j] + row[j + 1:] for row in rest])
            total += -c * minor if j % 2 else c * minor
    return total


def origin_interior(P: Polytope) -> bool:
    """True when the origin is strictly interior to ``P``."""
    return all(b > 0 for _, b in P.facet_rows)


def is_lattice(P: Polytope) -> bool:
    """True when every vertex has integer coordinates."""
    return P.scale == 1


def denominator(P: Polytope) -> int:
    """Smallest positive k such that the dilation kP is a lattice polytope:
    the scale of ``P``, the lcm of its vertex denominators."""
    return P.scale


def dual(P: Polytope) -> Polytope:
    """The polar dual {u : <u, v> <= 1 for all v in P}.

    Polarity swaps the face lattice: each facet <a, x> <= b / L of ``P``
    gives the vertex (L / b) * a of the dual, and each vertex r / L the
    facet <r, u> <= L, made primitive, all in integers.  No hull is needed,
    because :func:`from_vertices` gives exactly the extreme points and the
    complete, irredundant, primitive facet list.  Requires the origin
    strictly inside ``P`` (otherwise the polar is unbounded).
    """
    L, M = P.scale, dual_denominator(P)
    rows = []
    for a, b in P.facet_rows:
        g = math.gcd(b, L)  # the vertex is (L/g) * a / (b/g), in lowest terms
        rows.append(tuple(c * (L // g) * (M // (b // g)) for c in a))
    facets = []
    for row in P.rows:
        g = math.gcd(*row)
        facets.append((tuple(c // g for c in row), M * L // g))
    return Polytope(P.ambient_dim, M, tuple(sorted(rows)), tuple(sorted(facets)))


def has_lattice_dual(P: Polytope) -> bool:
    """Whether the polar dual of ``P`` is a lattice polytope, read off the
    facets of ``P``; raises ``OriginNotInterior`` where :func:`dual` does."""
    return dual_denominator(P) == 1


def dual_denominator(P: Polytope) -> int:
    """The denominator of the polar dual of ``P``, read off the facet
    bounds of ``P``; raises ``OriginNotInterior`` where :func:`dual` does.

    A facet <a, x> <= b / L gives the dual vertex (L / b) * a, whose
    denominator is b / gcd(b, L) since a is primitive.
    """
    if not origin_interior(P):
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    return math.lcm(*(b // math.gcd(b, P.scale) for _, b in P.facet_rows))


def vertex_ranges(P: Polytope) -> list[tuple[Fraction, Fraction]]:
    """Per-axis (min, max) over the vertices: the exact bounding box."""
    from fractions import Fraction
    return [(Fraction(min(column), P.scale), Fraction(max(column), P.scale))
            for column in zip(*P.rows)]
