"""Exact geometry of full-dimensional rational convex polytopes.

Polytopes are stored by their vertices (V-representation) together with a
derived, canonically ordered facet list (H-representation).  All coordinates
are ``fractions.Fraction``, so every operation here is exact; there is no
floating point anywhere in this package.

The hull of input points is one facet scan in integer arithmetic: the points
are scaled by the lcm of their denominators, and every hyperplane through n
of them is tested for whether it supports all the others.  The supporting
ones are the facets, and the vertices are the points on n facets of
independent normals, so no linear program is solved.  A pre-filter first
takes the hull of the per-axis extreme points and drops every point inside
it (Akl-Toussaint), so the scan costs about C(N', n) * N' integer tests for
the N' points that survive.  That is fine at desk scale (tens of vertices,
dimension <= 4), which an ambient-dimension cap with an explicit override
guards.  The polar dual swaps vertices and facets, so :func:`dual` reads
both off the input with no scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from operator import mul
from typing import Iterable, Optional, Sequence, Union

from .errors import (
    AmbientDimensionCap,
    DimensionDeficient,
    DimensionMismatch,
    EmptyInput,
    OriginNotInterior,
)
from .linalg import affine_rank, det, rank

#: Exact rational scalar: arbitrary precision, always in lowest terms with a
#: positive denominator.  The standard library type satisfies all of that.
ExactRational = Fraction

#: A point of Q^n, stored as an immutable coordinate tuple.
RationalPoint = tuple[Fraction, ...]

Coordinate = Union[Fraction, int, str]

#: Exhaustive facet search and box enumeration blow up beyond desk scale;
#: pass ``max_dim`` explicitly to go higher anyway.
DEFAULT_MAX_DIM = 4


def point(coords: Iterable[Coordinate]) -> RationalPoint:
    """Build a rational point, coercing ints and 'p/q' strings exactly."""
    return tuple(Fraction(c) for c in coords)


@dataclass(frozen=True, order=True)
class HalfSpace:
    """The half-space {v : <normal, v> <= bound}, ordered by (normal, bound)."""

    normal: tuple[Fraction, ...]
    bound: Fraction

    def __post_init__(self) -> None:
        if all(c == 0 for c in self.normal):
            raise ValueError("half-space normal must be nonzero")

    def evaluate(self, x: Sequence[Fraction]) -> Fraction:
        """Inner product <normal, x>."""
        return sum((u * c for u, c in zip(self.normal, x)), Fraction(0))

    def holds(self, x: Sequence[Fraction], strict: bool = False) -> bool:
        value = self.evaluate(x)
        return value < self.bound if strict else value <= self.bound

    def primitive(self) -> "HalfSpace":
        """Equivalent half-space with an integer normal of gcd 1.

        Scaling is by a positive rational only, so the inequality keeps its
        direction and the result is a canonical representative.
        """
        scale = math.lcm(*(c.denominator for c in self.normal))
        ints = [int(c * scale) for c in self.normal]
        g = math.gcd(*ints)
        factor = Fraction(scale, g)
        return HalfSpace(tuple(Fraction(i // g) for i in ints), self.bound * factor)


@dataclass(frozen=True)
class Polytope:
    """A full-dimensional rational polytope with irredundant vertices.

    Instances should be produced by :func:`from_vertices` (or by operations
    derived from it), which establishes the invariants: vertices are extreme
    and lexicographically sorted, and ``facets`` is the complete canonical
    facet list in primitive integer-normal form.
    """

    ambient_dim: int
    vertices: tuple[RationalPoint, ...]
    facets: tuple[HalfSpace, ...] = field(compare=False)

    def __post_init__(self) -> None:
        if self.ambient_dim < 1:
            raise ValueError("ambient dimension must be positive")
        if not self.vertices:
            raise ValueError("polytope must have vertices")
        for v in self.vertices:
            if len(v) != self.ambient_dim:
                raise DimensionMismatch(
                    f"vertex {v} does not live in dimension {self.ambient_dim}")
        # Immutable, so hashed once, on the key of __eq__.
        object.__setattr__(self, "_hash", hash((self.ambient_dim, self.vertices)))

    def __hash__(self) -> int:
        return self._hash

    @property
    def n(self) -> int:
        return self.ambient_dim


def from_vertices(points: Iterable[Iterable[Coordinate]],
                  max_dim: int | None = None) -> Polytope:
    """Convex hull of the given rational points as a Polytope.

    Duplicate, interior and otherwise redundant points are dropped.  The
    points are scaled to integers by the lcm L of their denominators, which
    keeps their order, and every hyperplane through n of them with all the
    others on one side becomes a facet <a, x> <= b / L with a primitive
    integer normal a.  A point is a vertex when the normals of the facets
    through it have rank n.  No linear program is solved.  Before that
    scan, the points in the hull of the per-axis extreme points are
    dropped (Akl-Toussaint pre-filter), so it costs about C(N', n) * N'
    integer tests for the N' points that survive.  Raises
    ``DimensionDeficient`` when the affine hull of the input is not the
    whole ambient space.
    """
    raw = [point(p) for p in points]
    if not raw:
        raise EmptyInput("need at least one point")
    n = len(raw[0])
    if n < 1:
        raise EmptyInput("points must have at least one coordinate")
    for p in raw:
        if len(p) != n:
            raise DimensionMismatch("points of mixed dimensions")
    cap = DEFAULT_MAX_DIM if max_dim is None else max_dim
    if n > cap:
        raise AmbientDimensionCap(
            f"dimension {n} exceeds cap {cap}; pass max_dim to override")
    unique = sorted(set(raw))
    scale = math.lcm(*(c.denominator for p in unique for c in p))
    ints = [tuple(c.numerator * (scale // c.denominator) for c in p) for p in unique]
    kept, planes = _hull_planes(ints, n)
    if planes is None:
        raise DimensionDeficient(
            f"points span an affine subspace of dimension {affine_rank(unique)} < {n}")
    tight: list[list[tuple[int, ...]]] = [[] for _ in kept]
    for a, _, on in planes:
        for i in on:
            tight[i].append(a)
    vertices = sorted(unique[k] for k, normals in zip(kept, tight) if rank(normals) == n)
    facets = sorted(HalfSpace(tuple(map(Fraction, a)), Fraction(b, scale))
                    for a, b, _ in planes)
    return Polytope(n, tuple(vertices), tuple(facets))


# A facet of the hull of integer points: (a, b, tight) with <a, p> <= b for
# every point p, equality exactly at the indices in tight, and a primitive.
_Plane = tuple[tuple[int, ...], int, list[int]]


def _hull_planes(points: Sequence[tuple[int, ...]],
                 n: int) -> tuple[list[int], Optional[list[_Plane]]]:
    """The indices of the points that may be vertices, and the facets of
    the hull of those points (None when they do not span R^n).

    The per-axis minimum and maximum points are kept, and so is every point
    strictly beyond a facet of their hull.  The others lie in that hull, so
    each is a convex combination of other points and never a vertex, and
    since facets are spanned by vertices none is lost.  When the extreme
    points do not span R^n, every point is kept.  The extreme points come
    first: they are spread out, so a plane that is no facet soon meets
    points on both of its sides.
    """
    everything = range(len(points))
    extremes = sorted({pick(everything, key=lambda i: points[i][k])
                       for k in range(n) for pick in (min, max)})
    chosen = set(extremes)
    rest = [i for i in everything if i not in chosen]
    planes = _supporting_planes([points[i] for i in extremes], n)
    if planes is not None:
        rest = [i for i in rest
                if any(sum(map(mul, a, points[i])) > b for a, b, _ in planes)]
        if not rest:
            return extremes, planes
    kept = extremes + rest
    return kept, _supporting_planes([points[i] for i in kept], n)


def _supporting_planes(points: Sequence[tuple[int, ...]],
                       n: int) -> Optional[list[_Plane]]:
    """The facets of the hull of integer points, by one scan of the
    hyperplanes through n of them, or None when the points do not span R^n.

    Every facet of a full-dimensional polytope holds n affinely independent
    points, so the scan finds each one.  Points that do not span R^n give
    no hyperplane at all, or one that holds every point.
    """
    zero = (0,) * n
    seen = set()
    planes = []
    for subset in combinations(points, n):
        base = subset[0]
        diffs = [[c - o for c, o in zip(p, base)] for p in subset[1:]]
        # The signed (n-1)-minors are orthogonal to every difference.
        normal = [(-1) ** j * det([row[:j] + row[j + 1:] for row in diffs])
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


def contains(P: Polytope, x: Iterable[Coordinate], strict: bool = False) -> bool:
    """Membership test against the facet inequalities of ``P``."""
    px = point(x)
    if len(px) != P.ambient_dim:
        raise DimensionMismatch(
            f"point of dimension {len(px)} in polytope of dimension {P.ambient_dim}")
    return all(h.holds(px, strict=strict) for h in P.facets)


def origin_interior(P: Polytope) -> bool:
    """True when the origin is strictly interior to ``P``."""
    return all(h.bound > 0 for h in P.facets)


def is_lattice(P: Polytope) -> bool:
    """True when every vertex has integer coordinates."""
    return all(c.denominator == 1 for v in P.vertices for c in v)


def denominator(P: Polytope) -> int:
    """Smallest positive k such that the dilation kP is a lattice polytope.

    Equals the lcm of the reduced denominators of all vertex coordinates.
    """
    return math.lcm(*(c.denominator for v in P.vertices for c in v))


def dual(P: Polytope) -> Polytope:
    """The polar dual {u : <u, v> <= 1 for all v in P}.

    Polarity swaps the face lattice: each facet <a, x> <= b of ``P`` gives
    the vertex a / b of the dual, and each vertex v of ``P`` gives the
    facet <v, u> <= 1.  This is exact, with no hull computation, because
    :func:`from_vertices` guarantees that ``P.vertices`` are exactly the
    extreme points and ``P.facets`` is the complete, irredundant, primitive
    facet list.  Requires the origin strictly inside ``P`` (otherwise the
    polar is unbounded).
    """
    vertices = sorted(_polar_vertices(P))
    facets = sorted(HalfSpace(v, Fraction(1)).primitive() for v in P.vertices)
    return Polytope(P.ambient_dim, tuple(vertices), tuple(facets))


def has_lattice_dual(P: Polytope) -> bool:
    """Whether the polar dual of ``P`` is a lattice polytope, read off the
    facets of ``P``; raises ``OriginNotInterior`` where :func:`dual` does."""
    return dual_denominator(P) == 1


def dual_denominator(P: Polytope) -> int:
    """The denominator of the polar dual of ``P``, read off the facets of
    ``P``; raises ``OriginNotInterior`` where :func:`dual` does."""
    return math.lcm(*(c.denominator for v in _polar_vertices(P) for c in v))


def _polar_vertices(P: Polytope) -> list[RationalPoint]:
    """The vertex a / b of the polar dual for each facet <a, x> <= b."""
    if not origin_interior(P):
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    return [tuple(u / h.bound for u in h.normal) for h in P.facets]


def vertex_ranges(P: Polytope) -> list[tuple[Fraction, Fraction]]:
    """Per-axis (min, max) over the vertices: the exact bounding box."""
    return [(min(v[i] for v in P.vertices), max(v[i] for v in P.vertices))
            for i in range(P.ambient_dim)]
