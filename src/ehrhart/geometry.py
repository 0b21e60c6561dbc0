"""Exact geometry of full-dimensional rational convex polytopes.

Polytopes are stored by their vertices (V-representation) together with a
derived, canonically ordered facet list (H-representation).  All coordinates
are ``fractions.Fraction``, so every operation here is exact; there is no
floating point anywhere in this package.

The hull of input points scans the hyperplanes through affinely independent
n-subsets of the vertices, O(C(V, n)) tests: fine at desk scale (tens of
vertices, dimension <= 4) and guarded by an ambient-dimension cap with an
explicit override.  The polar dual swaps vertices and facets, so :func:`dual`
reads both off the input with no scan.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from itertools import combinations
from typing import Iterable, Sequence, Union

from .errors import (
    AmbientDimensionCap,
    DimensionDeficient,
    DimensionMismatch,
    EmptyInput,
    OriginNotInterior,
    ZeroDilation,
)
from .linalg import affine_rank, hyperplane_through, in_convex_hull

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

    def unit_bound(self) -> "HalfSpace":
        """Equivalent half-space scaled to bound 1 (needs a positive bound)."""
        if self.bound <= 0:
            raise ValueError("unit-bound form needs a strictly positive bound")
        return HalfSpace(tuple(c / self.bound for c in self.normal), Fraction(1))

    def has_integer_normal(self) -> bool:
        return all(c.denominator == 1 for c in self.normal)


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

    @property
    def n(self) -> int:
        return self.ambient_dim


def from_vertices(points: Iterable[Iterable[Coordinate]],
                  max_dim: int | None = None) -> Polytope:
    """Convex hull of the given rational points as a Polytope.

    Interior and otherwise redundant points are dropped: a point is kept
    exactly when it is not a convex combination of the others, decided by
    exact linear-programming feasibility.  Raises ``DimensionDeficient``
    when the affine hull of the input is not the whole ambient space.
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
    if affine_rank(unique) < n:
        raise DimensionDeficient(
            f"points span an affine subspace of dimension {affine_rank(unique)} < {n}")
    extreme = [p for p in unique
               if not in_convex_hull(p, [q for q in unique if q != p])]
    vertices = tuple(sorted(extreme))
    facets = _facets_of(vertices, n)
    return Polytope(n, vertices, facets)


def _facets_of(vertices: Sequence[RationalPoint], n: int) -> tuple[HalfSpace, ...]:
    """All facet half-spaces of the hull of ``vertices``.

    Every facet of a full-dimensional polytope contains n affinely
    independent vertices, so scanning the hyperplanes spanned by n-subsets
    and keeping the supporting ones finds the complete list.
    """
    found: set[HalfSpace] = set()
    for subset in combinations(vertices, n):
        plane = hyperplane_through(list(subset))
        if plane is None:
            continue
        normal, b = plane
        side_le = side_ge = True
        for v in vertices:
            value = sum(u * c for u, c in zip(normal, v))
            if value > b:
                side_le = False
            elif value < b:
                side_ge = False
            if not side_le and not side_ge:
                break
        if side_le:
            found.add(HalfSpace(normal, b).primitive())
        elif side_ge:
            found.add(HalfSpace(tuple(-u for u in normal), -b).primitive())
    return tuple(sorted(found))


def facet_enumeration(P: Polytope) -> list[HalfSpace]:
    """The complete, duplicate-free facet list of ``P`` (canonical order)."""
    return list(P.facets)


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


def dilate(P: Polytope, m: int) -> Polytope:
    """The dilation mP for a positive integer m.

    Positive scaling preserves which points are vertices and scales each
    facet bound, so no hull recomputation is needed.
    """
    if m == 0:
        raise ZeroDilation("0P is a single point, not a polytope")
    if m < 0:
        raise ValueError("dilation factor must be a positive integer")
    if m == 1:
        return P
    vertices = tuple(tuple(m * c for c in v) for v in P.vertices)
    facets = tuple(HalfSpace(h.normal, m * h.bound) for h in P.facets)
    return Polytope(P.ambient_dim, vertices, facets)


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
    if not origin_interior(P):
        raise OriginNotInterior("polar dual needs the origin strictly inside")
    vertices = sorted(tuple(u / h.bound for u in h.normal) for h in P.facets)
    facets = sorted(HalfSpace(v, Fraction(1)).primitive() for v in P.vertices)
    return Polytope(P.ambient_dim, tuple(vertices), tuple(facets))


def vertex_ranges(P: Polytope) -> list[tuple[Fraction, Fraction]]:
    """Per-axis (min, max) over the vertices: the exact bounding box."""
    return [(min(v[i] for v in P.vertices), max(v[i] for v in P.vertices))
            for i in range(P.ambient_dim)]
