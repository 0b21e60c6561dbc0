"""Exact geometry of full-dimensional rational convex polytopes.

A polytope is held in one canonical integer form: its scale L, the least
positive integer with LP a lattice polytope; the vertices of LP as sorted
integer rows; and its facets as sorted rows (a, b) with a primitive integer
normal a, each meaning <a, x> <= b / L.  The hull (:func:`from_ratios`, in
integers with no linear program) builds that form from the input without
a ``fractions.Fraction``: a segment is read off its two extreme points, a
polygon is Andrew's monotone chain, and in dimensions 3 and 4 an
incremental beneath-beyond hull inserts the points one at a time.  The
denominator, the vertex ranges and the polar dual (vertices and facets
swapped, no hull) are read off it.
``Fraction`` vertices and (normal, bound) ``Fraction`` facet pairs are
only views of the rows, built on first use and cached in the instance
``__dict__`` beside the four fields, and :mod:`fractions` is imported only
where a point or a view is built.  There is no floating point anywhere in
this package.  The hull takes hundreds of points; the counts suit
dimension <= 4, which a fixed ambient-dimension cap guards.
"""

from __future__ import annotations

import math
from functools import cached_property
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

#: The counts walk chamber tables of dimension n - 2 <= 2 only, so no hull
#: is built in a higher dimension.
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

    The points are scaled to integers by the lcm L of their denominators.
    A segment is read off its extremes and a polygon off a monotone chain;
    for n >= 3 beneath-beyond inserts the points one at a time, the
    per-axis extreme points first: in sorted order each point would lie
    beyond the hull so far.  Each facet is <a, x> <= b / L, a primitive.
    A point is a vertex when no other point lies on every facet through
    it.  L then drops the factor the vertices do not need.  Raises
    ``DimensionDeficient`` when the points do not span the ambient space,
    and ``AmbientDimensionCap`` when it has more than ``MAX_DIM`` dimensions.
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
    if n > 2:
        extremes = {pick(ints, key=itemgetter(k)) for k in range(n) for pick in (min, max)}
        ints = sorted(extremes) + [p for p in ints if p not in extremes]
    planes = _supporting_planes(ints, n)
    if planes is None:
        raise DimensionDeficient(f"points span fewer than {n} dimensions")
    # The points on every facet through point i: i alone for a vertex, and
    # for any other point also each vertex of the least face that holds it.
    common: list[Optional[set[int]]] = [None] * len(ints)
    for _, _, on in planes:
        for i in on:
            common[i] = on if common[i] is None else common[i] & on
    rows = sorted(p for p, c in zip(ints, common) if c is not None and len(c) == 1)
    # Every facet holds a vertex, so g divides each facet bound too.
    g = math.gcd(scale, *(c for row in rows for c in row))
    return Polytope(n, scale // g, tuple(tuple(c // g for c in row) for row in rows),
                    tuple(sorted((a, b // g) for a, b, _ in planes)))


# A facet of the hull of integer points: (a, b, tight) with <a, p> <= b for
# every point p, equality exactly at the indices in tight, and a primitive.
_Plane = tuple[tuple[int, ...], int, set[int]]


def _supporting_planes(points: Sequence[tuple[int, ...]],
                       n: int) -> Optional[list[_Plane]]:
    """The facets of the hull of integer points, or None when the points do
    not span R^n.  In R^1 they are the two extreme points, and in R^2 the
    edges of Andrew's monotone chain (1979), each with one pass over the
    points.  For n >= 3 beneath-beyond (Seidel 1981) inserts the points in
    the order given: from a start simplex, each point p joins every facet
    whose plane holds it, and the facets it sees (v = <a, p> - b > 0) give
    way to v_u (a_w, b_w) - v_w (a_u, b_u), through p, across each ridge
    between a seen u and a w with v_w < 0.
    """
    if n == 1:
        lo, hi = min(points), max(points)
        if lo == hi:
            return None
        return [(a, a[0] * e[0], {i for i, p in enumerate(points) if p == e})
                for a, e in (((-1,), lo), ((1,), hi))]
    if n == 2:  # Andrew's monotone chain, counter-clockwise
        ps, hull = sorted(set(points)), []
        for chain in (ps, ps[::-1]):  # the lower hull, then the upper
            least = len(hull) + 2  # two points of this chain before a turn
            for p in chain:
                while len(hull) >= least:
                    (ox, oy), (ux, uy) = hull[-2], hull[-1]
                    # Only a strict left turn o -> u -> p keeps u, so the
                    # chain holds vertices only.
                    if (ux - ox) * (p[1] - oy) > (uy - oy) * (p[0] - ox):
                        break
                    hull.pop()
                hull.append(p)
            hull.pop()  # the chain's last point starts the other one
        if len(hull) < 3:
            return None
        planes = []
        for (ux, uy), (vx, vy) in zip(hull, hull[1:] + hull[:1]):
            g = math.gcd(vy - uy, ux - vx)  # the outer normal of u -> v
            a0, a1 = (vy - uy) // g, (ux - vx) // g
            b = a0 * ux + a1 * uy
            planes.append(((a0, a1), b, {i for i, (x, y) in enumerate(points)
                                         if a0 * x + a1 * y == b}))
        return planes
    # Bareiss elimination finds the simplex: its exact divisions keep every
    # entry a minor of the differences, so digits do not pile up.
    start, basis = [0], []
    for i, p in enumerate(points[1:], 1):
        v = [c - o for c, o in zip(p, points[0])]
        prev = 1
        for row, j in basis:
            v = [(row[j] * x - v[j] * y) // prev for x, y in zip(v, row)]
            prev = row[j]
        if any(v):
            basis.append((v, next(j for j, c in enumerate(v) if c)))
            start.append(i)
            if len(start) > n:
                break
    else:
        return None
    facets = {}  # (a, b) -> the points inserted so far on the plane
    for k in start:  # the simplex facet opposite point k
        on = [i for i in start if i != k]
        base = points[on[0]]
        diffs = [[c - o for c, o in zip(points[i], base)] for i in on[1:]]
        # The signed (n-1)-minors are orthogonal to every difference.
        normal = [(-1) ** j * _det([row[:j] + row[j + 1:] for row in diffs])
                  for j in range(n)]
        g = math.gcd(*normal)
        if sum(map(mul, normal, points[k])) > sum(map(mul, normal, base)):
            g = -g
        a = tuple(c // g for c in normal)
        facets[a, sum(map(mul, a, base))] = set(on)
    for i, p in enumerate(points):
        if i in start:
            continue
        value = {f: sum(map(mul, f[0], p)) - f[1] for f in facets}
        seen = [f for f, v in value.items() if v > 0]
        for f, v in value.items():
            if v == 0:
                facets[f].add(i)
        new = {}
        for u in seen:
            (au, bu), vu, on = u, value[u], facets[u]
            for w, vw in value.items():
                if vw >= 0:
                    continue
                # A ridge is the meet of exactly two facets; any lower face
                # lies in a third.  Distinct ridges give distinct planes.
                common = on & facets[w]
                if len(common) < n - 1 or any(
                        common <= t for f, t in facets.items() if f != u and f != w):
                    continue
                aw, bw = w
                a = [vu * x - vw * y for x, y in zip(aw, au)]
                g = math.gcd(*a)
                new[tuple(c // g for c in a), (vu * bw - vw * bu) // g] = common | {i}
        for f in seen:
            del facets[f]
        facets.update(new)
    return [(a, b, on) for (a, b), on in facets.items()]


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
    # Exact, as b / gcd(b, L), the vertex's denominator, divides M.
    rows = [tuple(c * L * M // b for c in a) for a, b in P.facet_rows]
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
