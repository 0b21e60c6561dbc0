"""Exact geometry of full-dimensional rational convex polytopes.

A polytope is held in one canonical integer form: its scale L, the least
positive integer with LP a lattice polytope; the vertices of LP as sorted
integer rows; and its facets as sorted rows (a, b) with a primitive integer
normal a, each meaning <a, x> <= b / L.  :func:`from_ratios` builds that form
in integers, with no linear program and no ``fractions.Fraction``: its hull is
a segment's two extreme points, a polygon's monotone chain, or in dimensions 3
and 4 an incremental beneath-beyond hull, which starts from the first n + 1
affinely independent points, each start facet's normal the signed minors of
its own points, and reads its horizon ridges off two facets' tight sets.
The denominator, the vertex ranges and the polar dual (vertices and facets
swapped, no hull) are read off that form.  Views of the rows, cached in the
instance ``__dict__`` beside the four fields, give ``Fraction`` vertices and
(normal, bound) ``Fraction`` facet pairs, built on first use, and the
vertex-facet incidence, one scan of the rows against the facets, which
counting only reads; :mod:`fractions` is imported only where a point or a
``Fraction`` view is built.  There is no floating point anywhere in this
package.  A polygon hull takes hundreds of thousands of points, a 3D or 4D one
hundreds; the counts suit dimension <= 4, which a fixed ambient-dimension cap
guards.
"""

from __future__ import annotations

import math
from functools import cached_property
from itertools import combinations
from operator import mul
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
    """Build a rational point, coercing ints and 'p/q' strings exactly.  A
    float raises ``TypeError``: its binary value is seldom the number meant."""
    from fractions import Fraction
    coords = tuple(coords)
    if floats := [c for c in coords if isinstance(c, float)]:
        raise TypeError(f"float coordinate {floats[0]!r}: give an int, Fraction or 'p/q' string")
    return tuple(Fraction(c) for c in coords)


class Polytope:
    """A full-dimensional rational polytope in canonical integer form: the
    ``scale`` L, the lcm of its vertex denominators; the vertices of LP as
    sorted integer ``rows``; and the complete facet list as sorted
    ``facet_rows`` (a, b), each <a, x> <= b / L with a primitive.  Build
    instances with :func:`from_vertices`, which establishes these
    invariants.  ``vertices``, ``facets`` and ``_incidence`` are views, built
    on first use.
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

    @cached_property
    def _incidence(self) -> tuple[int, ...]:
        """Per vertex row, the bitmask of the facet rows through it: bit k for
        row k, by one scan of the rows against the facets."""
        return tuple(sum(1 << k for k, (a, b) in enumerate(self.facet_rows)
                         if sum(map(mul, a, row)) == b) for row in self.rows)

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
    pairs, denominators positive: the points, scaled to integers by the lcm
    L of their denominators and deduplicated in one pass, then sorted, go to
    :func:`_hull` for the vertices and the facets <a, x> <= b / L, a
    primitive, and L then drops the factor the vertices do not need.  Raises
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
    scale = math.lcm(*{q for p in points for _, q in p})
    hull = _hull(sorted({tuple([c * (scale // q) for c, q in p]) for p in points}), n)
    if hull is None:
        raise DimensionDeficient(f"points span fewer than {n} dimensions")
    rows, facets = hull
    rows.sort()
    facets.sort()  # by (a, b), which no two facets share
    # Every facet holds a vertex, so g divides each facet bound too.
    g = math.gcd(scale, *(c for row in rows for c in row)) if scale > 1 else 1
    return Polytope(n, scale // g, tuple(tuple([c // g for c in row]) for row in rows) if g > 1
                    else tuple(rows), tuple((a, b // g) for a, b in facets))


def _hull(points: Sequence[tuple[int, ...]], n: int) -> Optional[tuple[list, list]]:
    """The vertices and the facets (a, b), <a, x> <= b with a primitive, of
    the hull of sorted distinct integer points, or None when they do not
    span R^n.  A segment is its two extreme points, and a polygon Andrew's
    monotone chain (1979), counter-clockwise with strict left turns only, so
    that it holds vertices only.  For n >= 3 :func:`_beneath_beyond` inserts
    the per-axis extreme points first, as in sorted order each point would
    lie beyond the hull so far, and a point is a vertex when no other point
    lies on every facet through it.
    """
    if n == 1:
        lo, hi = points[0], points[-1]
        return None if lo == hi else ([lo, hi], [((-1,), -lo[0]), ((1,), hi[0])])
    if n == 2:
        hull = []
        for chain in (points, points[::-1]):  # the lower hull, then the upper
            least = len(hull) + 2  # two points of this chain before a turn
            for p in chain:
                while len(hull) >= least:
                    (ox, oy), (ux, uy) = hull[-2], hull[-1]
                    if (ux - ox) * (p[1] - oy) > (uy - oy) * (p[0] - ox):
                        break
                    hull.pop()
                hull.append(p)
            hull.pop()  # the chain's last point starts the other one
        if len(hull) < 3:
            return None
        facets = []
        for (ux, uy), (vx, vy) in zip(hull, hull[1:] + hull[:1]):
            g = math.gcd(vy - uy, ux - vx)  # the outer normal of u -> v
            a0, a1 = (vy - uy) // g, (ux - vx) // g
            facets.append(((a0, a1), a0 * ux + a1 * uy))
        return hull, facets
    extremes = {points[column.index(pick(column))]
                for column in zip(*points) for pick in (min, max)}
    points = sorted(extremes) + [p for p in points if p not in extremes]
    planes = _beneath_beyond(points, n)
    if planes is None:
        return None
    # The points on every facet through point i: i alone for a vertex, and
    # for any other point also each vertex of the least face that holds it.
    common: list[Optional[set[int]]] = [None] * len(points)
    for _, _, on in planes:
        for i in on:
            common[i] = on if common[i] is None else common[i] & on
    return ([p for p, c in zip(points, common) if c is not None and len(c) == 1],
            [(a, b) for a, b, _ in planes])


def _beneath_beyond(points: Sequence[tuple[int, ...]], n: int) -> Optional[list[tuple]]:
    """The facets of the hull of integer points in R^n, n >= 3, as triples
    (a, b, tight): <a, p> <= b for every point p, equality exactly at the
    indices in tight, and a primitive; or None when the points do not span
    R^n.  Beneath-beyond (Seidel 1981) inserts the points in the order
    given: from the simplex on the first n + 1 affinely independent points,
    each point p joins every facet whose plane holds it, and the facets it
    sees (v = <a, p> - b > 0) give way to v_u (a_w, b_w) - v_w (a_u, b_u),
    through p, across each ridge between a seen u and a w with v_w < 0.
    The meet of two facets' tight sets is a ridge exactly when n - 1 of its
    points are affinely independent, as a lower face has fewer, so each
    ridge is read off the two tight sets alone.
    """
    start = _spanning(points, range(len(points)), n + 1)
    if len(start) <= n:
        return None
    facets = _simplex(points, start)
    for i, p in enumerate(points):
        if i in start:
            continue
        seen, unseen = [], []
        for f, on in facets.items():
            v = sum(map(mul, f[0], p)) - f[1]
            if v > 0:
                seen.append((f, v, on))
            elif v < 0:
                unseen.append((f, v, on))
            else:
                on.add(i)
        new = {}
        for (au, bu), vu, on in seen:
            for (aw, bw), vw, other in unseen:
                common = on & other
                # In 3D two shared points span an edge; in 4D three may lie on an edge.
                if len(common) < n - 1 or n == 4 and len(_spanning(points, common, 3)) < 3:
                    continue
                a = [vu * x - vw * y for x, y in zip(aw, au)]  # distinct ridges, distinct planes
                g = math.gcd(*a)
                new[tuple(c // g for c in a), (vu * bw - vw * bu) // g] = common | {i}
        for f, _, _ in seen:
            del facets[f]
        facets.update(new)
    return [(a, b, on) for (a, b), on in facets.items()]


def _simplex(points: Sequence[tuple[int, ...]], start: Sequence[int]) -> dict:
    """The facets of the simplex on the n + 1 affinely independent points
    at ``start``, as :func:`_beneath_beyond` holds them.  The facet opposite
    each point holds the n others; with q the first of them, the signed
    maximal minors of their differences from q are normal to it, turned
    away from the point left out."""
    facets = {}
    for k, left in enumerate(start):
        first, *rest = on = [*start[:k], *start[k + 1:]]
        q = points[first]
        normal = _normal([[c - d for c, d in zip(points[i], q)] for i in rest])
        if sum(map(mul, normal, points[left])) > sum(map(mul, normal, q)):
            normal = [-c for c in normal]
        g = math.gcd(*normal)
        a = tuple(c // g for c in normal)
        facets[a, sum(map(mul, a, q))] = set(on)
    return facets


def _spanning(points: Sequence[tuple[int, ...]], indices: Iterable[int], k: int) -> list[int]:
    """The first of ``indices``, then each next one whose point is affinely
    independent of those taken, up to k of them.  Bareiss elimination
    reduces each difference from the first point: its exact divisions keep
    every entry a minor of the differences, so digits do not pile up."""
    indices = iter(indices)
    taken = [next(indices)]
    origin, basis = points[taken[0]], []
    for i in indices:
        if len(taken) == k:
            break
        v = [c - o for c, o in zip(points[i], origin)]
        prev = 1
        for row, j in basis:
            v = [(row[j] * x - v[j] * y) // prev for x, y in zip(v, row)]
            prev = row[j]
        if any(v):
            basis.append((v, next(j for j, c in enumerate(v) if c)))
            taken.append(i)
    return taken


def _normal(rows: Sequence[Sequence[int]]) -> list[int]:
    """A normal of the n - 1 integer rows in R^n, n = 3 or 4: their signed
    maximal minors, the cross product in 3D, and in 4D each expanded along
    the first row over the 2x2 minors of the last two, which they share."""
    if len(rows) == 2:
        (r0, r1, r2), (s0, s1, s2) = rows
        return [r1 * s2 - r2 * s1, r2 * s0 - r0 * s2, r0 * s1 - r1 * s0]
    t, r, s = rows
    m = {(i, j): r[i] * s[j] - r[j] * s[i] for i, j in combinations(range(4), 2)}
    return [(-1) ** j * (t[a] * m[b, c] - t[b] * m[a, c] + t[c] * m[a, b])
            for j, (a, b, c) in enumerate(reversed([*combinations(range(4), 3)]))]


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
