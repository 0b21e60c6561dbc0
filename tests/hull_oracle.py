"""Independent hull oracle for the tests: exact LP extremality plus a
Fraction facet scan.

A point is kept as a vertex exactly when a phase-one simplex finds it is not
a convex combination of the other points, and the facets are the supporting
hyperplanes through n-subsets of those vertices, solved by Gaussian
elimination over the rationals.  It shares no code with
``ehrhart.geometry.from_vertices`` beyond input coercion and the error
classes, and it is slow: one LP per input point.  It returns the vertices
and facets as ``Fraction`` points and (normal, bound) ``Fraction`` pairs,
to be compared with the views of a ``Polytope``.
"""

from __future__ import annotations

import math
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from typing import Optional, Sequence

from ehrhart.errors import (
    AmbientDimensionCap,
    DimensionDeficient,
    DimensionMismatch,
    EmptyInput,
)
from ehrhart.geometry import MAX_DIM, point

Vector = tuple[Fraction, ...]
Facet = tuple[Vector, Fraction]  # (normal, bound): <normal, x> <= bound

Hull = namedtuple("Hull", "ambient_dim vertices facets")


def rank(rows: Sequence[Sequence[Fraction]]) -> int:
    """Rank of a matrix given as a sequence of rows, by Gaussian elimination
    over the rationals."""
    mat = [[Fraction(c) for c in row] for row in rows]
    r = 0
    for col in range(len(mat[0]) if mat else 0):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        for i in range(r + 1, len(mat)):
            factor = mat[i][col] / mat[r][col]
            mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        r += 1
    return r


def det(rows: Sequence[Sequence[int]]) -> int:
    """Determinant of a square integer matrix by cofactor expansion along
    the first row (the empty matrix has determinant 1)."""
    if len(rows) < 2:
        return rows[0][0] if rows else 1
    first, rest = rows[0], rows[1:]
    return sum((-1) ** j * c * det([row[:j] + row[j + 1:] for row in rest])
               for j, c in enumerate(first) if c)


def affine_rank(points: Sequence[Vector]) -> int:
    """Dimension of the affine hull of the given points."""
    if not points:
        return -1
    base = points[0]
    return rank([tuple(a - b for a, b in zip(p, base)) for p in points[1:]])


def primitive(normal: Sequence[Fraction], bound: Fraction) -> Facet:
    """The half-space <normal, x> <= bound with its normal scaled, by a
    positive rational, to integers of gcd 1: a canonical representative."""
    scale = math.lcm(*(Fraction(c).denominator for c in normal))
    ints = [int(c * scale) for c in normal]
    g = math.gcd(*ints)
    return tuple(Fraction(i // g) for i in ints), bound * Fraction(scale, g)


def oracle_hull(points) -> Hull:
    """The convex hull of ``points``, with the checks and errors of
    ``from_vertices``."""
    raw = [point(p) for p in points]
    if not raw:
        raise EmptyInput("need at least one point")
    n = len(raw[0])
    if n < 1:
        raise EmptyInput("points must have at least one coordinate")
    for p in raw:
        if len(p) != n:
            raise DimensionMismatch("points of mixed dimensions")
    if n > MAX_DIM:
        raise AmbientDimensionCap(f"dimension {n} exceeds cap {MAX_DIM}")
    unique = sorted(set(raw))
    if affine_rank(unique) < n:
        raise DimensionDeficient(f"points span fewer than {n} dimensions")
    extreme = [p for p in unique
               if not in_convex_hull(p, [q for q in unique if q != p])]
    vertices = tuple(sorted(extreme))
    return Hull(n, vertices, facets_of(vertices, n))


def facets_of(vertices: Sequence[Vector], n: int) -> tuple[Facet, ...]:
    """All facet half-spaces of the hull of ``vertices``.

    Every facet of a full-dimensional polytope contains n affinely
    independent vertices, so scanning the hyperplanes spanned by n-subsets
    and keeping the supporting ones finds the complete list.
    """
    found: set[Facet] = set()
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
            found.add(primitive(normal, b))
        elif side_ge:
            found.add(primitive(tuple(-u for u in normal), -b))
    return tuple(sorted(found))


def hyperplane_through(points: Sequence[Vector]) -> Optional[tuple[Vector, Fraction]]:
    """Normal and offset of the unique hyperplane through ``n`` points in R^n.

    Returns ``(u, b)`` with ``<u, p> = b`` for every input point, or ``None``
    when the points are affinely dependent (no unique hyperplane).
    """
    n = len(points[0])
    if len(points) != n:
        raise ValueError("need exactly n points in dimension n")
    base = points[0]
    diffs = [[a - b for a, b in zip(p, base)] for p in points[1:]]
    normal = _nullspace_vector(diffs, n)
    if normal is None:
        return None
    b = sum(u * x for u, x in zip(normal, base))
    return normal, b


def _nullspace_vector(rows: list[list[Fraction]], n: int) -> Optional[Vector]:
    """A nonzero solution of ``rows @ x = 0`` when the nullspace is a line.

    ``rows`` has ``n - 1`` rows of length ``n``; returns ``None`` if the rows
    do not have full rank (nullspace dimension > 1).
    """
    mat = [list(row) for row in rows]
    pivots: list[int] = []
    r = 0
    for col in range(n):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        inv = mat[r][col]
        mat[r] = [a / inv for a in mat[r]]
        for i in range(len(mat)):
            if i != r and mat[i][col] != 0:
                factor = mat[i][col]
                mat[i] = [a - factor * b for a, b in zip(mat[i], mat[r])]
        pivots.append(col)
        r += 1
    if r != n - 1:
        return None
    free = next(c for c in range(n) if c not in pivots)
    sol = [Fraction(0)] * n
    sol[free] = Fraction(1)
    for row_idx, col in enumerate(pivots):
        sol[col] = -mat[row_idx][free]
    return tuple(sol)


def in_convex_hull(target: Vector, points: Sequence[Vector]) -> bool:
    """Exact feasibility of expressing ``target`` as a convex combination.

    Decides whether there exist lambda_j >= 0 with sum lambda_j = 1 and
    sum lambda_j p_j = target, via a phase-one simplex with Bland's rule
    (no cycling, hence guaranteed termination).
    """
    if not points:
        return False
    n = len(target)
    m = len(points)
    # Equality system A lambda = b: one row per coordinate plus the
    # convexity row; made nonnegative on the right-hand side.
    rows: list[list[Fraction]] = []
    rhs: list[Fraction] = []
    for i in range(n):
        rows.append([Fraction(p[i]) for p in points])
        rhs.append(Fraction(target[i]))
    rows.append([Fraction(1)] * m)
    rhs.append(Fraction(1))
    for i in range(len(rows)):
        if rhs[i] < 0:
            rows[i] = [-a for a in rows[i]]
            rhs[i] = -rhs[i]
    return _phase_one_feasible(rows, rhs)


def _phase_one_feasible(rows: list[list[Fraction]], rhs: list[Fraction]) -> bool:
    """Phase-one simplex: is ``rows @ x = rhs, x >= 0`` feasible?

    Minimises the sum of one artificial variable per row; feasible iff the
    optimum is zero.  ``rhs`` must be nonnegative.
    """
    nrows = len(rows)
    ncols = len(rows[0])
    # Tableau columns: original variables, then artificials, then rhs.
    tab = [rows[i] + [Fraction(int(i == j)) for j in range(nrows)] + [rhs[i]]
           for i in range(nrows)]
    basis = [ncols + i for i in range(nrows)]
    # Reduced-cost row for minimising the artificial sum.
    obj = [Fraction(0)] * (ncols + nrows + 1)
    for i in range(nrows):
        for j in range(ncols + nrows + 1):
            obj[j] -= tab[i][j]
    for i in range(nrows):
        obj[ncols + i] += Fraction(1)

    total = ncols + nrows
    while True:
        entering = next((j for j in range(total) if obj[j] < 0), None)
        if entering is None:
            break
        # Ratio test with Bland's tie-break on the basic variable index.
        leaving = None
        best: Optional[Fraction] = None
        for i in range(nrows):
            coef = tab[i][entering]
            if coef > 0:
                ratio = tab[i][total] / coef
                if best is None or ratio < best or (
                        ratio == best and basis[i] < basis[leaving]):
                    best = ratio
                    leaving = i
        if leaving is None:
            # Unbounded phase-one objective cannot happen; defensive only.
            raise ArithmeticError("phase-one simplex became unbounded")
        pivot = tab[leaving][entering]
        tab[leaving] = [a / pivot for a in tab[leaving]]
        for i in range(nrows):
            if i != leaving and tab[i][entering] != 0:
                factor = tab[i][entering]
                tab[i] = [a - factor * b for a, b in zip(tab[i], tab[leaving])]
        factor = obj[entering]
        obj = [a - factor * b for a, b in zip(obj, tab[leaving])]
        basis[leaving] = entering
    return -obj[total] == 0
