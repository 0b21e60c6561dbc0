"""Exact enumeration of lattice points in dilations of a rational polytope.

Counting never constructs the dilated polytope: the facet system of mP is
that of P with every bound scaled by m, and each facet <u, x> <= m * p/q is
cleared of denominators once, so every test is integer arithmetic.  Strict
counts use q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact on integers.

A segment's count is its integer box, closed or open.  Every other count
sums sections, polygons on the last two axes, in one routine,
:func:`_section`: per column y, every facet line with B > 0 is a piece of
the upper chain, every one with B < 0 of the lower, in slope order, and
the lattice points under one piece are one Euclid-style floor sum
(Beck-Robins, *Computing the Continuous Discretely*).  A polygon is one
section, at x = 0, read straight off its facets.  A 3D or 4D count walks
the first d = n-2 axes only, the prefix, and sums each section between its
cuts.  Sections are homogeneous: the section of mP at the prefix x is m
times that of P at x/m, so its cuts and chains depend only on the cell of
the chamber complex of P's projection to the prefix axes that holds x/m
(Clauss-Loechner, "Parametric analysis of polyhedral iteration spaces",
1998; Verdoolaege et al., *Algorithmica* 2007), and are looked up in one
chamber table, for 3D and 4D only, instead of scanned.  The table is cut
into strips at the first coordinates of the vertices and at the crossings
of the projected edges, and each strip into trapezoids between consecutive
edges; a 3D kernel is one strip on a zero-weight first axis, with its
vertex levels as edges.  A strict count walks the same table or chains
over the open projection: over a prefix strictly inside the projection of
mP, the interior holds the points of the open section, which has the cuts
and chains of the closed one, with each right-hand side and cut numerator
lowered by one.  All that does not depend on m is derived from the integer
rows of P into one kernel, which each request builds for itself and drops
when it returns: nothing is kept between calls.

A delta-vector or a report asks for all its counts, closed and strict, in
one request, :func:`count_vector`, on one kernel.  It is refused before
any count if it holds more counts than the budget, as many cheap counts
(the 2k of a segment whose k is near 10^12) add up to unbounded work, or,
by one :func:`_charge`, at an m that is negative or whose box of mP holds
over ``budget`` cells (none in 1D), read off one box when the boxes nest.

Counts are the same in every order of the axes, but the walk's work is
not: :func:`count_points` and :func:`count_vector` walk a 3D or 4D polytope
with its axes permuted into the order that :func:`_frame`'s cost model
ranks cheapest.  The interior shift is decided by counts too, m by m on
one kernel (:func:`_first_shift`); only on a mismatch is a witness looked
for, by galloping and bisection on the counts clipped to a corner of the
prefix box.  Its "least" point depends on the order of the axes, so the
interior shift keeps the caller's frame.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from functools import cmp_to_key
from itertools import permutations
from typing import Optional, Sequence

from .errors import BudgetExceeded, OriginNotInterior
from .geometry import Polytope, origin_interior

#: Maximum number of bounding-box cells a count may touch, and of counts a
#: vector request may hold.
DEFAULT_BUDGET = 10**8

IntPoint = tuple[int, ...]

#: Euclid steps of a facet's slope that :func:`_frame` reads at most, so
#: that ranking the frames stays cheap on huge coordinates, whose slopes
#: take about as many steps as they have digits.
_FRAME_STEPS = 12


def _frame(P: Polytope) -> Polytope:
    """P with its axes permuted into the order that a cost model of the
    walk ranks cheapest, or P itself when the given order ties for it.

    The model sums over the facets the product of the extents of the facet's
    vertices (``P._incidence``) on the walked (prefix) axes, each plus one in
    4D, times 1 + the number of Euclid steps of the facet's slope on the last
    two axes, capped at ``_FRAME_STEPS``: about the sections that hold the
    facet times the floor-sum steps of its line there.  Counts are the same in
    every frame, as the lattice is; a polygon or a segment keeps its own.
    """
    n = P.ambient_dim
    if n < 3:
        return P
    facets = []
    for k, (a, _) in enumerate(P.facet_rows):
        tight = [row for row, f in zip(P.rows, P._incidence) if f >> k & 1]
        facets.append((a, [max(c) - min(c) + (n == 4) for c in zip(*tight)]))

    def cost(order: tuple[int, ...]) -> int:
        *walked, y, z = order
        total = 0
        for a, extent in facets:
            u, v, steps = -a[y], abs(a[z]), 1
            while v and steps <= _FRAME_STEPS:
                u, v, steps = v, u % v, steps + 1
            for j in walked:
                steps *= extent[j]
            total += steps
        return total

    order = min(permutations(range(n)), key=cost)  # the first of equal costs: ties keep P
    if order == tuple(range(n)):
        return P
    return Polytope(n, P.scale, tuple(sorted(tuple(row[j] for j in order) for row in P.rows)),
                    tuple(sorted((tuple(a[j] for j in order), b) for a, b in P.facet_rows)))


class _Kernel:
    """What counting derives from one polytope, for the counts of one request.

    Facet <a_i, x> <= b_i/L of P, with p_i/q_i = b_i/L in lowest terms, is
    q_i*<a_i, x> <= m*p_i on mP; ``bounds`` holds the p_i, ``ranges`` the
    per-axis (min, max) of the vertex rows, over ``scale``, and ``nested``
    whether each holds 0, so that the boxes of mP nest.  On the last two
    axes, with the first n-2 fixed to a prefix x, facet i is the line
    A_i*y + B_i*z <= m*p_i - strict - <weights[i], x>, where ``lines[i]`` =
    (A_i, B_i) and ``weights[i]`` are the last two and the other
    coefficients of q_i*a_i.
    In 3D and 4D, ``strips`` is the :func:`ehrhart._strips.strips` of the
    projection of P to the prefix axes, and ``chambers`` the
    :func:`_chamber_table` on them and on the lines, built on the first
    count, closed, strict or clipped, that walks a section; a 3D kernel's
    prefix is padded to (x1, x2) by a zero-weight axis at x1 = 0, in one
    strip whose edges are its vertex levels x2/m = t/L.  A polygon is one
    :func:`_section` on ``chains``, the :func:`_forms` of its lines with B > 0, then B < 0.
    """

    def __init__(self, P: Polytope) -> None:
        self.n, self.scale = P.ambient_dim, P.scale
        gcds = [math.gcd(b, P.scale) for _, b in P.facet_rows]
        self.bounds = [b // g for (_, b), g in zip(P.facet_rows, gcds)]
        self.ranges = [(min(column), max(column)) for column in zip(*P.rows)]
        self.nested = all(lo <= 0 <= hi for lo, hi in self.ranges)
        scaled = [[P.scale // g * c for c in a] for (a, _), g in zip(P.facet_rows, gcds)]
        self.weights = [row[:-2] or [0] for row in scaled]
        self.lines = [row[-2:] for row in scaled]
        if self.n == 4:  # a 2D or 3D count does not compile the 4D decomposition
            from ._strips import strips
            self.strips = strips(P)
        elif self.n == 3:
            levels = sorted({row[0] for row in P.rows})
            self.strips = [((0, 1), (0, 1), [(t, 0, P.scale) for t in levels])]
        elif self.n == 2:
            self.chains = [_forms(half, self.bounds, [0] * len(self.bounds))
                           for half in _halves(self.lines)]
        self.chambers: Optional[list[tuple]] = None

    def box(self, m: int, strict: bool = False) -> list[tuple[int, int]]:
        """The integer bounding box of mP: ceil(m*lo) to floor(m*hi) per axis
        (strict: floor(m*lo) + 1 to ceil(m*hi) - 1, the open box)."""
        L, s = self.scale, int(strict)
        return [(-((-m * lo - s) // L), (m * hi - s) // L) for lo, hi in self.ranges]


def _euclid_steps(a: int, m: int) -> tuple[tuple[int, int, int], ...]:
    """Euclid's (modulus, quotient, remainder) steps on a / m, m > 0."""
    steps = []
    while m:
        q, r = divmod(a, m)
        steps.append((m, q, r))
        a, m = m, r
    return tuple(steps)


def _floor_sum(n: int, b: int, steps: Sequence[tuple[int, int, int]]) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for n >= 0, where
    ``steps`` is ``_euclid_steps(a, m)``.

    The Euclid-style recurrence of the AtCoder Library's ``floor_sum``:
    reduce a and b mod m, then swap the roles of a and m, in O(log m)
    steps.  The (a, m) pairs depend on the slope alone; Python's floor
    division makes negative a and b work as-is.
    """
    total = 0
    for m, qa, a in steps:
        qb, b = b // m, b % m
        total += qa * (n * (n - 1) // 2) + qb * n
        top = a * n + b
        if top < m:  # always so at the last step, where a = 0
            break
        n, b = top // m, top % m
    return total


# A facet line A*y + B*z <= C[i] on the last two axes, B > 0, as (A, B, i, steps).
_Line = tuple[int, int, int, tuple]


def _halves(lines: Sequence[tuple[int, int]]) -> tuple[list[_Line], list[_Line]]:
    """The uppers (A, B, i, steps) of the lines A*y + B*z <= C[i] with B > 0
    and the lowers (A, -B, i, steps) with B < 0, as z >= (A*y - C[i])/-B,
    steps the :func:`_euclid_steps` of the slope, each left to right by slope A/B."""
    uppers, lowers = [], []
    for i, (A, B) in enumerate(lines):
        if B > 0:
            uppers.append((A, B, i, _euclid_steps(-A, B)))
        elif B < 0:
            lowers.append((A, -B, i, _euclid_steps(-A, -B)))
    by_slope = cmp_to_key(_by_value)
    return sorted(uppers, key=by_slope), sorted(lowers, key=by_slope)


def _by_value(k: tuple, l: tuple) -> int:
    """Compare the fractions k[0]/k[1] and l[0]/l[1], denominators positive."""
    return k[0] * l[1] - l[0] * k[1]


def _forms(chain: list[_Line], p: Sequence[int], w: Sequence[int]) -> list[tuple]:
    """The :func:`_chamber_table` forms of each line of a chain with the
    next, and of the last with itself, whose end forms are then 0."""
    return [(p[i], w[i], A, steps, p[j] * B - p[i] * b, w[j] * B - w[i] * b, a * B - A * b)
            for (A, B, i, steps), (a, b, j, _) in zip(chain, chain[1:] + chain[-1:])]


def _real_chain(lines: Sequence[_Line], c: Sequence[int], y0: tuple[int, int],
                y1: tuple[int, int]) -> list[_Line]:
    """The lines lowest on an interval of positive length in
    min_i (c[i] - A_i*y) / B_i over the real y0 < y1, left to right as the
    ``lines`` are, by slope.  The ends are (numerator, denominator) pairs,
    denominators positive."""
    chain = []
    for A, B, i, steps in lines:
        (p, q), (r, s) = y0, y1  # line i is lowest on p/q < y < r/s at most
        for a, b, j, _ in lines:  # line i is at or below line j where e*y <= f
            e, f = a * B - A * b, c[j] * B - c[i] * b
            if e > 0 and f * s < r * e:
                r, s = f, e
            elif e < 0 and f * q < p * e:
                p, q = -f, -e
            elif e == 0 and f < 0:  # line j is parallel and lower everywhere
                r, s = p, q
        if p * s < r * q:
            chain.append((A, B, i, steps))
    return chain


def _least_cut(cuts: Sequence[tuple], c: Sequence[int]) -> tuple:
    """The cut D*y <= s*c[i] + u*c[j] with the least (s*c[i] + u*c[j]) / D,
    followed by that numerator and D."""
    best = None
    for cut in cuts:
        D, i, s, j, u = cut
        v = s * c[i] + u * c[j]
        if best is None or v * best[2] < best[1] * D:
            best = cut, v, D
    return best


def _chamber_table(K: _Kernel) -> list[tuple]:
    """The table of a 3D or 4D kernel; a polygon needs none.  One strip
    (s, t, bottom, top, rows) per strip of ``K.strips``, that ends at
    u = x1/m = s/t, with one row (edge, top, bottom, chains, x1s) per
    trapezoid, bottom to top: its upper edge, the cuts that bind y from
    above and from below, and the upper and lower envelope chains, read off
    the section of P at the trapezoid's middle, where no two cuts or lines
    tie, and held on all of it.  Tuples are flat: an edge x2/m = (p + q*u)/d
    is held as p, q, d, ``bottom`` and ``top`` being the strip's lowest and
    highest.  With C_i = m*p_i - v_i*x1 - w_i*x2 on line i of the section of
    mP at (x1, x2), a cut D*y <= s*C_i + t*C_j is held as s*p_i + t*p_j,
    s*v_i + t*v_j, s*w_i + t*w_j, D.  A chain line (A, B, i) is held as
    (p_i, w_i, A, steps, c, cw, e), where the next line (a, b, j) passes
    below it, y <= (C_j*B - C_i*b) / (a*B - A*b), with c, cw, e the
    p_j*B - p_i*b, w_j*B - w_i*b, a*B - A*b of that bound, all 0 for the
    last line.  In 4D, ``x1s`` holds the line's x1 weights
    (v_i, v_j*B - v_i*b); a 3D kernel's x1 is 0, and its ``x1s`` None.
    """
    # The Fourier-Motzkin cuts D*y <= s*C[i] + t*C[j], as (D, i, s, j, t), of
    # the B = 0 rows and the lower-upper pairs, by the sign of D, negative D
    # negated; one with D = 0 holds on all of P's projection, where the table looks.
    uppers, lowers = _halves(K.lines)
    cuts = [(A, i, 1, i, 0) for i, (A, B) in enumerate(K.lines) if not B]
    cuts += [(Au * Bl + Al * Bu, i, Bl, j, Bu)
             for Au, Bu, i, _ in uppers for Al, Bl, j, _ in lowers]
    above = [c for c in cuts if c[0] > 0]
    below = [(-D, i, s, j, t) for D, i, s, j, t in cuts if D < 0]
    p, w = K.bounds, [weight[-1] for weight in K.weights]
    v = [weight[0] for weight in K.weights] if K.n == 4 else [0] * len(p)

    def cut(D: int, i: int, s: int, j: int, t: int) -> tuple[int, int, int, int]:
        return s * p[i] + t * p[j], s * v[i] + t * v[j], s * w[i] + t * w[j], D

    def x1_forms(chain: list[_Line]) -> list[tuple]:
        return [(v[i], v[j] * B - v[i] * b)
                for (_, B, i, _), (_, b, j, _) in zip(chain, chain[1:] + chain[-1:])]

    table = []
    for end, (un, ud), edges in K.strips:
        rows = []
        for (p0, q0, d0), (p1, q1, d1) in zip(edges, edges[1:]):
            # The lines A*y + B*z <= c[i] of the section of mP at (x1, x2),
            # for (x1, x2)/m the middle of the trapezoid: the section of P
            # there, scaled by m.
            x1, m = 2 * d0 * d1 * un, 2 * d0 * d1 * ud
            x2 = (p0 * ud + q0 * un) * d1 + (p1 * ud + q1 * un) * d0
            c = [m * pi - vi * x1 - wi * x2 for pi, vi, wi in zip(p, v, w)]
            top, v1, e1 = _least_cut(above, c)
            bottom, v0, e0 = _least_cut(below, c)
            y0, y1 = (-v0, e0), (v1, e1)
            chains = _real_chain(uppers, c, y0, y1), _real_chain(lowers, c, y0, y1)
            rows.append((p1, q1, d1, *cut(*top), *cut(*bottom),
                         [_forms(chain, p, w) for chain in chains],
                         [*map(x1_forms, chains)] if K.n == 4 else None))
        table.append((*end, *edges[0], *edges[-1], rows))
    return table


def _chamber_count(K: _Kernel, m: int, strict: bool,
                   clip: Optional[Sequence[int]] = None) -> int:
    """Lattice points of mP (strict: of its interior) for n = 3 or 4, and
    m >= 1 whose box holds a cell and has been charged by :func:`_charge`;
    with ``clip`` = (c1, c2), only those whose padded prefix has x1 <= c1
    and x2 <= c2.  Per x1 of the closed (strict: open) box of mP, on the
    rows of the strip that holds x1/m, the x1 terms are added into the
    forms; then per section x2 between the strip's bottom and top edges
    (open for a strict count), on the forms of the trapezoid that holds
    (x1, x2)/m, two cut divisions and one :func:`_section`."""
    if K.chambers is None:
        K.chambers = _chamber_table(K)
    lo, hi = K.box(m, strict)[0] if K.n == 4 else (0, 0)
    if clip is not None:
        hi = min(hi, clip[0])
    s = int(strict)
    total = 0
    for un, ud, lp, lq, ld, hp, hq, hd, rows in K.chambers:
        last = min(hi, m * un // ud)  # the last x1 with x1/m in the strip
        for x1 in range(lo, last + 1):
            x2 = -((-m * lp - lq * x1 - s) // ld)
            top = (m * hp + hq * x1 - s) // hd
            if clip is not None and top > clip[1]:
                top = clip[1]
            for ep, eq, ed, tp, tv, tw, td, bp, bv, bw, bd, chains, x1s in rows:
                stop = (m * ep + eq * x1) // ed  # the last x2 in the trapezoid
                if stop > top:
                    stop = top
                if x2 > stop:
                    continue
                # A strict count lowers each cut numerator by one, as in
                # :func:`_section`, which takes the chains' p and c M times:
                # M = m on the table's forms, which hold at x1 = 0, and
                # M = 1 once m and the x1 terms are folded in.
                tp, bp = m * tp - s - tv * x1, m * bp - s - bv * x1
                M = m
                if x1:
                    M, chains = 1, [[(m * p - pv * x1, w, A, steps, m * c - cv * x1, cw, e)
                                     for (p, w, A, steps, c, cw, e), (pv, cv) in zip(*pair)]
                                    for pair in zip(chains, x1s)]
                for x in range(x2, stop + 1):
                    y1 = (tp - tw * x) // td
                    y0 = -((bp - bw * x) // bd)
                    if y0 <= y1:
                        total += _section(chains, M, s, x, y0, y1)
                x2 = stop + 1
        lo = last + 1
    return total


def _section(chains: Sequence[list[tuple]], M: int, s: int, x: int, y0: int, y1: int) -> int:
    """Lattice points of a section at x with columns y0..y1, y1 >= y0 - 1:
    one per column, and one floor sum per chain piece, up to its crossing
    with the next, or for a piece of one column the floor sum's one term.
    The chains' p and c are taken M times.  A strict section (s = 1) lowers
    each right-hand side by one, as ceil(v/D) - 1 = floor((v - 1)/D).  A
    piece ends at ceil(e) - 1 for the crossing e with the next line, where
    an integer e gives both lines one floor and a strict piece stays below
    the open top cut, which e may reach at a vertex level."""
    total = y1 - y0 + 1  # no piece ends past y1
    for chain in chains:
        y = y0
        for p, w, A, steps, c, cw, e in chain:  # lowest from y to end
            end = (M * c - 1 - cw * x) // e if e else y1
            if end > y:
                total += _floor_sum(end - y + 1, M * p - s - w * x - A * y, steps)
                y = end + 1
            elif end == y:  # B = steps[0][0]
                total += (M * p - s - w * x - A * y) // steps[0][0]
                y += 1
    return total


def _polygon_count(K: _Kernel, m: int, strict: bool) -> int:
    """Lattice points of mP (strict: of its interior) for n = 2 and m >= 1:
    the one section at x = 0, over the closed (strict: open) box of mP on axis 0."""
    (lo, hi), s, L = K.ranges[0], int(strict), K.scale
    return _section(K.chains, m, s, 0, -((-m * lo - s) // L), (m * hi - s) // L)


def _charge(K: _Kernel, budget: int, *requests: Sequence[int]) -> None:
    """Refuses a request before its first count, at the first m of the
    ``requests`` in order that is negative (``ValueError``) or whose box of
    mP holds more than ``budget`` cells (``BudgetExceeded``; none in 1D).
    Nested boxes are cleared by one box, that of the largest m, read off a
    range's ends."""
    def cells(m: int) -> int:
        return math.prod(max(0, hi - lo + 1) for lo, hi in K.box(m))

    ends = [m for d in requests for m in ((*d[:1], *d[-1:]) if isinstance(d, range) else d)]
    if not ends or min(ends) >= 0 and (K.n == 1 or K.nested and cells(max(ends)) <= budget):
        return
    for m in (m for dilations in requests for m in dilations):
        if m < 0:
            raise ValueError("dilation factor must be non-negative")
        if K.n > 1 and cells(m) > budget:
            raise BudgetExceeded(f"bounding box of {m}P has {cells(m)} cells, budget is {budget}")


def _count(K: _Kernel, m: int, strict: bool) -> int:
    """Lattice points of mP (strict: of its interior), m cleared by :func:`_charge`."""
    if K.n == 1:  # the box of a segment is its lattice points
        (lo, hi), = K.box(m, strict)
        return max(0, hi - lo + 1)
    if not m:  # 0P is the origin, and its interior is empty
        return int(not strict)
    if not K.nested and any(lo > hi for lo, hi in K.box(m)):  # an empty box holds no point
        return 0
    return (_polygon_count if K.n == 2 else _chamber_count)(K, m, strict)


def count_points(P: Polytope, m: int, strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattice points of mP (strict: of the interior of mP).

    m = 0 gives the single point at the origin for the closed count and the
    empty set for the strict one, once its one-cell box is charged.
    """
    K = _Kernel(_frame(P))
    _charge(K, budget, (m,))
    return _count(K, m, strict)


def count_vector(P: Polytope, closed: Sequence[int], interior: Sequence[int] = (),
                 budget: int = DEFAULT_BUDGET) -> list[int]:
    """The counts of mP for each m of ``closed``, then those of the interior
    of mP for each m of ``interior``, in order, a repeated m counted again,
    all on one kernel.  Raises before any count: ``BudgetExceeded`` if they
    are more than ``budget`` together, else at the first m in order that is
    negative (``ValueError``) or over budget, as :func:`_charge`."""
    # len() overflows on a range past sys.maxsize, so a range is sized
    # from its ends, as ceil((stop - start) / step).
    requested = sum(max(0, -((d.start - d.stop) // d.step)) if isinstance(d, range)
                    else len(d) for d in (closed, interior))
    if requested > budget:
        raise BudgetExceeded(f"{requested} counts requested, budget is {budget}")
    K = _Kernel(_frame(P))
    _charge(K, budget, closed, interior)
    return [_count(K, m, strict)
            for dilations, strict in ((closed, False), (interior, True)) for m in dilations]


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
    found = _first_shift(P, (m,), budget)
    return None if found is None else found[1]


def _first_shift(P: Polytope, dilations: Sequence[int],
                 budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, IntPoint]]:
    """(m, :func:`_shift_witness`) at the first m >= 1 of ``dilations`` whose
    int(mP) and (m-1)P differ in count, or None, on one kernel of P in the
    caller's frame, each m charged with m - 1 before its counts."""
    if not origin_interior(P):
        raise OriginNotInterior("the interior shift needs the origin strictly inside")
    K = _Kernel(P)
    for m in dilations:
        _charge(K, budget, (m, m - 1))
        if _count(K, m, True) != _count(K, m - 1, False):
            return m, _shift_witness(K, m)
    return None


def _shift_witness(K: _Kernel, m: int) -> Optional[IntPoint]:
    """The least lattice point of int(mP) outside (m-1)P, or None.

    (m-1)P lies in int(mP), so the clipped strict count of mP less the
    clipped closed count of (m-1)P counts such points under the clip.  Each
    prefix coordinate in turn is galloped up from the open box's first layer
    and bisected to the least clip that holds one, the later ones unclipped.
    In the one section found, the first column whose lengths differ holds
    the witness: the inner column's least point, or the one just above the
    outer column when both start there.
    """
    box = K.box(m)
    if any(lo > hi for lo, hi in box):
        return None
    if K.n == 1:
        (lo, hi), = K.box(m, True)
        (olo, ohi), = K.box(m - 1)
        z = lo if olo > ohi or lo < olo else ohi + 1
        return (z,) if z <= hi else None

    def differ(axis: int, t: int) -> bool:  # 0P is the origin, at (x1, x2) = (0, 0)
        clip[axis] = t
        outer = _chamber_count(K, m - 1, False, clip) if m > 1 else int(min(clip) >= 0)
        return _chamber_count(K, m, True, clip) != outer

    pad = 4 - K.n  # the prefix axes, padded to (x1, x2) at x1 = 0 in 3D
    clip = [0] * pad + [hi for _, hi in box[:-2]]
    for axis, (lo, hi) in enumerate(K.box(m, True)[:-2], pad):  # witnesses are interior
        # Most witnesses lie on the first layers: probe lo, lo+1, lo+3, ...
        # up to the first clip that holds one, then bisect the last gap.
        low, t, step = lo, lo, 1
        while t < hi and not differ(axis, t):
            low, t, step = t + 1, min(t + step, hi), 2 * step
        clip[axis] = low + bisect_left(range(low, t), True, key=lambda u: differ(axis, u))
    prefix = clip[pad:]
    dots = [sum(w * x for w, x in zip(weights, prefix)) for weights in K.weights]
    (y0, y1), (z0, z1) = box[-2:]

    def column(M: int, s: int, y: int) -> tuple[int, int]:  # z range of MP, s = 1: int(MP)
        lo, hi = z0, z1
        for (A, B), p, d in zip(K.lines, K.bounds, dots):
            c = M * p - s - d - A * y
            if B > 0:
                hi = min(hi, c // B)
            elif B < 0:
                lo = max(lo, -(c // -B))
            elif c < 0:  # a B = 0 row leaves the column empty
                return z0, z0 - 1
        return lo, hi

    for y in range(y0, y1 + 1):
        (lo, hi), (olo, ohi) = column(m, 1, y), column(m - 1, 0, y)
        if max(hi - lo, -1) != max(ohi - olo, -1):
            return (*prefix, y, lo if olo > ohi or lo < olo else ohi + 1)
    return None
