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
(Beck-Robins, *Computing the Continuous Discretely*), split at its first
Euclid step -A = qa*B + a: the remainder R(n, b mod B) after it depends
on a and B alone and recurs between sections, so the chamber walk keeps
one remainder table per residue (a, B), filled by :func:`_floor_sum`.
A polygon is one section, at x = 0, read straight off its facets, with
no table.  A 3D or 4D count walks the first d = n-2 axes only, the
prefix, and sums each section between its cuts.  Sections are
homogeneous: the section of mP at the prefix x is m times that of P at
x/m, so its cuts and chains depend only on the cell of the chamber
complex of P's projection to the prefix axes that holds x/m
(Clauss-Loechner, "Parametric analysis of polyhedral iteration spaces",
1998; Verdoolaege et al., *Algorithmica* 2007), and are looked up in one
chamber table, for 3D and 4D only, instead of scanned.  The table is cut
into strips at the first coordinates of the vertices and at the crossings
of the projected edges, and each strip into trapezoids between consecutive
edges; a 3D kernel is one strip on a zero-weight first axis, with its
vertex levels as edges.  A trapezoid's chains are read off its middle
section by one stack sweep over the lines in slope order
(:func:`_real_chain`), as Andrew's chain builds a hull, and trapezoids
with the same chain share its forms.  A strict count walks the same table
or chains over the open projection: over a prefix strictly inside the
projection of mP, the interior holds the points of the open section, which
has the cuts and chains of the closed one, with each right-hand side and
cut numerator lowered by one.  A count reuses the request's earlier counts
at a tip of axis 0, a vertex v alone on its lowest (or highest) level: up
to the next vertex level, P equals v + T_v, the vertex figure of Brion's
theorem (Brion 1988; Beck-Robins, ch. 9), so for the least d >= 1 with
d*v integral, the points of mP in that band are those of (m-d)P in its
band shifted by d*v, and the count's own window on axis 0 skips all but
the band's last layers.  All that does not depend on m is derived from
the integer rows of P into one kernel, which each request builds for
itself and drops when it returns, remainder tables and tip counts
included: nothing is kept between calls.

A delta-vector or a report asks for all its counts, closed and strict, in
one request, :func:`count_vector`, on one kernel.  It is refused before
any count if it holds more counts than the budget, as many cheap counts
(the 2k of a segment whose k is near 10^12) add up to unbounded work, or,
by one :func:`_charge`, at an m that is negative or whose box of mP holds
over ``budget`` cells (none in 1D), read off one box when the boxes nest.

Counts are the same in every order of the axes, but the walk's work is
not: a 3D or 4D count reads P, row by row, in the axis order that
:func:`_frame`'s cost model ranks cheapest.  The interior shift's search
and single-m check count m by m on one kernel (:func:`_first_shift`); on
a mismatch, theirs or a report's, :func:`shift_witness` scans the prefix
slabs in order, in P's own frame, as its "least" depends on the axis order.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import permutations
from operator import index, itemgetter
from typing import Optional, Sequence

from .errors import BudgetExceeded, OriginNotInterior
from .geometry import Polytope, dual_denominator, origin_interior

#: Maximum number of bounding-box cells a count may touch, and of counts a
#: vector request may hold.
DEFAULT_BUDGET = 10**8

IntPoint = tuple[int, ...]

#: Euclid steps of a facet's slope that :func:`_frame` reads at most, so
#: that ranking the frames stays cheap on huge coordinates, whose slopes
#: take about as many steps as they have digits.
_FRAME_STEPS = 12


def _frame(P: Polytope) -> Optional[tuple[int, ...]]:
    """The order of P's axes that a cost model of the walk ranks cheapest,
    or None when the given order ties for it.

    The model sums over the facets the product of the extents of the facet's
    vertices on the walked (prefix) axes, each plus one in 4D, times 1 + the
    number of Euclid steps of the facet's slope on the last two axes, capped
    at ``_FRAME_STEPS``: about the sections that hold the facet times the
    floor-sum steps of its line there.  Facet k's vertices are the rows whose
    ``P._incidence`` mask has bit k.  Counts are the same in every order, as
    the lattice is; a polygon or a segment keeps its own.
    """
    n = P.ambient_dim
    if n < 3:
        return None
    facets = [(a, [max(c) - min(c) + (n == 4)
                   for c in zip(*[row for row, f in zip(P.rows, P._incidence) if f >> k & 1])])
              for k, (a, _) in enumerate(P.facet_rows)]

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

    order = min(permutations(range(n)), key=cost)  # the first of equal costs: ties keep P's
    return None if order == tuple(range(n)) else order


class _Kernel:
    """What counting derives from P, its axes in ``order`` (None: P's own), for one request.

    Facet <a_i, x> <= b_i/L of P, with p_i/q_i = b_i/L in lowest terms, is
    q_i*<a_i, x> <= m*p_i on mP; ``bounds`` holds the p_i, ``ranges`` the
    per-axis (min, max) of the vertex rows, over ``scale``, and ``nested``
    whether each holds 0, so that the boxes of mP nest.  On the last two
    axes, with the prefix padded to (x1, x2) by zero-weight axes at 0, facet
    i is the line A_i*y + B_i*z <= m*p_i - strict - v_i*x1 - w_i*x2, where
    ``lines[i]`` = (A_i, B_i) are the last two coefficients of q_i*a_i and
    ``weights[i]`` = (v_i, w_i) the others, 0 where P has no such axis; a
    segment's line is (0, B_i), one column at y = 0.  In 3D and 4D,
    ``strips`` is the :func:`ehrhart._strips.strips` of the projection of P
    to the prefix axes, and ``chambers`` the :func:`_chamber_table` on them
    and on the lines, built on the first count, closed, strict or clipped,
    that walks a section; a 3D kernel's prefix is at x1 = 0, in one strip
    whose edges are its vertex levels x2/m = t/L.  A polygon is one
    :func:`_section` on ``chains``, the :func:`_forms` of its lines with B > 0, then B < 0.
    In 3D and 4D, ``tips`` holds (sign, t, near, d) for the lowest (sign =
    1) and the highest (sign = -1) level t/L of axis 0 that one vertex row
    r alone holds, if P has three levels or more: near/L is the next level,
    and d = L / gcd(L, *r).  Up to near/L, P is its tangent cone at r/L
    (Brion 1988).  ``tip_counts`` keeps, by (sign, strict, m), the points of
    mP (strict: of its interior) in the band L*x0 <= m*near at the bottom
    or L*x0 > m*near at the top, for m + d, two at most per unclipped
    :func:`_chamber_count`.  The bands are the first and last units of the
    walk, which gives each inner level to the unit below; an inner level
    bounds no facet, so the bottom band may hold it, closed or strict.
    """

    def __init__(self, P: Polytope, order: Optional[Sequence[int]] = None) -> None:
        self.n, self.scale = P.ambient_dim, P.scale
        L = P.scale
        turn = itemgetter(*order) if order else tuple  # a normal or a row in the order
        self.bounds, self.weights, self.lines = bounds, weights, lines = [], [], []
        for a, b in P.facet_rows:  # q*a and p for p/q = b/L in lowest terms
            a = turn(a)  # facet i stays bit i of P._incidence
            g = math.gcd(b, L)
            bounds.append(b // g)
            if g != L:
                a = [L // g * c for c in a]
            weights.append((0, 0, *a[:-2])[-2:])
            lines.append(a[-2:] if len(a) > 1 else (0, *a))
        self.ranges = turn([(min(column), max(column)) for column in zip(*P.rows)])
        self.nested = all(lo <= 0 <= hi for lo, hi in self.ranges)
        if self.n > 2:
            rows = sorted(map(turn, P.rows))  # rows[0] and rows[-1] are on the extreme levels
            levels = sorted({row[0] for row in rows})
            self.tips = [(sign, r[0], near, L // math.gcd(L, *r))
                         for sign, r, other, near in ((1, rows[0], rows[1], levels[1]),
                                                      (-1, rows[-1], rows[-2], levels[-2]))
                         if r[0] != other[0] and len(levels) > 2]
            self.tip_counts: dict[tuple[int, bool, int], int] = {}
        if self.n == 4:  # a 2D or 3D count does not compile the 4D decomposition
            from ._strips import strips
            self.strips = strips(sorted(zip(map(turn, P.rows), P._incidence)), L)
        elif self.n == 3:
            self.strips = [((0, 1), (0, 1), [(t, 0, L) for t in levels])]
        elif self.n == 2:
            self.chains = [_forms(half, self.bounds, [0] * len(self.bounds))
                           for half in _halves(self.lines)]
        self.chambers: Optional[list[tuple]] = None

    def box(self, m: int, strict: bool = False) -> list[tuple[int, int]]:
        """The integer bounding box of mP: ceil(m*lo) to floor(m*hi) per axis
        (strict: floor(m*lo) + 1 to ceil(m*hi) - 1, the open box)."""
        L, s = self.scale, int(strict)
        return [(-((-m * lo - s) // L), (m * hi - s) // L) for lo, hi in self.ranges]


def _floor_sum(n: int, m: int, a: int, b: int) -> int:
    """Sum of floor((a*i + b) / m) over i = 0..n-1, for n >= 0 and m > 0.

    The Euclid-style recurrence of the AtCoder Library's ``floor_sum``:
    reduce a and b mod m, summing what they drop, then count the points
    left under the line by columns of the swapped problem, whose n, m, a, b
    are the (a*n + b) // m, a, m, (a*n + b) % m of this one, in O(log m)
    steps.  Python's floor division makes negative a and b work as-is.
    """
    total = 0
    while n:
        total += a // m * (n * (n - 1) // 2) + b // m * n
        a, b = a % m, b % m
        top = a * n + b
        if top < m:
            break
        n, m, a, b = top // m, a, m, top % m
    return total


# A facet line A*y + B*z <= C[i] on the last two axes, B > 0, as (A, B, i).
_Line = tuple[int, int, int]


def _halves(lines: Sequence[tuple[int, int]]) -> tuple[list[_Line], list[_Line]]:
    """The uppers (A, B, i) of the lines A*y + B*z <= C[i] with B > 0 and
    the lowers (A, -B, i) with B < 0, as z >= (A*y - C[i])/-B, each left to
    right by slope A/B."""
    uppers, lowers = [], []
    for i, (A, B) in enumerate(lines):
        if B > 0:
            uppers.append((A, B, i))
        elif B < 0:
            lowers.append((A, -B, i))
    by_slope = cmp_to_key(_by_value)
    return sorted(uppers, key=by_slope), sorted(lowers, key=by_slope)


def _by_value(k: tuple, l: tuple) -> int:
    """Compare the fractions k[0]/k[1] and l[0]/l[1], denominators positive."""
    return k[0] * l[1] - l[0] * k[1]


def _forms(chain: list[_Line], p: Sequence[int], w: Sequence[int],
           tables: Optional[dict] = None) -> list[tuple]:
    """The :func:`_chamber_table` forms of each line of a chain with the
    next, and of the last with itself, whose end forms are then 0; with
    ``tables``, each line shares the remainder table of its residue
    (-A mod B, B) there."""
    return [(p[i], w[i], A, B, qa, a, None if tables is None else tables.setdefault((a, B), {}),
             p[j] * B - p[i] * b, w[j] * B - w[i] * b, a1 * B - A * b)
            for (A, B, i), (a1, b, j) in zip(chain, chain[1:] + chain[-1:])
            for qa, a in [divmod(-A, B)]]


def _real_chain(lines: Sequence[_Line], c: Sequence[int], y0: tuple[int, int],
                y1: tuple[int, int]) -> list[_Line]:
    """The lines lowest on an interval of positive length in
    min_i (c[i] - A_i*y) / B_i over the real y0 < y1, left to right as the
    ``lines`` are, by slope.  The ends are (numerator, denominator) pairs,
    denominators positive.

    One sweep, as Andrew's chain: in slope order each line is lowest from
    some y on, so the envelope is a stack of pieces [start, line, ...], a
    piece's lines tied, that pops each piece the new line passes below
    before the piece starts; then each piece is clipped to (y0, y1)."""
    pieces: list[list] = []
    for line in lines:
        a, b, j = line
        while pieces:
            piece = pieces[-1]
            start, (A, B, i) = piece[0], piece[1]
            e, f = a * B - A * b, c[j] * B - c[i] * b  # line j is lower where e*y > f, e >= 0
            if e:
                if start is None or f * start[1] > start[0] * e:
                    pieces.append([(f, e), line])
                    break
            elif f >= 0:  # parallel and never lower: tied, or dropped
                if not f:
                    piece.append(line)
                break
            pieces.pop()
        else:
            pieces.append([None, line])
    chain, end = [], None
    (p, q), (r, s) = y0, y1
    for piece in reversed(pieces):  # each piece ends where the next starts
        start = piece[0]
        lo = start if start and start[0] * q > p * start[1] else y0
        hi = end if end and end[0] * s < r * end[1] else y1
        if lo[0] * hi[1] < hi[0] * lo[1]:
            chain[:0] = piece[1:]
        end = start
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
    (p_i, w_i, A, B, qa, a, table, c, cw, e): its slope's first Euclid
    step -A = qa*B + a, 0 <= a < B, the remainder table of (a, B), and, as
    the next line (a', b, j) passes below it at y <= (C_j*B - C_i*b) /
    (a'*B - A*b), the p_j*B - p_i*b, w_j*B - w_i*b, a'*B - A*b of that
    bound, all 0 for the last line.  With (v_i, w_i) = ``K.weights[i]``,
    ``x1s`` holds each chain line's x1 weights (v_i, v_j*B - v_i*b), 0 in 3D.
    """
    # The Fourier-Motzkin cuts D*y <= s*C[i] + t*C[j], as (D, i, s, j, t), of
    # the B = 0 rows and the lower-upper pairs, by the sign of D, negative D
    # negated; one with D = 0 holds on all of P's projection, where the table looks.
    uppers, lowers = _halves(K.lines)
    cuts = [(A, i, 1, i, 0) for i, (A, B) in enumerate(K.lines) if not B]
    cuts += [(Au * Bl + Al * Bu, i, Bl, j, Bu)
             for Au, Bu, i in uppers for Al, Bl, j in lowers]
    above = [c for c in cuts if c[0] > 0]
    below = [(-D, i, s, j, t) for D, i, s, j, t in cuts if D < 0]
    p, (v, w) = K.bounds, zip(*K.weights)

    def cut(D: int, i: int, s: int, j: int, t: int) -> tuple[int, int, int, int]:
        return s * p[i] + t * p[j], s * v[i] + t * v[j], s * w[i] + t * w[j], D

    def x1_forms(chain: list[_Line]) -> list[tuple]:
        return [(v[i], v[j] * B - v[i] * b)
                for (_, B, i), (_, b, j) in zip(chain, chain[1:] + chain[-1:])]

    table, tables, forms = [], {}, {}  # forms by chain: neighbouring trapezoids share many
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
                         [forms.get(tuple(chain)) or forms.setdefault(
                             tuple(chain), _forms(chain, p, w, tables)) for chain in chains],
                         [*map(x1_forms, chains)]))
        table.append((*end, *edges[0], *edges[-1], rows))
    return table


def _chamber_count(K: _Kernel, m: int, strict: bool, window: Optional[Sequence] = None) -> int:
    """Lattice points of mP (strict: of its interior) for n = 3 or 4, and
    m >= 0 whose box holds a cell and has been charged by :func:`_charge`;
    at m = 0 every form is 0, so a closed walk counts 1 if the window holds
    the origin and a strict one 0.  With ``window`` = [(l1, c1), (l2, c2)],
    only those whose padded prefix has l1 <= x1 <= c1 and l2 <= x2 <= c2, a
    bound of None holding everywhere, as the interior-shift witness holds
    prefix axes to one layer, and no tip count is read or kept.  Without
    one, a band whose tip count at m - d the request holds adds it, as the
    points of (m-d)P there shifted by d*r/L, and bounds axis 0 of P (padded
    x2 in 3D, x1 in 4D) to L*x0 > (m-d)*near + d*t at the bottom (< at the
    top); the bands' counts at m are read off the count so far at the start
    of each unit, the trapezoids in 3D and the strips in 4D.  Per x1 of the
    closed (strict: open) box of mP, on the rows of the strip that holds
    x1/m, the x1 terms are added into the forms; then per section x2
    between the strip's bottom and top edges (open for a strict count), on
    the forms of the trapezoid that holds (x1, x2)/m, two cut divisions and
    one :func:`_section`."""
    if K.chambers is None:
        K.chambers = _chamber_table(K)
    tips = () if window else K.tips
    window = window or [[None, None], [None, None]]
    before = []  # per tip, its band's count at m - d, or 0
    for sign, t, near, d in tips:
        count = K.tip_counts.get((sign, strict, m - d))
        if count is not None:
            window[4 - K.n][sign < 0] = ((m - d) * near + d * t) // K.scale + (sign > 0)
        before.append(count or 0)
    (l1, c1), (l2, c2) = window
    lo, hi = K.box(m, strict)[0] if K.n == 4 else (0, 0)
    if c1 is not None:
        hi = min(hi, c1)
    if l1 is not None:
        lo = max(lo, l1)
    marks = []  # the count so far at the start of each unit
    s = int(strict)
    total = 0
    for un, ud, lp, lq, ld, hp, hq, hd, rows in K.chambers:
        if K.n == 4:
            marks.append(total)
        last = min(hi, m * un // ud)  # the last x1 with x1/m in the strip
        for x1 in range(lo, last + 1):
            x2 = -((-m * lp - lq * x1 - s) // ld)
            top = (m * hp + hq * x1 - s) // hd
            if c2 is not None and top > c2:
                top = c2
            if l2 is not None and x2 < l2:
                x2 = l2
            for ep, eq, ed, tp, tv, tw, td, bp, bv, bw, bd, chains, x1s in rows:
                if K.n == 3:
                    marks.append(total)
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
                    M, chains = 1, [[(m * p - pv * x1, w, A, B, qa, a, table,
                                      m * c - cv * x1, cw, e)
                                     for (p, w, A, B, qa, a, table, c, cw, e), (pv, cv)
                                     in zip(*pair)]
                                    for pair in zip(chains, x1s)]
                for x in range(x2, stop + 1):
                    y1 = (tp - tw * x) // td
                    y0 = -((bp - bw * x) // bd)
                    if y0 <= y1:
                        total += _section(chains, M, s, x, y0, y1)
                x2 = stop + 1
        lo = max(lo, last + 1)  # a strip below the window leaves lo at its low end
    for (sign, *_), count in zip(tips, before):  # the bands are the first and last units
        K.tip_counts[sign, strict, m] = count + (marks[1] if sign > 0 else total - marks[-1])
    return total + sum(before)


def _section(chains: Sequence[list[tuple]], M: int, s: int, x: int, y0: int, y1: int) -> int:
    """Lattice points of a section at x with columns y0..y1, y1 >= y0 - 1:
    one per column, and one floor sum per chain piece, up to its crossing
    with the next.  The chains' p and c are taken M times.  A strict
    section (s = 1) lowers each right-hand side by one, as
    ceil(v/D) - 1 = floor((v - 1)/D).  A piece ends at ceil(e) - 1 for the
    crossing e with the next line, where an integer e gives both lines one
    floor and a strict piece stays below the open top cut, which e may
    reach at a vertex level.  Its sum of (a0*i + b) // B over i = 0..n,
    a0 = -A = qa*B + a, is qa*n(n+1)/2 + (b // B)*(n+1) plus the remainder
    R(n, b % B), the sum of (a*i + b % B) // B, kept in the table of the
    residue (a, B) if the piece has one, and made on a miss by
    :func:`_floor_sum` on the swapped problem of its first step."""
    total = y1 - y0 + 1  # no piece ends past y1
    for chain in chains:
        y = y0
        for p, w, A, B, qa, a, table, c, cw, e in chain:  # lowest from y to end
            end = (M * c - 1 - cw * x) // e if e else y1
            if end >= y:
                n, b = end - y, M * p - s - w * x - A * y
                r = b % B
                total += qa * (n * (n + 1) // 2) + b // B * (n + 1)
                if a * n + r >= B:  # the last term of the remainder is not 0
                    top = a * (n + 1) + r
                    if table is None:
                        total += _floor_sum(top // B, a, B, top % B)
                    else:
                        key = n * B + r
                        R = table.get(key)
                        if R is None:
                            R = table[key] = _floor_sum(top // B, a, B, top % B)
                        total += R
                y = end + 1
    return total


def _charge(K: _Kernel, budget: int, *requests: Sequence[int]) -> None:
    """Refuses a request before its first count, at the first m of the
    ``requests`` in order that is negative (``ValueError``) or whose box of
    mP holds more than ``budget`` cells (``BudgetExceeded``; none in 1D).
    Nested boxes are cleared by one box, that of the largest m, read off a
    range's ends.  Each m is read through ``operator.index``, so a float or
    ``Fraction`` raises ``TypeError``."""
    def cells(m: int) -> int:
        return math.prod(max(0, hi - lo + 1) for lo, hi in K.box(m))

    ends = [index(m) for d in requests
            for m in ((*d[:1], *d[-1:]) if isinstance(d, range) else d)]
    if not ends or min(ends) >= 0 and (K.n == 1 or K.nested and cells(max(ends)) <= budget):
        return
    for m in (m for dilations in requests for m in dilations):
        if m < 0:
            raise ValueError("dilation factor must be non-negative")
        if K.n > 1 and cells(m) > budget:
            raise BudgetExceeded(f"bounding box of {m}P has {cells(m)} cells, budget is {budget}")


def _count(K: _Kernel, m: int, strict: bool) -> int:
    """Lattice points of mP (strict: of its interior), m cleared by :func:`_charge`:
    a segment's closed (strict: open) box, or a polygon's one section over it on axis 0."""
    if not m:  # 0P is the origin, and its interior is empty
        return int(not strict)
    if not K.nested and any(lo > hi for lo, hi in K.box(m)):  # an empty box holds no point
        return 0
    if K.n > 2:
        return _chamber_count(K, m, strict)
    (lo, hi), s, L = K.ranges[0], int(strict), K.scale  # as K.box(m, strict)[0]
    lo, hi = -((-m * lo - s) // L), (m * hi - s) // L
    return _section(K.chains, m, s, 0, lo, hi) if K.n == 2 else max(0, hi - lo + 1)


def count_points(P: Polytope, m: int, strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattice points of mP (strict: of the interior of mP).

    m = 0 gives the single point at the origin for the closed count and the
    empty set for the strict one, once its one-cell box is charged.
    """
    K = _Kernel(P, _frame(P))
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
    K = _Kernel(P, _frame(P))
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
    if not origin_interior(P):
        raise OriginNotInterior("the interior shift needs the origin strictly inside")
    found = _first_shift(P, (m,), budget)
    return None if found is None else found[1]


def find_interior_shift_violation(P: Polytope) -> Optional[tuple[int, IntPoint]]:
    """Smallest dilation where interior(mP) and (m-1)P disagree on points,
    as (m, witness point), or None up to m = denominator(dual) + n, by when
    a polytope whose dual is not a lattice polytope shows a violation.
    Requires the origin strictly inside P, as :func:`dual_denominator` does.
    """
    return _first_shift(P, range(1, dual_denominator(P) + P.ambient_dim + 1))


def _first_shift(P: Polytope, dilations: Sequence[int],
                 budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, IntPoint]]:
    """(m, :func:`shift_witness`) at the first m >= 1 of ``dilations`` whose
    int(mP) and (m-1)P differ in count, or None, on one kernel of P in its
    own frame, each m charged with m - 1 before its counts."""
    K = _Kernel(P)
    for m in dilations:
        _charge(K, budget, (m, m - 1))
        if _count(K, m, True) != _count(K, m - 1, False):
            return m, shift_witness(P, m, K)
    return None


def shift_witness(P: Polytope, m: int, K: Optional[_Kernel] = None) -> Optional[IntPoint]:
    """The least lattice point of int(mP) outside (m-1)P, or None, on ``K``,
    a kernel of P in P's own axis order, built here unless given.

    (m-1)P lies in int(mP), so the strict count of mP less the closed count
    of (m-1)P over a prefix slab (of 0P at m = 1) counts such points there.
    Each prefix axis in turn, earlier ones held to their layers and later
    ones free, is scanned up from the open box's first layer to the first
    slab where the counts differ.  In the one section found (a segment's is
    one column, at y = 0), the first column whose lengths differ holds the
    witness: the inner column's least point, or the one just above the
    outer column when both start there.
    """
    K = _Kernel(P) if K is None else K
    if any(lo > hi for lo, hi in K.box(m)):
        return None
    pad = 4 - K.n  # the prefix axes, padded to (x1, x2): x1 = 0 in 3D, none below
    slab: list[Optional[int]] = [None, None]  # per padded prefix axis, its layer once found
    for axis, (lo, hi) in enumerate(K.box(m, True)[:-2], pad):  # witnesses are interior
        for slab[axis] in range(lo, hi + 1):
            window = [(t, t) for t in slab]  # the clipped counts leave K.tip_counts alone
            if _chamber_count(K, m, True, window) != _chamber_count(K, m - 1, False, window):
                break
        else:
            return None
    dots = [sum(w * x for w, x in zip(weights[pad:], slab[pad:])) for weights in K.weights]
    *_, (y0, y1), (z0, z1) = (0, 0), *K.box(m)  # a segment's y is 0

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
            return (*slab, y, lo if olo > ohi or lo < olo else ohi + 1)[-K.n:]
    return None
