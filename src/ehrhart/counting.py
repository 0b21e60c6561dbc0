"""Exact enumeration of lattice points in dilations of a rational polytope.

Counting never constructs the dilated polytope: the facet system of mP is
that of P with every bound scaled by m, and each facet <u, x> <= m * p/q is
cleared of denominators once, so every test is integer arithmetic.  Strict
counts use q*<u,x> < m*p  <=>  q*<u,x> <= m*p - 1, exact on integers.

A count walks the integer bounding box on the first n-2 axes only, and
counts each section, a convex polygon on the last two axes, in closed
form: a column runs between the envelopes of the lower and the upper facet
lines, and the lattice points under one envelope piece are one Euclid-style
floor sum (Beck-Robins, *Computing the Continuous Discretely*).  A closed
three-dimensional count is homogeneous, so the cuts and envelope chains of
its sections depend only on the chamber, between consecutive vertex first
coordinates of P, that holds x/m (Clauss-Loechner, "Parametric analysis of
polyhedral iteration spaces", 1998), and are looked up in a chamber table
instead of scanned.  All that does not depend on m is derived from the
integer rows of P into one kernel, which each request builds for itself and
drops when it returns: nothing is kept between calls.

A delta-vector or a report asks for its counts in one request,
:func:`count_vector`.  A vector of more counts than the budget is refused
before any count, as many cheap counts (the 2k of a segment whose k is near
10^12) add up to unbounded work; then each m is counted on the request's
kernel, once its box of mP, like that of a single :func:`count_points`,
is found to hold at most ``budget`` cells (none are charged in 1D).

The interior shift is decided by counts too (:func:`interior_shift_mismatch`):
only on a count mismatch are points looked at, to name a witness.
"""

from __future__ import annotations

import math
from functools import cmp_to_key
from itertools import product
from operator import mul, sub
from typing import Optional, Sequence

from .errors import BudgetExceeded, OriginNotInterior
from .geometry import Polytope

#: Maximum number of bounding-box cells a count may touch, and of counts a
#: vector request may hold.
DEFAULT_BUDGET = 10**8

IntPoint = tuple[int, ...]


# One scaled facet: (normal ints a, bound numerator p, bound denominator q),
# encoding q*<a, x> <= m*p for the dilation m.
_ScaledFacet = tuple[tuple[int, ...], int, int]


class _Kernel:
    """What counting derives from one polytope, for the counts of one request.

    ``facets`` holds the scaled facets; ``ranges`` the per-axis (min, max)
    of the vertex rows, over ``scale``.  On the last two axes, with the
    first n-2 fixed to a prefix x, facet i is the line
    A_i*y + B_i*z <= m*p_i - strict - <weights[i], x>, where (A_i, B_i) and
    ``weights[i]`` are the last two and the other coefficients of q_i*a_i.
    ``plan`` is the :func:`_section_plan` of those lines.  For n = 3,
    ``levels`` holds the distinct first coordinates of the vertex rows and
    ``chambers`` the :func:`_chamber_table` between them, as affine forms
    in (m, x), built on the first closed count that walks a section.
    """

    def __init__(self, P: Polytope) -> None:
        self.n, self.scale = P.ambient_dim, P.scale
        self.facets = [(a, b // g, P.scale // g)  # p/q = b/L in lowest terms
                       for a, b in P.facet_rows for g in [math.gcd(b, P.scale)]]
        self.ranges = [(min(column), max(column)) for column in zip(*P.rows)]
        scaled = [[q * c for c in a] for a, _, q in self.facets]
        self.weights = [row[:-2] for row in scaled]
        self.plan = _section_plan([row[-2:] for row in scaled]) if self.n > 1 else None
        self.levels = sorted({row[0] for row in P.rows}) if self.n == 3 else None
        self.chambers: Optional[list[tuple]] = None

    def box(self, m: int) -> list[tuple[int, int]]:
        """The integer bounding box of mP: ceil(m*lo) to floor(m*hi) per axis."""
        L = self.scale
        return [(-(-m * lo // L), m * hi // L) for lo, hi in self.ranges]


def _check_budget(K: _Kernel, m: int, budget: int) -> list[tuple[int, int]]:
    """The box of mP, once m and its cell count are checked."""
    if m < 0:
        raise ValueError("dilation factor must be non-negative")
    box = K.box(m)
    # A one-dimensional count solves its axis directly, whatever the box.
    cells = math.prod(max(0, hi - lo + 1) for lo, hi in box) if K.n > 1 else 0
    if cells > budget:
        raise BudgetExceeded(
            f"bounding box of {m}P has {cells} cells, budget is {budget}")
    return box


def _last_axis_interval(facets: Sequence[_ScaledFacet], m: int, strict: bool,
                        lo: int, hi: int) -> tuple[int, int]:
    """The integers of [lo, hi] in mP (strict: in its interior) for a
    one-dimensional P, as (lo, hi), or (1, 0) when there are none.

    Facet (a, p, q) reads q*a*z <= m*p - strict, with a = 1 or a = -1.
    """
    for (a,), p, q in facets:
        rhs = m * p - strict
        if a > 0:
            hi = min(hi, rhs // q)
        else:
            lo = max(lo, -(rhs // q))
    return (lo, hi) if lo <= hi else (1, 0)


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


def _envelope_chain(lines: Sequence[_Line], C: Sequence[int], y: int,
                    y1: int) -> list[_Line]:
    """The lines lowest at some integer of y..y1 in min_i (C[i] - A_i*y) / B_i,
    all B_i > 0, left to right.

    Scans the lower envelope.  Each piece ends where a faster-falling line
    passes below, so slopes only fall, and only the faster-falling lines
    stay candidates for the next piece.  Comparisons are cross-multiplied,
    so exact.
    """
    chain = []
    while y <= y1:
        # A line lowest at y.  It stays lowest until a faster-falling line
        # passes below it, which a line tied with it at y does at y + 1.
        A, B, i, steps = lines[0]
        for a, b, j, s in lines:
            if (C[j] - a * y) * B < (C[i] - A * y) * b:
                A, B, i, steps = a, b, j, s
        chain.append((A, B, i, steps))
        end = y1
        faster = []
        for a, b, j, s in lines:
            steeper = a * B - A * b
            if steeper > 0:
                faster.append((a, b, j, s))
                cut = (C[j] * B - C[i] * b) // steeper
                if cut < end:
                    end = cut
        y = end + 1
        lines = faster
    return chain


def _chain_sum(chain: Sequence[_Line], C: Sequence[int], y: int, y1: int) -> int:
    """Sum over y..y1 (y <= y1) of min_i floor((C[i] - A_i*y) / B_i) along a
    chain of the lower envelope, each line of which is lowest until the
    next, falling faster, passes below it: one division for where a line
    meets the next and one :func:`_floor_sum` per line.  A line lowest at
    no integer of y..y1 adds nothing."""
    total = 0
    A, B, i, steps = chain[0]
    for a, b, j, following in chain[1:]:
        end = (C[j] * B - C[i] * b) // (a * B - A * b)
        if end > y1:
            end = y1
        if end >= y:
            total += _floor_sum(end - y + 1, C[i] - A * y, steps)
            y = end + 1
        A, B, i, steps = a, b, j, following
    return total + _floor_sum(y1 - y + 1, C[i] - A * y, steps)


def _envelope_sum(lines: Sequence[_Line], C: Sequence[int], y0: int, y1: int) -> int:
    """Sum over y = y0..y1 of min_i floor((C[i] - A_i*y) / B_i), all B_i > 0."""
    return _chain_sum(_envelope_chain(lines, C, y0, y1), C, y0, y1)


def _section_plan(lines: Sequence[tuple[int, int]]) -> tuple:
    """What a section count of the lines A*y + B*z <= C[i] needs of their
    (A, B) alone.  Returns the uppers (A, B, i, steps) with B > 0, the lowers
    (A, -B, i, steps) with B < 0 (z >= (A*y - C[i]) / -B), steps the
    :func:`_euclid_steps` of the slope, and the cuts (D, i, s, j, t), each
    D*y <= s*C[i] + t*C[j], in three lists by the sign of D, negative D
    negated.  By Fourier-Motzkin the section is non-empty over the reals
    exactly where the B = 0 rows and every lower-below-upper pair hold.
    """
    uppers, lowers, cuts = [], [], []
    for i, (A, B) in enumerate(lines):
        if B > 0:
            uppers.append((A, B, i, _euclid_steps(-A, B)))
        elif B < 0:
            lowers.append((A, -B, i, _euclid_steps(-A, -B)))
        else:
            cuts.append((A, i, 1, i, 0))
    cuts += [(Au * Bl + Al * Bu, i, Bl, j, Bu)
             for Au, Bu, i, _ in uppers for Al, Bl, j, _ in lowers]
    return (uppers, lowers, [c for c in cuts if c[0] == 0], [c for c in cuts if c[0] > 0],
            [(-D, i, s, j, t) for D, i, s, j, t in cuts if D < 0])


def _section_count(plan: tuple, C: Sequence[int], y0: int, y1: int) -> int:
    """Lattice points (y, z) with y0 <= y <= y1 and A*y + B*z <= C[i] for
    every line of the plan: one two-dimensional section of a dilate."""
    uppers, lowers, level, above, below = plan
    for _, i, s, j, t in level:
        if s * C[i] + t * C[j] < 0:
            return 0
    for D, i, s, j, t in above:
        cut = (s * C[i] + t * C[j]) // D
        if cut < y1:
            y1 = cut
    for D, i, s, j, t in below:
        cut = -((s * C[i] + t * C[j]) // D)
        if cut > y0:
            y0 = cut
    if y0 > y1:
        return 0
    # Column y holds floor(upper) - ceil(lower) + 1 >= 0 points, and
    # -ceil(lower) is the same min-of-floors form as the upper envelope.
    return (_envelope_sum(uppers, C, y0, y1) + _envelope_sum(lowers, C, y0, y1)
            + (y1 - y0 + 1))


def _real_chain(lines: Sequence[_Line], c: Sequence[int], y0: tuple[int, int],
                y1: tuple[int, int]) -> list[_Line]:
    """The lines lowest on an interval of positive length in
    min_i (c[i] - A_i*y) / B_i over the real y0 < y1, left to right.  The
    ends are (numerator, denominator) pairs, denominators positive."""
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
    return sorted(chain, key=cmp_to_key(lambda k, l: k[0] * l[1] - l[0] * k[1]))


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
    """For each chamber [t, t'] between consecutive ``levels`` of a 3D
    kernel: t' as (numerator, denominator), the cuts that bind y from above
    and from below, and the chains of the upper and lower envelopes.  They
    are read off the section of P at the chamber's midpoint, where no two
    cuts or lines tie, and hold on all of [t, t'].  With C_i = m*p_i - w_i*x
    on line i of the section of mP at x, a cut D*y <= s*C_i + t*C_j is held
    as (s*p_i + t*p_j, s*w_i + t*w_j, D), and a chain line (A, B, i) as
    (p_i, w_i, A, steps) and where the next line (a, b, j) passes below it,
    y <= (C_j*B - C_i*b) / (a*B - A*b), as (p_j*B - p_i*b, w_j*B - w_i*b,
    a*B - A*b), or (0, 0, 0) for the last line.
    """
    uppers, lowers, _, above, below = K.plan
    p = [bound for _, bound, _ in K.facets]
    w = [weight for weight, in K.weights]

    def cut(D: int, i: int, s: int, j: int, t: int) -> tuple[int, int, int]:
        return s * p[i] + t * p[j], s * w[i] + t * w[j], D

    def forms(chain: list[_Line]) -> list[tuple]:
        ends = [(p[j] * B - p[i] * b, w[j] * B - w[i] * b, a * B - A * b)
                for (A, B, i, _), (a, b, j, _) in zip(chain, chain[1:])]
        return [(p[i], w[i], A, steps, *end)
                for (A, _, i, steps), end in zip(chain, ends + [(0, 0, 0)])]

    table = []
    for t0, t1 in zip(K.levels, K.levels[1:]):
        # The lines A*y + B*z <= c[i] of the section of mP at x, for x/m the
        # midpoint (t0 + t1) / 2L: the section of P there, scaled by m.
        x, m = t0 + t1, 2 * K.scale
        c = [m * pi - wi * x for pi, wi in zip(p, w)]
        top, v1, d1 = _least_cut(above, c)
        bottom, v0, d0 = _least_cut(below, c)
        y0, y1 = (-v0, d0), (v1, d1)
        table.append((t1, K.scale, cut(*top), cut(*bottom),
                      forms(_real_chain(uppers, c, y0, y1)),
                      forms(_real_chain(lowers, c, y0, y1))))
    return table


def _chamber_count(K: _Kernel, m: int, box: list[tuple[int, int]]) -> int:
    """Lattice points of mP for a 3D kernel, m >= 1 and a non-empty ``box``:
    per chamber its forms times m, per section x with x/m in it two cut
    divisions, and per chain piece one division and one floor sum."""
    if K.chambers is None:
        K.chambers = _chamber_table(K)
    lo, hi = box[0]
    total = 0
    for num, den, (tp, tw, td), (bp, bw, bd), upper, lower in K.chambers:
        last = min(hi, m * num // den)  # the last x with x/m in the chamber
        if lo > last:
            continue
        tp, bp = m * tp, m * bp
        chains = [[(m * p, w, A, steps, m * c, cw, e)
                   for p, w, A, steps, c, cw, e in chain] for chain in (upper, lower)]
        for x in range(lo, last + 1):
            y1 = (tp - tw * x) // td
            y0 = -((bp - bw * x) // bd)
            if y0 > y1:
                continue
            total += y1 - y0 + 1
            for chain in chains:
                y = y0
                for mp, w, A, steps, c, cw, e in chain:  # lowest from y to end
                    end = (c - cw * x) // e if e else y1
                    if end > y1:
                        end = y1
                    if end >= y:
                        total += _floor_sum(end - y + 1, mp - w * x - A * y, steps)
                        y = end + 1
        lo = last + 1
    return total


def _exact_count(K: _Kernel, m: int, strict: bool, box: list[tuple[int, int]]) -> int:
    """Lattice points of mP (strict: of its interior); ``box`` is ``K.box(m)``."""
    if any(lo > hi for lo, hi in box):
        return 0
    if K.n == 3 and m and not strict:
        return _chamber_count(K, m, box)
    return _scan_count(K, m, strict, box)


def _scan_count(K: _Kernel, m: int, strict: bool, box: list[tuple[int, int]]) -> int:
    """:func:`_exact_count` for a non-empty ``box``, each section by a scan."""
    if K.n == 1:
        lo, hi = _last_axis_interval(K.facets, m, strict, *box[0])
        return hi - lo + 1  # (1, 0) when empty
    rhs = [m * p - int(strict) for _, p, _ in K.facets]
    y0, y1 = box[-2]
    if K.n == 2:
        return _section_count(K.plan, rhs, y0, y1)
    # Fix the prefix but its last coordinate, which then steps C by the
    # last weight column from one section to the next.
    *outer, (lo, hi) = box[:-2]
    step = [w[-1] for w in K.weights]
    total = 0
    for prefix in product(*(range(a, b + 1) for a, b in outer)):
        C = [r - sum(map(mul, w, prefix)) - s * lo
             for r, w, s in zip(rhs, K.weights, step)]
        for _ in range(lo, hi + 1):
            total += _section_count(K.plan, C, y0, y1)
            C = list(map(sub, C, step))
    return total


def count_points(P: Polytope, m: int, strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> int:
    """Number of lattice points of mP (strict: of the interior of mP).

    m = 0 falls out of the facet arithmetic as the single point at the
    origin for the closed count and the empty set for the strict one.
    """
    K = _Kernel(P)
    return _exact_count(K, m, strict, _check_budget(K, m, budget))


def count_vector(P: Polytope, dilations: Sequence[int], strict: bool = False,
                 budget: int = DEFAULT_BUDGET) -> list[int]:
    """The counts of mP (strict: of its interior) for each m of ``dilations``
    in order, a repeated m counted again, all on one kernel.  Raises
    ``BudgetExceeded`` before any count if they are more than ``budget``,
    and at the first m whose box of mP holds more than ``budget`` cells."""
    if len(dilations) > budget:
        raise BudgetExceeded(f"{len(dilations)} counts requested, budget is {budget}")
    K = _Kernel(P)
    return [_exact_count(K, m, strict, _check_budget(K, m, budget)) for m in dilations]


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
    K = _Kernel(P)
    if not all(p > 0 for _, p, _ in K.facets):
        raise OriginNotInterior("the interior shift needs the origin strictly inside")
    if (_exact_count(K, m, True, _check_budget(K, m, budget))
            == _exact_count(K, m - 1, False, _check_budget(K, m - 1, budget))):
        return None
    return _shift_witness(K, m)


def _shift_witness(K: _Kernel, m: int) -> Optional[IntPoint]:
    """The least lattice point of int(mP) outside (m-1)P, or None.

    Walks the count's prefixes in lexicographic order and, within a
    prefix whose two section counts differ, its columns y = y0..y1.  Each
    column of (m-1)P lies in that of int(mP), so the first column whose
    counts differ holds the witness: the inner column's least point, or
    the one just above the outer column when both start there.
    """
    box = K.box(m)
    if any(lo > hi for lo, hi in box):
        return None
    if K.n == 1:
        lo, hi = _last_axis_interval(K.facets, m, True, *box[0])
        olo, ohi = _last_axis_interval(K.facets, m - 1, False, *box[0])
        z = lo if olo > ohi or lo < olo else ohi + 1
        return (z,) if z <= hi else None
    def bottom(C: list[int], y: int) -> int:  # the least z of column y
        return -_envelope_sum(K.plan[1], C, y, y)

    bounds = [p for _, p, _ in K.facets]
    y0, y1 = box[-2]
    for prefix in product(*(range(a, b + 1) for a, b in box[:-2])):
        dots = [sum(map(mul, w, prefix)) for w in K.weights]
        inner = [m * p - 1 - d for p, d in zip(bounds, dots)]
        outer = [(m - 1) * p - d for p, d in zip(bounds, dots)]
        if _section_count(K.plan, inner, y0, y1) == _section_count(K.plan, outer, y0, y1):
            continue
        for y in range(y0, y1 + 1):
            shared = _section_count(K.plan, outer, y, y)
            if _section_count(K.plan, inner, y, y) != shared:
                z = bottom(inner, y)
                if shared and z == bottom(outer, y):
                    z += shared
                return (*prefix, y, z)
    return None
