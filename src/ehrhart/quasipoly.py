"""Ehrhart quasi-polynomials in the per-residue binomial basis.

For a rational polytope P of dimension n whose denominator is k (smallest
positive integer with kP a lattice polytope), the counting function
L_P(m) = |mP n Z^n| splits by residue: writing m = l*k + r with 0 <= r < k,
each residue class is a degree-n polynomial in l.  We store it in the
binomial basis

    L_{P,r}(l) = sum_i delta[i][r] * C(l + n - i, n),    i = 0..n,

whose coefficient table is exactly the delta-vector of P read off k columns
at a time.  Fitting is division-free (the basis is triangular at l = 0..n),
so the integrality of every entry is structural, not numerical.
The :class:`ResidueDeltaTable`, a named tuple (n, k, delta), is the
quasi-polynomial itself.

Two extraction routes are provided: forward substitution on the counts
(:func:`fit_counts`) and the truncated series product of the counting
series with (1 - t^k)^(n+1) (:func:`series_counts`).  Two callers
compare them, both through ``verify.check_equivalence``: the ``equivalence``
row of ``verify.full_report`` and the CLI's ``delta`` command.
Both are linear maps of one count vector L(0..k(n+1)-1), so their agreement
checks the maps, not the counts: a counting bug that shifts some L(m) moves
both routes alike and passes.  Catching one needs a route that reads no count.
"""

from __future__ import annotations

import math
from operator import mul
from typing import NamedTuple, Sequence

from .counting import DEFAULT_BUDGET, count_vector
from .geometry import Polytope, denominator


def binomial(x: int, n: int) -> int:
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n! for
    any integer x and n >= 0, a negative x by the reflection
    C(x, n) = (-1)^n C(n-1-x, n)."""
    if n < 0:
        raise ValueError("lower index must be non-negative")
    return math.comb(x, n) if x >= 0 else (-1) ** n * math.comb(n - 1 - x, n)


class _ResidueDeltaTable(NamedTuple):
    n: int
    k: int
    delta: tuple[tuple[int, ...], ...]


class ResidueDeltaTable(_ResidueDeltaTable):
    """Integer table delta[i][r], 0 <= i <= n, 0 <= r < k: an immutable
    named tuple (n, k, delta), whose shape is checked on every build,
    ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, delta: tuple) -> ResidueDeltaTable:
        if n < 0 or k < 1:
            raise ValueError(f"need n >= 0 and k >= 1, got n={n}, k={k}")
        if len(delta) != n + 1:
            raise ValueError(f"need {n + 1} rows, got {len(delta)}")
        for row in delta:
            if len(row) != k:
                raise ValueError(f"need {k} columns, got {len(row)}")
        return super().__new__(cls, n, k, delta)

    @classmethod
    def _make(cls, fields) -> ResidueDeltaTable:
        # ``_replace`` builds through ``_make``, which would skip the checks.
        return cls(*fields)


def closed_counts(P: Polytope,
                  budget: int = DEFAULT_BUDGET) -> tuple[list[int], int, int]:
    """(counts, n, k): the closed counts L(0..k(n+1)-1) of P, which both
    delta-vector routes map, in one :func:`count_vector` request."""
    n, k = P.ambient_dim, denominator(P)
    return count_vector(P, range(k * (n + 1)), budget=budget), n, k


def fit_qp(P: Polytope) -> ResidueDeltaTable:
    """Fit the quasi-polynomial of P from exact counts."""
    return fit_counts(*closed_counts(P))


def fit_counts(counts: Sequence[int], n: int, k: int) -> ResidueDeltaTable:
    """The quasi-polynomial of dimension n and period k through the closed
    counts L(0..k(n+1)-1), and none after: the counts L(l*k + r), l = 0..n,
    fix the degree-n polynomial of residue r.  In the binomial basis the
    system is unit triangular (C(l + n - i, n) vanishes for i > l and
    equals 1 at i = l), so forward substitution needs no division.
    """
    weights = [[math.comb(l + n - i, n) for i in range(l)] for l in range(n + 1)]
    columns = []
    for r in range(k):
        col: list[int] = []
        for l, row in enumerate(weights):
            col.append(counts[l * k + r] - sum(map(mul, col, row)))
        columns.append(col)
    return ResidueDeltaTable(n, k, tuple(zip(*columns)))


def evaluate_qp(qp: ResidueDeltaTable, m: int) -> int:
    """Evaluate the quasi-polynomial at any integer m, negative included:
    the residue-r polynomial at l, for m = l*k + r and 0 <= r < k."""
    l, r = divmod(m, qp.k)
    return sum(row[r] * binomial(l + qp.n - i, qp.n) for i, row in enumerate(qp.delta))


def delta_vector(qp: ResidueDeltaTable) -> tuple[int, ...]:
    """Interleave the residue table into the full delta-vector.

    Entry i*k + r of the delta-vector is delta[i][r]: the k residue series
    in t^k, shifted by t^r, tile the full counting series.
    """
    return tuple(v for row in qp.delta for v in row)


def delta_vector_series(P: Polytope) -> tuple[int, ...]:
    """The delta-vector of P by the truncated series product."""
    return series_counts(*closed_counts(P))


def series_counts(counts: Sequence[int], n: int, k: int) -> tuple[int, ...]:
    """The delta-vector of the closed counts L(0..k(n+1)-1) by the truncated
    series product: multiplies the counting series sum_m L_P(m) t^m by
    (1 - t^k)^(n+1), one factor at a time, and reads off coefficients
    0 .. k(n+1)-1.  A factor (1 - t^k) takes each coefficient j >= k less
    the one k places before it, n+1 lagged differences in all.  Counts past
    L(k(n+1)-1) are not read.  It never touches the fitted polynomial.
    """
    delta = list(counts[:k * (n + 1)])
    for _ in range(n + 1):
        delta[k:] = [a - b for a, b in zip(delta[k:], delta)]
    return tuple(delta)
