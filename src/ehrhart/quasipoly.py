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

Two independent extraction routes are provided: forward substitution on the
fitted counts (:func:`fit_qp` + :func:`delta_vector`) and the truncated
series product of the counting series with (1 - t^k)^(n+1)
(:func:`delta_vector_series`).  They must agree entry for entry, which
:func:`checked_delta` enforces.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .counting import DEFAULT_BUDGET, count_points
from .errors import InternalInconsistency
from .geometry import Polytope, denominator


def binomial(x: int, n: int) -> int:
    """Generalized binomial coefficient C(x, n) = x(x-1)...(x-n+1)/n!.

    Exact for any integer x, including negative x; n must be >= 0.  The
    floor division is exact because n consecutive integers always contain
    a multiple of every j <= n.
    """
    if n < 0:
        raise ValueError("lower index must be non-negative")
    num = 1
    for i in range(n):
        num *= x - i
    return num // math.factorial(n)


def negative_binomial_reflect(x: int, n: int) -> tuple[int, int]:
    """Reflection C(x, n) = sign * C(top, n) with top = n - 1 - x.

    Returns (sign, top) where sign = (-1)^n.  This is the standard
    upper-index reflection for the generalized binomial coefficient and is
    what turns negative-argument evaluations of a binomial-basis polynomial
    back into non-negative ones.
    """
    if n < 0:
        raise ValueError("lower index must be non-negative")
    return (-1) ** n, n - 1 - x


@dataclass(frozen=True)
class ResidueDeltaTable:
    """Integer table delta[i][r], 0 <= i <= n, 0 <= r < k."""

    n: int
    k: int
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        if len(self.delta) != self.n + 1:
            raise ValueError(f"need {self.n + 1} rows, got {len(self.delta)}")
        for row in self.delta:
            if len(row) != self.k:
                raise ValueError(f"need {self.k} columns, got {len(row)}")

    def entry(self, i: int, r: int) -> int:
        return self.delta[i][r]

    def column(self, r: int) -> tuple[int, ...]:
        """The coefficients (delta[0][r], ..., delta[n][r]) of one residue."""
        return tuple(self.delta[i][r] for i in range(self.n + 1))

    def column_sums(self) -> tuple[int, ...]:
        return tuple(sum(self.column(r)) for r in range(self.k))


@dataclass(frozen=True)
class EhrhartQP:
    """An Ehrhart quasi-polynomial as k binomial-basis polynomials."""

    n: int
    k: int
    table: ResidueDeltaTable


@dataclass(frozen=True)
class DeltaVector:
    """The length-k(n+1) integer numerator vector of the counting series."""

    entries: tuple[int, ...]

    def __post_init__(self) -> None:
        if not self.entries:
            raise ValueError("delta-vector cannot be empty")

    def __len__(self) -> int:
        return len(self.entries)

    def __getitem__(self, j: int) -> int:
        return self.entries[j]

    def __iter__(self):
        return iter(self.entries)


def fit_qp(P: Polytope, budget: int = DEFAULT_BUDGET) -> EhrhartQP:
    """Fit the quasi-polynomial of P from exact counts.

    For each residue r the counts L_P(l*k + r), l = 0..n, determine the
    degree-n polynomial uniquely.  In the binomial basis the system is unit
    triangular (C(l + n - i, n) vanishes for i > l and equals 1 at i = l),
    so forward substitution needs no division at all.
    """
    n = P.ambient_dim
    k = denominator(P)
    columns: list[tuple[int, ...]] = []
    for r in range(k):
        counts = [count_points(P, l * k + r, budget=budget) for l in range(n + 1)]
        col: list[int] = []
        for l in range(n + 1):
            col.append(counts[l] - sum(
                col[i] * binomial(l + n - i, n) for i in range(l)))
        columns.append(tuple(col))
    rows = tuple(tuple(columns[r][i] for r in range(k)) for i in range(n + 1))
    return EhrhartQP(n, k, ResidueDeltaTable(n, k, rows))


def evaluate_qp(qp: EhrhartQP, m: int) -> int:
    """Evaluate the quasi-polynomial at any integer m, negative included.

    Writes m = l*k + r with the residue r = m mod k in [0, k) and l
    possibly negative, then evaluates the residue-r polynomial at l.
    """
    r = m % qp.k
    l = (m - r) // qp.k
    return sum(qp.table.entry(i, r) * binomial(l + qp.n - i, qp.n)
               for i in range(qp.n + 1))


def delta_vector(qp: EhrhartQP) -> DeltaVector:
    """Interleave the residue table into the full delta-vector.

    Entry i*k + r of the delta-vector is delta[i][r]: the k residue series
    in t^k, shifted by t^r, tile the full counting series.
    """
    n, k = qp.n, qp.k
    entries = [0] * (k * (n + 1))
    for i in range(n + 1):
        for r in range(k):
            entries[i * k + r] = qp.table.entry(i, r)
    return DeltaVector(tuple(entries))


def delta_vector_series(P: Polytope, budget: int = DEFAULT_BUDGET) -> DeltaVector:
    """Independent delta-vector extraction via the truncated series product.

    Multiplies the counting series sum_m L_P(m) t^m by (1 - t^k)^(n+1) and
    reads off coefficients 0 .. k(n+1)-1:

        delta_j = sum_s (-1)^s * C(n+1, s) * L_P(j - s*k),

    with negative-argument counts contributing nothing.  This route never
    touches the fitted polynomial and serves as its oracle.
    """
    n = P.ambient_dim
    k = denominator(P)
    length = k * (n + 1)
    counts = [count_points(P, m, budget=budget) for m in range(length)]
    entries = []
    for j in range(length):
        value = sum((-1) ** s * math.comb(n + 1, s) * counts[j - s * k]
                    for s in range(j // k + 1) if s <= n + 1)
        entries.append(value)
    return DeltaVector(tuple(entries))


def checked_delta(P: Polytope,
                  budget: int = DEFAULT_BUDGET) -> tuple[EhrhartQP, DeltaVector]:
    """The fitted quasi-polynomial and its delta-vector, which the series
    route must reproduce, or everything built on it is void: raises
    ``InternalInconsistency`` when the two routes disagree."""
    qp = fit_qp(P, budget=budget)
    fitted = delta_vector(qp)
    series = delta_vector_series(P, budget=budget)
    if fitted != series:
        raise InternalInconsistency(
            f"fit gives {fitted.entries}, series gives {series.entries}")
    return qp, fitted
