"""Exact linear algebra over the integers and the rationals.

Everything here works on rows of ``int`` or ``fractions.Fraction`` and is
meant for desk-scale problems (a handful of dimensions, tens of points).
No floating point is used anywhere.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Sequence, Union

Scalar = Union[int, Fraction]


def rank(rows: Sequence[Sequence[Scalar]]) -> int:
    """Rank of a matrix given as a sequence of rows.

    Gaussian elimination without division: a row is cleared by
    ``pivot * row - entry * pivot_row``, which keeps integer rows integral.
    """
    mat = [list(row) for row in rows]
    if not mat:
        return 0
    ncols = len(mat[0])
    r = 0
    for col in range(ncols):
        pivot = next((i for i in range(r, len(mat)) if mat[i][col] != 0), None)
        if pivot is None:
            continue
        mat[r], mat[pivot] = mat[pivot], mat[r]
        top = mat[r][col]
        for i in range(r + 1, len(mat)):
            entry = mat[i][col]
            if entry != 0:
                mat[i] = [top * a - entry * b for a, b in zip(mat[i], mat[r])]
        r += 1
        if r == len(mat):
            break
    return r


def det(rows: Sequence[Sequence[int]]) -> int:
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
            minor = det([row[:j] + row[j + 1:] for row in rest])
            total += -c * minor if j % 2 else c * minor
    return total
