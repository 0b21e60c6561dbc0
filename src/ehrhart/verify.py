"""Structural checks tying counting, duality, and delta-vectors together.

Each check returns a :class:`CheckResult` whose witness pinpoints the first
failure (lexicographically smallest index or dilation), and
:func:`full_report` aggregates them for one polytope in a
:class:`VerificationReport`; both records are immutable named tuples.  A
report is FATAL exactly when a check fails that a correct implementation
can never fail: reciprocity, the fitted table against the series
delta-vector, and non-negativity, for any polytope, and, for a polytope
with a lattice polar dual, the residue-table symmetry, the palindrome
check, the interior shift, or the characterization.  The flag exists so that downstream
tooling treats such an outcome as a build-stopping inconsistency instead
of an ordinary failed property, whose row still carries its witness.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence

from . import counting, quasipoly
from .counting import DEFAULT_BUDGET, count_vector
from .geometry import Polytope, denominator, dual_denominator, has_lattice_dual
from .quasipoly import ResidueDeltaTable, delta_vector


class CheckResult(NamedTuple):
    """A named check's outcome and the witness of its first failure, as an
    immutable named tuple; ``fatal`` is set by :func:`full_report`'s rule,
    and by :func:`check_non_negativity` and the characterization on their own."""

    name: str
    passed: bool
    witness: Optional[dict] = None
    fatal: bool = False


class VerificationReport(NamedTuple):
    """Every check on one polytope, as an immutable named tuple.  ``delta``
    is the series route's delta-vector; ``residue_table`` is the fitted
    table, and the source of the printed n and k."""

    polytope_id: str
    dual_is_lattice: bool
    delta: tuple[int, ...]
    residue_table: ResidueDeltaTable
    checks: tuple[CheckResult, ...]

    @property
    def fatal(self) -> bool:
        return any(c.fatal for c in self.checks)


def check_reciprocity(P: Polytope, m_max: int = 6,
                      qp: Optional[ResidueDeltaTable] = None) -> CheckResult:
    """Ehrhart-Macdonald reciprocity on dilations 1..m_max.

    Evaluating the fitted quasi-polynomial at -m must equal (-1)^n times
    the strict-interior count of mP.  Holds for every rational polytope,
    whether or not its dual is a lattice polytope; without ``qp``, it is
    fitted to counts of the same request.  Raises ``ValueError`` when m_max < 1.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    n, k = P.ambient_dim, denominator(P)
    counts = count_vector(P, range(k * (n + 1)) if qp is None else (), range(1, m_max + 1))
    if qp is None:
        qp = quasipoly.fit_counts(counts, n, k)  # reads only the closed counts
    return _reciprocity(qp, counts[-m_max:])


def _reciprocity(qp: ResidueDeltaTable, interior: list[int]) -> CheckResult:
    sign = (-1) ** qp.n
    for m, count in enumerate(interior, 1):
        negative = quasipoly.evaluate_qp(qp, -m)
        if negative != sign * count:
            return CheckResult("reciprocity", False, {
                "m": m, "evaluated": negative, "expected": sign * count})
    return CheckResult("reciprocity", True)


def check_palindrome(d: Sequence[int]) -> CheckResult:
    """Whether delta[j] == delta[len-1-j] for every index."""
    length = len(d)
    for j in range(length // 2):
        if d[j] != d[length - 1 - j]:
            return CheckResult("palindrome", False, {
                "index": j, "left": d[j], "right": d[length - 1 - j]})
    return CheckResult("palindrome", True)


def check_theorem(t: ResidueDeltaTable) -> CheckResult:
    """Residue-table symmetry delta[i][r] == delta[n-i][k-1-r]."""
    for i, (row, mirror) in enumerate(zip(t.delta, reversed(t.delta))):
        for r, (value, mirrored) in enumerate(zip(row, reversed(mirror))):
            if value != mirrored:
                return CheckResult("theorem", False, {
                    "i": i, "r": r, "value": value, "mirrored": mirrored})
    return CheckResult("theorem", True)


def check_equivalence(t: ResidueDeltaTable, d: Sequence[int]) -> CheckResult:
    """Interleaving identity between the residue table and the delta-vector:
    len(d) == k(n+1) and d[i*k + r] == t[i][r] entry-wise.

    :func:`full_report` compares the fitted table and the series delta-vector
    only here.  Once it holds, (i, r) -> (n-i, k-1-r) is the reflection of
    i*k + r to k(n+1)-1 - (i*k + r), so :func:`check_theorem` on ``t`` and
    :func:`check_palindrome` on ``d`` agree.
    """
    interleaved = delta_vector(t)
    if len(d) != len(interleaved):
        return CheckResult("equivalence", False, {
            "index": min(len(d), len(interleaved)), "reason": "length mismatch"})
    for j, (vector, table) in enumerate(zip(d, interleaved)):
        if vector != table:
            return CheckResult("equivalence", False, {
                "index": j, "vector": vector, "table": table})
    return CheckResult("equivalence", True)


def check_characterization(P: Polytope) -> CheckResult:
    """Lattice polar dual if and only if palindromic delta-vector.

    The forward direction is exact; a lattice dual with a non-palindromic
    delta-vector can never occur, so that outcome is flagged fatal.  Raises
    ``OriginNotInterior``, before any count, unless the origin is strictly inside P.
    """
    dual_lattice = has_lattice_dual(P)
    palindromic = check_palindrome(quasipoly.delta_vector_series(P)).passed
    return _characterization(dual_lattice, palindromic)


def _characterization(dual_lattice: bool, palindromic: bool) -> CheckResult:
    if dual_lattice == palindromic:
        return CheckResult("characterization", True)
    return CheckResult("characterization", False, {
        "dual_is_lattice": dual_lattice, "palindromic": palindromic},
        fatal=dual_lattice and not palindromic)


def check_non_negativity(d: Sequence[int]) -> CheckResult:
    """Every delta entry is non-negative; a violation is a fatal inconsistency."""
    for j, value in enumerate(d):
        if value < 0:
            return CheckResult("non_negativity", False,
                               {"index": j, "value": value}, fatal=True)
    return CheckResult("non_negativity", True)


def find_interior_shift_violation(P: Polytope) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest dilation where interior(mP) and (m-1)P disagree on points.

    For a polytope whose dual is not a lattice polytope a violation shows
    up by m <= denominator(dual) + n, the limit of the search; returns
    (m, witness point), or None if no violation exists up to it.  Requires
    the origin strictly inside P; it is the search of
    :func:`interior_shift_mismatch` on one kernel of P, over every m up to it.
    """
    return counting._first_shift(P, range(1, dual_denominator(P) + P.ambient_dim + 1))


def full_report(P: Polytope, polytope_id: str = "polytope", m_max: int = 6,
                budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run every check on one polytope and aggregate the outcomes.

    All counts are one request on one kernel: the closed L(0..k(n+1)-1) of
    both delta-vector routes, run on to L(m_max - 1) for the interior shift
    when the dual is a lattice polytope, then the strict counts of mP for
    m = 1..m_max; a mismatch of the interior shift takes its witness from
    a kernel of its own.  Reciprocity and the theorem row read the fitted
    table, the other rows and ``delta`` the series route, and the
    equivalence row compares the two.  Raises, before any count,
    ``ValueError`` when m_max < 1 and, from :func:`has_lattice_dual`,
    ``OriginNotInterior`` when the origin is not strictly inside ``P``, as
    the polar dual and the interior shift need it there.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    n, k, dual_lattice = P.ambient_dim, denominator(P), has_lattice_dual(P)
    # The interior shift compares the strict count of mP with the closed
    # count of (m-1)P, m = 1..m_max, which may run past k(n+1).
    counts = count_vector(P, range(max(k * (n + 1), m_max if dual_lattice else 0)),
                          range(1, m_max + 1), budget=budget)
    closed, interior = counts[:-m_max], counts[-m_max:]
    # Looked up on the module, so that a test can swap either route.
    qp, d = quasipoly.fit_counts(closed, n, k), quasipoly.series_counts(closed, n, k)
    palindrome = check_palindrome(d)

    checks = [_reciprocity(qp, interior)]
    if dual_lattice:
        m = next((m for m, (a, b) in enumerate(zip(interior, closed), 1) if a != b), None)
        checks.append(CheckResult("interior_shift", True) if m is None else
                      CheckResult("interior_shift", False, {
                          "m": m, "point": counting._shift_witness(counting._Kernel(P), m)}))
    checks += [check_theorem(qp), palindrome, check_equivalence(qp, d),
               check_non_negativity(d), _characterization(dual_lattice, palindrome.passed)]

    # Reciprocity and the routes' agreement hold for every rational polytope,
    # and a lattice dual guarantees both symmetries and the interior shift:
    # failing one contradicts exact arithmetic and must stop the build.
    must_hold = {"reciprocity", "equivalence"}
    if dual_lattice:
        must_hold |= {"theorem", "palindrome", "interior_shift"}
    checks = [c._replace(fatal=True)
              if c.name in must_hold and not c.passed else c for c in checks]
    return VerificationReport(polytope_id, dual_lattice, d, qp, tuple(checks))


def report_to_json_dict(report: VerificationReport) -> dict:
    """JSON-ready dict; every potentially large integer becomes a string."""
    return {
        "polytope": report.polytope_id,
        "n": report.residue_table.n,
        "k": str(report.residue_table.k),
        "dual_is_lattice": report.dual_is_lattice,
        **render_delta(report.delta, report.residue_table)[0],
        "fatal": report.fatal,
        "checks": [
            {
                "name": c.name,
                "passed": c.passed,
                "fatal": c.fatal,
                "witness": _witness_json(c.witness),
            }
            for c in report.checks
        ],
    }


def _witness_json(witness: Optional[dict]) -> Optional[dict]:
    if witness is None:
        return None
    out = {}
    for key, value in witness.items():
        if isinstance(value, bool):
            out[key] = value
        elif isinstance(value, int):
            out[key] = str(value)
        elif isinstance(value, tuple):
            out[key] = [str(v) for v in value]
        else:
            out[key] = value
    return out


def render_text(report: VerificationReport) -> str:
    """Human-readable rendering of a verification report."""
    lines = [
        f"polytope: {report.polytope_id}",
        f"n = {report.residue_table.n}, k = {report.residue_table.k}",
        f"dual is lattice: {'yes' if report.dual_is_lattice else 'no'}",
        *render_delta(report.delta, report.residue_table)[1],
        "checks:",
    ]
    for c in report.checks:
        status = "PASS" if c.passed else "FAIL"
        suffix = ""
        if c.witness is not None:
            suffix = "  witness: " + ", ".join(
                f"{key}={value}" for key, value in c.witness.items())
        if c.fatal:
            suffix += "  [FATAL]"
        lines.append(f"  {status} {c.name}{suffix}")
    lines.append("FATAL: inconsistency detected" if report.fatal else "result: ok")
    return "\n".join(lines)


def render_delta(d: Sequence[int], table: ResidueDeltaTable) -> tuple[dict, list[str]]:
    """A delta-vector and its residue table as JSON fields, every entry a
    string, and as text lines."""
    doc = {"delta": [str(v) for v in d],
           "residue_table": [[str(v) for v in row] for row in table.delta]}
    lines = ["delta-vector: (" + ", ".join(doc["delta"]) + ")",
             "residue table (row i, column r):"]
    lines += [f"  i={i}: " + " ".join(row) for i, row in enumerate(doc["residue_table"])]
    return doc, lines
