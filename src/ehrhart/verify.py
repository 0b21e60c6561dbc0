"""Structural checks tying counting, duality, and delta-vectors together.

Each check returns a :class:`CheckResult` whose witness pinpoints the first
failure (lexicographically smallest index or dilation), and
:func:`full_report` aggregates them for one polytope.  A report is FATAL
exactly when a check fails that a correct implementation can never fail:
non-negativity of the delta-vector, for any polytope, and, for a polytope
with a lattice polar dual, the residue-table symmetry, the palindrome
check, the interior shift, or the characterization.  The flag exists so
that downstream tooling treats such an outcome as a build-stopping
inconsistency instead of an ordinary failed property.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass
from typing import Optional

from .counting import DEFAULT_BUDGET, count_vector, interior_shift_mismatch
from .errors import OriginNotInterior
from .geometry import Polytope, dual_denominator, has_lattice_dual, origin_interior
from .quasipoly import (
    DeltaVector,
    EhrhartQP,
    ResidueDeltaTable,
    checked_delta,
    closed_counts,
    delta_vector_series,
    evaluate_qp,
    fit_qp,
)


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    witness: Optional[dict] = None
    fatal: bool = False


@dataclass(frozen=True)
class VerificationReport:
    polytope_id: str
    n: int
    k: int
    dual_is_lattice: bool
    delta: DeltaVector
    residue_table: ResidueDeltaTable
    checks: tuple[CheckResult, ...]

    @property
    def fatal(self) -> bool:
        return any(c.fatal for c in self.checks)

    def check(self, name: str) -> CheckResult:
        for c in self.checks:
            if c.name == name:
                return c
        raise KeyError(name)


def check_reciprocity(P: Polytope, m_max: int = 6, qp: Optional[EhrhartQP] = None,
                      budget: int = DEFAULT_BUDGET,
                      interior: Optional[list[int]] = None) -> CheckResult:
    """Ehrhart-Macdonald reciprocity on dilations 1..m_max.

    Evaluating the fitted quasi-polynomial at -m must equal (-1)^n times
    the strict-interior count of mP (``interior[m-1]``, counted here when
    not given).  Holds for every rational polytope, whether or not its dual
    is a lattice polytope.  Raises ``ValueError`` when m_max < 1.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if qp is None:
        qp = fit_qp(P, budget=budget)
    if interior is None:
        interior = count_vector(P, range(1, m_max + 1), strict=True, budget=budget)
    sign = (-1) ** P.ambient_dim
    for m, count in enumerate(interior, 1):
        negative = evaluate_qp(qp, -m)
        if negative != sign * count:
            return CheckResult("reciprocity", False, {
                "m": m, "evaluated": negative, "expected": sign * count})
    return CheckResult("reciprocity", True)


def check_palindrome(d: DeltaVector) -> CheckResult:
    """Whether delta[j] == delta[len-1-j] for every index."""
    length = len(d)
    for j in range(length // 2):
        if d[j] != d[length - 1 - j]:
            return CheckResult("palindrome", False, {
                "index": j, "left": d[j], "right": d[length - 1 - j]})
    return CheckResult("palindrome", True)


def check_theorem(t: ResidueDeltaTable) -> CheckResult:
    """Residue-table symmetry delta[i][r] == delta[n-i][k-1-r]."""
    for i in range(t.n + 1):
        for r in range(t.k):
            mirrored = t.entry(t.n - i, t.k - 1 - r)
            if t.entry(i, r) != mirrored:
                return CheckResult("theorem", False, {
                    "i": i, "r": r, "value": t.entry(i, r), "mirrored": mirrored})
    return CheckResult("theorem", True)


def check_equivalence(t: ResidueDeltaTable, d: DeltaVector) -> CheckResult:
    """Interleaving identity between the residue table and the delta-vector.

    Entry-wise d[i*k + r] == t[i][r], and the two symmetry formulations
    must agree because the index map sends (i, r) to (n-i, k-1-r) exactly
    when it reflects i*k + r to k(n+1)-1 - (i*k + r).
    """
    expected_len = t.k * (t.n + 1)
    if len(d) != expected_len:
        return CheckResult("equivalence", False, {
            "index": min(len(d), expected_len), "reason": "length mismatch"})
    for i in range(t.n + 1):
        for r in range(t.k):
            if d[i * t.k + r] != t.entry(i, r):
                return CheckResult("equivalence", False, {
                    "index": i * t.k + r,
                    "vector": d[i * t.k + r], "table": t.entry(i, r)})
    theorem_ok = check_theorem(t).passed
    palindrome_ok = check_palindrome(d).passed
    if theorem_ok != palindrome_ok:
        return CheckResult("equivalence", False, {
            "theorem_passed": theorem_ok, "palindrome_passed": palindrome_ok})
    return CheckResult("equivalence", True)


def check_characterization(P: Polytope, delta: Optional[DeltaVector] = None,
                           budget: int = DEFAULT_BUDGET) -> CheckResult:
    """Lattice polar dual if and only if palindromic delta-vector.

    The forward direction is exact; a lattice dual with a non-palindromic
    delta-vector can never occur, so that outcome is flagged fatal.
    """
    dual_lattice = has_lattice_dual(P)
    if delta is None:
        delta = delta_vector_series(P, budget=budget)
    palindromic = check_palindrome(delta).passed
    if dual_lattice == palindromic:
        return CheckResult("characterization", True)
    return CheckResult("characterization", False, {
        "dual_is_lattice": dual_lattice, "palindromic": palindromic},
        fatal=dual_lattice and not palindromic)


def check_non_negativity(d: DeltaVector) -> CheckResult:
    """Every delta entry is non-negative; a violation is a fatal inconsistency."""
    for j, value in enumerate(d):
        if value < 0:
            return CheckResult("non_negativity", False,
                               {"index": j, "value": value}, fatal=True)
    return CheckResult("non_negativity", True)


def find_interior_shift_violation(
        P: Polytope, m_limit: Optional[int] = None,
        budget: int = DEFAULT_BUDGET) -> Optional[tuple[int, tuple[int, ...]]]:
    """Smallest dilation where interior(mP) and (m-1)P disagree on points.

    For a polytope whose dual is not a lattice polytope a violation shows
    up by m <= denominator(dual) + n; returns (m, witness point), or None
    if no violation exists up to the limit.  Requires the origin strictly
    inside P, as :func:`interior_shift_mismatch` does.
    """
    if m_limit is None:
        m_limit = dual_denominator(P) + P.ambient_dim
    for m in range(1, m_limit + 1):
        witness = interior_shift_mismatch(P, m, budget=budget)
        if witness is not None:
            return m, witness
    return None


def full_report(P: Polytope, polytope_id: str = "polytope", m_max: int = 6,
                budget: int = DEFAULT_BUDGET) -> VerificationReport:
    """Run every check on one polytope and aggregate the outcomes.

    Each count is requested once: the strict ones in one vector, the closed
    ones in another (and their tail in a third when the interior shift reads
    past k(n+1)).  Raises ``InternalInconsistency`` instead of producing a
    report when the two delta-vector routes disagree (:func:`checked_delta`);
    before any count, ``ValueError`` when m_max < 1 and
    ``OriginNotInterior`` when the origin is not strictly inside ``P``, as
    the polar dual and the interior shift need it there.
    """
    if m_max < 1:
        raise ValueError(f"m_max must be at least 1, got {m_max}")
    if not origin_interior(P):
        raise OriginNotInterior("a report needs the origin strictly inside")
    closed, n, k = closed_counts(P, budget=budget)
    qp, d = checked_delta(closed, n, k)
    palindrome = check_palindrome(d)
    characterization = check_characterization(P, d, budget=budget)
    # The characterization passes exactly when the dual is a lattice
    # polytope iff d is palindromic, so its outcome gives the dual's
    # latticeness without a second read of the facets.
    dual_lattice = characterization.passed == palindrome.passed

    interior = count_vector(P, range(1, m_max + 1), strict=True, budget=budget)
    checks = [check_reciprocity(P, m_max=m_max, qp=qp, budget=budget, interior=interior)]
    if dual_lattice:
        # The interior shift compares the strict count of mP with the closed
        # count of (m-1)P, m = 1..m_max, which may run past k(n+1).
        closed += count_vector(P, range(len(closed), m_max), budget=budget)
        m = next((m for m, (a, b) in enumerate(zip(interior, closed), 1) if a != b), None)
        checks.append(CheckResult("interior_shift", True) if m is None else
                      CheckResult("interior_shift", False, {
                          "m": m, "point": interior_shift_mismatch(P, m, budget=budget)}))
    checks.append(check_theorem(qp.table))
    checks.append(palindrome)
    checks.append(check_equivalence(qp.table, d))
    checks.append(check_non_negativity(d))
    checks.append(characterization)

    if dual_lattice:
        # A lattice dual guarantees both symmetries; failing either here
        # contradicts exact arithmetic and must stop the build.
        checks = [
            dataclasses.replace(c, fatal=True)
            if c.name in ("theorem", "palindrome", "interior_shift") and not c.passed
            else c
            for c in checks
        ]
    return VerificationReport(polytope_id, n, k, dual_lattice, d, qp.table,
                              tuple(checks))


def report_to_json_dict(report: VerificationReport) -> dict:
    """JSON-ready dict; every potentially large integer becomes a string."""
    return {
        "polytope": report.polytope_id,
        "n": report.n,
        "k": str(report.k),
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
        f"n = {report.n}, k = {report.k}",
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


def render_delta(d: DeltaVector, table: ResidueDeltaTable) -> tuple[dict, list[str]]:
    """A delta-vector and its residue table as JSON fields, every entry a
    string, and as text lines."""
    doc = {"delta": [str(v) for v in d],
           "residue_table": [[str(v) for v in row] for row in table.delta]}
    lines = ["delta-vector: (" + ", ".join(doc["delta"]) + ")",
             "residue table (row i, column r):"]
    lines += [f"  i={i}: " + " ".join(row) for i, row in enumerate(doc["residue_table"])]
    return doc, lines
