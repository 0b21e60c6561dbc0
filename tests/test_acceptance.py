"""Acceptance suite: every criterion prints one [PASS]/[FAIL] line.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the lines as the
criteria execute.  All comparisons are exact (zero tolerance); the only
stated tolerances are the two runtime bounds, asserted as written.
"""

import time
from contextlib import contextmanager

from ehrhart import (
    binomial,
    catalog,
    check_characterization,
    check_palindrome,
    check_reciprocity,
    check_theorem,
    count_points,
    delta_vector,
    delta_vector_series,
    dual,
    evaluate_qp,
    find_interior_shift_violation,
    fit_qp,
    is_lattice,
    negative_binomial_reflect,
)
from ehrhart.counting import interior_shift_mismatch

from conftest import build_theorem_pool

EXPECTED_DELTAS = {
    "square2": (1, 6, 1),
    "diamond2": (1, 2, 1),
    "halfdiamond2": (1, 1, 2, 2, 1, 1),
    "seg_mhalf_1": (1, 2, 2, 1),
    "seg_mhalf_third": (1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1),
    "seg_m1_2": (1, 2),
    "seg_m23_1": (1, 2, 4, 4, 3, 1),
}

LATTICE_DUAL_FIXTURES = ("square2", "diamond2", "halfdiamond2", "seg_mhalf_1",
                         "seg_mhalf_third", "cube3", "octa3")


@contextmanager
def criterion(num, description):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {num}: {description}")
        raise
    print(f"[PASS] criterion {num}: {description}")


def test_criterion_1_fixture_delta_vectors():
    with criterion(1, "fixture delta-vectors, exact, under 1 s each"):
        for name, expected in EXPECTED_DELTAS.items():
            P = catalog()[name]
            start = time.perf_counter()
            qp = fit_qp(P)
            fitted = delta_vector(qp)
            series = delta_vector_series(P)
            elapsed = time.perf_counter() - start
            assert fitted.entries == expected, name
            assert series.entries == expected, name
            assert elapsed < 1.0, (name, elapsed)
        table = fit_qp(catalog()["seg_mhalf_1"]).table
        assert table.column(0) == (1, 2) and table.column(1) == (2, 1)


def test_criterion_2_theorem_suite():
    with criterion(2, "theorem suite: 100 lattice-dual instances, dims 1-3"):
        start = time.perf_counter()
        pool = build_theorem_pool()
        assert len(pool) == 100
        for P in pool:
            qp = fit_qp(P)
            assert check_theorem(qp.table).passed, P
            assert check_palindrome(delta_vector(qp)).passed, P
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, elapsed
        print(f"       ({elapsed:.1f} s for generation plus checks)")


def test_criterion_3_reciprocity_suite(fixtures, control_pool):
    with criterion(3, "reciprocity on fixtures and 50 rational controls, m=1..6"):
        assert len(control_pool) == 50
        for P in list(fixtures.values()) + control_pool:
            qp = fit_qp(P)
            sign = (-1) ** P.ambient_dim
            for m in range(1, 7):
                interior = count_points(P, m, strict=True)
                assert evaluate_qp(qp, -m) == sign * interior, (P, m)
            assert check_reciprocity(P, m_max=6, qp=qp).passed


def test_criterion_4_interior_shift_suite(fixtures, theorem_pool):
    with criterion(4, "interior-shift set identity, m=1..6, plus witnesses"):
        for name in LATTICE_DUAL_FIXTURES:
            P = fixtures[name]
            assert is_lattice(dual(P))
            for m in range(1, 7):
                assert interior_shift_mismatch(P, m) is None, (name, m)
        for P in theorem_pool:
            for m in range(1, 7):
                assert interior_shift_mismatch(P, m) is None, (P, m)
        for name in ("seg_m1_2", "seg_m23_1"):
            violation = find_interior_shift_violation(fixtures[name])
            assert violation is not None, name
            m, witness = violation
            print(f"       {name}: sets differ at m={m}, witness point {witness}")


def test_criterion_5_oracle_equivalence(fixtures, theorem_pool, control_pool):
    with criterion(5, "fit equals series oracle; interleaving index identity"):
        for P in list(fixtures.values()) + theorem_pool + control_pool:
            qp = fit_qp(P)
            fitted = delta_vector(qp)
            assert fitted == delta_vector_series(P), P
            for i in range(qp.n + 1):
                for r in range(qp.k):
                    assert fitted[i * qp.k + r] == qp.table.entry(i, r), (P, i, r)


def test_criterion_6_extrapolation_round_trip(fixtures):
    with criterion(6, "fitted counts extrapolate to m = 3k(n+1)"):
        for name, P in fixtures.items():
            qp = fit_qp(P)
            for m in range(3 * qp.k * (qp.n + 1) + 1):
                assert evaluate_qp(qp, m) == count_points(P, m), (name, m)


def test_criterion_7_structural_invariants(fixtures, theorem_pool, control_pool):
    with criterion(7, "delta structure: leading 1, counts row, column sums, >= 0"):
        for P in list(fixtures.values()) + theorem_pool + control_pool:
            qp = fit_qp(P)
            d = delta_vector(qp)
            assert d[0] == 1
            assert all(v >= 0 for v in d), P
            for r in range(qp.k):
                assert qp.table.entry(0, r) == count_points(P, r), (P, r)
            assert len(set(qp.table.column_sums())) == 1, P


def test_criterion_8_characterization_suite(fixtures, control_pool):
    with criterion(8, "lattice dual iff palindromic, on fixtures and 50 controls"):
        for P in list(fixtures.values()) + control_pool:
            result = check_characterization(P)
            assert result.passed, P
            assert not result.fatal, P


def test_criterion_9_binomial_reflection():
    with criterion(9, "binomial reflection, exhaustive x in [-20,20], n in [0,6]"):
        for x in range(-20, 21):
            for n in range(0, 7):
                sign, top = negative_binomial_reflect(x, n)
                assert binomial(x, n) == sign * binomial(top, n), (x, n)
