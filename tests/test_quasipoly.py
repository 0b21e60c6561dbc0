import math

import pytest
from hypothesis import given, settings, strategies as st

from ehrhart import (
    GeneratorConfig,
    ResidueDeltaTable,
    binomial,
    check_reciprocity,
    catalog,
    count_points,
    delta_vector,
    delta_vector_series,
    denominator,
    evaluate_qp,
    fit_qp,
    from_vertices,
    instances,
)
from ehrhart.quasipoly import series_counts
from conftest import segment


# ---------------------------------------------------------------- binomial

def test_binomial_values():
    assert binomial(4, 2) == 6
    assert binomial(1, 2) == 0
    assert binomial(-3, 2) == 6
    assert binomial(-1, 2) == 1
    assert binomial(-2, 3) == -4
    assert binomial(7, 0) == 1
    assert binomial(-5, 0) == 1
    with pytest.raises(ValueError):
        binomial(3, -1)


@given(st.integers(min_value=-200, max_value=200), st.integers(min_value=0, max_value=8))
def test_reflection_property(x, n):
    assert binomial(x, n) == (-1) ** n * binomial(n - 1 - x, n)


# --------------------------------------------------------------------- fit

def test_fit_square():
    qp = fit_qp(catalog()["square2"])
    assert (qp.n, qp.k) == (2, 1)
    assert qp.delta == ((1,), (6,), (1,))


def test_fit_diamond():
    P = catalog()["diamond2"]
    assert [count_points(P, m) for m in range(3)] == [1, 5, 13]
    assert fit_qp(P).delta == ((1,), (2,), (1,))


def test_fit_half_segment_by_hand():
    # L(m) = floor(m/2) + m + 1: counts 1, 2, 4, 5.
    P = catalog()["seg_mhalf_1"]
    assert [count_points(P, m) for m in range(4)] == [1, 2, 4, 5]
    qp = fit_qp(P)
    assert qp.delta == ((1, 2), (2, 1))  # columns (1, 2) and (2, 1)
    # The fit is its residue table, and a hand-built one stands in for it.
    by_hand = ResidueDeltaTable(1, 2, ((1, 2), (2, 1)))
    assert qp == by_hand
    assert [evaluate_qp(by_hand, m) for m in range(-4, 6)] == \
        [evaluate_qp(qp, m) for m in range(-4, 6)]
    assert delta_vector(by_hand) == delta_vector(qp)
    assert delta_vector(qp) == delta_vector_series(P) == (1, 2, 2, 1)
    assert check_reciprocity(P, qp=by_hand).passed


def test_fit_entries_are_integers(fixtures):
    for P in fixtures.values():
        for row in fit_qp(P).delta:
            assert all(isinstance(v, int) for v in row)


# -------------------------------------------------------------- evaluation

def test_evaluate_square():
    qp = fit_qp(catalog()["square2"])
    assert evaluate_qp(qp, 3) == 49
    assert evaluate_qp(qp, -1) == 1


def test_evaluate_at_zero(fixtures):
    for P in fixtures.values():
        assert evaluate_qp(fit_qp(P), 0) == 1


def test_evaluate_negative_residue_convention():
    # k = 2: m = -1 must land in residue 1 with l = -1.
    qp = fit_qp(catalog()["seg_mhalf_1"])
    interior = count_points(catalog()["seg_mhalf_1"], 1, strict=True)
    assert evaluate_qp(qp, -1) == -interior  # reciprocity in dimension 1


def test_extrapolation_beyond_fit_window(fixtures):
    for P in fixtures.values():
        qp = fit_qp(P)
        for m in range(3 * qp.k * (qp.n + 1) + 1):
            assert evaluate_qp(qp, m) == count_points(P, m), (m,)


# ------------------------------------------------------------ delta-vector

def test_delta_vector_interleaving_examples():
    assert delta_vector(fit_qp(catalog()["square2"])) == (1, 6, 1)
    assert delta_vector(fit_qp(catalog()["halfdiamond2"])) == \
        (1, 1, 2, 2, 1, 1)
    assert delta_vector(fit_qp(catalog()["seg_mhalf_1"])) == (1, 2, 2, 1)


def test_series_oracle_unit_segment():
    # counts 1, 4 -> delta = (1, 4 - 2*1) = (1, 2)
    assert delta_vector_series(segment(-1, 2)) == (1, 2)


def test_series_oracle_sixth_segment():
    P = catalog()["seg_mhalf_third"]
    counts = [count_points(P, m) for m in range(12)]
    assert counts == [1, 1, 2, 3, 4, 4, 6, 6, 7, 8, 9, 9]
    assert delta_vector_series(P) == (1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1)


def test_series_oracle_third_segment():
    P = catalog()["seg_m23_1"]
    counts = [count_points(P, m) for m in range(6)]
    assert counts == [1, 2, 4, 6, 7, 9]
    assert delta_vector_series(P) == (1, 2, 4, 4, 3, 1)


def series_oracle(counts, n, k):
    """The series product entry by entry:
    delta_j = sum_s (-1)^s * C(n+1, s) * L(j - s*k), over j - s*k >= 0."""
    return tuple(sum((-1) ** s * math.comb(n + 1, s) * counts[j - s * k]
                     for s in range(j // k + 1))
                 for j in range(k * (n + 1)))


@settings(max_examples=150, derandomize=True)
@given(st.integers(1, 4), st.integers(1, 12) | st.just(60), st.integers(0, 3), st.data())
def test_series_counts_is_the_series_product(n, k, extra, data):
    # Any integer vector, not only counts, and longer than k(n+1) too: the
    # lagged differences read L(0..k(n+1)-1) and nothing after.
    counts = data.draw(st.lists(st.integers(-10**30, 10**30),
                                min_size=k * (n + 1) + extra, max_size=k * (n + 1) + extra))
    assert series_counts(counts, n, k) == series_oracle(counts, n, k)


def test_fit_and_series_agree_on_fixtures(fixtures):
    for P in fixtures.values():
        assert delta_vector(fit_qp(P)) == delta_vector_series(P)


def test_fit_and_series_agree_on_generated():
    for i in range(8):
        P = instances(GeneratorConfig(seed=700 + i, dim=2), 1, "dual-of-lattice")[0]
        assert delta_vector(fit_qp(P)) == delta_vector_series(P)
        Q = instances(GeneratorConfig(seed=800 + i, dim=2), 1, "rational")[0]
        assert delta_vector(fit_qp(Q)) == delta_vector_series(Q)


def test_delta_structure(fixtures):
    for P in fixtures.values():
        k = denominator(P)
        qp = fit_qp(P)
        d = delta_vector(qp)
        assert d[0] == 1
        assert all(v >= 0 for v in d)
        assert len(d) == k * (qp.n + 1)
        # Row zero of the table holds the first k counts.
        for r in range(k):
            assert qp.delta[0][r] == count_points(P, r)
        sums = [sum(column) for column in zip(*qp.delta)]
        assert len(set(sums)) == 1
        # Positive column sum: each residue polynomial has degree exactly n.
        assert sums[0] > 0


def test_dimension_four_tesseract():
    # L(m) = (2m+1)^4, so the numerator coefficients follow from the
    # series product with (1-t)^5: (1, 76, 230, 76, 1).
    corners = [(a, b, c, d) for a in (-1, 1) for b in (-1, 1)
               for c in (-1, 1) for d in (-1, 1)]
    P = from_vertices(corners)
    assert [count_points(P, m) for m in range(5)] == [(2 * m + 1) ** 4
                                                      for m in range(5)]
    qp = fit_qp(P)
    assert delta_vector(qp) == (1, 76, 230, 76, 1)
    assert delta_vector_series(P) == (1, 76, 230, 76, 1)
    assert evaluate_qp(qp, -1) == 1  # reciprocity: one interior point
