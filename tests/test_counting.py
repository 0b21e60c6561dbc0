import math
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, settings, strategies as st

from ehrhart import (
    BudgetExceeded,
    DimensionDeficient,
    GeneratorConfig,
    OriginNotInterior,
    catalog,
    count_points,
    dumps_polytope,
    evaluate_qp,
    fit_qp,
    from_vertices,
    full_report,
    instances,
    loads_polytope,
    origin_interior,
)
from ehrhart import counting
from ehrhart.counting import (
    _exact_count,
    _floor_sum,
    _kernel,
    _section_count,
    _section_plan,
    clear_count_cache,
    interior_shift_mismatch,
)
from conftest import dilate
from listing_oracle import lattice_points


def exact_count(P, m, strict):
    """The uncached count behind count_points."""
    return _exact_count(_kernel(P), m, strict)


def section_count(lines, y0, y1):
    """Lattice points (y, z) with y0 <= y <= y1 and A*y + B*z <= C for
    every line (A, B, C)."""
    return _section_count(_section_plan([(A, B) for A, B, _ in lines]),
                          [C for _, _, C in lines], y0, y1)


def segment(a, b):
    return from_vertices([(a,), (b,)])


def box_polytope(*intervals):
    corners = [[]]
    for a, b in intervals:
        corners = [c + [x] for c in corners for x in (a, b)]
    return from_vertices(corners)


def interval_count(a, b, m, strict=False):
    """Oracle: integers z with m*a <= z <= m*b (or strictly between)."""
    if strict:
        return max(0, math.ceil(m * b) - math.floor(m * a) - 1)
    return math.floor(m * b) - math.ceil(m * a) + 1


def test_square_counts_match_closed_form():
    sq = catalog()["square2"]
    for m in range(5):
        assert count_points(sq, m) == (2 * m + 1) ** 2
    assert count_points(sq, 2) == 25
    assert count_points(sq, 1, strict=True) == 1


def test_count_at_zero_dilation(fixtures):
    for P in fixtures.values():
        assert count_points(P, 0) == 1
        assert count_points(P, 0, strict=True) == 0
        assert lattice_points(P, 0) == [(0,) * P.ambient_dim]


@pytest.mark.parametrize("intervals", [
    [(F(-1), F(2))],
    [(F(-1, 2), F(2, 3))],
    [(F(1), F(2))],                                   # origin outside
    [(F(1, 2), F(5, 2)), (F(-1), F(1))],              # origin on a facet line
    [(F(-1), F(1)), (F(-1, 2), F(1, 2))],
    [(F(-2, 3), F(1)), (F(-1), F(1, 3))],
    [(F(-1), F(1)), (F(-1), F(1)), (F(-1, 2), F(1))],
])
def test_box_counts_match_per_axis_product(intervals):
    P = box_polytope(*intervals)
    for m in range(7):
        for strict in (False, True):
            expected = math.prod(
                interval_count(a, b, m, strict) for a, b in intervals)
            assert count_points(P, m, strict=strict) == expected


def brute_force_count(P, m, strict):
    """Independent oracle: dilate, then test every box point with Fractions."""
    from itertools import product

    from ehrhart import contains
    from ehrhart.geometry import vertex_ranges

    Q = dilate(P, m)
    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in vertex_ranges(Q)]
    return sum(1 for pt in product(*box) if contains(Q, pt, strict=strict))


def test_walk_matches_brute_force_on_generated():
    from ehrhart import GeneratorConfig, gen_dual_of_lattice, gen_rational_control

    polytopes = [catalog()["octa3"], catalog()["seg_m23_1"]]
    for i in range(6):
        polytopes.append(gen_rational_control(
            GeneratorConfig(seed=9000 + i, dim=1 + i % 2)))
    polytopes.append(gen_dual_of_lattice(
        GeneratorConfig(seed=9100, dim=3, coordinate_bound=1)))
    for P in polytopes:
        for m in range(1, 4):
            for strict in (False, True):
                assert count_points(P, m, strict=strict) == \
                    brute_force_count(P, m, strict), (P, m, strict)


def test_lattice_points_of_square():
    sq = catalog()["square2"]
    pts = lattice_points(sq, 1)
    assert pts == [(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)]
    assert lattice_points(sq, 1, strict=True) == [(0, 0)]


def test_monotonicity(fixtures):
    for P in fixtures.values():
        closed = [count_points(P, m) for m in range(7)]
        assert closed == sorted(closed)
        for m in range(7):
            assert count_points(P, m, strict=True) <= closed[m]


@pytest.fixture
def walks(monkeypatch):
    """The (m, strict) of every uncached count, from an empty memo on."""
    calls = []
    exact_count = counting._exact_count

    def counted_exact_count(K, m, strict):  # K is the polytope's count kernel
        calls.append((m, strict))
        return exact_count(K, m, strict)

    monkeypatch.setattr(counting, "_exact_count", counted_exact_count)
    clear_count_cache()
    return calls


def test_count_cache_holds_one_report_whatever_its_period(walks):
    # [-2/25, 1/24] has n = 1 and k = 600, and its dual is not lattice, so
    # every walk comes from a count.  A report requests the k(n+1) closed
    # counts of the fit and the series plus m_max = 6 strict ones, more
    # than any fixed per-count memo of 1024 entries would hold, and must
    # compute each of them exactly once.
    P = segment(F(-2, 25), F(1, 24))
    full_report(P, m_max=6)
    assert len(walks) == len(set(walks)) == 600 * 2 + 6
    full_report(P, m_max=6)
    assert len(walks) == 600 * 2 + 6
    clear_count_cache()
    full_report(P, m_max=1)
    assert len(walks) == 2 * (600 * 2) + 6 + 1


def test_budget_guard():
    sq = catalog()["square2"]
    with pytest.raises(BudgetExceeded):
        count_points(sq, 10, budget=100)
    assert count_points(sq, 10, budget=441) == 441


def test_budget_is_the_box_of_the_rational_vertex_ranges(fixtures, control_pool):
    # The budget admits exactly the dilations whose box, from ceil(m*min)
    # to floor(m*max) per axis, fits; also on a memo hit.
    from ehrhart.geometry import vertex_ranges

    for P in [*fixtures.values(), *control_pool[::5]]:
        for m in range(1, 5):
            cells = math.prod(max(0, math.floor(m * hi) - math.ceil(m * lo) + 1)
                              for lo, hi in vertex_ranges(P))
            count = count_points(P, m, budget=cells)
            assert count_points(P, m, budget=cells) == count
            with pytest.raises(BudgetExceeded):
                count_points(P, m, budget=cells - 1)


# ------------------------------------------------- floor sums and sections

def brute_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


def test_floor_sum_matches_brute_force_on_grid():
    for n in range(0, 9):
        for m in range(1, 8):
            for a in range(-9, 10):
                for b in range(-9, 10):
                    assert _floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b), \
                        (n, m, a, b)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 200), st.integers(1, 10**6),
       st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_floor_sum_matches_brute_force_large(n, m, a, b):
    assert _floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)


def test_count_matches_listed_points(theorem_pool, control_pool):
    # The floor-sum count against the per-prefix walk that lists points.
    polytopes = list(catalog().values()) + theorem_pool + control_pool
    for kind in ("lattice", "dual-of-lattice", "rational"):
        polytopes += instances(GeneratorConfig(seed=41, dim=4, coordinate_bound=1), 1, kind)
    for P in polytopes:
        for m in range(9):
            for strict in (False, True):
                assert exact_count(P, m, strict) == \
                    len(lattice_points(P, m, strict=strict)), (P, m, strict)


@settings(derandomize=True, deadline=None, max_examples=24)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]),
       st.sampled_from(["lattice", "dual-of-lattice", "rational"]))
def test_count_matches_listed_points_generated(seed, dim, kind):
    # The section count against the listing walk, which the count kernel
    # does not use, on seeded 3D and 4D polytopes of every kind.
    P, = instances(GeneratorConfig(seed=seed, dim=dim, coordinate_bound=1), 1, kind)
    for m in range(7):
        for strict in (False, True):
            assert count_points(P, m, strict=strict) == \
                len(lattice_points(P, m, strict=strict)), (P, m, strict)


def test_equal_polytopes_share_one_kernel(walks):
    # A JSON round trip builds an equal polytope anew: it hashes equal, so
    # its counts come from the same memo entry.
    P = catalog()["halfdiamond2"]
    Q = loads_polytope(dumps_polytope(P))
    assert Q is not P and Q == P and hash(Q) == hash(P)
    assert count_points(P, 5) == count_points(Q, 5)
    assert walks == [(5, False)]
    assert _kernel(Q) is _kernel(P)
    assert _kernel.cache_info().currsize == 1


def test_section_hand_cases():
    # square2 has two facets with a zero last-axis coefficient; the
    # parallelogram's upper edge z - y <= 1 and lower edge y - z <= 1 are
    # parallel.  Both hold (2m+1)^2 points, (2m-1)^2 of them interior.
    parallelogram = from_vertices([(-1, -2), (-1, 0), (1, 2), (1, 0)])
    for P in (catalog()["square2"], parallelogram):
        for m in range(12):
            assert exact_count(P, m, False) == (2 * m + 1) ** 2
            assert exact_count(P, m, True) == max(0, 2 * m - 1) ** 2


def test_empty_sections():
    # Lines are (A, B, C) for A*y + B*z <= C.
    assert section_count([(0, 1, 0), (0, -1, -1)], -5, 5) == 0     # z <= 0, z >= 1
    assert section_count([(0, 0, -1), (0, 1, 3), (0, -1, 3)], -5, 5) == 0  # 0 <= -1
    assert section_count([(1, 0, -1), (0, 1, 3), (0, -1, 3)], 0, 5) == 0   # y <= -1
    # The real section 1/3 <= z <= 2/3 is non-empty but holds no lattice point.
    assert section_count([(0, 3, 2), (0, -3, -1)], -5, 5) == 0
    # Upper and lower cross: only y <= 0 is feasible, z in [y, -y].
    assert section_count([(1, 1, 0), (1, -1, 0)], -3, 3) == 7 + 5 + 3 + 1
    # A 4D cross-polytope at m = 2 has prefixes with |x0| + |x1| > 2.
    cross4 = from_vertices([tuple(s if i == j else 0 for i in range(4))
                            for j in range(4) for s in (-1, 1)])
    assert exact_count(cross4, 2, False) == len(lattice_points(cross4, 2)) == 41
    # Small simplices off the origin: their first dilates have an empty
    # bounding box or sections without lattice points.
    third = F(1, 3)
    for P in (segment(third, 2 * third),
              from_vertices([(third, third), (2 * third, third), (third, 2 * third)]),
              from_vertices([(third, 0, 0), (2 * third, 0, 0), (third, 1, 0), (third, 0, 1)])):
        for m in range(5):
            for strict in (False, True):
                assert exact_count(P, m, strict) == \
                    len(lattice_points(P, m, strict=strict)), (P, m, strict)


def test_count_at_huge_dilation_matches_quasi_polynomial():
    P = from_vertices([(F(-1, 2), F(-2, 3)), (F(3, 4), F(-1, 3)), (F(1, 5), 1),
                       (F(-3, 4), F(1, 2))])
    m = 10**6
    assert count_points(P, m, budget=10**13) == evaluate_qp(fit_qp(P), m)


coordinates = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.lists(st.tuples(coordinates, coordinates), min_size=3, max_size=7),
       st.integers(1, 6), st.booleans())
def test_count_matches_brute_force_on_random_polygons(points, m, strict):
    try:
        P = from_vertices(points)
    except DimensionDeficient:  # collinear points
        assume(False)
    assert exact_count(P, m, strict) == brute_force_count(P, m, strict)


# ---------------------------------------------------------- interior shift

def test_interior_shift_square():
    sq = catalog()["square2"]
    assert interior_shift_mismatch(sq, 2) is None
    inner = set(lattice_points(sq, 2, strict=True))
    outer = set(lattice_points(sq, 1))
    grid = {(x, y) for x in (-1, 0, 1) for y in (-1, 0, 1)}
    assert inner == outer == grid


def test_interior_shift_halfdiamond():
    assert interior_shift_mismatch(catalog()["halfdiamond2"], 3) is None


def test_interior_shift_requires_interior_origin():
    for P in (segment(1, 2), segment(0, 1)):  # origin outside, on the boundary
        with pytest.raises(OriginNotInterior):
            interior_shift_mismatch(P, 1)


def test_interior_shift_witnesses():
    # [-1, 2]: interior of 1P picks up the point 1 that 0P lacks.
    assert interior_shift_mismatch(segment(-1, 2), 1) == (1,)
    # [-2/3, 1]: sets agree at m=1, split at m=2 on the point -1.
    P = segment(F(-2, 3), 1)
    assert interior_shift_mismatch(P, 1) is None
    assert interior_shift_mismatch(P, 2) == (-1,)


def test_interior_shift_on_lattice_dual_fixtures(fixtures):
    for name in ("square2", "diamond2", "halfdiamond2", "seg_mhalf_1",
                 "seg_mhalf_third", "cube3", "octa3"):
        for m in range(1, 7):
            assert interior_shift_mismatch(fixtures[name], m) is None, (name, m)


def least_listed_difference(P, m):
    """The least point in exactly one of int(mP) and (m-1)P, by listing."""
    inner = set(lattice_points(P, m, strict=True))
    outer = set(lattice_points(P, m - 1))
    return min(inner ^ outer, default=None)


def test_interior_shift_witness_is_least_listed_difference(fixtures, theorem_pool,
                                                           control_pool):
    polytopes = [P for P in [*fixtures.values(), *theorem_pool, *control_pool]
                 if origin_interior(P)]
    mismatches = 0
    for P in polytopes:
        for m in range(1, 7):
            witness = interior_shift_mismatch(P, m)
            assert witness == least_listed_difference(P, m), (P, m)
            mismatches += witness is not None
    assert mismatches > 100


@settings(derandomize=True, deadline=None, max_examples=24)
@given(st.integers(0, 2**32 - 1), st.sampled_from([3, 4]),
       st.sampled_from(["lattice", "dual-of-lattice", "rational"]))
def test_interior_shift_witness_is_least_listed_difference_generated(seed, dim, kind):
    P, = instances(GeneratorConfig(seed=seed, dim=dim, coordinate_bound=1), 1, kind)
    assume(origin_interior(P))
    for m in range(1, 7):
        assert interior_shift_mismatch(P, m) == least_listed_difference(P, m), (P, m)


def test_empty_box_makes_no_sections(monkeypatch):
    # The box of this slab at m = 1 is empty on its last axis: the count
    # and the witness walk return before the 6001 prefixes of its first.
    calls = []
    section_count = counting._section_count

    def counted_section_count(*args):
        calls.append(args)
        return section_count(*args)

    monkeypatch.setattr(counting, "_section_count", counted_section_count)
    clear_count_cache()
    P = box_polytope((F(-3000), F(3000)), (F(-1), F(1)), (F(1, 3), F(2, 3)))
    assert count_points(P, 1, budget=1) == 0
    assert counting._shift_witness(_kernel(P), 1) is None
    assert calls == []


# ---------------------------------------------------------------- heights

def test_integer_heights_for_lattice_dual(fixtures):
    # With a lattice dual every facet in bound-1 form has an integral
    # normal, so lattice points sit at integer heights.
    for name in ("square2", "halfdiamond2", "seg_mhalf_third", "cube3"):
        for h in fixtures[name].facets:
            assert all((c / h.bound).denominator == 1 for c in h.normal)
