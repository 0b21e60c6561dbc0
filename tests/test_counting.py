import math
import sys
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
    evaluate_qp,
    fit_qp,
    from_vertices,
    full_report,
    instances,
    origin_interior,
)
from ehrhart import counting
from ehrhart._catalog import VERTICES
from ehrhart.counting import (
    _Kernel,
    _chamber_count,
    _euclid_steps,
    _exact_count,
    _floor_sum,
    _scan_count,
    _section_count,
    _section_plan,
    count_vector,
    interior_shift_mismatch,
)
from conftest import dilate
from listing_oracle import lattice_points


def exact_count(P, m, strict):
    """The count behind count_points, with no budget check."""
    K = _Kernel(P)
    return _exact_count(K, m, strict, K.box(m))


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
    """The (m, strict) of every count walked."""
    calls = []
    exact_count = counting._exact_count

    def counted_exact_count(K, m, strict, box):  # K is the polytope's count kernel
        calls.append((m, strict))
        return exact_count(K, m, strict, box)

    monkeypatch.setattr(counting, "_exact_count", counted_exact_count)
    return calls


def test_report_walks_each_count_once_whatever_its_period(walks):
    # [-2/25, 1/24] has n = 1 and k = 600, and its dual is not lattice, so
    # every walk comes from a count.  A report requests the k(n+1) closed
    # counts of the fit and the series plus m_max = 6 strict ones, and must
    # compute each of them exactly once.
    P = segment(F(-2, 25), F(1, 24))
    full_report(P, m_max=6)
    assert len(walks) == len(set(walks)) == 600 * 2 + 6


def test_counts_keep_no_reference_to_the_polytope():
    # Each request builds its own kernel and drops it on return, so no count
    # or report keeps the polytope alive.
    P = from_vertices(VERTICES["octa3"])
    before = sys.getrefcount(P)
    full_report(P)
    count_points(P, 3)
    assert sys.getrefcount(P) == before


def rational_3d():
    P, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1, "rational")
    return P


@pytest.mark.parametrize("build", [lambda: catalog()["octa3"],
                                   lambda: catalog()["halfdiamond2"], rational_3d],
                         ids=["octa3", "halfdiamond2", "rational 3D, seed 8200"])
def test_report_counts_each_dilation_once(walks, monkeypatch, build):
    # A report asks for its closed counts and its strict ones in one vector
    # each.  Every (m, strict) it needs is computed exactly once, and the
    # budget is checked once per count computed, never on a repeated lookup.
    checks = []
    check_budget = counting._check_budget

    def counted_check_budget(K, m, budget):
        checks.append(m)
        return check_budget(K, m, budget)

    monkeypatch.setattr(counting, "_check_budget", counted_check_budget)
    report = full_report(build())
    n, k = report.n, report.k
    closed = range(max(k * (n + 1), 6 if report.dual_is_lattice else 0))
    expected = [(m, False) for m in closed] + [(m, True) for m in range(1, 7)]
    assert sorted(walks) == sorted(expected)
    assert sorted(checks) == sorted(m for m, _ in walks)


def test_an_over_long_count_vector_is_refused_before_any_count(walks):
    # k = 999983 * 999979 gives a delta-vector of about 2 * 10^12 counts,
    # each of them cheap: the request is refused before the first.
    P = segment(F(-1, 999983), F(1, 999979))
    with pytest.raises(BudgetExceeded, match="counts requested"):
        fit_qp(P)
    with pytest.raises(BudgetExceeded, match="5 counts requested, budget is 4"):
        count_vector(segment(-1, 2), range(5), budget=4)
    assert walks == []
    # A vector within the budget, whose 1D counts are charged no cells.
    assert count_vector(segment(-1, 2), range(4), budget=4) == [1, 4, 7, 10]
    assert count_vector(segment(-1, 2), [2, 1], strict=True, budget=2) == [5, 2]


def test_budget_guard():
    sq = catalog()["square2"]
    with pytest.raises(BudgetExceeded):
        count_points(sq, 10, budget=100)
    assert count_points(sq, 10, budget=441) == 441


def test_budget_is_the_box_of_the_rational_vertex_ranges(fixtures, control_pool):
    # For n >= 2 the budget admits exactly the dilations whose box, from
    # ceil(m*min) to floor(m*max) per axis, fits.
    from ehrhart.geometry import vertex_ranges

    for P in [*fixtures.values(), *control_pool[::5]]:
        if P.ambient_dim < 2:
            continue
        for m in range(1, 5):
            cells = math.prod(max(0, math.floor(m * hi) - math.ceil(m * lo) + 1)
                              for lo, hi in vertex_ranges(P))
            count_points(P, m, budget=cells)
            with pytest.raises(BudgetExceeded):
                count_points(P, m, budget=cells - 1)


def test_one_dimensional_counts_are_charged_no_cells():
    # A 1D count solves its single axis directly, whatever the box.
    m = 10**20
    P = segment(-1, 2)
    assert count_points(P, m, budget=0) == 3 * m + 1
    assert count_points(P, m, strict=True, budget=0) == 3 * m - 1
    assert interior_shift_mismatch(P, m, budget=0) == (2 * m - 1,)


# ------------------------------------------------- floor sums and sections

def brute_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


def test_floor_sum_matches_brute_force_on_grid():
    for n in range(0, 9):
        for m in range(1, 8):
            for a in range(-9, 10):
                steps = _euclid_steps(a, m)
                for b in range(-9, 10):
                    assert _floor_sum(n, b, steps) == brute_floor_sum(n, m, a, b), \
                        (n, m, a, b)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 200), st.integers(1, 10**6),
       st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_floor_sum_matches_brute_force_large(n, m, a, b):
    assert _floor_sum(n, b, _euclid_steps(a, m)) == brute_floor_sum(n, m, a, b)


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


# ------------------------------------------------------------ chamber walk

def assert_chambers_match_scan(polytopes, dilations=range(1, 41)):
    # The closed 3D count through the chamber table against the scan of
    # every section, on every dilation with a non-empty box, and on one
    # large prime dilation, where the numerators of the chamber forms grow
    # like m*p.
    for P in polytopes:
        K = _Kernel(P)
        for m in [*dilations, 997]:
            box = K.box(m)
            if all(lo <= hi for lo, hi in box):
                assert _chamber_count(K, m, box) == _scan_count(K, m, False, box), (P, m)


def test_chamber_walk_matches_scan_on_pools(fixtures, theorem_pool, control_pool):
    polytopes = [P for P in [*fixtures.values(), *theorem_pool, *control_pool]
                 if P.ambient_dim == 3]
    assert len(polytopes) == 2 + 33 + 16
    assert_chambers_match_scan(polytopes)


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("kind", ["lattice", "dual-of-lattice", "rational"])
def test_chamber_walk_matches_scan_on_generated(kind, bound):
    assert_chambers_match_scan(
        instances(GeneratorConfig(seed=8100 + bound, dim=3, coordinate_bound=bound), 2, kind))


third = F(1, 3)
CHAMBER_HAND_CASES = {
    # Vertices at first coordinate 1/3, where x/m lands for m = 3, 6, ...
    "thirds": [(-1, 0, 0), (third, 1, 1), (third, -1, 1), (third, 0, -1), (1, 0, 0)],
    # End slices: whole facets (with zero (y, z) part), single vertices,
    # and a triangular facet at x = -1 against an edge at x = 1.
    "cube3": catalog()["cube3"].vertices,
    "octa3": catalog()["octa3"].vertices,
    "wedge": [(-1, 0, 1), (-1, -1, -1), (-1, 1, -1), (1, -1, 0), (1, 1, 0)],
    # The origin outside P, with a square facet at x = 1/3 and an apex at x = 1.
    "pyramid": [(third, 1, 1), (third, 1, -1), (third, -1, 1), (third, -1, -1), (1, 0, 0)],
}


@pytest.mark.parametrize("name", sorted(CHAMBER_HAND_CASES))
def test_chamber_walk_hand_cases(name):
    P = from_vertices(CHAMBER_HAND_CASES[name])
    assert_chambers_match_scan([P], range(1, 61))
    for m in range(1, 10):
        assert exact_count(P, m, False) == len(lattice_points(P, m)), (name, m)
    if name == "cube3":  # x = m and x = -m are whole facets
        assert all(exact_count(P, m, False) == (2 * m + 1) ** 3 for m in range(1, 20))


def test_report_builds_the_chamber_table_once(monkeypatch):
    builds = []
    chamber_table = counting._chamber_table

    def counted_chamber_table(K):
        builds.append(K)
        return chamber_table(K)

    monkeypatch.setattr(counting, "_chamber_table", counted_chamber_table)
    P, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1, "rational")
    report = full_report(P)
    assert report.k > 1
    assert len(builds) == 1


# The floor sums made by the closed counts m = 1..40, as counted on the
# chamber walk that still rebuilt every right-hand side per section and
# summed each chain's last line even when it held no integer.  The walk on
# precomputed affine forms makes 6560 on each.
FLOOR_SUMS_AT_MOST = {"octa3": 6720, "rational 3D, seed 8200": 6679}


def test_closed_3d_counts_make_no_more_floor_sums(monkeypatch):
    # A deterministic guard on the walk's work.  A scan of every section
    # makes about as many floor sums (6560 and 6542 here), so the scan's
    # envelope and cut helpers are watched too: none may run.
    calls = {"_floor_sum": [], "_envelope_chain": [], "_section_count": []}
    for name, seen in calls.items():
        def counted(*args, real=getattr(counting, name), seen=seen):
            seen.append(args)
            return real(*args)

        monkeypatch.setattr(counting, name, counted)
    rational, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1,
                          "rational")
    for name, P in (("octa3", catalog()["octa3"]), ("rational 3D, seed 8200", rational)):
        for seen in calls.values():
            seen.clear()
        for m in range(1, 41):
            count_points(P, m)
        assert 0 < len(calls["_floor_sum"]) <= FLOOR_SUMS_AT_MOST[name], name
        assert calls["_envelope_chain"] == calls["_section_count"] == [], name


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
    # and the witness walk return before the 6001 prefixes of its first,
    # and the closed count builds no chamber table and makes no floor sum,
    # the kernel of the scan and of the chamber walk alike.
    calls = []
    for name in ("_section_count", "_chamber_table", "_floor_sum"):
        def counted(*args, real=getattr(counting, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counting, name, counted)
    P = box_polytope((F(-3000), F(3000)), (F(-1), F(1)), (F(1, 3), F(2, 3)))
    assert count_points(P, 1, budget=1) == 0
    assert counting._shift_witness(_Kernel(P), 1) is None
    assert calls == []


# ---------------------------------------------------------------- heights

def test_integer_heights_for_lattice_dual(fixtures):
    # With a lattice dual every facet in bound-1 form has an integral
    # normal, so lattice points sit at integer heights.
    for name in ("square2", "halfdiamond2", "seg_mhalf_third", "cube3"):
        for h in fixtures[name].facets:
            assert all((c / h.bound).denominator == 1 for c in h.normal)
