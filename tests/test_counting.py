import collections
import itertools
import math
import operator
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
    check_reciprocity,
    count_points,
    delta_vector,
    dual,
    evaluate_qp,
    find_interior_shift_violation,
    fit_qp,
    from_vertices,
    full_report,
    instances,
    origin_interior,
)
from ehrhart import counting
from ehrhart._catalog import VERTICES
from ehrhart._strips import strips
from ehrhart.counting import (
    _Kernel,
    _chamber_count,
    _count,
    _floor_sum,
    _forms,
    _section,
    count_vector,
    interior_shift_mismatch,
)
from ehrhart.geometry import Polytope, dual_denominator
from conftest import dilate, segment
from chain_oracle import real_chain
from listing_oracle import contains, lattice_points
import scan_oracle
from scan_oracle import _section_count, _section_plan, scan_count


def exact_count(P, m, strict):
    """The count behind count_points, with no budget to exceed."""
    return _count(_Kernel(P), m, strict)


def section_count(lines, y0, y1):
    """Lattice points (y, z) with y0 <= y <= y1 and A*y + B*z <= C for
    every line (A, B, C)."""
    return _section_count(_section_plan([(A, B) for A, B, _ in lines]),
                          [C for _, _, C in lines], y0, y1)


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

    from ehrhart.geometry import vertex_ranges

    Q = dilate(P, m)
    box = [range(math.ceil(lo), math.floor(hi) + 1) for lo, hi in vertex_ranges(Q)]
    return sum(1 for pt in product(*box) if contains(Q, pt, strict=strict))


def test_walk_matches_brute_force_on_generated():
    polytopes = [catalog()["octa3"], catalog()["seg_m23_1"]]
    for i in range(6):
        polytopes += instances(GeneratorConfig(seed=9000 + i, dim=1 + i % 2), 1, "rational")
    polytopes += instances(GeneratorConfig(seed=9100, dim=3, coordinate_bound=1), 1,
                           "dual-of-lattice")
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
    count = counting._count

    def counted_count(K, m, strict):  # K is the polytope's count kernel
        calls.append((m, strict))
        return count(K, m, strict)

    monkeypatch.setattr(counting, "_count", counted_count)
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


@pytest.mark.parametrize("build", [lambda: catalog()["octa3"], lambda: catalog()["cube3"],
                                   lambda: catalog()["halfdiamond2"], rational_3d],
                         ids=["octa3", "cube3", "halfdiamond2", "rational 3D, seed 8200"])
def test_report_counts_each_dilation_once(walks, monkeypatch, build):
    # A report asks for its closed counts and its strict ones, those of the
    # interior shift included, in one request on one kernel.  Every
    # (m, strict) it needs is computed exactly once.
    kernels = []
    kernel = counting._Kernel

    def counted_kernel(P, order=None):
        kernels.append(P)
        return kernel(P, order)

    monkeypatch.setattr(counting, "_Kernel", counted_kernel)
    report = full_report(build())
    assert len(kernels) == 1
    n, k = report.residue_table.n, report.residue_table.k
    closed = range(max(k * (n + 1), 6 if report.dual_is_lattice else 0))
    expected = [(m, False) for m in closed] + [(m, True) for m in range(1, 7)]
    assert sorted(walks) == sorted(expected)


def test_an_over_long_count_vector_is_refused_before_any_count(walks):
    # k = 999983 * 999979 gives a delta-vector of about 2 * 10^12 counts,
    # each of them cheap: the request is refused before the first.
    P = segment(F(-1, 999983), F(1, 999979))
    with pytest.raises(BudgetExceeded, match="counts requested"):
        fit_qp(P)
    with pytest.raises(BudgetExceeded, match="5 counts requested, budget is 4"):
        count_vector(segment(-1, 2), range(5), budget=4)
    # len() of a range past sys.maxsize overflows, so a request is sized
    # from the ends of its ranges, steps included.
    with pytest.raises(BudgetExceeded, match=f"^{2**64} counts requested"):
        count_vector(segment(-1, 2), range(2**64))
    with pytest.raises(BudgetExceeded, match=f"^{2**63 + 3} counts requested"):
        count_vector(segment(-1, 2), range(3), range(1, 2**63 + 1))
    with pytest.raises(BudgetExceeded, match="^20000000000000000000 counts requested"):
        fit_qp(segment(-1, F(1, 10**19)))
    with pytest.raises(BudgetExceeded, match=f"^{2 * 10**22} counts requested"):
        full_report(catalog()["square2"], m_max=10**22)
    with pytest.raises(BudgetExceeded, match="^4 counts requested, budget is 3$"):
        count_vector(segment(-1, 2), range(0, 10, 3), budget=3)
    assert walks == []
    # A vector within the budget, whose 1D counts are charged no cells.
    assert count_vector(segment(-1, 2), range(4), budget=4) == [1, 4, 7, 10]
    assert count_vector(segment(-1, 2), (), [2, 1], budget=2) == [5, 2]
    assert count_vector(segment(-1, 2), range(0, 10, 3), range(3, 0, -2),
                        budget=6) == [1, 10, 19, 28, 8, 2]


def test_closed_and_interior_counts_share_one_budget(walks):
    # Each list alone fits the budget; together they are one request too many.
    with pytest.raises(BudgetExceeded, match="5 counts requested, budget is 4"):
        count_vector(segment(-1, 2), range(3), [1, 2], budget=4)
    # [-1/2, 1/3] has k = 6 and a lattice dual: a report asks for 12 closed
    # and 6 strict counts, so a budget of 12 refuses it.
    with pytest.raises(BudgetExceeded, match="18 counts requested, budget is 12"):
        full_report(catalog()["seg_mhalf_third"], budget=12)
    assert walks == []
    assert count_vector(segment(-1, 2), range(3), [1, 2], budget=5) == [1, 4, 7, 2, 5]


def test_a_refused_request_walks_nothing(monkeypatch):
    # The boxes of this 4D draw nest, and its report's largest closed m, 29,
    # is over budget: the request is refused before its first walk, at the
    # first m over budget in order, 25P, as when it was charged count by count.
    walked = []

    def counted(*args, real=counting._chamber_count):
        walked.append(args)
        return real(*args)

    monkeypatch.setattr(counting, "_chamber_count", counted)
    P = instances(GeneratorConfig(8, 4, coordinate_bound=2), 1, "rational")[0]
    with pytest.raises(BudgetExceeded,
                       match="^bounding box of 25P has 104060401 cells, budget is 100000000$"):
        full_report(P)
    assert walked == []


def test_a_request_is_refused_at_its_first_bad_m_before_any_count(walks):
    # The boxes of mP nest for square2, and not for the slab
    # [1/3, 2/3] x [-1, 2], whose box of 1P is empty; in both, a negative m
    # and one over budget are refused in order, closed then strict, and
    # before any count.
    sq = catalog()["square2"]
    slab = box_polytope((F(1, 3), F(2, 3)), (F(-1), F(2)))
    negative = "^dilation factor must be non-negative$"
    for P, over in ((sq, "^bounding box of 20P has 1681 cells, budget is 100$"),
                    (slab, "^bounding box of 20P has 427 cells, budget is 100$")):
        with pytest.raises(ValueError, match=negative):
            count_vector(P, [2, -1], [20], budget=100)
        with pytest.raises(ValueError, match=negative):
            count_vector(P, [], [1, -1, 20], budget=100)
        with pytest.raises(BudgetExceeded, match=over):
            count_vector(P, [2, 20], [-1], budget=100)
        with pytest.raises(BudgetExceeded, match=over):
            count_vector(P, [], [1, 20, -1], budget=100)
        with pytest.raises(ValueError, match=negative):
            count_vector(P, range(5, -2, -1))
    with pytest.raises(BudgetExceeded, match="^bounding box of 5P has 121 cells, budget is 100$"):
        count_vector(sq, range(5, -2, -1), budget=100)
    # The slab's boxes do not nest: that of 3P holds 20 cells, that of 4P 13.
    with pytest.raises(BudgetExceeded, match="^bounding box of 3P has 20 cells, budget is 15$"):
        count_vector(slab, range(3, 5), budget=15)
    with pytest.raises(ValueError, match=negative):
        count_vector(segment(-1, 2), range(5, -2, -1), budget=10)
    with pytest.raises(ValueError, match=negative):
        count_points(sq, -1)
    assert walks == []


# Nested boxes (the catalog) and boxes that do not nest, some of them empty
# at small m: the slab and the off-origin triangle and box.
CHARGED = [*catalog().values(), box_polytope((F(1, 3), F(2, 3)), (F(-1), F(2))),
           from_vertices([(1, 1), (3, 2), (2, F(7, 2))]),
           box_polytope((F(1, 2), F(3, 2)), (F(-1), F(1)), (F(1, 3), F(2, 3)))]


@settings(max_examples=200, derandomize=True, deadline=None)
@given(st.sampled_from(CHARGED), st.lists(st.integers(-2, 9), max_size=5),
       st.lists(st.integers(-2, 9), max_size=5), st.integers(0, 300))
def test_a_request_is_charged_as_its_counts_one_by_one(P, closed, interior, budget):
    # The oracle charges each m alone, in order, from the rational vertex
    # ranges: the one-box charge of nested boxes must refuse the same m.
    from ehrhart.geometry import vertex_ranges

    def refusal(m):
        if m < 0:
            return ValueError, "dilation factor must be non-negative"
        cells = math.prod(max(0, math.floor(m * hi) - math.ceil(m * lo) + 1)
                          for lo, hi in vertex_ranges(P))
        if P.ambient_dim > 1 and cells > budget:
            return BudgetExceeded, f"bounding box of {m}P has {cells} cells, budget is {budget}"
        return None

    expected = next(filter(None, map(refusal, [*closed, *interior])), None)
    requested = len(closed) + len(interior)
    if requested > budget:
        expected = BudgetExceeded, f"{requested} counts requested, budget is {budget}"
    try:
        counts = count_vector(P, closed, interior, budget=budget)
    except (ValueError, BudgetExceeded) as error:
        assert (type(error), str(error)) == expected, P
    else:
        assert expected is None, P
        assert counts == [len(lattice_points(P, m)) for m in closed] + \
            [len(lattice_points(P, m, strict=True)) for m in interior], P


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


def test_a_request_is_charged_once_and_sums_each_section_once(monkeypatch):
    # Every request is charged by one _charge call, the interior-shift search
    # by one per m it reaches, and each section of a count is one _section
    # call: a polygon's one, and the 7 (strict: 5) of 3 * cube3 on x2.
    charges, sections = [], []
    charge, section = counting._charge, counting._section
    monkeypatch.setattr(counting, "_charge", lambda *args: charges.append(args) or charge(*args))
    monkeypatch.setattr(counting, "_section",
                        lambda *args: sections.append(args) or section(*args))

    def calls(request, *args):
        charges.clear()
        sections.clear()
        request(*args)
        return len(charges), len(sections)

    square2, cube3 = catalog()["square2"], catalog()["cube3"]
    for strict in (False, True):
        assert calls(count_points, square2, 5, strict) == (1, 1)
    assert calls(count_points, cube3, 3) == (1, 7)
    assert calls(count_points, cube3, 3, True) == (1, 5)
    for request, *args in ((count_vector, cube3, range(5), [3, 1]), (full_report, square2),
                           (full_report, catalog()["halfdiamond2"]),
                           (interior_shift_mismatch, cube3, 2)):
        assert calls(request, *args)[0] == 1, request
    # [-2/3, 1] splits at m = 2; square2 holds up to dual_denominator + n = 3.
    assert find_interior_shift_violation(segment(F(-2, 3), 1)) == (2, (-1,))
    assert calls(find_interior_shift_violation, segment(F(-2, 3), 1))[0] == 2
    assert calls(find_interior_shift_violation, square2)[0] == 3


# ------------------------------------------------- floor sums and sections

def test_oracles_take_only_the_kernel_from_counting():
    # The listing oracle takes nothing from ehrhart.counting and the scan
    # oracle only the kernel, so neither can share the section, chamber or
    # floor-sum code that it checks.
    import ast
    from pathlib import Path

    def taken(path):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "ehrhart.counting":
                names |= {alias.name for alias in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module == "ehrhart":
                names |= {"*" for alias in node.names if alias.name in ("counting", "*")}
            elif isinstance(node, ast.Import):
                names |= {"*" for alias in node.names if alias.name == "ehrhart.counting"}
        return names

    here = Path(__file__).parent
    assert taken(here / "listing_oracle.py") == set()
    assert taken(here / "scan_oracle.py") == {"_Kernel"}


def brute_floor_sum(n, m, a, b):
    return sum((a * i + b) // m for i in range(n))


def test_floor_sum_matches_brute_force_on_grid():
    for n in range(0, 9):
        for m in range(1, 8):
            for a in range(-9, 10):
                for b in range(-9, 10):
                    assert _floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b), \
                        (n, m, a, b)
                    assert scan_oracle._floor_sum(n, m, a, b) == \
                        brute_floor_sum(n, m, a, b), ("scan oracle", n, m, a, b)


@settings(derandomize=True, deadline=None)
@given(st.integers(0, 200), st.integers(1, 10**6),
       st.integers(-10**9, 10**9), st.integers(-10**9, 10**9))
def test_floor_sum_matches_brute_force_large(n, m, a, b):
    assert _floor_sum(n, m, a, b) == brute_floor_sum(n, m, a, b)


def test_a_piece_splits_its_floor_sum_at_the_first_euclid_step(monkeypatch):
    # A chain piece of A*y + B*z <= b over the columns y = 0..n-1 sums
    # (a0*i + b) // B, a0 = -A = qa*B + a, as qa*n(n-1)/2 + (b // B)*n plus
    # R(n - 1, b % B), the sum of (a*i + b % B) // B over i = 0..n-1, which
    # the remainder table of its residue (a, B) holds at (n - 1)*B + b % B
    # when not 0.
    for B in range(1, 8):
        for A in range(-15, 16):
            (qa, a), tables = divmod(-A, B), {}
            for b in range(-20, 21):
                piece, = _forms([(A, B, 0)], [b], [0], tables)
                for n in range(13):
                    assert _section([[piece]], 1, 0, 0, 0, n - 1) == \
                        n + _floor_sum(n, B, -A, b), (A, B, b, n)
                    R = tables[a, B].get((n - 1) * B + b % B, 0) if n else 0
                    assert qa * (n * (n - 1) // 2) + b // B * n + R == \
                        _floor_sum(n, B, -A, b), (A, B, b, n)
    # Two offsets with equal n and b mod B share one entry: the second
    # makes no floor sum and adds no entry.
    floor_sums = []
    monkeypatch.setattr(counting, "_floor_sum", lambda *args: floor_sums.append(args)
                        or _floor_sum(*args))
    tables = {}
    for b in (2, 2 + 5 * 7, 2 - 3 * 7):
        piece, = _forms([(-3, 7, 0)], [b], [0], tables)
        assert _section([[piece]], 1, 0, 0, 0, 11) == 12 + _floor_sum(12, 7, 3, b)
        assert len(floor_sums) == len(tables[3, 7]) == 1
    # So do slopes that differ by an integer, 3/7 and 10/7: R(n, r) depends
    # on -A mod B and B alone, so both share one table and its entry.
    piece, = _forms([(-10, 7, 0)], [2], [0], tables)
    assert _section([[piece]], 1, 0, 0, 0, 11) == 12 + _floor_sum(12, 7, 10, 2)
    assert len(floor_sums) == len(tables) == len(tables[3, 7]) == 1
    # A polygon holds no remainder table, counted or not.
    draw, = instances(GeneratorConfig(seed=8200, dim=2, coordinate_bound=2), 1, "rational")
    for P in (catalog()["square2"], catalog()["halfdiamond2"], draw):
        K = _Kernel(P)
        for m in range(1, 9):
            _count(K, m, False)
        assert not any(isinstance(f, dict) for chain in K.chains for piece in chain
                       for f in piece), P
    # Each request builds its own tables, empty, and fills them.
    built = []
    chamber_table = counting._chamber_table

    def remainder_tables(table):
        return [f for *_, rows in table for *_, chains, _ in rows
                for chain in chains for piece in chain for f in piece if isinstance(f, dict)]

    def recorded(K):
        table = chamber_table(K)
        built.append((table, [len(t) for t in remainder_tables(table)]))
        return table

    monkeypatch.setattr(counting, "_chamber_table", recorded)
    rational, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1, "rational")
    first = count_vector(rational, range(1, 13))
    assert count_vector(rational, range(1, 13)) == first
    (one, sizes1), (two, sizes2) = built
    assert sizes1 and not any(sizes1) and sizes2 == sizes1
    assert any(remainder_tables(one)) and any(remainder_tables(two))
    assert not {id(t) for t in remainder_tables(one)} & {id(t) for t in remainder_tables(two)}


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

def assert_chambers_match_scan(polytopes, dilations=range(1, 41), prime=997):
    # The counts, closed and strict, through the chamber table (a polygon's
    # through _count, which reads them off its facets) against the scan of
    # every section, on every dilation with a non-empty box, and on one
    # large prime dilation, where the numerators of the chain forms grow
    # like m*p.
    for P in polytopes:
        K = _Kernel(P)
        count = _count if P.ambient_dim == 2 else _chamber_count
        for m in [*dilations, prime]:
            box = K.box(m)
            if all(lo <= hi for lo, hi in box):
                for strict in (False, True):
                    assert count(K, m, strict) == \
                        scan_count(K, m, strict, box), (P, m, strict)


def test_chamber_walk_matches_scan_on_pools(fixtures, theorem_pool, control_pool):
    polytopes = [P for P in [*fixtures.values(), *theorem_pool, *control_pool]
                 if P.ambient_dim in (2, 3)]
    assert len(polytopes) == (3 + 33 + 17) + (2 + 33 + 16)
    assert_chambers_match_scan(polytopes)


@pytest.mark.parametrize("bound", [1, 2])
@pytest.mark.parametrize("kind", ["lattice", "dual-of-lattice", "rational"])
def test_chamber_walk_matches_scan_on_generated(kind, bound):
    for dim in (2, 3):
        assert_chambers_match_scan(instances(
            GeneratorConfig(seed=8100 + bound, dim=dim, coordinate_bound=bound), 2, kind))


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
    # At x = m, a vertex level, the two lines of the lower chain cross at
    # the vertex (m, 2m, -2m), on the top cut y <= 2m: a strict piece that
    # ended at the floor of the crossing, not at its ceiling - 1, would
    # count the column y = 2m above the open top cut.
    "crossing_on_top": [(-2, 2, 2), (-1, 0, 1), (1, 2, -2), (2, 1, -1)],
    # Polygons, counted off their facets: a thin triangle whose chain
    # crossings are integers only at some dilations, and a parallelogram
    # whose upper and lower edges are parallel.
    "sliver": [(F(-5, 2), F(-1, 3)), (F(7, 3), 0), (F(-1, 4), F(2, 5))],
    "parallelogram": [(-1, -2), (-1, 0), (1, 2), (1, 0)],
    # 4D, on strips in x1/m and trapezoids between projected edges: whole
    # facets at x1 = -m and x1 = m; four vertices over the point (0, 0);
    # a simplex whose projected edges (0, 0)-(2, 2) and (2, 0)-(0, 2) cross
    # at (1, 1), inside the projection and at no vertex level; an edge that
    # projects to the point (1, 0); and vertex levels at 1/3.
    "cube4": [(a, b, c, d) for a in (-1, 1) for b in (-1, 1) for c in (-1, 1)
              for d in (-1, 1)],
    "cross4": [tuple(sign * (i == j) for j in range(4)) for i in range(4)
               for sign in (1, -1)],
    "crossing4": [(0, 0, 0, 0), (2, 0, 1, 0), (2, 2, 0, 1), (0, 2, 0, 0), (3, 1, 1, 1)],
    "shared4": [(1, 0, 0, 0), (1, 0, 1, 1), (-1, 1, 0, 0), (0, -1, 0, 1), (0, 1, -1, -1),
                (-1, -1, 1, -1)],
    "thirds4": [(-1, 0, 0, 0), (third, 1, 1, 1), (third, -1, 1, 0), (third, 0, -1, 1),
                (third, 0, 0, -1), (1, 0, 0, 0)],
}


@pytest.mark.parametrize("kind", ["lattice", "dual-of-lattice", "rational"])
def test_chamber_walk_matches_scan_in_4d(kind):
    # A 4D table has one strip per pair of consecutive vertex levels and
    # edge crossings in x1/m, and one trapezoid per pair of neighbouring
    # projected edges in each.
    assert_chambers_match_scan(instances(
        GeneratorConfig(seed=8104, dim=4, coordinate_bound=1), 2, kind), range(1, 13), 31)


@pytest.mark.parametrize("name", sorted(CHAMBER_HAND_CASES))
def test_chamber_walk_hand_cases(name):
    P = from_vertices(CHAMBER_HAND_CASES[name])
    four = P.ambient_dim == 4
    if four:
        assert_chambers_match_scan([P], range(1, 13), 31)
    else:
        assert_chambers_match_scan([P], range(1, 61))
    for m in range(1, 5 if four else 10):
        for strict in (False, True):
            assert exact_count(P, m, strict) == \
                len(lattice_points(P, m, strict=strict)), (name, m, strict)
    if name in ("cube3", "cube4"):  # x = m and x = -m are whole facets
        assert all(exact_count(P, m, False) == (2 * m + 1) ** P.ambient_dim
                   for m in range(1, 20))
    if name == "crossing4":  # a strip ends where two projected edges cross
        ends = {F(t, L) for (t, L), _, _ in _Kernel(P).strips}
        assert 1 in ends and all(v[0] != 1 for v in P.vertices)


# Chains (A, B, i) in slope order with their right-hand sides c and the
# interval (y0, y1), against the chain that the all-pairs scan returns:
# parallel lines, one lower everywhere or both the same line; a line lowest
# only up to an interval end, where it touches the interval at one point;
# and three lines through one point, the middle one lowest there alone.
CHAIN_HAND_CASES = [
    ([(0, 1, 0), (0, 1, 1)], [0, 1], (-1, 1), (1, 1), [(0, 1, 0)]),
    ([(0, 1, 0), (0, 1, 1)], [3, 1], (-1, 1), (1, 1), [(0, 1, 1)]),
    ([(1, 1, 0), (2, 2, 1)], [0, 0], (-1, 1), (1, 1), [(1, 1, 0), (2, 2, 1)]),
    ([(1, 1, 0), (2, 2, 1), (3, 1, 2)], [0, 1, 0], (-1, 1), (1, 1), [(1, 1, 0), (3, 1, 2)]),
    ([(-1, 1, 0), (1, 1, 1)], [0, 0], (0, 1), (2, 1), [(1, 1, 1)]),
    ([(-1, 1, 0), (1, 1, 1)], [0, 0], (-2, 1), (0, 1), [(-1, 1, 0)]),
    ([(-1, 1, 0), (1, 1, 1)], [0, 0], (-1, 3), (1, 3), [(-1, 1, 0), (1, 1, 1)]),
    ([(-1, 1, 0), (0, 1, 1), (1, 1, 2)], [0, 0, 0], (-1, 1), (1, 1), [(-1, 1, 0), (1, 1, 2)]),
    ([(-1, 2, 0), (0, 4, 1), (1, 2, 2)], [0, -1, 0], (-1, 1), (1, 1),
     [(-1, 2, 0), (0, 4, 1), (1, 2, 2)]),
    ([(-1, 1, 0), (1, 1, 1)], [0, 0], (1, 1), (1, 1), []),
    ([], [], (-1, 1), (1, 1), []),
]


@pytest.mark.parametrize("lines, c, y0, y1, expected", CHAIN_HAND_CASES)
def test_sweep_chain_hand_cases(lines, c, y0, y1, expected):
    assert real_chain(lines, c, y0, y1) == expected
    assert counting._real_chain(lines, c, y0, y1) == expected


@given(st.lists(st.tuples(st.integers(-3, 3), st.integers(1, 3), st.integers(-6, 6)),
                max_size=7),
       st.tuples(st.integers(-8, 8), st.integers(1, 3)),
       st.tuples(st.integers(-8, 8), st.integers(1, 3)))
def test_sweep_chain_matches_the_all_pairs_scan(rows, y0, y1):
    # Small coefficients make parallel and identical lines, three lines
    # through one point and crossings on the interval's ends common.
    lines, _ = counting._halves([(A, B) for A, B, _ in rows])
    c = [C for _, _, C in rows]
    assert counting._real_chain(lines, c, y0, y1) == real_chain(lines, c, y0, y1)


def test_sweep_chain_matches_the_scan_on_every_trapezoid(monkeypatch, fixtures, theorem_pool,
                                                         control_pool):
    # Every chain of every chamber table of the catalog, both pools, one
    # bound-1 4D draw of each kind and the 4D rational draw of seed 8200, in
    # the given frame and in the walk's, is the all-pairs scan's chain.
    sweep, calls = counting._real_chain, []

    def checked(lines, c, y0, y1):
        chain = sweep(lines, c, y0, y1)
        assert chain == real_chain(lines, c, y0, y1), (lines, c, y0, y1)
        calls.append(len(lines) - len(chain))
        return chain

    monkeypatch.setattr(counting, "_real_chain", checked)
    polytopes = [P for P in [*fixtures.values(), *theorem_pool, *control_pool]
                 if P.ambient_dim == 3]
    polytopes += [instances(GeneratorConfig(seed=8104, dim=4, coordinate_bound=1), 1, kind)[0]
                  for kind in ("lattice", "dual-of-lattice", "rational")]
    polytopes += instances(GeneratorConfig(seed=8200, dim=4, coordinate_bound=1), 1, "rational")
    for P in polytopes:
        for order in {None, counting._frame(P)}:
            counting._chamber_table(_Kernel(P, order))
    assert len(polytopes) == 2 + 33 + 16 + 4 and len(calls) > 3000
    assert sum(map(bool, calls)) > 2500  # chains that drop lines


# At m = 1, x1 spans -4..2 and x2 spans -3..6, and the least interior-shift
# witness is (-2, 1, -1, 1): a witness search that held x2 to the layer it
# holds x1 to while it scans x1 would miss it at x1 = -2, where x2 = 1.
UNEVEN4 = [(F(-3, 2), 1, F(-1, 2), 2), (0, -3, F(-3, 2), 1), (-1, 6, F(-1, 2), F(-1, 2)),
           (-3, 0, 2, 2), (2, -3, F(3, 2), -2), (-4, 3, -2, 2)]


@pytest.mark.parametrize("build", [
    rational_3d,
    lambda: instances(GeneratorConfig(seed=8104, dim=3, coordinate_bound=1), 1,
                      "dual-of-lattice")[0],
    lambda: instances(GeneratorConfig(seed=8104, dim=4, coordinate_bound=1), 1,
                      "rational")[0],
    lambda: from_vertices(UNEVEN4),
], ids=["rational 3D, seed 8200", "dual-of-lattice 3D, seed 8104",
        "rational 4D, seed 8104", "uneven4"])
def test_clipped_chamber_count_matches_listed_points(build):
    # A window [(l1, c1), (l2, c2)] keeps the points whose padded prefix
    # (x1, x2) has l1 <= x1 <= c1 and l2 <= x2 <= c2, a bound of None
    # holding everywhere: that is (x[0], x[1]) in 4D and (0, x[0]) in 3D.
    # The bounds run below, inside and above the box on each axis: upper
    # bounds alone, lower bounds alone, and both ends, l == c as the
    # interior-shift witness sets them.  At m = 0, where every form of the
    # table is 0, a closed walk counts the origin if the window holds it.
    P = build()
    K = _Kernel(P)
    for m in (0, 1, 2, 4):
        box = K.box(m)
        if any(lo > hi for lo, hi in box):
            continue
        axes = box[:2] if P.ambient_dim == 4 else [(0, 0), box[0]]
        windows = []
        for lo, hi in axes:
            bounds = sorted({lo - 1, lo, (lo + hi) // 2, hi, hi + 1})
            windows.append([(None, c) for c in bounds] + [(l, None) for l in bounds]
                           + [(l, c) for l in bounds for c in bounds if l <= c])
        for strict in (False, True):
            prefixes = collections.Counter(x[:2] if P.ambient_dim == 4 else (0, x[0])
                                           for x in lattice_points(P, m, strict=strict))
            for window in itertools.product(*windows):
                (l1, c1), (l2, c2) = [(-math.inf if l is None else l, math.inf if c is None else c)
                                      for l, c in window]
                listed = sum(k for (x1, x2), k in prefixes.items()
                             if l1 <= x1 <= c1 and l2 <= x2 <= c2)
                assert _chamber_count(K, m, strict, window) == listed, (P, m, strict, window)


def test_report_builds_the_chamber_table_once(monkeypatch):
    builds = []
    chamber_table = counting._chamber_table

    def counted_chamber_table(K):
        builds.append(K)
        return chamber_table(K)

    monkeypatch.setattr(counting, "_chamber_table", counted_chamber_table)
    P, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1, "rational")
    report = full_report(P)
    assert report.residue_table.k > 1
    assert len(builds) == 1
    # A lattice dual's report runs its closed counts on to the interior
    # shift's L(m_max - 1) on the same table.
    for name in ("octa3", "cube3"):
        builds.clear()
        full_report(catalog()[name])
        assert len(builds) == 1, name
    # `ehrhart count` asks for one closed and one strict count of a 4D
    # polytope in one request.
    P, = instances(GeneratorConfig(seed=8200, dim=4, coordinate_bound=1), 1, "lattice")
    counts = [exact_count(P, 12, False), exact_count(P, 12, True)]
    builds.clear()
    assert count_vector(P, (12,), (12,)) == counts
    assert len(builds) == 1


# The floor sums made by the closed counts m = 1..40 (m = 1..12 in 4D).  A
# piece sums its first Euclid step itself, so integral slopes make none.
FLOOR_SUMS_AT_MOST = {"octa3": 0, "rational 3D, seed 8200": 2838, "diamond2": 0,
                      "rational 2D, seed 8200": 79, "lattice 4D, seed 8200": 122}


def test_closed_3d_counts_make_no_more_floor_sums(monkeypatch):
    # A deterministic guard on the walk's work, on counts that walk their
    # sections (1680, 1393, 40, 40 and 2196 here).  A scan of every section
    # makes many more floor sums, so the scan and its section and envelope
    # helpers are left to the tests: neither a count nor the interior-shift
    # witness can run them.
    for name in ("_scan_count", "_section_count", "_envelope_sum"):
        assert not hasattr(counting, name), name
    floor_sums, sections = [], []
    floor_sum, section = counting._floor_sum, counting._section
    monkeypatch.setattr(counting, "_floor_sum", lambda *args: floor_sums.append(args)
                        or floor_sum(*args))
    monkeypatch.setattr(counting, "_section", lambda *args: sections.append(args)
                        or section(*args))
    rational, = instances(GeneratorConfig(seed=8200, dim=3, coordinate_bound=1), 1,
                          "rational")
    polygon, = instances(GeneratorConfig(seed=8200, dim=2, coordinate_bound=2), 1,
                         "rational")
    lattice4, = instances(GeneratorConfig(seed=8200, dim=4, coordinate_bound=1), 1,
                          "lattice")
    for name, P, dilations in (
            ("octa3", catalog()["octa3"], range(1, 41)),
            ("rational 3D, seed 8200", rational, range(1, 41)),
            ("diamond2", catalog()["diamond2"], range(1, 41)),
            ("rational 2D, seed 8200", polygon, range(1, 41)),
            ("lattice 4D, seed 8200", lattice4, range(1, 13))):
        floor_sums.clear()
        sections.clear()
        for m in dilations:
            count_points(P, m)
        assert sections and len(floor_sums) <= FLOOR_SUMS_AT_MOST[name], name


# ------------------------------------------------------------- the walk's tips

def single_counts(P, closed, interior):
    """The counts of count_vector(P, closed, interior), one request each."""
    return [count_points(P, m, strict)
            for dilations, strict in ((closed, False), (interior, True)) for m in dilations]


# Polytopes with the tips (sign, t, near, d) of their kernel in the given
# frame, on axis 0.
TIP_CASES = {
    # A lone vertex at x0 = -1/3 under a triangle at x0 = 1, so d = 3, and a
    # lone lattice vertex on top.
    "third": ([(-third, 0, 0), (1, 1, 0), (1, -1, 1), (1, 0, -1), (2, 0, 0)],
              [(1, -1, 3, 3), (-1, 6, 3, 1)]),
    # A lone vertex at (-1/2, 1/2, 1/2), so d = 2, under a triangle at
    # x0 = 1 and an edge at x0 = 2.
    "half": ([(-F(1, 2), F(1, 2), F(1, 2)), (1, 1, 0), (1, -1, 1), (1, 0, -1), (2, 1, 1),
              (2, 0, 0)], [(1, -1, 2, 2)]),
    # Two vertices hold the lowest level: only the top is a tip.
    "two lowest": ([(-1, 0, 0), (-1, 1, 1), (1, 0, 1), (0, -1, 0), (0, 1, -1)],
                   [(-1, 1, 0, 1)]),
    # Two levels: the apex's band would reach the base, a facet, so a
    # pyramid has no tip.
    "pyramid": (CHAMBER_HAND_CASES["pyramid"], []),
    # 4D: a lone top vertex at x1 = 3 over a table whose strips end at the
    # crossing of two projected edges at x1 = 1, before the next vertex
    # level, 2.  A tip's own strip ends at its next level: only edges at the
    # tip reach below it, and they meet only there.
    "crossing4": (CHAMBER_HAND_CASES["crossing4"], [(-1, 3, 2, 1)]),
}


@pytest.mark.parametrize("name", sorted(TIP_CASES))
def test_reused_tips_equal_single_counts_on_hand_cases(name):
    # One kernel that counts m = 0, 1, ... in turn reuses each tip count at
    # m - d, and counts as a fresh kernel per m does, closed and strict.
    vertices, tips = TIP_CASES[name]
    P = from_vertices(vertices)
    K, ms = _Kernel(P), range(13 if P.ambient_dim == 4 else 25)
    assert K.tips == tips
    if name == "crossing4":
        assert (1, 1) in [end for end, _, _ in K.strips]
    for strict in (False, True):
        assert [_count(K, m, strict) for m in ms] == \
            [exact_count(P, m, strict) for m in ms], (name, strict)
    assert len(K.tip_counts) == 2 * len(tips) * (len(ms) - 1)
    assert count_vector(P, ms, ms[1:]) == single_counts(P, ms, ms[1:])


def test_reused_tips_equal_single_counts(theorem_pool, control_pool):
    # Every 3D member of the pools and 4D draws of each kind, in the frame
    # the counts choose, whose tips most of them have.
    polytopes = [P for P in [*theorem_pool, *control_pool] if P.ambient_dim == 3]
    for kind in ("lattice", "dual-of-lattice", "rational"):
        polytopes += instances(GeneratorConfig(seed=8104, dim=4, coordinate_bound=1), 2, kind)
    tipped = 0
    for P in polytopes:
        ms = range(9 if P.ambient_dim == 4 else 25)
        tipped += bool(_Kernel(P, counting._frame(P)).tips)
        assert count_vector(P, ms, ms[1:]) == single_counts(P, ms, ms[1:]), P
    assert len(polytopes) == 49 + 6 and tipped >= 25


def test_a_gap_or_a_decreasing_order_only_misses():
    # A count whose request has no tip count at m - d walks all of mP.
    octa3 = catalog()["octa3"]
    P4, = instances(GeneratorConfig(seed=8200, dim=4, coordinate_bound=1), 1, "lattice")
    for P in (octa3, rational_3d(), from_vertices(TIP_CASES["third"][0]), P4):
        assert _Kernel(P, counting._frame(P)).tips, P
        for closed, interior in (([1, 2, 4, 7, 8, 9], [3, 4, 6, 7]),
                                 (range(9, -1, -1), range(9, 0, -1)),
                                 ([5, 5, 2, 6, 6, 8], [2, 2, 5, 1])):
            assert count_vector(P, closed, interior) == single_counts(P, closed, interior), P


def test_a_request_walks_fewer_sections_than_its_single_counts(monkeypatch):
    # The sections of one request for the closed and strict counts at
    # m = 1..40, pinned, below those of the 80 counts made one by one.
    sections = []
    section = counting._section
    monkeypatch.setattr(counting, "_section", lambda *args: sections.append(args)
                        or section(*args))
    ms = range(1, 41)
    for name, P, walked in (("octa3", catalog()["octa3"], 160),
                            ("rational 3D, seed 8200", rational_3d(), 2277)):
        sections.clear()
        count_vector(P, ms, ms)
        assert len(sections) == walked, name
        sections.clear()
        single_counts(P, ms, ms)
        assert walked < len(sections), name


@pytest.mark.parametrize("dim", [3, 4])
def test_the_witness_neither_reads_nor_writes_the_tip_counts(dim):
    # The clipped counts of the interior-shift witness walk their whole
    # window: tip counts made wrong on purpose change no witness and stay.
    P, = instances(GeneratorConfig(seed=8200, dim=dim, coordinate_bound=1), 1, "rational")
    m, witness = counting._first_shift(P, range(1, 9))
    K = _Kernel(P)
    assert K.tips
    for strict in (False, True):
        for l in range(m + 1):
            _count(K, l, strict)
    assert K.tip_counts
    K.tip_counts = {key: count + 1000 for key, count in K.tip_counts.items()}
    poisoned = dict(K.tip_counts)
    assert counting._shift_witness(K, m) == witness
    assert K.tip_counts == poisoned


# ------------------------------------------------------------ the walk's frame

# 4D draws at bound 1 whose counts are slow in the given frame: one closed
# count at m = 23, 20, 120 and 60 takes 1.4-4.4 times as long there as in
# the frame the counts choose.
FRAME_DRAWS = {"rational 4D, seed 7": ("rational", 7), "rational 4D, seed 8": ("rational", 8),
               "dual-of-lattice 4D, seed 1": ("dual-of-lattice", 1),
               "dual-of-lattice 4D, seed 0": ("dual-of-lattice", 0)}


def frame_draw(name):
    kind, seed = FRAME_DRAWS[name]
    P, = instances(GeneratorConfig(seed=seed, dim=4, coordinate_bound=1), 1, kind)
    return P


def test_framed_counts_match_the_given_frame(theorem_pool, control_pool):
    # Counts walk P in the axis order that the cost model ranks cheapest;
    # the lattice is the same in every order, so the closed and strict
    # counts equal those walked in the given frame.  The order is a pure
    # function of P, a permutation of its axes, or None when P's own order
    # ties for cheapest, as it does for P rebuilt in its order, whose kernel
    # derives what P's does read in the order, up to the order of the
    # facets; a polygon or a segment keeps its own.
    polytopes = [P for P in [*theorem_pool, *control_pool] if P.ambient_dim == 3]
    polytopes += [P for kind in ("lattice", "dual-of-lattice", "rational") for P in
                  instances(GeneratorConfig(seed=8104, dim=4, coordinate_bound=1), 2, kind)]
    moved = 0
    for P in [*polytopes, *map(frame_draw, FRAME_DRAWS)]:
        order = counting._frame(P)
        assert counting._frame(P) == order, P
        if order is not None:
            assert sorted(order) == list(range(P.ambient_dim)), P
            rebuilt = from_vertices([[v[j] for j in order] for v in P.vertices])
            assert counting._frame(rebuilt) is None, P
            K, R = _Kernel(P, order), _Kernel(rebuilt)
            assert (K.ranges, K.tips, K.strips) == (R.ranges, R.tips, R.strips), P
            assert sorted(zip(K.bounds, map(tuple, K.weights), map(tuple, K.lines))) \
                == sorted(zip(R.bounds, map(tuple, R.weights), map(tuple, R.lines))), P
            moved += 1
        K, ms = _Kernel(P), range(1, 4 if P.ambient_dim == 4 else 7)
        given = [_count(K, m, strict) for strict in (False, True) for m in ms]
        assert count_vector(P, ms, ms) == given, P
        assert [count_points(P, m, strict) for strict in (False, True) for m in ms] == given, P
    assert moved >= 30
    for name, order in FRAME_ORDERS.items():
        assert counting._frame(frame_draw(name)) == order, name
    for P in [P for P in theorem_pool if P.ambient_dim < 3]:
        assert counting._frame(P) is None


def test_a_4d_count_builds_no_incidence(monkeypatch):
    # A hull hands its polytope the vertex-facet incidence, and a 4D kernel
    # reads it through the walk's axis order, facets in P's order, so the
    # strips of a 4D count read P's masks and no vertex row is scanned
    # against the facets.  Where the order moves, those strips equal the
    # strips of a scan of P's permuted rows against its permuted facets.
    draws = [instances(GeneratorConfig(seed=seed, dim=4, coordinate_bound=1), 1, kind)[0]
             for kind in ("lattice", "dual-of-lattice", "rational") for seed in (8104, 8200)]
    draws += [frame_draw(name) for name in FRAME_DRAWS]
    orders = [counting._frame(P) for P in draws]
    assert sum(order is not None for order in orders) >= 4
    for P, order in zip(draws, orders):
        if order is not None:
            turn = operator.itemgetter(*order)
            facets = sorted((turn(a), b) for a, b in P.facet_rows)
            scanned = sorted((row, sum(1 << k for k, (a, b) in enumerate(facets)
                                       if sum(map(operator.mul, a, row)) == b))
                             for row in map(turn, P.rows))
            assert _Kernel(P, order).strips == strips(scanned, P.scale), P

    class Unscanned:  # no __set__, so masks handed over in __dict__ still win
        def __get__(self, P, owner=None):
            pytest.fail(f"the incidence of {P} was scanned")

    monkeypatch.setattr(Polytope, "_incidence", Unscanned())
    for P in draws:
        assert count_points(P, 3) == exact_count(P, 3, False), P


def test_interior_shift_search_builds_one_chamber_table(monkeypatch):
    # The search runs every m on one kernel of P, in the caller's frame, and
    # finds the witnesses that interior_shift_mismatch finds m by m.  A
    # polygon counts off its facets, and builds no table.
    builds = []
    chamber_table = counting._chamber_table

    def counted_chamber_table(K):
        builds.append(K)
        return chamber_table(K)

    monkeypatch.setattr(counting, "_chamber_table", counted_chamber_table)
    draws = [instances(GeneratorConfig(seed=seed, dim=dim, coordinate_bound=1), 1, kind)[0]
             for seed, dim, kind in ((3, 2, "rational"), (7, 4, "lattice"),
                                     (2, 3, "dual-of-lattice"), (1, 4, "dual-of-lattice"))]
    for P in [*map(catalog().get, ("square2", "cube3", "octa3", "halfdiamond2")), *draws]:
        builds.clear()
        found = find_interior_shift_violation(P)
        assert len(builds) == (P.ambient_dim > 2), P
        last = dual_denominator(P) + P.ambient_dim
        each = [(m, interior_shift_mismatch(P, m)) for m in range(1, last + 1)]
        assert found == next(((m, w) for m, w in each if w is not None), None), P


def test_a_polygon_report_counts_off_its_facets(monkeypatch):
    # A polygon's report builds no chamber table, and each of its counts
    # walks at most one section and makes at most one floor sum per chain
    # piece, one per facet with B != 0.
    tables, floor_sums, sections, per_count = [], [], [], []
    chamber_table, floor_sum, count = counting._chamber_table, counting._floor_sum, counting._count
    section = counting._section

    def counted_count(K, m, strict):
        before = len(floor_sums), len(sections)
        result = count(K, m, strict)
        per_count.append((len(floor_sums) - before[0], len(sections) - before[1]))
        return result

    monkeypatch.setattr(counting, "_chamber_table", lambda K: tables.append(K) or chamber_table(K))
    monkeypatch.setattr(counting, "_floor_sum", lambda *args: floor_sums.append(args)
                        or floor_sum(*args))
    monkeypatch.setattr(counting, "_section", lambda *args: sections.append(args)
                        or section(*args))
    monkeypatch.setattr(counting, "_count", counted_count)
    draw, = instances(GeneratorConfig(seed=8200, dim=2, coordinate_bound=2), 1, "rational")
    for P in (catalog()["square2"], catalog()["halfdiamond2"], draw):
        per_count.clear()
        full_report(P)
        pieces = sum(a[-1] != 0 for a, _ in P.facet_rows)
        made, walked = map(max, zip(*per_count))
        assert tables == [] and made <= pieces and walked == 1, P
    # The draw has no facet with B = 0: each of its facets is a chain piece.
    assert len(draw.facet_rows) == pieces


def test_reciprocity_makes_one_count_request(monkeypatch):
    kernels = []

    class CountedKernel(_Kernel):
        def __init__(self, P, order=None):
            kernels.append(P)
            super().__init__(P, order)

    monkeypatch.setattr(counting, "_Kernel", CountedKernel)
    for name in ("square2", "halfdiamond2", "octa3"):
        P = catalog()[name]
        kernels.clear()
        assert check_reciprocity(P).passed, name
        assert len(kernels) == 1, name
        qp = fit_qp(P)
        kernels.clear()
        assert check_reciprocity(P, 4, qp) == check_reciprocity(P, 4), name
        assert len(kernels) == 2, name


# Trapezoids of the chamber table of a count in the given frame, and at most
# in the frame it walks: a deterministic guard on the cost model.  Seed 8
# keeps its given frame when the model drops its Euclid term or the plus
# one of its 4D extents, or caps the Euclid steps at 3.
TRAPEZOIDS = {"rational 4D, seed 7": (191, 29), "dual-of-lattice 4D, seed 1": (78, 50),
              "rational 4D, seed 8": (252, 119)}
# The axis order that the counts choose for each of FRAME_DRAWS.
FRAME_ORDERS = {"rational 4D, seed 7": (2, 3, 0, 1), "rational 4D, seed 8": (1, 3, 0, 2),
                "dual-of-lattice 4D, seed 1": (1, 3, 0, 2),
                "dual-of-lattice 4D, seed 0": (0, 2, 1, 3)}


def test_counts_walk_the_table_of_their_frame(monkeypatch):
    tables = []
    chamber_table = counting._chamber_table

    def kept(K):
        tables.append(chamber_table(K))
        return tables[-1]

    monkeypatch.setattr(counting, "_chamber_table", kept)
    for name, (given, at_most) in TRAPEZOIDS.items():
        P = frame_draw(name)
        assert sum(len(strip[-1]) for strip in chamber_table(_Kernel(P))) == given, name
        tables.clear()
        count_points(P, 2)
        table, = tables
        assert sum(len(strip[-1]) for strip in table) <= at_most, name


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


def test_interior_shift_witness_is_least_listed_difference_deeper():
    # At m = 7..10 the prefix axes of these 4D draws span about 20 values,
    # so the scan for each prefix coordinate of a witness may take many slabs.
    rational = [instances(GeneratorConfig(seed=seed, dim=4, coordinate_bound=1), 1,
                          "rational")[0] for seed in (8300, 8303)]
    lattice_dual, = instances(GeneratorConfig(seed=8305, dim=4, coordinate_bound=1), 1,
                              "dual-of-lattice")
    cases = [(P, range(7, 11)) for P in rational]
    cases += [(lattice_dual, range(9, 11)), (from_vertices(UNEVEN4), range(1, 4))]
    mismatches = 0
    for P, dilations in cases:
        assert origin_interior(P)
        for m in dilations:
            witness = interior_shift_mismatch(P, m)
            assert witness == least_listed_difference(P, m), (P, m)
            mismatches += witness is not None
    assert mismatches >= 9
    assert interior_shift_mismatch(from_vertices(UNEVEN4), 1) == (-2, 1, -1, 1)


@pytest.mark.parametrize("seed, kind", [(8301, "rational"), (8301, "lattice"),
                                        (8303, "lattice")])
def test_the_witness_walks_no_more_sections_than_its_two_counts(monkeypatch, seed, kind):
    # The witness is charged nothing of its own, only the two counts that
    # found the mismatch.  The scan walks each section of 2P and 1P at most
    # twice, and on these 4D draws no more than the two unclipped counts
    # together: 6, 10 and 14 against 9, 15 and 14.
    P, = instances(GeneratorConfig(seed=seed, dim=4, coordinate_bound=1), 1, kind)
    assert origin_interior(P)
    sections = []
    section = counting._section
    monkeypatch.setattr(counting, "_section", lambda *args: sections.append(args)
                        or section(*args))
    K = _Kernel(P)
    witness = counting._shift_witness(K, 2)
    walked = len(sections)
    assert witness == least_listed_difference(P, 2)
    sections.clear()
    _chamber_count(K, 2, True)
    _chamber_count(K, 1, False)
    assert walked <= len(sections), (walked, len(sections))


def test_empty_box_makes_no_sections(monkeypatch):
    # The box of these 3D and 4D slabs at m = 1 is empty on its last axis:
    # the count and the witness return before the 6001 prefixes of their
    # first, so neither makes a count, builds a chamber table or makes a
    # floor sum.
    calls = []
    for name in ("_chamber_count", "_chamber_table", "_floor_sum"):
        def counted(*args, real=getattr(counting, name)):
            calls.append(args)
            return real(*args)

        monkeypatch.setattr(counting, name, counted)
    for P in (box_polytope((F(-3000), F(3000)), (F(-1), F(1)), (F(1, 3), F(2, 3))),
              box_polytope((F(-3000), F(3000)), (F(-1), F(1)), (F(-1), F(1)),
                           (F(1, 3), F(2, 3)))):
        assert count_points(P, 1, budget=1) == 0
        assert counting._shift_witness(_Kernel(P), 1) is None
    assert calls == []


# ------------------------------------------------------ unimodular images

@st.composite
def unimodular(draw, dim):
    """A product A of one to four elementary integer matrices (row
    additions, swaps and negations), with its inverse."""
    A = [[int(i == j) for j in range(dim)] for i in range(dim)]
    inverse = [row[:] for row in A]
    for _ in range(draw(st.integers(1, 4))):
        i, j = draw(st.permutations(range(dim)))[:2]
        c = draw(st.sampled_from([-2, -1, 1, 2, "swap", "negate"]))
        # A becomes E*A and its inverse A^{-1}*E^{-1}: E acts on rows i and
        # j of A, and E^{-1} on columns i and j of the inverse.
        if c == "swap":
            A[i], A[j] = A[j], A[i]
            for row in inverse:
                row[i], row[j] = row[j], row[i]
        elif c == "negate":
            A[i] = [-a for a in A[i]]
            for row in inverse:
                row[i] = -row[i]
        else:
            A[i] = [a + c * b for a, b in zip(A[i], A[j])]
            for row in inverse:
                row[j] -= c * row[i]
    return A, inverse


def apply(A, v):
    return tuple(sum(a * c for a, c in zip(row, v)) for row in A)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(st.integers(0, 2**32 - 1), st.sampled_from([2, 3]),
       st.sampled_from(["lattice", "dual-of-lattice", "rational"]), st.data())
def test_counts_and_dual_commute_with_unimodular_maps(seed, dim, kind, data):
    # A in GL_n(Z) maps the lattice onto itself, so AP has the closed and
    # strict counts of P, yet AP is walked in another frame, through other
    # sections and chambers, and so has its delta-vector, which reads the
    # counts of mP up to m = k(n+1)-1.  And <A^{-T}u, Av> = <u, v>, so the
    # polar dual of AP is A^{-T} dual(P).
    P, = instances(GeneratorConfig(seed=seed, dim=dim, coordinate_bound=1), 1, kind)
    A, inverse = data.draw(unimodular(dim))
    AP = from_vertices([apply(A, v) for v in P.vertices])
    ms = range(1, 5)
    assert count_vector(AP, ms, ms) == count_vector(P, ms, ms), (P, A)
    assert delta_vector(fit_qp(AP)) == delta_vector(fit_qp(P)), (P, A)
    inverse_transpose = list(zip(*inverse))
    image = from_vertices([apply(inverse_transpose, u) for u in dual(P).vertices])
    assert (dual(AP), dual(AP).facet_rows) == (image, image.facet_rows), (P, A)


# ---------------------------------------------------------------- heights

def test_integer_heights_for_lattice_dual(fixtures):
    # With a lattice dual every facet in bound-1 form has an integral
    # normal, so lattice points sit at integer heights.
    for name in ("square2", "halfdiamond2", "seg_mhalf_third", "cube3"):
        for a, b in fixtures[name].facets:
            assert all((c / b).denominator == 1 for c in a)
