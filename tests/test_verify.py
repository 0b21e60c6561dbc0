import hashlib
import json
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

from ehrhart import (
    BudgetExceeded,
    CheckResult,
    GeneratorConfig,
    OriginNotInterior,
    ResidueDeltaTable,
    VerificationReport,
    catalog,
    check_characterization,
    check_equivalence,
    check_palindrome,
    check_reciprocity,
    check_theorem,
    count_points,
    delta_vector,
    evaluate_qp,
    find_interior_shift_violation,
    fit_qp,
    from_vertices,
    full_report,
    instances,
    interior_shift_mismatch,
    render_text,
    report_to_json_dict,
)
from ehrhart import counting, geometry, verify
from conftest import segment
from test_counting import least_listed_difference


# ------------------------------------------------------------- reciprocity

def test_reciprocity_square():
    assert check_reciprocity(catalog()["square2"], m_max=6).passed


def test_reciprocity_diamond_m2_values():
    diamond = catalog()["diamond2"]
    qp = fit_qp(diamond)
    assert evaluate_qp(qp, -2) == 5
    assert count_points(diamond, 2, strict=True) == 5
    assert check_reciprocity(diamond, m_max=2).passed


def test_reciprocity_holds_without_lattice_dual():
    # Reciprocity is unconditional; these two have non-lattice duals.
    assert check_reciprocity(segment(F(-2, 3), 1), m_max=6).passed
    assert check_reciprocity(segment(-1, 2), m_max=6).passed


def test_reciprocity_witness_reports_first_failure():
    # A deliberately wrong quasi-polynomial for the square.
    broken = ResidueDeltaTable(2, 1, ((1,), (0,), (0,)))
    result = check_reciprocity(catalog()["square2"], m_max=3, qp=broken)
    assert not result.passed
    assert result.witness["m"] == 1


# -------------------------------------------------------------- palindrome

@pytest.mark.parametrize("m_max", [0, -1])
def test_reciprocity_and_report_need_a_dilation(m_max):
    P = catalog()["square2"]
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        check_reciprocity(P, m_max=m_max)
    with pytest.raises(ValueError, match="m_max must be at least 1"):
        full_report(P, m_max=m_max)


def test_palindrome_examples():
    assert check_palindrome((1, 6, 1)).passed
    twelve = (1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1)
    assert check_palindrome(twelve).passed
    bad = check_palindrome((1, 2))
    assert not bad.passed
    assert bad.witness["index"] == 0


# ----------------------------------------------------------------- theorem

def test_theorem_half_segment():
    assert check_theorem(fit_qp(catalog()["seg_mhalf_1"])).passed


def test_theorem_halfdiamond():
    assert check_theorem(fit_qp(catalog()["halfdiamond2"])).passed


def test_theorem_fails_for_third_segment():
    # Table ((1,2,4),(4,3,1)): the corner entries 1 happen to match, so the
    # first lexicographic violation is delta[0][1]=2 against delta[1][1]=3.
    result = check_theorem(fit_qp(catalog()["seg_m23_1"]))
    assert not result.passed
    assert (result.witness["i"], result.witness["r"]) == (0, 1)
    assert (result.witness["value"], result.witness["mirrored"]) == (2, 3)


def test_theorem_in_dimension_four():
    # The 4D draws at bound 1, seeds 0-11, under the default budget.  A
    # dual-of-lattice draw either reports with every row passing, so with a
    # palindromic delta, or is refused by the box charge: seeds 4, 6, 10 and
    # 11 report today, and a refusal is asserted rather than skipped, so a
    # cheaper charge brings the other eight into the check.  The rational
    # draws are controls: nothing fatal, characterization passes.
    admitted = 0
    for seed in range(12):
        cfg = GeneratorConfig(seed=seed, dim=4, coordinate_bound=1)
        try:
            report = full_report(instances(cfg, 1, "dual-of-lattice")[0], str(seed))
        except BudgetExceeded:
            pass
        else:
            admitted += 1
            assert report.dual_is_lattice, seed
            assert {c.name: c.passed for c in report.checks} == dict.fromkeys((
                "reciprocity", "interior_shift", "theorem", "palindrome",
                "equivalence", "non_negativity", "characterization"), True), seed
        control = full_report(instances(cfg, 1, "rational")[0], str(seed))
        assert not control.fatal, seed
        assert {c.name: c.passed for c in control.checks}["characterization"], seed
    assert admitted >= 4


# ------------------------------------------------------------- equivalence

def test_equivalence_square():
    qp = fit_qp(catalog()["square2"])
    assert check_equivalence(qp, delta_vector(qp)).passed


def test_equivalence_half_segment():
    qp = fit_qp(catalog()["seg_mhalf_1"])
    assert delta_vector(qp) == (1, 2, 2, 1)
    assert check_equivalence(qp, delta_vector(qp)).passed


def test_equivalence_detects_mismatch():
    qp = fit_qp(catalog()["seg_mhalf_1"])
    tampered = (1, 2, 3, 1)
    result = check_equivalence(qp, tampered)
    assert not result.passed
    assert result.witness["index"] == 2


tables = st.integers(min_value=1, max_value=3).flatmap(
    lambda n: st.integers(min_value=1, max_value=4).flatmap(
        lambda k: st.lists(
            st.lists(st.integers(min_value=-5, max_value=5),
                     min_size=k, max_size=k),
            min_size=n + 1, max_size=n + 1,
        ).map(lambda rows: ResidueDeltaTable(n, k, tuple(map(tuple, rows))))
    )
)


@given(tables)
def test_symmetries_agree_on_arbitrary_tables(table):
    # Pure index algebra: the table symmetry holds exactly when the
    # interleaved vector is palindromic, Ehrhart data or not.
    interleaved = delta_vector(table)
    assert check_theorem(table).passed == check_palindrome(interleaved).passed


# --------------------------------------------------------- characterization

def test_characterization_examples():
    assert check_characterization(catalog()["seg_mhalf_third"]).passed
    assert check_characterization(segment(-1, 2)).passed
    assert check_characterization(catalog()["square2"]).passed


def test_characterization_refuses_before_any_count(monkeypatch):
    # The origin lies outside this bipyramid of denominator k = 70, whose
    # closed counts overrun the default budget: the dual is read first.
    counts = []
    monkeypatch.setattr(counting, "_count", lambda *args: counts.append(args))
    P = from_vertices([(F(1, 7), F(1, 5), F(1, 2)), (3, F(1, 5), F(1, 2)),
                       (F(1, 7), 3, F(1, 2)), (F(1, 7), F(1, 5), 3), (3, 3, 3)])
    assert geometry.denominator(P) == 70
    with pytest.raises(OriginNotInterior):
        check_characterization(P)
    assert counts == []


def test_characterization_fatal_only_when_lattice_dual_fails():
    # Force the impossible branch with a fake non-palindromic delta for a
    # lattice-dual polytope: must be flagged fatal.
    result = verify._characterization(geometry.has_lattice_dual(catalog()["square2"]),
                                      check_palindrome((1, 6, 2)).passed)
    assert not result.passed
    assert result.fatal
    # The other disagreement direction is a plain failure, not fatal.
    result = verify._characterization(geometry.has_lattice_dual(segment(-1, 2)),
                                      check_palindrome((1, 1)).passed)
    assert not result.passed
    assert not result.fatal


# ---------------------------------------------------------- interior shift

def test_find_interior_shift_violation():
    assert find_interior_shift_violation(segment(-1, 2)) == (1, (1,))
    assert find_interior_shift_violation(segment(F(-2, 3), 1)) == (2, (-1,))
    # The search stops at denominator(dual) + n = 3; the shift holds beyond.
    square = catalog()["square2"]
    assert find_interior_shift_violation(square) is None
    assert all(counting.interior_shift_mismatch(square, m) is None for m in range(1, 7))


# -------------------------------------------------------------- full report

def test_full_report_square_all_pass():
    report = full_report(catalog()["square2"], "square2")
    assert (report.residue_table.n, report.residue_table.k) == (2, 1)
    assert report.dual_is_lattice
    assert all(c.passed for c in report.checks)
    assert not report.fatal
    assert {c.name for c in report.checks} == {
        "reciprocity", "interior_shift", "theorem", "palindrome",
        "equivalence", "non_negativity", "characterization"}


def test_full_report_unit_segment_expected_failures():
    report = full_report(segment(-1, 2), "seg_m1_2")
    assert not report.dual_is_lattice
    # No interior_shift: it is skipped when the dual is not lattice.
    assert {c.name: c.passed for c in report.checks} == {
        "reciprocity": True, "palindrome": False, "theorem": False,
        "equivalence": True, "non_negativity": True, "characterization": True}
    assert not report.fatal


def test_full_report_sixth_segment_all_pass():
    report = full_report(catalog()["seg_mhalf_third"], "seg_mhalf_third")
    assert report.residue_table.k == 6
    assert all(c.passed for c in report.checks)


def test_full_report_checks_interior_shift_from_counts(monkeypatch):
    # (m-1)P lies inside the interior of mP, so equal counts already mean
    # equal point sets: the witness walk runs only on a count mismatch.
    def walk(P, m):
        raise AssertionError(f"walked for a witness at m={m} without a count mismatch")

    monkeypatch.setattr(verify, "shift_witness", walk)
    for name in ("square2", "halfdiamond2", "seg_mhalf_third", "octa3"):
        checks = full_report(catalog()[name], name).checks
        assert [c.passed for c in checks if c.name == "interior_shift"] == [True]


def test_full_report_names_the_shift_witness_without_recounting(monkeypatch):
    # A lattice dual rules out an interior-shift mismatch, so one is forced
    # by raising the strict count of 2P by one.  The row is fatal at m = 2,
    # and its witness comes from clipped counts on a kernel of its own: no
    # count of the request is made again.  The point sets still agree, so
    # the witness names no point: in 3D its slab scan finds no slab, and in
    # 2D and 1D, one section, its column scan finds no column.
    walks = []
    count = counting._count

    def counted_count(K, m, strict):
        walks.append((m, strict))
        return count(K, m, strict)

    count_vector = verify.count_vector

    def poisoned_count_vector(P, closed, interior, budget):
        counts = count_vector(P, closed, interior, budget=budget)
        counts[len(closed) + 1] += 1
        return counts

    monkeypatch.setattr(counting, "_count", counted_count)
    monkeypatch.setattr(verify, "count_vector", poisoned_count_vector)
    for name in ("octa3", "square2", "seg_mhalf_1"):
        walks.clear()
        report = full_report(catalog()[name], name)
        shift, = [c for c in report.checks if c.name == "interior_shift"]
        assert shift.fatal and shift.witness == {"m": 2, "point": None}, name
        assert len(walks) == len(set(walks)), name


def test_full_report_names_the_least_shift_witness_in_p_s_own_frame(monkeypatch):
    # A rational 3D draw whose walk's frame is (1, 2, 0), taken for a
    # lattice-dual one so that its report checks the interior shift.  Its
    # first mismatch is at m = 2, and its least witness, in P's own axis
    # order, is (0, 1, -1); a kernel in the frame's order finds another.
    P, = instances(GeneratorConfig(3, 3, coordinate_bound=1), 1, "rational")
    assert counting._frame(P) == (1, 2, 0)
    monkeypatch.setattr(verify, "has_lattice_dual", lambda P: True)
    shift, = [c for c in full_report(P).checks if c.name == "interior_shift"]
    assert shift.witness == {"m": 2, "point": (0, 1, -1)}
    assert interior_shift_mismatch(P, 2) == least_listed_difference(P, 2) == (0, 1, -1)


def test_full_report_reads_the_dual_once_and_never_builds_it(monkeypatch):
    calls = []
    has_lattice_dual = verify.has_lattice_dual

    def counted_has_lattice_dual(P):
        calls.append(P)
        return has_lattice_dual(P)

    def no_dual(P):
        raise AssertionError("built the dual")

    monkeypatch.setattr(verify, "has_lattice_dual", counted_has_lattice_dual)
    monkeypatch.setattr(geometry, "dual", no_dual)
    monkeypatch.setattr(verify, "dual", no_dual, raising=False)
    for name in ("square2", "seg_m1_2", "seg_mhalf_third", "octa3"):
        calls.clear()
        full_report(catalog()[name], name)
        assert calls == [catalog()[name]], name


def test_report_runs_each_symmetry_check_once(monkeypatch):
    # The equivalence check compares entries only: once they interleave,
    # the theorem and palindrome checks agree, so neither runs twice.
    calls = []
    for name in ("check_theorem", "check_palindrome"):
        def counted(x, check=getattr(verify, name), name=name):
            calls.append(name)
            return check(x)
        monkeypatch.setattr(verify, name, counted)
    for name in ("octa3", "seg_mhalf_third"):
        calls.clear()
        full_report(catalog()[name], name)
        assert sorted(calls) == ["check_palindrome", "check_theorem"], name


def test_report_fatal_flag_and_rendering():
    base = full_report(catalog()["square2"], "square2")
    poisoned = VerificationReport(
        base.polytope_id, base.dual_is_lattice, base.delta,
        base.residue_table,
        base.checks[:-1] + (CheckResult("characterization", False,
                                        {"index": 1}, fatal=True),))
    assert poisoned.fatal
    text = render_text(poisoned)
    assert "FATAL" in text
    doc = report_to_json_dict(poisoned)
    assert doc["fatal"] is True
    assert doc["checks"][-1]["witness"] == {"index": "1"}


def test_fatal_witnesses_render():
    # A point tuple becomes a list of strings, a bool stays a bool and a
    # string passes through, in JSON; text shows each value as it is.
    table = ResidueDeltaTable(1, 1, ((1,), (1,)))
    negative = verify.check_non_negativity((1, -2, 1))
    short = check_equivalence(table, (1,))
    assert negative == CheckResult("non_negativity", False,
                                   {"index": 1, "value": -2}, fatal=True)
    assert short == CheckResult("equivalence", False,
                                {"index": 1, "reason": "length mismatch"})
    checks = (CheckResult("interior_shift", False, {"m": 2, "point": (1, -1)}, fatal=True),
              CheckResult("characterization", False,
                          {"dual_is_lattice": True, "palindromic": False}, fatal=True),
              short, negative)
    report = VerificationReport("fake", True, (1, 1), table, checks)
    doc = report_to_json_dict(report)
    assert doc["fatal"] is True
    assert [c["witness"] for c in doc["checks"]] == [
        {"m": "2", "point": ["1", "-1"]},
        {"dual_is_lattice": True, "palindromic": False},
        {"index": "1", "reason": "length mismatch"},
        {"index": "1", "value": "-2"},
    ]
    assert render_text(report).splitlines()[-5:] == [
        "  FAIL interior_shift  witness: m=2, point=(1, -1)  [FATAL]",
        "  FAIL characterization  witness: dual_is_lattice=True, palindromic=False  [FATAL]",
        "  FAIL equivalence  witness: index=1, reason=length mismatch",
        "  FAIL non_negativity  witness: index=1, value=-2  [FATAL]",
        "FATAL: inconsistency detected",
    ]


def test_report_json_values_are_strings():
    doc = report_to_json_dict(full_report(catalog()["seg_mhalf_1"], "seg_mhalf_1"))
    assert doc["k"] == "2"
    assert doc["delta"] == ["1", "2", "2", "1"]
    assert doc["residue_table"] == [["1", "2"], ["2", "1"]]


def test_render_text_mentions_every_check():
    report = full_report(catalog()["diamond2"], "diamond2")
    text = render_text(report)
    for c in report.checks:
        assert c.name in text


# The sha256 of every report over the catalog and both pools, each as its
# JSON dict with sorted keys and as its text.  A change to the counts or
# checks under a report must leave it byte-identical.
REPORTS_SHA256 = "c3fcefecd5d3d4492f9e34b03d9ec37a49ea73449bab683f1ff37bae497a203c"


def test_reports_stay_byte_identical(fixtures, theorem_pool, control_pool):
    named = [*fixtures.items(), *((f"theorem#{i}", P) for i, P in enumerate(theorem_pool)),
             *((f"control#{i}", P) for i, P in enumerate(control_pool))]
    digest = hashlib.sha256()
    for name, P in named:
        report = full_report(P, name)
        digest.update(json.dumps(report_to_json_dict(report), sort_keys=True).encode())
        digest.update(render_text(report).encode())
    assert digest.hexdigest() == REPORTS_SHA256
