import argparse
import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

import ehrhart
from ehrhart import catalog, dumps_polytope
from ehrhart.cli import build_parser, main
import ehrhart.counting as counting_module
import ehrhart.quasipoly as quasipoly_module
import ehrhart.verify as verify_module


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_info_text(capsys):
    code, out, _ = run(capsys, "info", "square2")
    assert code == 0
    assert "denominator: 1" in out
    assert "lattice: yes" in out
    assert "facets: 4" in out


def test_info_json(capsys):
    code, out, _ = run(capsys, "info", "halfdiamond2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["denominator"] == "2"
    assert doc["lattice"] is False
    assert doc["origin_interior"] is True


def test_count_json(capsys):
    code, out, _ = run(capsys, "count", "square2", "--m", "2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert (doc["closed"], doc["interior"]) == ("25", "9")


def test_delta_json_round_trips_exactly(capsys):
    code, out, _ = run(capsys, "delta", "seg_mhalf_third", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert [int(v) for v in doc["delta"]] == [1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1]
    assert doc["palindromic"] is True
    assert doc["k"] == "6"


def test_delta_text_non_palindromic(capsys):
    code, out, _ = run(capsys, "delta", "seg_m1_2")
    assert code == 0
    assert "(1, 2)" in out
    assert "palindromic: no" in out


def test_delta_square(capsys):
    code, out, _ = run(capsys, "delta", "square2", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["delta"] == ["1", "6", "1"]
    assert doc["palindromic"] is True


def test_negative_dilation_exit_two(capsys):
    code, _, err = run(capsys, "count", "square2", "--m", "-3")
    assert code == 2
    assert "error" in err


def test_bad_gen_dimension_exit_two(capsys):
    code, _, err = run(capsys, "gen", "--seed", "1", "--dim", "7")
    assert code == 2


def test_dual_json_is_pipeable(capsys):
    code, out, _ = run(capsys, "dual", "cube3", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc == {"dim": 3, "vertices": [[str(c) for c in v]
                                          for v in catalog()["octa3"].vertices]}


def test_verify_pass_exit_zero(capsys):
    code, out, _ = run(capsys, "verify", "halfdiamond2")
    assert code == 0
    assert "result: ok" in out


def test_verify_expected_failures_still_exit_zero(capsys):
    # Non-lattice dual: palindrome fails by design, nothing fatal.
    code, out, _ = run(capsys, "verify", "seg_m23_1", "--format", "json")
    doc = json.loads(out)
    assert code == 0
    assert doc["fatal"] is False
    by_name = {c["name"]: c for c in doc["checks"]}
    assert by_name["palindrome"]["passed"] is False
    assert by_name["characterization"]["passed"] is True


def test_verify_fatal_exit_one(capsys, monkeypatch):
    # A lattice-dual polytope failing the symmetry cannot be constructed,
    # so fake the report to pin the exit-code contract.
    real = verify_module.full_report

    def poisoned(P, polytope_id="polytope", m_max=6, budget=10**8):
        report = real(P, polytope_id=polytope_id, m_max=m_max, budget=budget)
        import dataclasses
        checks = tuple(dataclasses.replace(c, passed=False, fatal=True)
                       if c.name == "palindrome" else c for c in report.checks)
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(verify_module, "full_report", poisoned)
    code, out, _ = run(capsys, "verify", "square2")
    assert code == 1
    assert "FATAL" in out


def test_failed_reciprocity_is_fatal_without_a_lattice_dual(capsys, monkeypatch):
    # Reciprocity holds for every rational polytope, so a wrong strict count
    # of 6P stops the build even though the dual of [-1, 2] is not lattice.
    real = verify_module.count_vector

    def doctored(P, closed, interior=(), budget=counting_module.DEFAULT_BUDGET):
        counts = real(P, closed, interior, budget=budget)
        counts[len(closed) + list(interior).index(6)] += 1
        return counts

    monkeypatch.setattr(verify_module, "count_vector", doctored)
    report = verify_module.full_report(catalog()["seg_m1_2"], "seg_m1_2")
    assert not report.dual_is_lattice and report.fatal
    reciprocity, = [c for c in report.checks if c.name == "reciprocity"]
    assert reciprocity.fatal and not reciprocity.passed
    assert reciprocity.witness["m"] == 6
    code, out, _ = run(capsys, "verify", "seg_m1_2")
    assert code == 1
    assert "FAIL reciprocity" in out and out.endswith("FATAL: inconsistency detected\n")


@pytest.mark.parametrize("fmt", ["text", "json"])
@pytest.mark.parametrize("command", ["delta", "verify"])
def test_disagreeing_delta_routes_exit_one(capsys, monkeypatch, command, fmt):
    real = quasipoly_module.series_counts

    def shifted(counts, n, k):
        entries = real(counts, n, k).entries
        return ehrhart.DeltaVector((entries[0] + 1, *entries[1:]))

    monkeypatch.setattr(quasipoly_module, "series_counts", shifted)
    code, out, err = run(capsys, command, "square2", "--format", fmt)
    assert code == 1
    if command == "delta":
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("ehrhart: FATAL: ")
    else:  # verify prints its report, with the failed row and its witness
        assert err == ""
        if fmt == "text":
            assert "  FAIL equivalence  witness: index=0, vector=2, table=1  [FATAL]\n" in out
        else:
            row, = (c for c in json.loads(out)["checks"] if c["name"] == "equivalence")
            assert row == {"name": "equivalence", "passed": False, "fatal": True,
                           "witness": {"index": "0", "vector": "2", "table": "1"}}


def _off_by_one(route):
    """A mutant of a delta-vector route of quasipoly: its last entry plus one."""
    real = getattr(quasipoly_module, route)

    def mutant(counts, n, k):
        if route == "series_counts":
            entries = real(counts, n, k).entries
            return ehrhart.DeltaVector((*entries[:-1], entries[-1] + 1))
        rows = [list(row) for row in real(counts, n, k).table.delta]
        rows[-1][-1] += 1
        return ehrhart.EhrhartQP(n, k, ehrhart.ResidueDeltaTable(n, k, tuple(map(tuple, rows))))
    return mutant


@pytest.mark.parametrize("route", ["fit_counts", "series_counts"])
@pytest.mark.parametrize("name", ["square2", "halfdiamond2", "seg_m1_2"])
def test_a_mutant_route_fails_the_equivalence_row(capsys, monkeypatch, route, name):
    # Either route off by one in its last entry, k(n+1) - 1: the report still
    # comes back, with a fatal equivalence row that names the entry.
    monkeypatch.setattr(quasipoly_module, route, _off_by_one(route))
    report = verify_module.full_report(catalog()[name], name)
    row, = (c for c in report.checks if c.name == "equivalence")
    assert report.fatal and row.fatal and not row.passed
    index = report.k * (report.n + 1) - 1
    fitted, series = report.residue_table.entry(report.n, report.k - 1), report.delta[index]
    assert row.witness == {"index": index, "vector": series, "table": fitted}
    assert abs(fitted - series) == 1
    code, out, err = run(capsys, "verify", name)
    assert (code, err) == (1, "")
    assert (f"  FAIL equivalence  witness: index={index}, vector={series}, "
            f"table={fitted}  [FATAL]\n") in out
    assert out.endswith("FATAL: inconsistency detected\n")
    code, out, err = run(capsys, "delta", name)
    assert (code, out) == (1, "")
    assert err == ("ehrhart: FATAL: fit and series routes disagree: "
                   f"{{'index': {index}, 'vector': {series}, 'table': {fitted}}}\n")


@pytest.mark.parametrize("m_max", ["0", "-2"])
def test_verify_without_dilations_exit_two(capsys, m_max):
    code, out, err = run(capsys, "verify", "square2", "--m-max", m_max)
    assert code == 2
    assert out == ""
    assert err == f"ehrhart: error: m_max must be at least 1, got {m_max}\n"


def test_unexpected_error_exit_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(counting_module, "count_vector", broken)
    code, out, err = run(capsys, "count", "square2", "--m", "2")
    assert code == 3
    assert out == ""
    assert err == "ehrhart: internal error: RuntimeError('boom')\n"


def child_imports(*argv):
    """The stdout of one ``ehrhart`` command and the modules it loads, in a
    child interpreter, so that the modules this test session already holds
    do not hide them."""
    src = str(Path(ehrhart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-X", "importtime", "-m", "ehrhart", *argv],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout, {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
                         if line.startswith("import time:") and "|" in line}


def test_count_of_a_file_imports_only_what_it_runs(tmp_path):
    path = tmp_path / "cube.json"
    path.write_text(dumps_polytope(catalog()["cube3"]))
    out, loaded = child_imports("count", str(path), "--m", "2")
    assert out == f"{path}: |2P| = 125 lattice points, interior 27\n"
    assert "ehrhart.counting" in loaded and "ehrhart.serialization" in loaded
    for name in ("dataclasses", "inspect", "fractions", "decimal", "ehrhart.generators",
                 "ehrhart.quasipoly", "ehrhart.verify", "ehrhart._strips"):
        assert name not in loaded, name


def test_info_of_a_rational_file_builds_no_fraction(tmp_path):
    # The file's "p/q" coordinates are parsed straight to integers.
    path = tmp_path / "half.json"
    path.write_text(dumps_polytope(catalog()["halfdiamond2"]))
    out, loaded = child_imports("info", str(path))
    assert "denominator: 2\n" in out
    assert "ehrhart.serialization" in loaded
    assert "fractions" not in loaded and "decimal" not in loaded


def test_file_input(tmp_path, capsys):
    path = tmp_path / "box.json"
    path.write_text(dumps_polytope(catalog()["seg_mhalf_1"]))
    code, out, _ = run(capsys, "delta", str(path))
    assert code == 0
    assert "(1, 2, 2, 1)" in out


def test_parse_error_exit_two(tmp_path, capsys):
    path = tmp_path / "broken.json"
    path.write_text('{"dim": 1, "vertices": [[0.5], ["1"]]}')
    code, _, err = run(capsys, "delta", str(path))
    assert code == 2
    assert "error" in err


def test_dimension_over_the_cap_exit_two(tmp_path, capsys):
    path = tmp_path / "simplex5.json"
    rows = [[str(int(i == j)) for j in range(5)] for i in range(5)] + [["-1"] * 5]
    path.write_text(json.dumps({"dim": 5, "vertices": rows}))
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err == "ehrhart: error: dimension 5 exceeds cap 4\n"


def test_oversized_file_exit_two(tmp_path, capsys, monkeypatch):
    from ehrhart import serialization
    monkeypatch.setattr(serialization, "MAX_FILE_BYTES", 100)
    path = tmp_path / "big.json"
    path.write_text(dumps_polytope(catalog()["square2"]) + " " * 100)
    code, out, err = run(capsys, "info", str(path))
    assert (code, out) == (2, "")
    assert err == "ehrhart: error: file holds more than 100 bytes\n"


def test_deeply_nested_json_exit_two(tmp_path, capsys):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100000 + "]" * 100000)
    code, out, err = run(capsys, "info", str(path))
    assert code == 2
    assert out == ""
    assert err.startswith("ehrhart: error:")
    assert err.count("\n") == 1


def test_missing_input_exit_two(capsys):
    code, _, err = run(capsys, "info", "no_such_polytope")
    assert code == 2
    assert "catalog" in err


def test_ambiguous_input_exit_two(tmp_path, capsys, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "square2").write_text("{}")
    code, _, err = run(capsys, "info", "square2")
    assert code == 2
    assert "both" in err


def test_origin_not_interior_exit_two(tmp_path, capsys):
    # The second polytope's fit, k = 97, would reach a box beyond the
    # default budget: the origin must be named before any count.
    for vertices in ([["1"], ["2"]],
                     [["1/97", "0", "0"], ["2", "0", "0"], ["0", "2", "0"],
                      ["0", "0", "2"], ["1", "1", "1"]]):
        path = tmp_path / "shifted.json"
        path.write_text(json.dumps({"dim": len(vertices[0]), "vertices": vertices}))
        code, _, err = run(capsys, "verify", str(path))
        assert code == 2, vertices
        assert "origin strictly inside" in err, err


def test_budget_exceeded_exit_two(capsys):
    code, _, err = run(capsys, "count", "square2", "--m", "50", "--budget", "10")
    assert code == 2
    assert "budget" in err


def test_delta_refuses_an_over_long_count_vector(tmp_path):
    # k = 999983 * 999979, so the delta-vector needs about 2 * 10^12 cheap
    # 1D counts: the request must exit 2 before counting, not grind.
    path = tmp_path / "seg.json"
    path.write_text(json.dumps({"dim": 1, "vertices": [["-1/999983"], ["1/999979"]]}))
    src = str(Path(ehrhart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run([sys.executable, "-m", "ehrhart", "delta", str(path)],
                          env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr == ("ehrhart: error: 1999924000714 counts requested, "
                           "budget is 100000000\n")


def test_one_dimensional_count_has_no_box_budget(capsys):
    # A 1D count solves its axis directly, so a box of 3m + 1 cells far
    # beyond the default budget costs nothing.
    m = 10**20
    code, out, err = run(capsys, "count", "seg_m1_2", "--m", str(m))
    assert (code, err) == (0, "")
    assert out == f"seg_m1_2: |{m}P| = {3 * m + 1} lattice points, interior {3 * m - 1}\n"


def test_unknown_flag_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["info", "square2", "--frobnicate"])
    assert excinfo.value.code == 2


def test_gen_takes_no_budget(capsys):
    # Only the commands that count take --budget.
    for command in ("count", "delta", "verify"):
        code, _, _ = run(capsys, command, "square2", "--budget", "1000")
        assert code == 0, command
    for argv in (["info", "square2"], ["dual", "square2"], ["gen"]):
        with pytest.raises(SystemExit) as excinfo:
            main([*argv, "--budget", "5"])
        assert excinfo.value.code == 2, argv


def test_options_are_pinned():
    # The option strings of every subcommand: a flag added or removed shows
    # up as a diff of this table.
    sub, = (a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction))
    options = {name: " ".join(sorted(s for a in p._actions for s in a.option_strings))
               for name, p in sub.choices.items()}
    assert options == {
        "info": "--format --help -h",
        "count": "--budget --format --help --m -h",
        "delta": "--budget --format --help -h",
        "dual": "--format --help -h",
        "verify": "--budget --format --help --m-max -h",
        "gen": "--bound --dim --format --help --kind --seed -h",
    }


def _doc(dim, *vertices):
    return json.dumps({"dim": dim, "vertices": [list(v) for v in vertices]})


_D2100 = 10**2099 + 1  # d, d + 2 and d + 4 are odd, so pairwise coprime

# Hostile input files, each written to a temporary directory and named on
# a command line by its key in braces.
HOSTILE_FILES = {
    # The delta-vector of [-1, 1/10^19] has 2 * 10^19 counts.
    "seg19": _doc(1, ["-1"], [f"1/{10**19}"]),
    "den4000": _doc(2, ["-1", "-1"], [f"1/{10**3999 + 7}", "1"], ["1", "0"]),
    # Three 2100-digit denominators whose lcm has more than 4300 digits.
    "lcm": _doc(2, ["-1", f"-1/{_D2100}"], [f"1/{_D2100 + 2}", "1"],
                ["1", f"1/{_D2100 + 4}"]),
    "den2000": _doc(3, ["-1", "-1", "-1"], [f"1/{10**1999 + 3}", "1", "0"],
                    ["1", "0", "0"], ["0", "0", "1"]),
    "utf8": b'\xff{"dim": 1, "vertices": [["-1"], ["1"]]}',
    "digits4400": _doc(1, ["-1"], ["1" + "0" * 4400]),
    "dim0": '{"dim": 0, "vertices": [[]]}',
    "dim5": _doc(5, *[[str(int(i == j)) for j in range(5)] for i in range(5)], ["-1"] * 5),
    "duplicate": _doc(2, *[["-1", "-1"], ["1", "-1"], ["1", "1"], ["-1", "1"]] * 2),
    "collinear": _doc(2, ["0", "0"], ["1", "1"], ["2", "2"]),
}


def run_hostile(tmp_path, capsys, argv):
    """``run`` on argv with each {key} replaced by the path of its
    HOSTILE_FILES entry; an argparse exit counts as a return."""
    paths = {}
    for key, content in HOSTILE_FILES.items():
        paths[key] = tmp_path / f"{key}.json"
        if isinstance(content, bytes):
            paths[key].write_bytes(content)
        else:
            paths[key].write_text(content)
    try:
        return run(capsys, *(a.format(**paths) for a in argv))
    except SystemExit as exc:
        captured = capsys.readouterr()
        return exc.code, captured.out, captured.err


REFUSED = " counts requested, budget is "

# (argv, exit code, a fragment of stderr).  The first rows are requests
# whose count vector is longer than len() of a range can report.
HOSTILE = [
    (["delta", "{seg19}"], 2, REFUSED),
    (["verify", "{seg19}"], 2, REFUSED),
    (["delta", "{den4000}"], 2, REFUSED),
    (["verify", "{den4000}"], 2, REFUSED),
    # More than 4300 digits print: the denominator, and the count of
    # counts that the budget refuses.
    (["info", "{lcm}"], 0, ""),
    (["delta", "{lcm}"], 2, REFUSED),
    (["verify", "{lcm}"], 2, "ehrhart: error: "),  # a count too long to print
    (["delta", "{den2000}", "--budget", str(10**30)], 2, REFUSED),
    (["verify", "square2", "--m-max", str(10**22)], 2, REFUSED),
    *[([command, "{" + key + "}"], 2, "error: ")
      for key in ("utf8", "digits4400", "dim0", "dim5", "collinear")
      for command in ("info", "count", "delta", "dual", "verify")],
    *[([command, "{duplicate}"], 0, "")
      for command in ("info", "count", "delta", "dual", "verify")],
    (["count", "square2", "--m", "-1"], 2, "error: "),
    (["verify", "square2", "--m-max", "0"], 2, "error: "),
    *[([command, "square2", "--budget", budget], 2, "error: ")
      for command in ("info", "count", "delta", "dual", "verify")
      for budget in ("0", "-1")],
]


@pytest.mark.parametrize("argv, expected, message", HOSTILE,
                         ids=[" ".join(argv) for argv, _, _ in HOSTILE])
def test_hostile_input_exits_zero_one_or_two(tmp_path, capsys, argv, expected, message):
    code, out, err = run_hostile(tmp_path, capsys, [*argv, "--format", "json"])
    assert code == expected and message in err, err[:200]
    if code == 2:
        assert out == ""
        assert err.count("\n") == 1 or err.startswith("usage:"), err[:200]
    else:
        json.loads(out)  # exactly one JSON document, nothing after it


def test_results_print_past_the_digit_limit(tmp_path, capsys):
    # The lcm of the three 2100-digit denominators prints in full, and the
    # interpreter's limit is back in place once main returns.
    limit = sys.get_int_max_str_digits()
    code, out, err = run_hostile(tmp_path, capsys, ["info", "{lcm}"])
    assert (code, err) == (0, "")
    denominator, = (line for line in out.splitlines() if line.startswith("denominator: "))
    digits = denominator.removeprefix("denominator: ")
    assert digits.isdigit() and len(digits) > limit
    assert sys.get_int_max_str_digits() == limit
    code, out, err = run_hostile(tmp_path, capsys, ["delta", "{lcm}"])
    assert (code, out) == (2, "")
    assert err.startswith("ehrhart: error: ") and err.endswith(REFUSED + "100000000\n")
    assert sys.get_int_max_str_digits() == limit


def _digits(k, last):
    """A k-digit decimal string, built without str() of a k-digit int,
    which the interpreter refuses past 4300 digits."""
    return "1" + "0" * (k - 2) + str(last)


_SMALL = st.integers(-3, 3).map(str)
# Small integers (drawn three times as often as each other branch), then
# fractions with moderate and with huge denominators, then integers on
# both sides of the interpreter's 4300-digit limit.
_COORDINATE = st.one_of(
    _SMALL, _SMALL, _SMALL,
    st.builds("{}/{}".format, st.integers(-3, 3), st.integers(1, 10**25)),
    st.builds("{}/{}".format, st.integers(-3, 3),
              st.builds(_digits, st.integers(18, 4299), st.integers(1, 9))),
    st.builds("{}{}".format, st.sampled_from(["", "-"]),
              st.builds(_digits, st.integers(4290, 4310), st.integers(1, 9))),
)


@st.composite
def _any_points(draw):
    """1 to n+3 points in dimension n = 0..5: single points, duplicates and
    flat point sets included."""
    n = draw(st.integers(0, 5))
    points = draw(st.lists(st.lists(_COORDINATE, min_size=n, max_size=n),
                           min_size=1, max_size=n + 3))
    return _doc(n, *points)


@st.composite
def _cross_polytope(draw):
    """conv(+-c_i e_i) in dimension 1..4: the origin is inside, so the
    commands get past the hull to the dual and the counts."""
    n = draw(st.integers(1, 4))
    points = []
    for i in range(n):
        c = draw(_COORDINATE.filter(lambda c: c.lstrip("-")[0] != "0")).lstrip("-")
        points += [["0"] * i + [sign + c] + ["0"] * (n - 1 - i) for sign in ("", "-")]
    return _doc(n, *points)


_NUMBER = st.one_of(st.integers(-2, 12), st.integers(-2, 10**30)).map(str)
_OPTIONS = {"info": st.just(()), "dual": st.just(()), "delta": st.just(()),
            "count": st.tuples(st.just("--m"), _NUMBER),
            "verify": st.tuples(st.just("--m-max"), _NUMBER)}


# Each example writes its own file and reads its own output, so the
# function-scoped fixtures carry nothing from one example to the next.
@settings(derandomize=True, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(command=st.sampled_from(sorted(_OPTIONS)), data=st.data(),
       source=st.one_of(_any_points(), _cross_polytope(), st.sampled_from(sorted(catalog()))),
       budget=st.integers(-1, 300))
def test_drawn_hostile_input_exits_zero_or_two(tmp_path, capsys, command, data,
                                              source, budget):
    if source.startswith("{"):
        (tmp_path / "drawn.json").write_text(source)
        source = str(tmp_path / "drawn.json")
    argv = [command, source, *data.draw(_OPTIONS[command]), "--format", "json"]
    if command in ("count", "delta", "verify"):
        argv += ["--budget", str(budget)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 5
    assert code in (0, 2), err[:200]
    if code == 2:
        assert out == "" and err.count("\n") == 1, err[:200]
    else:
        assert err == ""
        json.loads(out)  # exactly one JSON document, nothing after it


def test_unknown_command_exit_two(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["summon", "square2"])
    assert excinfo.value.code == 2


def test_gen_deterministic_and_pipeable(tmp_path, capsys):
    code, out1, _ = run(capsys, "gen", "--seed", "11", "--dim", "2",
                        "--format", "json")
    assert code == 0
    code, out2, _ = run(capsys, "gen", "--seed", "11", "--dim", "2",
                        "--format", "json")
    assert out1 == out2
    path = tmp_path / "gen.json"
    path.write_text(out1)
    code, out, _ = run(capsys, "verify", str(path))
    assert code == 0
    assert "PASS theorem" in out


def test_gen_rational_kind(capsys):
    code, out, _ = run(capsys, "gen", "--seed", "3", "--dim", "1",
                       "--kind", "rational")
    assert code == 0
    assert "generated" in out


@pytest.mark.parametrize("flags, field", [
    (["--kind", "rational", "--bound", "0"], "coordinate_bound"),
    (["--bound", "-1"], "coordinate_bound"),
    (["--bound", "0"], "coordinate_bound"),
])
def test_gen_rejects_a_bound_below_one(capsys, flags, field):
    code, out, err = run(capsys, "gen", "--dim", "2", *flags)
    assert (code, out) == (2, "")
    assert field in err
