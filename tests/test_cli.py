import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import ehrhart
from ehrhart import catalog, dumps_polytope
from ehrhart.cli import main
import ehrhart.counting as counting_module
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
        bad = dataclasses.replace(report.check("palindrome"),
                                  passed=False, fatal=True)
        checks = tuple(bad if c.name == "palindrome" else c
                       for c in report.checks)
        return dataclasses.replace(report, checks=checks)

    monkeypatch.setattr(verify_module, "full_report", poisoned)
    code, out, _ = run(capsys, "verify", "square2")
    assert code == 1
    assert "FATAL" in out


@pytest.mark.parametrize("m_max", ["0", "-2"])
def test_verify_without_dilations_exit_two(capsys, m_max):
    code, out, err = run(capsys, "verify", "square2", "--m-max", m_max)
    assert code == 2
    assert out == ""
    assert err == f"ehrhart: error: m_max must be at least 1, got {m_max}\n"


def test_unexpected_error_exit_three(capsys, monkeypatch):
    def broken(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(counting_module, "count_points", broken)
    code, out, err = run(capsys, "count", "square2", "--m", "2")
    assert code == 3
    assert out == ""
    assert err == "ehrhart: internal error: RuntimeError('boom')\n"


def test_count_of_a_file_imports_only_what_it_runs(tmp_path):
    # A child interpreter, so that the modules this test session already
    # holds do not hide what one count loads.
    path = tmp_path / "cube.json"
    path.write_text(dumps_polytope(catalog()["cube3"]))
    src = str(Path(ehrhart.__file__).resolve().parent.parent)
    env = {**os.environ, "PYTHONPATH": src}
    proc = subprocess.run(
        [sys.executable, "-X", "importtime", "-m", "ehrhart", "count", str(path),
         "--m", "2"], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"{path}: |2P| = 125 lattice points, interior 27\n"
    loaded = {line.rsplit("|", 1)[1].strip() for line in proc.stderr.splitlines()
              if line.startswith("import time:") and "|" in line}
    assert "ehrhart.counting" in loaded and "ehrhart.serialization" in loaded
    for name in ("dataclasses", "inspect", "ehrhart.generators",
                 "ehrhart.quasipoly", "ehrhart.verify"):
        assert name not in loaded, name


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
    (["--kind", "rational", "--denominator-bound", "0"], "denominator_bound"),
    (["--bound", "-1"], "coordinate_bound"),
    (["--bound", "0"], "coordinate_bound"),
])
def test_gen_rejects_a_bound_below_one(capsys, flags, field):
    code, out, err = run(capsys, "gen", "--dim", "2", *flags)
    assert (code, out) == (2, "")
    assert field in err
