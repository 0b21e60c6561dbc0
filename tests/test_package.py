import copy
import inspect
import os
import pickle
from fractions import Fraction

import pytest

import ehrhart
from ehrhart import catalog


def test_every_public_name_resolves_and_is_listed():
    listed = dir(ehrhart)
    for name in ehrhart.__all__:
        assert getattr(ehrhart, name) is not None, name
        assert name in listed, name
    assert ehrhart.count_points is ehrhart.counting.count_points


def test_public_names_are_pinned():
    # Any change to the exports shows up as a diff of this list.
    assert ehrhart.__all__ == [
        "AmbientDimensionCap", "BudgetExceeded", "CheckResult",
        "DimensionDeficient", "DimensionMismatch", "EhrhartError", "EmptyInput",
        "GenerationExhausted", "GeneratorConfig", "OriginNotInterior",
        "ParseError", "Polytope", "ResidueDeltaTable", "SplitMix64", "VerificationReport",
        "binomial", "catalog", "check_characterization", "check_equivalence",
        "check_palindrome", "check_reciprocity", "check_theorem", "count_points",
        "counting", "delta_vector", "delta_vector_series", "denominator", "dual",
        "dumps_polytope", "errors", "evaluate_qp",
        "find_interior_shift_violation", "fit_qp", "from_vertices", "full_report",
        "generators", "geometry", "has_lattice_dual", "instances",
        "interior_shift_mismatch", "is_lattice", "load_polytope",
        "loads_polytope", "origin_interior", "point",
        "polytope_from_json_dict", "polytope_to_json_dict", "quasipoly", "render_text",
        "report_to_json_dict", "serialization", "verify",
    ]


def test_public_signatures_are_pinned():
    # The parameter names of every exported function and class constructor,
    # and after "|" the other public attributes of each exported class (an
    # error class takes any arguments): a setting, field or accessor added
    # or removed shows up as a diff of this table.
    def shape(obj):
        if inspect.isfunction(obj):
            return " ".join(inspect.signature(obj).parameters)
        params = [] if issubclass(obj, Exception) else [*inspect.signature(obj).parameters]
        members = {m for k in obj.__mro__ if k.__module__.startswith("ehrhart")
                   for m in vars(k) if not m.startswith("_")}
        return " ".join([*params, "|", *sorted(members - {*params})])

    signatures = {name: shape(getattr(ehrhart, name)) for name in ehrhart.__all__
                  if not inspect.ismodule(getattr(ehrhart, name))}
    errors = ("AmbientDimensionCap BudgetExceeded DimensionDeficient DimensionMismatch "
              "EhrhartError EmptyInput GenerationExhausted OriginNotInterior ParseError").split()
    assert signatures == {
        **dict.fromkeys(errors, "|"),
        "CheckResult": "name passed witness fatal |",
        "GeneratorConfig": "seed dim coordinate_bound |",
        "Polytope": "ambient_dim scale rows facet_rows | facets vertices",
        "ResidueDeltaTable": "n k delta |",
        "SplitMix64": "seed | integer next_u64",
        "VerificationReport":
            "polytope_id dual_is_lattice delta residue_table checks | fatal",
        "binomial": "x n",
        "catalog": "",
        "check_characterization": "P",
        "check_equivalence": "t d",
        "check_palindrome": "d",
        "check_reciprocity": "P m_max qp",
        "check_theorem": "t",
        "count_points": "P m strict budget",
        "delta_vector": "qp",
        "delta_vector_series": "P",
        "denominator": "P",
        "dual": "P",
        "dumps_polytope": "P",
        "evaluate_qp": "qp m",
        "find_interior_shift_violation": "P",
        "fit_qp": "P",
        "from_vertices": "points",
        "full_report": "P polytope_id m_max budget",
        "has_lattice_dual": "P",
        "instances": "cfg count kind",
        "interior_shift_mismatch": "P m budget",
        "is_lattice": "P",
        "load_polytope": "path",
        "loads_polytope": "text",
        "origin_interior": "P",
        "point": "coords",
        "polytope_from_json_dict": "obj",
        "polytope_to_json_dict": "P",
        "render_text": "report",
        "report_to_json_dict": "report",
    }


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ehrhart.no_such_name


def test_polytope_is_immutable_and_compared_by_its_vertices():
    P = catalog()["square2"]
    same = type(P)(P.ambient_dim, P.scale, P.rows, ())
    assert P == same and hash(P) == hash(same) and same.vertices == P.vertices
    assert P != catalog()["diamond2"] and P != (P.ambient_dim, P.vertices)
    assert pickle.loads(pickle.dumps(P)).facets == P.facets
    for name in ("vertices", "facets", "other"):
        with pytest.raises(AttributeError):
            setattr(P, name, ())
    with pytest.raises(AttributeError):
        del P.vertices
    with pytest.raises(ValueError):
        type(P)(0, P.scale, P.rows, P.facet_rows)


def test_polytope_copies_keep_fields_and_views():
    # The fields and cached views live in __dict__, which pickle and copy
    # fill without calling the refusing __setattr__.
    for name, P in catalog().items():
        P.vertices, P.facets  # cache both views before copying
        for Q in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
            assert Q is not P and Q == P and hash(Q) == hash(P), name
            assert vars(Q) == vars(P), name


@pytest.mark.parametrize("build, error", [
    (lambda: ehrhart.Polytope(2, 1, (), ()), ValueError),
    (lambda: ehrhart.Polytope(2, 1, ((0, 0), (1,)), ()), ehrhart.DimensionMismatch),
    (lambda: ehrhart.ResidueDeltaTable(1, 1, ((1,),)), ValueError),
    (lambda: ehrhart.ResidueDeltaTable(1, 2, ((1, 2), (1,))), ValueError),
    (lambda: ehrhart.ResidueDeltaTable(0, 0, ((),)), ValueError),
    (lambda: ehrhart.ResidueDeltaTable(-1, 1, ()), ValueError),
    (lambda: ehrhart.interior_shift_mismatch(catalog()["square2"], 0), ValueError),
    (lambda: ehrhart.SplitMix64(0).integer(2, 1), ValueError),
    (lambda: ehrhart.from_vertices([[]]), ehrhart.EmptyInput),
    (lambda: ehrhart.from_vertices([(-0.1,), (1,)]), TypeError),
    (lambda: ehrhart.ResidueDeltaTable(1, 2, ((1, 2), (2, 1)))._replace(k=0), ValueError),
    (lambda: ehrhart.GeneratorConfig(1, 2)._replace(dim=9), ValueError),
    # A dilation is an integer: the counts refuse a float or a Fraction.
    (lambda: ehrhart.count_points(catalog()["halfdiamond2"], 2.5), TypeError),
    (lambda: ehrhart.count_points(catalog()["seg_mhalf_third"], 1.5), TypeError),
    (lambda: ehrhart.counting.count_vector(catalog()["halfdiamond2"], [Fraction(2)]),
     TypeError),
    (lambda: ehrhart.interior_shift_mismatch(catalog()["halfdiamond2"], 2.0), TypeError),
], ids=["polytope_without_rows", "polytope_short_row", "table_missing_row",
        "table_short_row", "table_zero_period", "table_negative_dimension",
        "shift_at_zero", "empty_integer_range", "point_without_coordinates",
        "float_coordinate", "table_replaced_zero_period", "config_replaced_dimension",
        "float_dilation_2d", "float_dilation_1d", "fraction_dilation", "float_shift"])
def test_input_guards(build, error):
    with pytest.raises(error):
        build()


def _records():
    table = ehrhart.ResidueDeltaTable(1, 2, ((1, 2), (2, 1)))
    check = ehrhart.CheckResult("palindrome", True)
    return [
        (table, "ResidueDeltaTable(n=1, k=2, delta=((1, 2), (2, 1)))"),
        (ehrhart.GeneratorConfig(1, 2), "GeneratorConfig(seed=1, dim=2, coordinate_bound=2)"),
        (check, "CheckResult(name='palindrome', passed=True, witness=None, fatal=False)"),
        (ehrhart.VerificationReport("p", True, (1, 2, 2, 1), table, (check,)),
         "VerificationReport(polytope_id='p', dual_is_lattice=True, delta=(1, 2, 2, 1), "
         "residue_table=ResidueDeltaTable(n=1, k=2, delta=((1, 2), (2, 1))), "
         "checks=(CheckResult(name='palindrome', passed=True, witness=None, fatal=False),))"),
    ]


@pytest.mark.parametrize("record, text", _records(),
                         ids=["ResidueDeltaTable", "GeneratorConfig", "CheckResult",
                              "VerificationReport"])
def test_records_are_immutable_named_tuples(record, text):
    assert repr(record) == text
    fields = tuple(record)
    same = type(record)(*fields)
    assert same == record and hash(same) == hash(record) and same == fields
    assert pickle.loads(pickle.dumps(record)) == record
    for name in type(record)._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.other = 0


def test_a_report_loads_neither_dataclasses_nor_inspect():
    # A report in a fresh interpreter, built as the report-mixed bench
    # client builds one: the records need neither module.
    import subprocess
    import sys
    from pathlib import Path

    doc = ehrhart.polytope_to_json_dict(catalog()["halfdiamond2"])
    code = ("import sys\n"
            "from ehrhart import full_report, polytope_from_json_dict\n"
            f"report = full_report(polytope_from_json_dict({doc!r}))\n"
            "print(report.fatal, sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    src = str(Path(ehrhart.__file__).resolve().parent.parent)
    proc = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": src},
                          capture_output=True, text=True, timeout=60)
    assert (proc.returncode, proc.stdout) == (0, "False []\n"), proc.stderr


def test_polytope_repr_names_its_vertices():
    text = repr(catalog()["halfdiamond2"])
    assert text.startswith("Polytope(ambient_dim=2, vertices=((Fraction(-1, 2), Fraction(0, 1)),")


def test_only_the_charge_and_the_length_rule_refuse_a_count_request():
    # A request is charged once, before its first count: no count, walk or
    # witness builds a BudgetExceeded of its own.
    import ast
    from pathlib import Path

    def builders(path):
        names = []
        for function in ast.walk(ast.parse(path.read_text())):
            if isinstance(function, ast.FunctionDef):
                for node in ast.walk(function):
                    if isinstance(node, ast.Call):
                        f = node.func
                        if (f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", None)) \
                                == "BudgetExceeded":
                            names.append(f"{path.stem}.{function.name}")
        return names

    src = Path(ehrhart.__file__).parent
    built = [name for path in sorted(src.glob("*.py")) for name in builders(path)]
    assert built == ["counting._charge", "counting.count_vector"]


def test_readme_library_block_runs_as_documented(capsys):
    # The python block under "## Library" in README.md, one statement at a
    # time; each bare expression's value is kept under its source text and
    # checked against what its comment states.
    import ast
    from fractions import Fraction
    from pathlib import Path

    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Library", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    namespace, values = {}, {}
    for node in ast.parse(block).body:
        if isinstance(node, ast.Expr):
            code = compile(ast.Expression(node.value), "README.md", "eval")
            values[ast.get_source_segment(block, node)] = eval(code, namespace)
        else:
            exec(compile(ast.Module([node], []), "README.md", "exec"), namespace)
    assert values["denominator(P)"] == 6
    vertices = values["dual(P).vertices"]
    assert vertices == ((-2,), (3,)) and all(type(c) is Fraction for v in vertices for c in v)
    assert values["has_lattice_dual(P)"] is True
    assert values["count_points(P, 7)"] == 6
    assert values["evaluate_qp(qp, -3)"] == -2
    delta = (1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1)
    assert values["delta_vector(qp)"] == delta
    assert values["delta_vector_series(P)"] == delta
    assert capsys.readouterr().out.endswith("result: ok\n")


def test_no_module_imports_a_name_it_never_reads():
    # Each name that a top-level import of the package or the tests binds
    # is read somewhere in its module.
    import ast
    from pathlib import Path

    here = Path(__file__).parent
    unused = []
    for path in [*sorted(Path(ehrhart.__file__).parent.glob("*.py")), *sorted(here.glob("*.py"))]:
        tree = ast.parse(path.read_text())
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        for node in tree.body:
            if isinstance(node, (ast.Import, ast.ImportFrom)) \
                    and getattr(node, "module", None) != "__future__":
                unused += [f"{path.name}: {name}" for name in
                           (alias.asname or alias.name.split(".")[0] for alias in node.names)
                           if name not in read]
    assert unused == []


def test_no_private_helper_is_left_unread():
    # Each top-level private function or class of the package is read by
    # some other top-level statement of the package, not only by itself.
    import ast
    from pathlib import Path

    defined, read = [], set()
    for path in sorted(Path(ehrhart.__file__).parent.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            reads = {n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(node)
                     if isinstance(n, (ast.Name, ast.Attribute)) and isinstance(n.ctx, ast.Load)}
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)) \
                    and node.name.startswith("_") and not node.name.startswith("__"):
                defined.append(f"{path.stem}.{node.name}")
                reads.discard(node.name)
            read |= reads
    assert [name for name in defined if name.split(".")[1] not in read] == []


def test_each_mutant_names_one_text_of_src_and_tests_that_exist():
    # tests/mutants.py replaces the old text of each of a mutant's edits
    # where it occurs exactly once in its module, so an edit of src that
    # rewrites a mutated line must rewrite the table's entry too; each named
    # test must exist.
    from pathlib import Path

    from mutants import MUTANTS

    root = Path(__file__).parent.parent
    for mutant in MUTANTS:
        text = (root / "src" / mutant.module).read_text()
        for old, _ in mutant.edits:
            assert text.count(old) == 1, (mutant.name, old)
        for test in mutant.tests:
            path, _, name = test.partition("::")
            assert f"\ndef {name.split('[')[0]}(" in (root / path).read_text(), test


def test_no_module_reaches_into_the_privates_of_counting():
    # Outside counting, no module of the package names a private of it, as
    # an attribute of the module or as an imported name: the interior
    # shift's search and witness, like every count, go through public
    # entries.  _strips, counting's own sub-module, is exempt.
    import ast
    from pathlib import Path

    reached = []
    for path in sorted(Path(ehrhart.__file__).parent.glob("*.py")):
        if path.stem in ("counting", "_strips"):
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) \
                    and node.value.id == "counting" and node.attr.startswith("_"):
                reached.append(f"{path.stem}: counting.{node.attr}")
            elif isinstance(node, ast.ImportFrom) and node.module == "counting":
                reached += [f"{path.stem}: {alias.name}" for alias in node.names
                            if alias.name.startswith("_")]
    assert reached == []


def test_no_module_writes_a_polytope_s_dict_but_polytope():
    # Only Polytope stores into its own __dict__, in __init__ and through
    # its cached views: no other code of the package stores an item of
    # vars(...) or of a __dict__, or updates either, so each view has one
    # producer.
    import ast
    from pathlib import Path

    def is_dict(node):
        return (isinstance(node, ast.Attribute) and node.attr == "__dict__"
                or isinstance(node, ast.Call) and getattr(node.func, "id", None) == "vars")

    writes = []
    for path in sorted(Path(ehrhart.__file__).parent.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            if isinstance(top, ast.ClassDef) and top.name == "Polytope":
                continue
            for node in ast.walk(top):
                stored = isinstance(getattr(node, "ctx", None), (ast.Store, ast.Del))
                if (stored and isinstance(node, ast.Subscript) and is_dict(node.value)
                        or stored and isinstance(node, ast.Attribute) and node.attr == "__dict__"
                        or isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("update", "setdefault")
                        and is_dict(node.func.value)):
                    writes.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert writes == []
