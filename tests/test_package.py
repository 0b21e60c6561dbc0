import copy
import inspect
import pickle

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
        "AmbientDimensionCap", "BudgetExceeded", "CheckResult", "DeltaVector",
        "DimensionDeficient", "DimensionMismatch", "EhrhartError", "EhrhartQP",
        "EmptyInput", "GenerationExhausted", "GeneratorConfig",
        "InternalInconsistency", "OriginNotInterior", "ParseError", "Polytope",
        "ResidueDeltaTable", "SplitMix64", "VerificationReport",
        "binomial", "catalog", "check_characterization", "check_equivalence",
        "check_palindrome", "check_reciprocity", "check_theorem", "count_points",
        "counting", "delta_vector", "delta_vector_series", "denominator", "dual",
        "dumps_polytope", "errors", "evaluate_qp",
        "find_interior_shift_violation", "fit_qp", "from_vertices", "full_report",
        "generators", "geometry", "has_lattice_dual", "instances",
        "interior_shift_mismatch", "is_lattice", "load_polytope",
        "loads_polytope", "negative_binomial_reflect", "origin_interior", "point",
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
              "EhrhartError EmptyInput GenerationExhausted InternalInconsistency "
              "OriginNotInterior ParseError").split()
    assert signatures == {
        **dict.fromkeys(errors, "|"),
        "CheckResult": "name passed witness fatal |",
        "DeltaVector": "entries |",
        "EhrhartQP": "n k table |",
        "GeneratorConfig": "seed dim coordinate_bound |",
        "Polytope": "ambient_dim scale rows facet_rows | facets vertices",
        "ResidueDeltaTable": "n k delta | column column_sums entry",
        "SplitMix64": "seed | integer next_u64",
        "VerificationReport":
            "polytope_id n k dual_is_lattice delta residue_table checks | fatal",
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
        "negative_binomial_reflect": "x n",
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
    (lambda: ehrhart.DeltaVector(()), ValueError),
    (lambda: ehrhart.negative_binomial_reflect(0, -1), ValueError),
    (lambda: ehrhart.interior_shift_mismatch(catalog()["square2"], 0), ValueError),
    (lambda: ehrhart.SplitMix64(0).integer(2, 1), ValueError),
    (lambda: ehrhart.from_vertices([[]]), ehrhart.EmptyInput),
], ids=["polytope_without_rows", "polytope_short_row", "table_missing_row",
        "table_short_row", "empty_delta", "reflect_negative_index",
        "shift_at_zero", "empty_integer_range", "point_without_coordinates"])
def test_input_guards(build, error):
    with pytest.raises(error):
        build()


def test_polytope_repr_names_its_vertices():
    text = repr(catalog()["halfdiamond2"])
    assert text.startswith("Polytope(ambient_dim=2, vertices=((Fraction(-1, 2), Fraction(0, 1)),")


def test_only_the_cli_raises_internal_inconsistency():
    # A report fails a row, with its witness, where two routes disagree; only
    # the delta command, which prints no report, turns that into an error.
    import ast
    from pathlib import Path

    def raised(path):
        names = set()
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Raise) and node.exc is not None:
                exc = node.exc.func if isinstance(node.exc, ast.Call) else node.exc
                names.add(exc.attr if isinstance(exc, ast.Attribute) else getattr(exc, "id", None))
        return names

    src = Path(ehrhart.__file__).parent
    raising = {path.name for path in src.glob("*.py") if "InternalInconsistency" in raised(path)}
    assert raising == {"cli.py"}


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
