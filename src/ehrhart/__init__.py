"""Exact Ehrhart theory for rational convex polytopes.

Compute Ehrhart quasi-polynomials and delta-vectors in exact rational
arithmetic, take polar duals, enumerate lattice points of dilations, and
verify the classical identities tying them together: Ehrhart-Macdonald
reciprocity, the interior-shift identity for polytopes with lattice duals,
and palindromicity of the delta-vector in that case.

Every public name is imported from its module on first use (PEP 562), so
``import ehrhart`` loads no submodule and a command-line run loads only
the modules its command needs.
"""

from importlib import import_module

# Public name -> the submodule that defines it; each submodule is also a
# public name, mapped to itself.
_EXPORTS = {name: module for module, names in {
    "counting": "count_points find_interior_shift_violation interior_shift_mismatch",
    "errors": "AmbientDimensionCap BudgetExceeded DimensionDeficient "
              "DimensionMismatch EhrhartError EmptyInput GenerationExhausted "
              "OriginNotInterior ParseError",
    "generators": "GeneratorConfig SplitMix64 catalog instances",
    "geometry": "Polytope denominator dual from_vertices has_lattice_dual "
                "is_lattice origin_interior point",
    "quasipoly": "ResidueDeltaTable binomial delta_vector "
                 "delta_vector_series evaluate_qp fit_qp",
    "serialization": "dumps_polytope load_polytope loads_polytope "
                     "polytope_from_json_dict polytope_to_json_dict",
    "verify": "CheckResult VerificationReport check_characterization "
              "check_equivalence check_palindrome check_reciprocity check_theorem "
              "full_report render_text report_to_json_dict",
}.items() for name in (module, *names.split())}

__all__ = sorted(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str) -> object:
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = import_module(f"{__name__}.{module}")
    if name != module:
        value = getattr(value, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
