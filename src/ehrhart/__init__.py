"""Exact Ehrhart theory for rational convex polytopes.

Compute Ehrhart quasi-polynomials and delta-vectors in exact rational
arithmetic, take polar duals, enumerate lattice points of dilations, and
verify the classical identities tying them together: Ehrhart-Macdonald
reciprocity, the interior-shift identity for polytopes with lattice duals,
and palindromicity of the delta-vector in that case.
"""

from .counting import (
    count_points,
    interior_shift_check,
    lattice_points,
)
from .errors import (
    AmbientDimensionCap,
    BudgetExceeded,
    DimensionDeficient,
    DimensionMismatch,
    DualNotLattice,
    EhrhartError,
    EmptyInput,
    GenerationExhausted,
    InternalInconsistency,
    OriginNotInterior,
    ParseError,
    ZeroDilation,
)
from .generators import (
    GeneratorConfig,
    SplitMix64,
    catalog,
    gen_dual_of_lattice,
    gen_lattice_with_interior_origin,
    gen_rational_control,
    instances,
)
from .geometry import (
    ExactRational,
    HalfSpace,
    Polytope,
    RationalPoint,
    contains,
    denominator,
    dilate,
    dual,
    from_vertices,
    has_lattice_dual,
    is_lattice,
    origin_interior,
    point,
)
from .quasipoly import (
    DeltaVector,
    EhrhartQP,
    ResidueDeltaTable,
    binomial,
    delta_vector,
    delta_vector_series,
    evaluate_qp,
    fit_qp,
    negative_binomial_reflect,
    residue_monomial_coefficients,
)
from .serialization import (
    dumps_polytope,
    load_polytope,
    loads_polytope,
    polytope_from_json_dict,
    polytope_to_json_dict,
)
from .verify import (
    CheckResult,
    VerificationReport,
    check_characterization,
    check_equivalence,
    check_palindrome,
    check_reciprocity,
    check_theorem,
    find_interior_shift_violation,
    full_report,
    render_text,
    report_to_json_dict,
)

__all__ = [name for name in dir() if not name.startswith("_")]
__version__ = "0.1.0"
