from fractions import Fraction as F
from itertools import combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from ehrhart import (
    AmbientDimensionCap,
    DimensionDeficient,
    DimensionMismatch,
    EmptyInput,
    GeneratorConfig,
    HalfSpace,
    OriginNotInterior,
    SplitMix64,
    catalog,
    contains,
    denominator,
    dual,
    from_vertices,
    gen_lattice_with_interior_origin,
    gen_rational_control,
    has_lattice_dual,
    instances,
    is_lattice,
    origin_interior,
)
from ehrhart.geometry import vertex_ranges
from conftest import THEOREM_POOL_SPEC, dilate
from hull_oracle import in_convex_hull, oracle_hull


def segment(a, b):
    return from_vertices([(a,), (b,)])


def facet_set(P):
    return {(h.normal, h.bound) for h in P.facets}


# ---------------------------------------------------------------- vertices

def test_interior_point_is_dropped():
    P = from_vertices([(-1, -1), (1, -1), (1, 1), (-1, 1), (0, 0)])
    assert len(P.vertices) == 4
    assert (F(0), F(0)) not in P.vertices


def test_edge_midpoint_is_dropped():
    P = from_vertices([(-1,), (F(1, 2),), (2,)])
    assert P.vertices == ((F(-1),), (F(2),))


def test_duplicate_points_are_merged():
    P = from_vertices([(-1, -1), (-1, -1), (1, -1), (1, 1), (-1, 1)])
    assert len(P.vertices) == 4


def test_segment_facets():
    P = segment(-1, 2)
    assert facet_set(P) == {((F(-1),), F(1)), ((F(1),), F(2))}


def test_collinear_points_rejected():
    with pytest.raises(DimensionDeficient):
        from_vertices([(0, 0), (1, 0), (2, 0)])


def test_single_point_rejected():
    with pytest.raises(DimensionDeficient):
        from_vertices([(3,)])


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        from_vertices([])


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        from_vertices([(0, 0), (1,)])


def test_dimension_cap_with_override():
    simplex5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    simplex5.append((-1, -1, -1, -1, -1))
    with pytest.raises(AmbientDimensionCap):
        from_vertices(simplex5)
    P = from_vertices(simplex5, max_dim=5)
    assert P.ambient_dim == 5
    assert len(P.facets) == 6


def test_string_coordinates_accepted():
    P = from_vertices([("-1/2",), ("1/3",)])
    assert P.vertices == ((F(-1, 2),), (F(1, 3),))


# ------------------------------------------------------------------ facets

def test_square_facets():
    sq = catalog()["square2"]
    assert facet_set(sq) == {
        ((F(1), F(0)), F(1)),
        ((F(-1), F(0)), F(1)),
        ((F(0), F(1)), F(1)),
        ((F(0), F(-1)), F(1)),
    }


def test_diamond_facets():
    diamond = catalog()["diamond2"]
    assert facet_set(diamond) == {
        ((F(sx), F(sy)), F(1)) for sx in (-1, 1) for sy in (-1, 1)
    }


def brute_force_facets(P):
    """Oracle: every supporting hyperplane spanned by a vertex pair (dim 2)."""
    supporting = set()
    for a, b in combinations(P.vertices, 2):
        dx, dy = b[0] - a[0], b[1] - a[1]
        normal = (dy, -dx)
        bound = normal[0] * a[0] + normal[1] * a[1]
        values = [normal[0] * v[0] + normal[1] * v[1] for v in P.vertices]
        if all(v <= bound for v in values):
            supporting.add(HalfSpace(normal, bound).primitive())
        elif all(v >= bound for v in values):
            supporting.add(
                HalfSpace((-normal[0], -normal[1]), -bound).primitive())
    return {(h.normal, h.bound) for h in supporting}


def test_halfdiamond_facets_against_brute_force():
    hd = catalog()["halfdiamond2"]
    expected = {
        ((F(sx), F(sy)), F(1, 2)) for sx in (-1, 1) for sy in (-1, 1)
    }
    assert facet_set(hd) == expected
    assert brute_force_facets(hd) == expected


def test_facet_enumeration_reproduces_membership(fixtures):
    # Intersecting the facet half-spaces gives back exactly the hull:
    # agreement on every vertex and on exterior probes past each vertex.
    for P in fixtures.values():
        for v in P.vertices:
            assert all(h.holds(v) for h in P.facets)
            outside = tuple(2 * c if c != 0 else F(0) for c in v)
            if outside != v:
                assert not all(h.holds(outside, strict=True) for h in P.facets)


def test_facets_are_primitive_and_supporting(fixtures):
    from math import gcd

    from ehrhart.linalg import affine_rank

    for P in fixtures.values():
        n = P.ambient_dim
        for h in P.facets:
            assert all(c.denominator == 1 for c in h.normal)
            assert gcd(*(int(c) for c in h.normal)) == 1
            active = [v for v in P.vertices if h.evaluate(v) == h.bound]
            # A facet carries n affinely independent vertices.
            assert affine_rank(active) == n - 1


# -------------------------------------------------------------------- dual

def test_dual_square_is_diamond():
    assert dual(catalog()["square2"]) == catalog()["diamond2"]


def test_dual_cube_is_octahedron():
    assert dual(catalog()["cube3"]) == catalog()["octa3"]


def test_dual_segment_direct_solve():
    # {u : -u/2 <= 1 and u/3 <= 1} = [-2, 3]
    assert dual(segment(F(-1, 2), F(1, 3))).vertices == ((F(-2),), (F(3),))
    # {u : -u <= 1 and 2u <= 1} = [-1, 1/2]
    assert dual(segment(-1, 2)).vertices == ((F(-1),), (F(1, 2),))


def test_dual_requires_interior_origin():
    for P in (segment(1, 2), segment(0, 1),  # origin outside, on the boundary
              from_vertices([(0, 0), (1, 0), (0, 1)])):
        with pytest.raises(OriginNotInterior):
            dual(P)
        with pytest.raises(OriginNotInterior):
            has_lattice_dual(P)


def test_dual_involution(fixtures):
    for P in fixtures.values():
        back = dual(dual(P))
        assert (back.vertices, back.facets) == (P.vertices, P.facets)


def test_dual_involution_generated():
    for dim in (1, 2, 3):
        for i in range(6):
            cfg = GeneratorConfig(seed=300 + i, dim=dim,
                                  coordinate_bound=2 if dim < 3 else 1)
            P = gen_rational_control(cfg)
            back = dual(dual(P))
            assert (back.vertices, back.facets) == (P.vertices, P.facets)


def hull_dual(P):
    """Oracle: the polar dual as the full hull of the facet points a / b."""
    return oracle_hull([tuple(u / h.bound for u in h.normal) for h in P.facets],
                       max_dim=P.ambient_dim)


def assert_dual_matches_hull(polytopes):
    for P in polytopes:
        D, expected = dual(P), hull_dual(P)
        # Polytope equality ignores facets, so compare them explicitly.
        assert D.vertices == expected.vertices, P
        assert D.facets == expected.facets, P


def test_dual_matches_hull_oracle(fixtures, control_pool):
    # The theorem pool is dual(L) for these lattice polytopes L, so its
    # duals are L again; run the oracle on L itself instead.
    lattice = [gen_lattice_with_interior_origin(
        GeneratorConfig(seed=1000 * dim + i, dim=dim, coordinate_bound=bound))
        for dim, count, bound in THEOREM_POOL_SPEC for i in range(count)]
    assert_dual_matches_hull([*fixtures.values(), *lattice, *control_pool])


def test_dual_matches_hull_oracle_4d():
    # The oracle's C(F, 4) facet scan takes up to a second on one of these
    # 4D lattice polytopes (12 to 18 facets), so only four are checked.
    cfg = GeneratorConfig(seed=41, dim=4, coordinate_bound=1)
    assert_dual_matches_hull(instances(cfg, 4, "lattice"))


def test_extreme_points_match_qhull():
    # Cross-check the exact vertex test against an entirely independent
    # floating-point hull; reliable on small integer inputs.
    spatial = pytest.importorskip("scipy.spatial")

    rng = SplitMix64(2024)
    for dim in (2, 3, 4):
        trials = 0
        while trials < 10:
            pts = [tuple(rng.integer(-3, 3) for _ in range(dim))
                   for _ in range(dim + 3 + rng.integer(0, 4))]
            try:
                P = from_vertices(pts)
            except DimensionDeficient:
                continue
            trials += 1
            hull = spatial.ConvexHull([[float(c) for c in p] for p in pts])
            expected = {tuple(F(c) for c in pts[i]) for i in hull.vertices}
            assert set(P.vertices) == expected


# ------------------------------------------ from_vertices against the oracle

def hull_outcome(build, points, **kwargs):
    """(vertices, facets) of the hull, or the type of the error it raised."""
    try:
        P = build(points, **kwargs)
    except Exception as exc:  # the oracle must raise the same type
        return type(exc)
    return P.vertices, P.facets


def assert_matches_oracle(points, **kwargs):
    expected = hull_outcome(oracle_hull, points, **kwargs)
    assert hull_outcome(from_vertices, points, **kwargs) == expected, points


def random_cloud(rng, dim):
    """Rational points with an edge midpoint, an interior point and a
    duplicate; about one cloud in six is flat in its last axis."""
    pts = [tuple(F(rng.integer(-3, 3), rng.integer(1, 3)) for _ in range(dim))
           for _ in range(rng.integer(1, dim + 6))]
    pts.append(tuple((x + y) / 2 for x, y in zip(pts[0], pts[-1])))
    pts.append(tuple(sum(c) / len(pts) for c in zip(*pts)))
    pts.append(pts[rng.integer(0, len(pts) - 1)])
    if rng.integer(0, 5) == 0:
        pts = [p[:-1] + (F(1, 2),) for p in pts]
    return pts


def test_from_vertices_matches_oracle_on_random_clouds():
    rng = SplitMix64(4040)
    for dim in (1, 2, 3, 4):
        for _ in range(40):
            assert_matches_oracle(random_cloud(rng, dim))


def test_from_vertices_matches_oracle_on_dense_cloud():
    rng = SplitMix64(4041)
    assert_matches_oracle([tuple(rng.integer(-6, 6) for _ in range(3))
                           for _ in range(40)])


def test_from_vertices_matches_oracle_on_hand_cases():
    # The per-axis extreme points are only (0, 0) and (2, 2), or the 3D
    # analogue, so the pre-filter has no hull to filter by.
    for points in ([(0, 0), (2, 2), (1, 0)],
                   [(0, 0, 0), (2, 2, 2), (1, 0, 0), (0, 1, 0)]):
        assert_matches_oracle(points)
        assert len(from_vertices(points).vertices) == len(points)
    assert_matches_oracle([(3,)])
    simplex5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert_matches_oracle(simplex5 + [(-1,) * 5], max_dim=5)


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda dim: st.lists(st.tuples(*[small] * dim), min_size=1, max_size=8)))
def test_from_vertices_matches_oracle_hypothesis(points):
    assert_matches_oracle(points)


def test_dual_lattice_iff_unit_bound_normals_integral(fixtures, theorem_pool,
                                                     control_pool):
    # The predicate reads the dual's latticeness off P's facets; building
    # the dual is the oracle.
    lattice_duals = set()
    for P in [*fixtures.values(), *theorem_pool, *control_pool]:
        integral = all((c / h.bound).denominator == 1
                       for h in P.facets for c in h.normal)
        assert has_lattice_dual(P) == integral == is_lattice(dual(P)), P
        lattice_duals.add(integral)
    assert lattice_duals == {False, True}


# -------------------------------------------------------------- denominator

def test_denominator_examples():
    assert denominator(catalog()["square2"]) == 1
    assert denominator(catalog()["halfdiamond2"]) == 2
    assert denominator(segment(F(-1, 2), F(1, 3))) == 6


def test_denominator_is_minimal():
    P = segment(F(-1, 2), F(1, 3))
    assert is_lattice(dilate(P, 6))
    assert dilate(P, 6).vertices == ((F(-3),), (F(2),))
    for m in range(1, 6):
        assert not is_lattice(dilate(P, m))


def test_denominator_one_iff_lattice(fixtures):
    for P in fixtures.values():
        assert (denominator(P) == 1) == is_lattice(P)


def test_dilate_examples():
    hd = catalog()["halfdiamond2"]
    assert dilate(hd, 2) == catalog()["diamond2"]
    assert dilate(segment(-1, 2), 3).vertices == ((F(-3),), (F(6),))
    sq = catalog()["square2"]
    assert dilate(sq, 1) == sq


def test_dilate_by_denominator_is_integral(fixtures):
    for P in fixtures.values():
        assert is_lattice(dilate(P, denominator(P)))


# ---------------------------------------------------------------- contains

def test_contains_square_boundary_and_center():
    sq = catalog()["square2"]
    assert contains(sq, (1, 1))
    assert not contains(sq, (1, 1), strict=True)
    assert contains(sq, (0, 0), strict=True)


def test_contains_exterior():
    assert not contains(segment(-1, 2), (F(5, 2),))


def test_contains_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        contains(catalog()["square2"], (0,))


def test_is_lattice_examples():
    assert is_lattice(catalog()["square2"])
    assert not is_lattice(catalog()["halfdiamond2"])
    assert not is_lattice(dual(segment(F(-2, 3), 1)))  # [-3/2, 1]


def test_origin_interior(fixtures):
    assert all(origin_interior(P) for P in fixtures.values())
    assert not origin_interior(segment(1, 2))


# ------------------------------------------------ H/V representation agreement

def test_hull_membership_matches_facet_membership(fixtures):
    # Exact LP feasibility against the vertices must agree with the facet
    # inequalities on every lattice point of the bounding box.
    for name in ("square2", "diamond2", "halfdiamond2", "seg_m23_1", "octa3"):
        P = fixtures[name]
        import math
        box = [range(math.floor(lo) - 1, math.ceil(hi) + 2)
               for lo, hi in vertex_ranges(P)]
        for pt in product(*box):
            exact = tuple(F(c) for c in pt)
            assert in_convex_hull(exact, P.vertices) == contains(P, exact)
