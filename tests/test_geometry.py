import copy
import hashlib
import json
import pickle
import time
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
    OriginNotInterior,
    Polytope,
    SplitMix64,
    catalog,
    denominator,
    dual,
    from_vertices,
    has_lattice_dual,
    instances,
    is_lattice,
    origin_interior,
    polytope_to_json_dict,
)
from ehrhart.geometry import _beneath_beyond, _hull, dual_denominator, vertex_ranges
from conftest import THEOREM_POOL_SPEC, dilate
from hull_oracle import affine_rank, in_convex_hull, oracle_hull, primitive
from listing_oracle import contains


def segment(a, b):
    return from_vertices([(a,), (b,)])


def facet_set(P):
    return set(P.facets)


def value(normal, x):
    """<normal, x>."""
    return sum(u * c for u, c in zip(normal, x))


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
    with pytest.raises(DimensionDeficient, match="^points span fewer than 2 dimensions$"):
        from_vertices([(0, 0), (1, 0), (2, 0)])


def test_vertices_are_read_off_the_facet_incidences(fixtures, theorem_pool, control_pool):
    # A point is a vertex when no other point lies on every facet through it.
    for P in [*fixtures.values(), *theorem_pool, *control_pool]:
        vs = P.vertices
        # Edge and diagonal midpoints, the centroid and the origin lie on
        # faces of every dimension, or inside, and are no vertices.
        extra = [tuple((a + b) / 2 for a, b in zip(u, v)) for u, v in zip(vs, vs[1:])]
        extra += [tuple(sum(c) / len(vs) for c in zip(*vs)), (0,) * P.ambient_dim]
        assert from_vertices([*extra, *vs]) == P


def test_single_point_rejected():
    with pytest.raises(DimensionDeficient):
        from_vertices([(3,)])


def test_empty_input_rejected():
    with pytest.raises(EmptyInput):
        from_vertices([])


def test_mixed_dimensions_rejected():
    with pytest.raises(DimensionMismatch):
        from_vertices([(0, 0), (1,)])


def test_dimension_cap():
    simplex5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    simplex5.append((-1, -1, -1, -1, -1))
    with pytest.raises(AmbientDimensionCap, match="dimension 5 exceeds cap 4"):
        from_vertices(simplex5)


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
            supporting.add(primitive(normal, bound))
        elif all(v >= bound for v in values):
            supporting.add(primitive((-normal[0], -normal[1]), -bound))
    return supporting


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
            assert all(value(a, v) <= b for a, b in P.facets)
            outside = tuple(2 * c if c != 0 else F(0) for c in v)
            if outside != v:
                assert not all(value(a, outside) < b for a, b in P.facets)


def test_facets_are_primitive_and_supporting(fixtures):
    from math import gcd

    for P in fixtures.values():
        n = P.ambient_dim
        for a, b in P.facets:
            assert all(c.denominator == 1 for c in a)
            assert gcd(*(int(c) for c in a)) == 1
            active = [v for v in P.vertices if value(a, v) == b]
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


# The sha256 of [polytope_to_json_dict(P), polytope_to_json_dict(dual(P))]
# over the polytopes of test_integer_form, as written when a Polytope still
# stored Fraction vertices and facets.
INTEGER_FORM_JSON_SHA256 = "ed463d87dde5f0b8d2f82087772aed7262cb68745a645bcc1f21336b95e22f7a"


def test_integer_form(fixtures, theorem_pool, control_pool):
    # The Fraction views of the integer rows against the hull oracle, the
    # dual built in integers as an involution, identity and pickling, and
    # the JSON of each polytope and its dual as before.
    cfg = GeneratorConfig(seed=41, dim=4, coordinate_bound=1)
    four = [*instances(cfg, 1, "rational"), *instances(cfg, 1, "dual-of-lattice")]
    docs = []
    for P in [*fixtures.values(), *theorem_pool, *control_pool, *four]:
        expected = oracle_hull(P.vertices)
        assert (P.vertices, P.facets) == (expected.vertices, expected.facets), P
        D = dual(P)
        assert dual(D) == P and dual(D).facet_rows == P.facet_rows, P
        for Q in (pickle.loads(pickle.dumps(P)), from_vertices(P.vertices)):
            assert Q is not P and Q == P and hash(Q) == hash(P), P
            assert (Q.scale, Q.rows, Q.facet_rows) == (P.scale, P.rows, P.facet_rows), P
        docs.append([polytope_to_json_dict(P), polytope_to_json_dict(D)])
    text = json.dumps(docs, sort_keys=True)
    assert hashlib.sha256(text.encode()).hexdigest() == INTEGER_FORM_JSON_SHA256


def test_incidence_is_the_vertex_facet_scan(fixtures, theorem_pool, control_pool):
    # Bit k of a vertex's mask is set exactly when the vertex row lies on
    # facet row k, against a plain dot-product scan; the cached view stays
    # out of equality and hashing, and survives pickling and copying.
    four = [instances(GeneratorConfig(seed=43, dim=4, coordinate_bound=1), 1, kind)[0]
            for kind in ("lattice", "dual-of-lattice", "rational")]
    for P in [*fixtures.values(), *theorem_pool, *control_pool, *four]:
        scan = tuple(sum(2 ** k for k, (a, b) in enumerate(P.facet_rows) if value(a, row) == b)
                     for row in P.rows)
        assert P._incidence == scan, P
        fresh = Polytope(P.ambient_dim, P.scale, P.rows, P.facet_rows)
        assert "_incidence" in vars(P) and "_incidence" not in vars(fresh)
        assert fresh == P and hash(fresh) == hash(P), P
        for Q in (pickle.loads(pickle.dumps(P)), copy.copy(P), copy.deepcopy(P)):
            assert vars(Q)["_incidence"] == scan, P


def test_dual_involution_generated():
    for dim in (1, 2, 3):
        for i in range(6):
            cfg = GeneratorConfig(seed=300 + i, dim=dim,
                                  coordinate_bound=2 if dim < 3 else 1)
            P = instances(cfg, 1, "rational")[0]
            back = dual(dual(P))
            assert (back.vertices, back.facets) == (P.vertices, P.facets)


def hull_dual(P):
    """Oracle: the polar dual as the full hull of the facet points a / b."""
    return oracle_hull([tuple(u / b for u in a) for a, b in P.facets])


def assert_dual_matches_hull(polytopes):
    for P in polytopes:
        D, expected = dual(P), hull_dual(P)
        # Polytope equality ignores facets, so compare them explicitly.
        assert D.vertices == expected.vertices, P
        assert D.facets == expected.facets, P


def test_dual_matches_hull_oracle(fixtures, control_pool):
    # The theorem pool is dual(L) for these lattice polytopes L, so its
    # duals are L again; run the oracle on L itself instead.
    lattice = [instances(GeneratorConfig(seed=1000 * dim + i, dim=dim,
                                         coordinate_bound=bound), 1, "lattice")[0]
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

def hull_outcome(build, points):
    """(vertices, facets) of the hull, or the type of the error it raised."""
    try:
        P = build(points)
    except Exception as exc:  # the oracle must raise the same type
        return type(exc)
    return P.vertices, P.facets


def assert_matches_oracle(points):
    expected = hull_outcome(oracle_hull, points)
    assert hull_outcome(from_vertices, points) == expected, points


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


# The per-axis extreme points are only the origin and (2, ..., 2): they do
# not span R^n, so the start simplex needs the other points.
EXTREMES_FLAT = ([(0, 0), (2, 2), (1, 0)],
                 [(0, 0, 0), (2, 2, 2), (1, 0, 0), (0, 1, 0)],
                 [(0, 0, 0, 0), (2, 2, 2, 2), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)])


def test_from_vertices_matches_oracle_on_hand_cases():
    for points in EXTREMES_FLAT:
        assert_matches_oracle(points)
        assert len(from_vertices(points).vertices) == len(points)
    assert_matches_oracle([(3,)])
    simplex5 = [tuple(int(i == j) for j in range(5)) for i in range(5)]
    assert_matches_oracle(simplex5 + [(-1,) * 5])  # both refuse it: over the cap


def assert_planes_match_oracle(points):
    """Beneath-beyond's hull of integer points, inserted in the order given,
    against the oracle's facets and, for each, the indices of the points on
    it."""
    expected = {facet: {i for i, p in enumerate(points) if value(facet[0], p) == facet[1]}
                for facet in oracle_hull(points).facets}
    planes = _beneath_beyond(points, len(points[0]))
    assert {(tuple(map(F, a)), F(b)): on for a, b, on in planes} == expected, points


SIMPLEX3 = [(0, 0, 0), (4, 0, 0), (0, 4, 0), (0, 0, 4)]


@pytest.mark.parametrize("points", [
    # Beyond two facets and on the plane of the facet z = 0 between them:
    # that facet grows by the point across both of its horizon ridges, and
    # (4, 0, 0) drops to a point inside it.
    SIMPLEX3 + [(12, -4, 0)],
    # Inside; inside the facet z = 0; on the edge of z = 0 and x + y + z = 4;
    # on a vertex; then (4, 4, 0), beyond x + y + z = 4 and on z = 0, whose
    # new facets must list the earlier points on them; then an edge point.
    SIMPLEX3 + [(1, 1, 1), (1, 1, 0), (2, 2, 0), (0, 0, 0), (4, 4, 0), (0, 2, 2)],
    # The 4D cube, in an order where a point lands on the plane of a facet
    # that holds part of a cube facet, beyond two of that facet's ridges.
    [(0, 1, 0, 1), (0, 1, 1, 1), (0, 0, 1, 0), (1, 1, 0, 0), (1, 0, 0, 1),
     (0, 0, 0, 1), (0, 1, 0, 0), (1, 0, 1, 1), (1, 1, 0, 1), (0, 0, 1, 1),
     (0, 1, 1, 0), (1, 1, 1, 0), (1, 0, 0, 0), (1, 0, 1, 0), (1, 1, 1, 1),
     (0, 0, 0, 0)],
    # Duplicates, of a point of the start simplex and of a later vertex.
    [(0, 0), (0, 0), (3, 0), (0, 3), (3, 3), (3, 3), (1, 2)],
    # A point dependent on the first two waits past the start simplex, and
    # then lands on an edge.
    [(0, 0, 0), (2, 2, 2), (1, 1, 1), (1, 0, 0), (0, 1, 0)],
    *EXTREMES_FLAT,
    # A segment with a duplicate extreme point and an interior point.
    [(3,), (0,), (3,), (1,)],
    # A square, unsorted, with a point inside every edge, a duplicate
    # vertex and an interior point: each edge lists its three points.
    [(1, 1), (2, 2), (1, 0), (0, 2), (2, 1), (0, 0), (2, 2), (0, 1), (2, 0), (1, 2)],
    # The three least points in sorted order are collinear: the chain must
    # drop (1, 1) and still list it on the edge from (0, 0) to (2, 2).
    [(2, 2), (3, 0), (1, 1), (0, 0)],
], ids=["coplanar-beyond", "inside-boundary-ridge", "cube4", "duplicates",
        "dependent-start", "extremes-flat-2", "extremes-flat-3", "extremes-flat-4",
        "segment-duplicate-interior", "square-edge-points", "collinear-least-three"])
def test_insertion_matches_oracle(points):
    # Beneath-beyond serves n >= 3 and lists the points on each facet; a
    # segment or polygon hull gives vertices and facets only.
    if len(points[0]) >= 3:
        assert_planes_match_oracle(points)
    else:
        assert_matches_oracle(points)


@pytest.mark.parametrize("points", [
    [(2,), (2,)],
    [(0, 0), (1, 1), (3, 3), (-2, -2)],
    [(3, 1), (0, 0), (-3, -1), (3, 1), (6, 2), (0, 0)],
    [(1, 0, 0), (0, 1, 0), (0, 0, 1), (2, -1, 0), (5, 5, -9)],
    [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1), (1, 1, -1, 0)],
    [(0, 0, 0, 0), (1, 2, 3, 4), (2, 4, 6, 8), (1, 0, 0, 0), (3, 2, 3, 4)],
], ids=["1d-point", "2d-line", "2d-line-duplicates", "3d-plane", "4d-hyperplane",
        "4d-plane"])
def test_flat_clouds_are_dimension_deficient(points):
    assert _hull(sorted(set(points)), len(points[0])) is None
    assert hull_outcome(from_vertices, points) is DimensionDeficient
    assert_matches_oracle(points)


@pytest.mark.parametrize("dim, count", [(2, 2000), (3, 240), (4, 60)])
def test_large_cloud_vertices_match_qhull(dim, count):
    # The time bound guards each hull path's scale: a polygon costs a sort
    # and one walk of the chain, beneath-beyond about one pass over the
    # facets so far per point, at most a few hundredths of a second each at
    # these sizes.  So 2 s leaves room for a slow host, not for a hull whose
    # work grows faster, such as a scan of the C(N, n) planes.
    spatial = pytest.importorskip("scipy.spatial")
    rng = SplitMix64(dim * 1000 + count)
    pts = [tuple(rng.integer(-50, 50) for _ in range(dim)) for _ in range(count)]
    start = time.perf_counter()
    P = from_vertices(pts)
    assert time.perf_counter() - start < 2
    hull = spatial.ConvexHull([[float(c) for c in p] for p in pts])
    assert set(P.vertices) == {tuple(map(F, pts[i])) for i in hull.vertices}
    for a, b in P.facets:
        on = [p for p in pts if value(a, p) == b]
        assert all(value(a, p) <= b for p in pts) and affine_rank(on) == dim - 1


def test_polygon_in_convex_position_scales():
    # Every point is a vertex, so a polygon hull that passed over the points
    # once per edge would make 36 million checks here; the chain takes a
    # few hundredths of a second.
    pts = [(x, x * x) for x in range(6000)]
    start = time.perf_counter()
    P = from_vertices(pts)
    assert time.perf_counter() - start < 1
    assert len(P.rows) == len(P.facet_rows) == 6000


# The sha256 of (n, scale, rows, facet_rows) over the catalog and twenty
# draws of each kind per seed 1-3 and dimension, as beneath-beyond built
# them in every dimension.  A change to any hull path that moves one
# canonical form fails here.
HULLS_SHA256 = "9c03ea57d81ca9440a09cc5c9e89aec59db82e6c2e59a4be5623bcbaab09b3a0"


def test_hulls_stay_byte_identical():
    draws = [P for seed in (1, 2, 3) for dim, bound in ((1, 2), (2, 2), (3, 2), (4, 1))
             for kind in ("lattice", "dual-of-lattice", "rational")
             for P in instances(GeneratorConfig(seed, dim, coordinate_bound=bound), 20, kind)]
    digest = hashlib.sha256()
    for P in [*catalog().values(), *draws]:
        digest.update(repr((P.ambient_dim, P.scale, P.rows, P.facet_rows)).encode())
    assert digest.hexdigest() == HULLS_SHA256


small = st.fractions(min_value=-2, max_value=2, max_denominator=3)


@settings(derandomize=True, deadline=None)
@given(st.integers(min_value=1, max_value=3).flatmap(
    lambda dim: st.lists(st.tuples(*[small] * dim), min_size=1, max_size=8)))
def test_from_vertices_matches_oracle_hypothesis(points):
    assert_matches_oracle(points)


def test_dual_lattice_iff_unit_bound_normals_integral(fixtures, theorem_pool,
                                                     control_pool):
    # The predicate and the dual's denominator are read off P's facet
    # bounds; building the dual is the oracle.  The 4D polytopes are those
    # of test_dual_matches_hull_oracle_4d.
    lattice_4d = instances(GeneratorConfig(seed=41, dim=4, coordinate_bound=1), 4,
                           "lattice")
    lattice_duals = set()
    for P in [*fixtures.values(), *theorem_pool, *control_pool, *lattice_4d]:
        D = dual(P)
        integral = all((c / b).denominator == 1 for a, b in P.facets for c in a)
        assert has_lattice_dual(P) == integral == is_lattice(D), P
        assert dual_denominator(P) == denominator(D), P
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
