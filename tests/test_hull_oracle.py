from fractions import Fraction as F

from hypothesis import given, strategies as st

from ehrhart.geometry import _normal
from hull_oracle import affine_rank, det, hyperplane_through, in_convex_hull, rank


def pt(*coords):
    return tuple(F(c) for c in coords)


def test_rank_basics():
    assert rank([]) == 0
    assert rank([[F(0), F(0)]]) == 0
    assert rank([[F(1), F(0)], [F(0), F(1)]]) == 2
    assert rank([[F(1), F(2)], [F(2), F(4)]]) == 1
    assert rank([[F(1, 3), F(1)], [F(1), F(3)], [F(2), F(7)]]) == 2
    assert rank([[2, 4, 6], [1, 2, 3], [0, 0, 5]]) == 2
    assert rank([[3, 1, 0], [0, 2, 7], [5, 0, 1]]) == 3


def test_det_basics():
    assert det([]) == 1
    assert det([[-4]]) == -4
    assert det([[1, 2], [3, 4]]) == -2
    assert det([[2, 0, 1], [1, 3, 2], [1, 1, 2]]) == 6
    assert det([[0, 1, 2, 0], [3, 0, 0, 1], [1, 1, 0, 2], [0, 2, 1, 1]]) == -9
    assert det([[1, 2, 3], [4, 5, 6], [7, 8, 9]]) == 0


@given(st.sampled_from([3, 4]).flatmap(lambda n: st.lists(
    st.lists(st.integers(min_value=-9, max_value=9), min_size=n, max_size=n),
    min_size=n - 1, max_size=n - 1)))
def test_normal_is_the_signed_maximal_minors(rows):
    # Beneath-beyond's start simplex reads its facet normals off _normal:
    # entry j is (-1)^j times the minor without column j, so <normal, x> is
    # det(rows + [x]) up to one sign, and the normal is orthogonal to each row.
    n = len(rows[0])
    normal = _normal(rows)
    assert normal == [(-1) ** j * det([row[:j] + row[j + 1:] for row in rows])
                      for j in range(n)]
    assert all(sum(a * b for a, b in zip(normal, row)) == 0 for row in rows)


def test_affine_rank():
    assert affine_rank([pt(0, 0)]) == 0
    assert affine_rank([pt(0, 0), pt(1, 0), pt(2, 0)]) == 1
    assert affine_rank([pt(0, 0), pt(1, 0), pt(0, 1)]) == 2


# The rest tests the helpers of the hull oracle in tests/hull_oracle.py.

def test_hyperplane_through_segment_endpoint():
    normal, b = hyperplane_through([pt(F(1, 2))])
    assert normal == (F(1),)
    assert b == F(1, 2)


def test_hyperplane_through_two_points():
    normal, b = hyperplane_through([pt(1, 0), pt(0, 1)])
    # x + y = 1 up to scaling
    assert normal[0] == normal[1] != 0
    assert b == normal[0]


def test_hyperplane_through_degenerate_subset():
    assert hyperplane_through([pt(1, 1), pt(1, 1)]) is None
    assert hyperplane_through([pt(0, 0, 0), pt(1, 0, 0), pt(2, 0, 0)]) is None


def test_hyperplane_contains_all_inputs():
    points = [pt(1, 2, 0), pt(0, 1, 1), pt(-1, 0, 3)]
    normal, b = hyperplane_through(points)
    for p in points:
        assert sum(u * c for u, c in zip(normal, p)) == b


def test_in_convex_hull_triangle():
    triangle = [pt(0, 0), pt(4, 0), pt(0, 4)]
    assert in_convex_hull(pt(1, 1), triangle)
    assert in_convex_hull(pt(2, 0), triangle)  # boundary
    assert in_convex_hull(pt(0, 0), triangle)  # vertex
    assert not in_convex_hull(pt(3, 3), triangle)
    assert not in_convex_hull(pt(-1, 0), triangle)
    assert not in_convex_hull(pt(F(1, 1000), F(-1, 1000)), triangle)


def test_in_convex_hull_single_point():
    assert in_convex_hull(pt(2, 3), [pt(2, 3)])
    assert not in_convex_hull(pt(2, 2), [pt(2, 3)])


coords = st.fractions(min_value=-3, max_value=3, max_denominator=4)


@given(
    points=st.lists(st.tuples(coords, coords), min_size=1, max_size=6),
    weights=st.lists(st.integers(min_value=0, max_value=5), min_size=1, max_size=6),
)
def test_convex_combinations_are_in_hull(points, weights):
    weights = weights[: len(points)] + [0] * (len(points) - len(weights))
    total = sum(weights)
    if total == 0:
        weights[0], total = 1, 1
    target = tuple(
        sum(F(w, total) * p[i] for w, p in zip(weights, points)) for i in range(2)
    )
    assert in_convex_hull(target, points)


@given(points=st.lists(st.tuples(coords, coords), min_size=1, max_size=6))
def test_point_beyond_bounding_box_is_outside(points):
    beyond = tuple(max(p[i] for p in points) + 1 for i in range(2))
    assert not in_convex_hull(beyond, points)
