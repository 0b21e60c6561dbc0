import pickle

import pytest

import ehrhart
from ehrhart import HalfSpace, catalog


def test_every_public_name_resolves_and_is_listed():
    listed = dir(ehrhart)
    for name in ehrhart.__all__:
        assert getattr(ehrhart, name) is not None, name
        assert name in listed, name
    assert ehrhart.count_points is ehrhart.counting.count_points
    assert ehrhart.linalg.__name__ == "ehrhart.linalg"


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        ehrhart.no_such_name


def test_half_space_is_an_ordered_tuple_with_a_nonzero_normal():
    h = HalfSpace((1, 0), 2)
    assert (h.normal, h.bound) == ((1, 0), 2)
    assert h == HalfSpace((1, 0), 2) and hash(h) == hash(HalfSpace((1, 0), 2))
    assert sorted([HalfSpace((1, 0), 3), HalfSpace((0, 1), 5), h]) == [
        HalfSpace((0, 1), 5), h, HalfSpace((1, 0), 3)]
    assert repr(h) == "HalfSpace(normal=(1, 0), bound=2)"
    with pytest.raises(ValueError, match="nonzero"):
        HalfSpace((0, 0), 1)
    with pytest.raises(AttributeError):
        h.bound = 3


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
