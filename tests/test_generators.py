import hashlib
import json

import pytest

from ehrhart import (
    GenerationExhausted,
    GeneratorConfig,
    SplitMix64,
    catalog,
    denominator,
    dual,
    generators,
    instances,
    is_lattice,
    polytope_to_json_dict,
)
from hull_oracle import affine_rank
from listing_oracle import contains


def test_splitmix64_is_the_reference_sequence():
    # First outputs for seed 0 of the standard SplitMix64 stream.
    rng = SplitMix64(0)
    assert [rng.next_u64() for _ in range(3)] == [
        0xE220A8397B1DCDAF, 0x6E789E6AA1B965F4, 0x06C45D188009454F]


def test_splitmix64_bounded_draws():
    rng = SplitMix64(42)
    draws = [rng.integer(-3, 3) for _ in range(200)]
    assert set(draws) <= set(range(-3, 4))


def draw(cfg, kind):
    return instances(cfg, 1, kind)[0]


def test_determinism_single():
    cfg = GeneratorConfig(seed=7, dim=2)
    assert draw(cfg, "dual-of-lattice") == draw(cfg, "dual-of-lattice")
    assert draw(cfg, "rational") == draw(cfg, "rational")


def test_determinism_sequences():
    cfg = GeneratorConfig(seed=99, dim=2)
    first = instances(cfg, 5, kind="rational")
    second = instances(cfg, 5, kind="rational")
    assert [p.vertices for p in first] == [p.vertices for p in second]


# The sha256 of [polytope_to_json_dict(P), P.facet_rows] over three draws of
# each kind, per seed and dimension, at the coordinate bounds the benchmark
# draws with (perfbench/corpus.py).  A change to the hull or to the sampler
# that would move the benchmark's corpora fails here.
STREAM_SHA256 = {
    (1, 1): "91b6104d375d8e002eca3ebecfa324e3446f3c99e5fdeb7fc2a5f35655b54858",
    (1, 2): "bf15048fb55ace13a7c9f68b7da48d60be80255e250351e89737267a0f234a84",
    (1, 3): "df449634319bb2c80fd4799289d31e45730253c7a8cef87a5990cba8b57019ce",
    (1, 4): "02603b83125a4fadaa12198e4be748397f30f40a3acd6dddc104cff3f80d486e",
    (2, 1): "373969906f2997c76f6917f94e92c3e105a423c6cdea45822857bc365a6698ce",
    (2, 2): "0c61982a7d6864d9a57774cb143c4aa38d55ec4f145627c3243bed234b4f363a",
    (2, 3): "7f9146551f325f443900fbd87b5a68276e2b634670cc5346644b21cda41dce22",
    (2, 4): "ff05c92c9a33ffd5bddeedb35f3fa6d44ac098ae7844da5e589fc389603c2cad",
}


def test_instance_stream_is_pinned():
    digests = {}
    for seed in (1, 2):
        for dim, bound in ((1, 3), (2, 2), (3, 1), (4, 1)):
            cfg = GeneratorConfig(seed=seed, dim=dim, coordinate_bound=bound)
            docs = [[polytope_to_json_dict(P), P.facet_rows]
                    for kind in ("lattice", "dual-of-lattice", "rational")
                    for P in instances(cfg, 3, kind)]
            text = json.dumps(docs, sort_keys=True)
            digests[seed, dim] = hashlib.sha256(text.encode()).hexdigest()
    assert digests == STREAM_SHA256


def test_unknown_kind_rejected():
    with pytest.raises(ValueError):
        instances(GeneratorConfig(seed=0, dim=1), 1, kind="mystery")


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_lattice_generator_postconditions(dim):
    for i in range(10):
        cfg = GeneratorConfig(seed=i, dim=dim,
                              coordinate_bound=2 if dim < 3 else 1)
        P = draw(cfg, "lattice")
        assert is_lattice(P)
        assert contains(P, (0,) * dim, strict=True)
        assert affine_rank(list(P.vertices)) == dim


@pytest.mark.parametrize("dim", [1, 2, 3])
def test_dual_of_lattice_guarantee(dim):
    for i in range(10):
        cfg = GeneratorConfig(seed=100 + i, dim=dim,
                              coordinate_bound=2 if dim < 3 else 1)
        P = draw(cfg, "dual-of-lattice")
        assert is_lattice(dual(P))
        assert contains(P, (0,) * dim, strict=True)


def test_rational_controls_cover_both_dual_branches():
    lattice_duals = set()
    for i in range(40):
        P = draw(GeneratorConfig(seed=200 + i, dim=1), "rational")
        lattice_duals.add(is_lattice(dual(P)))
    assert lattice_duals == {True, False}


def test_generation_exhausted(monkeypatch):
    # Seed 3 draws no polytope of {-1, 0, 1}^3 around the origin in its
    # first five attempts.
    monkeypatch.setattr(generators, "ATTEMPTS", 5)
    with pytest.raises(GenerationExhausted, match="no valid instance in 5 attempts"):
        instances(GeneratorConfig(seed=3, dim=3, coordinate_bound=1), 1, "lattice")


def test_config_validation():
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, dim=0)
    with pytest.raises(ValueError):
        GeneratorConfig(seed=0, dim=5)


@pytest.mark.parametrize("field, value", [
    ("coordinate_bound", 0), ("coordinate_bound", -1),
])
def test_config_rejects_a_field_that_draws_nothing(field, value):
    with pytest.raises(ValueError, match=field):
        GeneratorConfig(seed=0, dim=2, **{field: value})


def test_valid_configs_draw_as_before():
    # Validation draws nothing: these configs give the vertices they gave
    # before it, so every seeded corpus stays as it was.
    def vertices(kind):
        P = draw(GeneratorConfig(seed=7, dim=2, coordinate_bound=1), kind)
        return [tuple(map(str, v)) for v in P.vertices]

    assert vertices("lattice") == [("-1", "-1"), ("-1", "1"), ("0", "-1"), ("1", "0")]
    assert vertices("rational") == [("-1", "0"), ("0", "-1"), ("0", "1"), ("1", "-1"),
                                    ("1", "1/2")]


# ----------------------------------------------------------------- catalog

def test_catalog_names():
    assert set(catalog()) == {
        "square2", "diamond2", "halfdiamond2", "seg_m1_2", "seg_mhalf_1",
        "seg_mhalf_third", "seg_m23_1", "cube3", "octa3"}


def test_catalog_returns_a_fresh_dict_of_shared_polytopes():
    first = catalog()
    first.pop("cube3")
    first["square2"] = None
    again = catalog()
    assert again is not first
    assert "cube3" in again and again["square2"] is not None
    assert all(P is catalog()[name] for name, P in again.items())


def test_catalog_denominators():
    ks = {name: denominator(P) for name, P in catalog().items()}
    assert ks == {
        "square2": 1, "diamond2": 1, "halfdiamond2": 2, "seg_m1_2": 1,
        "seg_mhalf_1": 2, "seg_mhalf_third": 6, "seg_m23_1": 3,
        "cube3": 1, "octa3": 1}


def test_catalog_cube_octahedron_duality():
    assert dual(catalog()["cube3"]) == catalog()["octa3"]
    assert dual(catalog()["octa3"]) == catalog()["cube3"]


def test_catalog_square_vertex_count():
    assert len(catalog()["square2"].vertices) == 4
