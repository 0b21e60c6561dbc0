import pytest

from ehrhart import (
    GeneratorConfig,
    catalog,
    from_vertices,
    instances,
)

# (dimension, instance count, coordinate bound): 100 lattice-dual instances
# and 50 rational controls, spread over dimensions 1..3.  Bounds shrink with
# dimension to keep the hulls and their denominators at desk scale.
THEOREM_POOL_SPEC = ((1, 34, 3), (2, 33, 2), (3, 33, 1))
CONTROL_POOL_SPEC = ((1, 17, 2), (2, 17, 2), (3, 16, 1))


def dilate(P, m):
    """mP for a positive integer m, by a hull of the scaled vertices."""
    return from_vertices([[m * c for c in v] for v in P.vertices])


def segment(a, b):
    """The segment [a, b] in R^1."""
    return from_vertices([(a,), (b,)])


def build_theorem_pool():
    pool = []
    for dim, count, bound in THEOREM_POOL_SPEC:
        for i in range(count):
            cfg = GeneratorConfig(seed=1000 * dim + i, dim=dim, coordinate_bound=bound)
            pool.append(instances(cfg, 1, "dual-of-lattice")[0])
    return pool


def build_control_pool():
    pool = []
    for dim, count, bound in CONTROL_POOL_SPEC:
        for i in range(count):
            cfg = GeneratorConfig(seed=5000 * dim + i, dim=dim, coordinate_bound=bound)
            pool.append(instances(cfg, 1, "rational")[0])
    return pool


@pytest.fixture(scope="session")
def fixtures():
    return catalog()


@pytest.fixture(scope="session")
def theorem_pool():
    """100 seeded polytopes whose polar dual is a lattice polytope."""
    return build_theorem_pool()


@pytest.fixture(scope="session")
def control_pool():
    """50 seeded rational polytopes with unconstrained duals."""
    return build_control_pool()
