"""Deterministic test-instance generation and the named fixture catalog.

Randomness comes from SplitMix64, a tiny, well-specified 64-bit PRNG that
is trivial to reimplement bit-for-bit in any language, so a seed printed in
one environment reproduces the same polytopes everywhere.  Bounded draws
use plain modulo reduction; the slight bias is irrelevant for test-instance
generation and keeps the draw rule one line.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from ._catalog import VERTICES
from .errors import DimensionDeficient, EmptyInput, GenerationExhausted
from .geometry import (MAX_DIM, Polytope, dual, from_ratios, from_vertices,
                       origin_interior)

_MASK64 = (1 << 64) - 1


class SplitMix64:
    """SplitMix64: state advances by the golden-gamma, output is mixed."""

    def __init__(self, seed: int) -> None:
        self._state = seed & _MASK64

    def next_u64(self) -> int:
        self._state = (self._state + 0x9E3779B97F4A7C15) & _MASK64
        z = self._state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
        return z ^ (z >> 31)

    def integer(self, lo: int, hi: int) -> int:
        """Uniform-ish integer in [lo, hi] via modulo reduction."""
        if hi < lo:
            raise ValueError("empty range")
        return lo + self.next_u64() % (hi - lo + 1)


#: Draws each instance may take before ``GenerationExhausted``.
ATTEMPTS = 1000

#: Largest coordinate denominator of a "rational" draw.
DENOMINATOR_BOUND = 3


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the rejection sampler; equal configs give equal output."""

    seed: int
    dim: int
    coordinate_bound: int = 2

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= MAX_DIM:
            raise ValueError(f"dimension must be between 1 and {MAX_DIM}")
        if self.coordinate_bound < 1:
            raise ValueError(
                f"coordinate_bound must be at least 1, got {self.coordinate_bound}")


def _sample(cfg: GeneratorConfig, rng: SplitMix64, rational: bool) -> Polytope:
    """Rejection sampling: draw dim+1 to 2*dim+2 points in the coordinate
    box (rational: denominators up to ``DENOMINATOR_BOUND``), take the hull,
    and retry until it is full-dimensional with the origin strictly inside.
    A draw with no point on one side of the origin, on some axis, is
    retried without a hull, as its hull cannot hold the origin inside."""
    bound = cfg.coordinate_bound
    for _ in range(ATTEMPTS):
        pts = []
        for _ in range(rng.integer(cfg.dim + 1, 2 * cfg.dim + 2)):
            coords = []
            for _ in range(cfg.dim):
                q = rng.integer(1, DENOMINATOR_BOUND) if rational else 1
                coords.append((rng.integer(-bound * q, bound * q), q))
            pts.append(coords)
        # The points are drawn either way, so the skip keeps the stream.
        if not all(min(axis) < 0 < max(axis) for axis in zip(*([c for c, _ in p] for p in pts))):
            continue
        try:
            P = from_ratios(pts)
        except (DimensionDeficient, EmptyInput):
            continue
        if origin_interior(P):
            return P
    raise GenerationExhausted(f"no valid instance in {ATTEMPTS} attempts for {cfg}")


_KINDS = {
    "lattice": lambda cfg, rng: _sample(cfg, rng, rational=False),
    "dual-of-lattice": lambda cfg, rng: dual(_sample(cfg, rng, rational=False)),
    "rational": lambda cfg, rng: _sample(cfg, rng, rational=True),
}


def instances(cfg: GeneratorConfig, count: int,
              kind: str = "dual-of-lattice") -> list[Polytope]:
    """``count`` instances of one ``kind``, drawn in turn from one SplitMix64
    stream seeded by ``cfg.seed``: "lattice" polytopes with the origin
    strictly inside; "dual-of-lattice", their polar duals, which have
    lattice duals by the involution of polarity; or "rational" controls,
    whose duals may or may not be lattice, for both branches of the
    characterization check."""
    try:
        gen = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown kind {kind!r}; choose from {sorted(_KINDS)}")
    rng = SplitMix64(cfg.seed)
    return [gen(cfg, rng) for _ in range(count)]


@lru_cache(maxsize=1)
def _catalog_entries() -> tuple[tuple[str, Polytope], ...]:
    return tuple((name, from_vertices(pts)) for name, pts in VERTICES.items())


def catalog() -> dict[str, Polytope]:
    """The named fixture polytopes used across the test suite and CLI
    (which builds only the one it is given, from the same vertex table).

    The polytopes are built once, and each call returns a new dict of
    them, so a caller that edits its dict leaves the catalog as it was.
    """
    return dict(_catalog_entries())
