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
from typing import Optional

from ._catalog import VERTICES
from .errors import DimensionDeficient, EmptyInput, GenerationExhausted
from .geometry import Polytope, dual, from_ratios, from_vertices, origin_interior

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


@dataclass(frozen=True)
class GeneratorConfig:
    """Knobs for the rejection samplers; equal configs give equal output."""

    seed: int
    dim: int
    vertex_count_range: Optional[tuple[int, int]] = None
    coordinate_bound: int = 2
    denominator_bound: int = 3
    max_attempts: int = 1000

    def __post_init__(self) -> None:
        if not 1 <= self.dim <= 4:
            raise ValueError("dimension must be between 1 and 4")
        for name in ("coordinate_bound", "denominator_bound", "max_attempts"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.vertex_count_range is not None:
            lo, hi = self.vertex_count_range
            if not self.dim + 1 <= lo <= hi:
                raise ValueError(f"vertex_count_range must have {self.dim + 1} <= lo <= hi, "
                                 f"got {self.vertex_count_range}")

    def counts(self) -> tuple[int, int]:
        if self.vertex_count_range is not None:
            return self.vertex_count_range
        return self.dim + 1, 2 * self.dim + 2


def _sample(cfg: GeneratorConfig, rng: SplitMix64, rational: bool) -> Polytope:
    lo, hi = cfg.counts()
    bound = cfg.coordinate_bound
    for _ in range(cfg.max_attempts):
        npts = rng.integer(lo, hi)
        pts = []
        for _ in range(npts):
            coords = []
            for _ in range(cfg.dim):
                if rational:
                    q = rng.integer(1, cfg.denominator_bound)
                    coords.append((rng.integer(-bound * q, bound * q), q))
                else:
                    coords.append((rng.integer(-bound, bound), 1))
            pts.append(coords)
        try:
            P = from_ratios(pts)
        except (DimensionDeficient, EmptyInput):
            continue
        if origin_interior(P):
            return P
    raise GenerationExhausted(
        f"no valid instance in {cfg.max_attempts} attempts for {cfg}")


def gen_lattice_with_interior_origin(cfg: GeneratorConfig,
                                     rng: Optional[SplitMix64] = None) -> Polytope:
    """A full-dimensional lattice polytope with the origin strictly inside.

    Rejection sampling: draw integer points in the coordinate box, take the
    hull, retry until full-dimensional with interior origin.
    """
    return _sample(cfg, rng or SplitMix64(cfg.seed), rational=False)


def gen_dual_of_lattice(cfg: GeneratorConfig,
                        rng: Optional[SplitMix64] = None) -> Polytope:
    """A rational polytope whose polar dual is a lattice polytope.

    Returns the dual of a generated lattice polytope; by the involution of
    polarity the dual of the result is that lattice polytope again, so the
    lattice-dual hypothesis holds by construction.
    """
    return dual(gen_lattice_with_interior_origin(cfg, rng))


def gen_rational_control(cfg: GeneratorConfig,
                         rng: Optional[SplitMix64] = None) -> Polytope:
    """A rational polytope with interior origin and unconstrained dual.

    Coordinates are fractions with denominators up to the configured bound;
    the dual may or may not be a lattice polytope, which is the point: these
    exercise both branches of the characterization check.
    """
    return _sample(cfg, rng or SplitMix64(cfg.seed), rational=True)


_KINDS = {
    "lattice": gen_lattice_with_interior_origin,
    "dual-of-lattice": gen_dual_of_lattice,
    "rational": gen_rational_control,
}


def instances(cfg: GeneratorConfig, count: int,
              kind: str = "dual-of-lattice") -> list[Polytope]:
    """A deterministic sequence of ``count`` instances from one seed."""
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
