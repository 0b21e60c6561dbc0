"""Host-speed reference: a fixed stdlib kernel timed next to the work.

On a shared 2-vCPU virtual machine, processor speed was seen to toggle
between two levels about 40% apart within fractions of a second, while the
share of time spent at each level drifted over minutes.  A request of a few
hundred milliseconds sees the average of the two; so does the kernel, timed
many times through a run.  The benchmark therefore reports each time rescaled
by ``NOMINAL_S`` over the kernel's trimmed mean time in the same run: the
time the work would take on a host where the kernel takes ``NOMINAL_S``.

The kernel uses only ``fractions`` and tuples, like the package, and none of
the package, so a change to ehrhart moves the rescaled numbers as it moves
the raw ones.
"""

from __future__ import annotations

import time
from fractions import Fraction

NOMINAL_S = 0.001


def _kernel() -> tuple:
    s = Fraction(0)
    row = tuple(range(8))
    for i in range(1, 120):
        s += Fraction(i, i % 7 + 1) * Fraction(3, i + 2)
        row = tuple(x * i + 1 for x in row)
    return s, row


def sample(n: int = 5) -> list[float]:
    """``n`` timings of the kernel, in seconds."""
    out = []
    for _ in range(n):
        start = time.perf_counter()
        _kernel()
        out.append(time.perf_counter() - start)
    return out


def factor(samples: list[float]) -> float:
    """NOMINAL_S over the mean of the fastest nine tenths of the samples.

    The slowest tenth is dropped because a sample that the scheduler
    interrupted says nothing about the processor's speed.
    """
    kept = sorted(samples)[:max(1, len(samples) * 9 // 10)]
    return NOMINAL_S * len(kept) / sum(kept)
