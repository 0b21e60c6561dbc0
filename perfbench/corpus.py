"""Workload corpora: drawn from a seed, ordered in rounds, written to disk.

run.py starts this as a fresh child process once per set-up repetition:

    python3 perfbench/corpus.py --workload NAME --seed N --out DIR [--trace FILE]

It imports ehrhart from ``src/`` of the checkout, draws the workload's
polytopes through ``instances(GeneratorConfig(...), n, kind)``, removes
duplicate vertex sets, writes ``DIR/corpus.json`` (and, for the CLI workload,
one polytope file per request) and prints one JSON line with the set-up time
and the sha256 of the canonical corpus.  The set-up time is also reported
rescaled by the host-speed reference of ``speed.py``, timed at the start,
after each generator call and at the end.

A corpus is a list of rounds; every round holds one request per stratum, so
any run that stops between rounds has the same mix of strata whatever its
length.  Within a stratum the requests are sorted by an estimate of their
work and then visited in bit-reversed order, so that a run which stops early
has still seen an even sample of the stratum.  A polytope appears at most
once in a corpus.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent

# Dual-of-lattice draws at 3D bound 2 and in 4D exceed the enumeration budget
# today, so no workload uses them (see BENCHMARK.json).
KINDS = ("lattice", "dual-of-lattice", "rational")

# Mixed reports: (dim, coordinate bound, kind, requests per round, draws per
# request).  At bound 3 there are only a few distinct segments, so all 1D draws
# join the catalog in the first round.  Report cost steps up by kind and
# dimension; the shares below put the median inside the 2D reports and the
# 90th percentile inside the 3D rational ones, the costliest and most varied,
# whose requests are an even sample of a pool three times larger.
MIXED_STRATA = ([(1, 3, kind, 0, 1) for kind in KINDS]
                + [(2, 2, kind, 3, 1) for kind in KINDS]
                + [(3, 1, "lattice", 1, 1), (3, 1, "dual-of-lattice", 1, 1),
                   (3, 1, "rational", 4, 3)])
MIXED_1D_DRAWS = 20
MIXED_ROUNDS = 30

# Deep CLI counts: the dilation is chosen per polytope so that the walk's
# computed work (prefixes of the first n-1 axes times facets) is near a fixed
# target, which keeps the cost of a request alike across seeds.
DEEP_STRATA = [(3, 1, kind) for kind in KINDS] + [(4, 1, "lattice")]
DEEP_DRAWS = 20
DEEP_M_RANGE = {3: (30, 90), 4: (12, 24)}
DEEP_WORK_TARGET = {3: 80_000, 4: 300_000}

WORKLOADS = ("report-mixed", "cli-count-deep")


def box(vertex_ranges, m: int) -> list[tuple[int, int]]:
    """Integer bounding box of mP, as the counting walk computes it."""
    return [(math.ceil(m * lo), math.floor(m * hi)) for lo, hi in vertex_ranges]


def box_cells(bx) -> int:
    return math.prod(max(0, hi - lo + 1) for lo, hi in bx)


class Clock:
    """Wall time between marks, leaving out the reference timings at each mark."""

    def __init__(self) -> None:
        self.raw = 0.0
        self.samples: list[float] = []
        self.since = time.perf_counter()
        self.mark()

    def mark(self) -> None:
        self.raw += time.perf_counter() - self.since
        self.samples += speed.sample(20)
        self.since = time.perf_counter()

    def totals(self) -> tuple[float, float]:
        """Raw and rescaled seconds."""
        return self.raw, self.raw * speed.factor(self.samples)


def _draw(ehrhart, clock, dim, bound, kind, n, seed):
    cfg = ehrhart.GeneratorConfig(seed=seed, dim=dim, coordinate_bound=bound)
    draws = ehrhart.instances(cfg, n, kind)
    clock.mark()
    return draws


def work(P) -> int:
    """Walk prefixes times facets over the dilations a full report counts."""
    from ehrhart import denominator
    from ehrhart.geometry import vertex_ranges

    ranges, n = vertex_ranges(P), P.ambient_dim
    dilations = [*range(denominator(P) * (n + 1)), *range(1, 7)]
    return len(P.facets) * sum(box_cells(box(ranges, m)[:-1]) for m in dilations)


def spread(column: list[dict]) -> list[dict]:
    """Sort by estimated work, then visit positions in bit-reversed order."""
    ordered = sorted(column, key=lambda req: req["work"])
    bits = max(1, (len(ordered) - 1).bit_length())
    rev = sorted(range(len(ordered)),
                 key=lambda i: int(format(i, f"0{bits}b")[::-1], 2))
    return [ordered[i] for i in rev]


def _deep_dilation(P) -> int:
    """The m in range whose walk work (prefixes times facets) is nearest the target."""
    from ehrhart.counting import DEFAULT_BUDGET
    from ehrhart.geometry import vertex_ranges

    n = P.ambient_dim
    ranges = vertex_ranges(P)
    lo, hi = DEEP_M_RANGE[n]
    best = None
    for m in range(lo, hi + 1):
        bx = box(ranges, m)
        if box_cells(bx) > DEFAULT_BUDGET:
            break
        gap = abs(box_cells(bx[:-1]) * len(P.facets) - DEEP_WORK_TARGET[n])
        if best is None or gap < best[0]:
            best = (gap, m)
    if best is None:
        raise ValueError("no dilation fits the enumeration budget")
    return best[1]


def build(ehrhart, workload: str, seed: int, clock: Clock) -> list[list[dict]]:
    """The workload's requests, in rounds; a pure function of the seed."""
    to_json = ehrhart.polytope_to_json_dict
    seen: set = set()

    def fresh(P) -> bool:
        if P.vertices in seen:
            return False
        seen.add(P.vertices)
        return True

    def request(stratum, kind, P, **extra) -> dict:
        return {"id": f"{stratum}#{len(seen)}", "stratum": stratum, "kind": kind,
                "work": work(P), "polytope": to_json(P), **extra}

    if workload == "report-mixed":
        first = [{"id": name, "stratum": "catalog", "kind": "catalog",
                  "polytope": to_json(P), "catalog": name}
                 for name, P in ehrhart.catalog().items() if fresh(P)]
        columns = []
        for dim, bound, kind, per_round, pool in MIXED_STRATA:
            n = per_round * MIXED_ROUNDS * pool or MIXED_1D_DRAWS
            draws = _draw(ehrhart, clock, dim, bound, kind, n, seed)
            column = spread([request(f"{dim}d-{kind}", kind, P)
                             for P in draws if fresh(P)])
            if per_round:
                columns.append((per_round, column))
            else:
                first += column
        whole = min(MIXED_ROUNDS, *(len(column) // per_round
                                    for per_round, column in columns))
        rounds = [[req for per_round, column in columns
                   for req in column[r * per_round:(r + 1) * per_round]]
                  for r in range(whole)]
        rounds[0] = first + rounds[0]
        return rounds

    if workload == "cli-count-deep":
        columns = []
        for dim, bound, kind in DEEP_STRATA:
            label = f"{dim}d-{kind}"
            draws = _draw(ehrhart, clock, dim, bound, kind, DEEP_DRAWS, seed)
            columns.append(spread([request(label, kind, P, m=_deep_dilation(P))
                                   for P in draws if fresh(P)]))
        return [list(r) for r in zip(*columns)]

    raise ValueError(f"unknown workload {workload!r}")


def digest(rounds: list[list[dict]]) -> str:
    """sha256 of the canonical corpus JSON (file paths excluded)."""
    canon = [[{k: v for k, v in req.items() if k != "file"} for req in rnd]
             for rnd in rounds]
    text = json.dumps(canon, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--trace", type=Path, default=None,
                        help="record generator spans to this file")
    args = parser.parse_args()

    clock = Clock()
    sys.path.insert(0, str(ROOT / "src"))
    if args.trace is not None:
        import tracing
        tracing.install()
    import ehrhart
    if args.workload == "cli-count-deep":
        import ehrhart.cli  # noqa: F401  (compiled once here, not per request)

    rounds = build(ehrhart, args.workload, args.seed, clock)
    args.out.mkdir(parents=True, exist_ok=True)
    if args.workload == "cli-count-deep":
        for rnd in rounds:
            for req in rnd:
                path = args.out / (req["id"].replace("#", "_") + ".json")
                path.write_text(json.dumps(req["polytope"]))
                req["file"] = str(path)
    doc = {"workload": args.workload, "seed": args.seed,
           "digest": digest(rounds), "rounds": rounds}
    (args.out / "corpus.json").write_text(json.dumps(doc))
    clock.mark()
    raw_s, setup_s = clock.totals()

    if args.trace is not None:
        tracing.dump(args.trace)
    print(json.dumps({"setup_s": setup_s, "raw_s": raw_s, "digest": doc["digest"],
                      "requests": sum(map(len, rounds)), "rounds": len(rounds)}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
