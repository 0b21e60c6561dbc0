"""Compare two sets of benchmark results, workload by workload.

    python3 perfbench/compare.py BASE_DIR HEAD_DIR

Each directory holds the JSON records run.py writes to ``perfbench/_results``.
For every workload and end-to-end metric it prints the median and quartiles
of each side and the change against the metric's bound in BENCHMARK.json.
It refuses (exit 2) to compare a workload and seed whose corpus digests,
Python versions or processor counts differ, so that drift in the generator
or the host cannot pass as a change in speed.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(directory: Path) -> dict:
    runs: dict = defaultdict(dict)
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        runs[record["workload"]][record["seed"]] = record
    return runs


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    base, head = (load(Path(a)) for a in argv)
    spec = json.loads(BENCHMARK.read_text())["end_to_end"]
    for workload in sorted(set(base) & set(head)):
        for seed in sorted(set(base[workload]) & set(head[workload])):
            a, b = base[workload][seed], head[workload][seed]
            for key in ("digest", "python", "nproc"):
                if a[key] != b[key]:
                    print(f"refusing: {workload} seed {seed} differs in {key}: "
                          f"{a[key]} vs {b[key]}", file=sys.stderr)
                    return 2
        print(f"{workload}: {len(base[workload])} base runs, {len(head[workload])} head runs")
        for metric in spec:
            name, bound = metric["name"], metric["bound"]
            sides = [[r["metrics"][name]["value"] for r in side[workload].values()]
                     for side in (base, head)]
            if min(map(len, sides)) < 2:
                continue
            (q1a, ma, q3a), (q1b, mb, q3b) = (statistics.quantiles(v, n=4) for v in sides)
            worse = (mb - ma) / ma if metric["better"] == "lower" else (ma - mb) / ma
            verdict = "regressed" if worse > bound else "within bound"
            print(f"  {name}: base {ma:.4g} [{q1a:.4g}, {q3a:.4g}]  head {mb:.4g} "
                  f"[{q1b:.4g}, {q3b:.4g}] {metric['unit']}  worse by {worse:+.1%} "
                  f"(bound {bound:.0%}): {verdict}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
