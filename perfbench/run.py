"""The ehrhart benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run it from the root of a checkout; it builds nothing and imports ehrhart
from ``src/``.  Every step runs in a fresh interpreter, one at a time:

1. set-up (``corpus.py``): draw the seeded corpus and write it to disk,
   three times, and take the median time as ``setup_s``;
2. the measured run (``client.py``): one closed-loop client for ``S``
   seconds of whole rounds;
3. the correctness gate (``gate.py``), outside any timing.

With ``--trace 1`` the client instead runs a fixed number of rounds with the
outside-in trace of ``tracing.py`` installed, then replays the same rounds
untraced; the difference is the tracing overhead.  The untraced run never
imports the trace.

The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``; the lines before it print every
metric by name and unit, and the failures by kind.  The full record, with
the corpus digest, Python version and ``nproc``, goes to
``perfbench/_results/`` for ``compare.py``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
from collections import Counter
from pathlib import Path

import speed
from client import child_env

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOADS = ("report-mixed", "cli-count-deep")
SETUP_REPEATS = 3
# Rounds of a traced run: fixed, so that its counters repeat exactly.
TRACE_ROUNDS = {"report-mixed": 10, "cli-count-deep": 8}
CHILD_TIMEOUT_S = 170

# Units of every metric, end to end and per layer, as BENCHMARK.json fixes them.
UNITS = {m["name"]: m["unit"] for key in ("end_to_end", "per_layer")
         for m in json.loads((ROOT / "BENCHMARK.json").read_text())[key]}


class BenchError(Exception):
    pass


def _child(script: str, *argv: str) -> str:
    proc = subprocess.run([sys.executable, str(BENCH / script), *argv],
                          cwd=ROOT, env=child_env(), capture_output=True,
                          text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode:
        raise BenchError(f"{script} exited {proc.returncode}: {proc.stderr[-2000:]}")
    return proc.stdout


def set_up(workload: str, seed: int, out: Path, trace: Path | None = None) -> dict:
    argv = ["--workload", workload, "--seed", str(seed), "--out", str(out)]
    if trace is not None:
        argv += ["--trace", str(trace)]
    return json.loads(_child("corpus.py", *argv).splitlines()[-1])


def serve(corpus: Path, out: Path, *limit: str) -> dict:
    _child("client.py", "--corpus", str(corpus), "--out", str(out), *limit)
    return json.loads(out.read_text())


def gate(workload: str, run: dict) -> list[str]:
    if str(ROOT / "src") not in sys.path:
        sys.path.insert(0, str(ROOT / "src"))
    import gate as checks
    return checks.failures(workload, run["requests"], run["responses"])


def percentile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated as ``statistics.quantiles`` does."""
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def end_to_end(latencies_s: list[float], setups_s: list[float], rss_mb: float) -> dict:
    lat_ms = [1000 * x for x in latencies_s]
    return {
        "throughput_rps": len(lat_ms) / sum(latencies_s),
        "request_p50_ms": statistics.median(lat_ms),
        "request_p90_ms": percentile(lat_ms, 90),
        "setup_s": statistics.median(setups_s),
        "peak_rss_mb": rss_mb,
    }


def timed(workload: str, seed: int, seconds: int, work: Path) -> tuple[dict, dict]:
    setups = [set_up(workload, seed, work / f"setup{i}") for i in range(SETUP_REPEATS)]
    if len({s["digest"] for s in setups}) != 1:
        raise BenchError("set-up is not deterministic: corpus digests differ")
    run = serve(work / "setup0", work / "timed.json", "--seconds", str(seconds))
    latencies = [x * speed.factor(run["references_s"]) for x in run["latencies_s"]]
    metrics = end_to_end(latencies, [s["setup_s"] for s in setups], run["peak_rss_mb"])
    raw = end_to_end(run["latencies_s"], [s["raw_s"] for s in setups], run["peak_rss_mb"])
    info = {"digest": setups[0]["digest"], "corpus_rounds": setups[0]["rounds"],
            "elapsed_s": run["elapsed_s"], "exhausted": run["exhausted"],
            "raw_metrics": raw,
            "setup_runs_s": [s["setup_s"] for s in setups],
            "beyond_p90": sum(1000 * x > metrics["request_p90_ms"] for x in latencies),
            "latencies_ms": [[req["id"], 1000 * x, 1000 * y] for req, x, y in
                             zip(run["requests"], latencies, run["latencies_s"])],
            "failures": gate(workload, run), "attempted": len(latencies)}
    return {k: (v, UNITS[k]) for k, v in metrics.items()}, info


def traced(workload: str, seed: int, work: Path) -> tuple[dict, dict]:
    import tracing

    setup = set_up(workload, seed, work / "setup", trace=work / "setup.spans")
    rounds = str(TRACE_ROUNDS[workload])
    run = serve(work / "setup", work / "traced.json", "--rounds", rounds,
                "--trace", str(work / "spans"))
    replay = serve(work / "setup", work / "replay.json", "--rounds", rounds)
    dumps = [json.loads(Path(p).read_text()) for p in run["spans"]]
    values = tracing.aggregate(dumps, run["latencies_s"])
    setup_values = tracing.aggregate([json.loads((work / "setup.spans").read_text())], [])
    for key, value in setup_values.items():
        if key.startswith("generators.instances."):
            values[key] = value
    traced_s = sum(run["latencies_s"]) * speed.factor(run["references_s"])
    untraced_s = sum(replay["latencies_s"]) * speed.factor(replay["references_s"])
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    metrics = {k: (v, UNITS[k]) for k, v in values.items()}
    info = {"digest": setup["digest"], "corpus_rounds": setup["rounds"],
            "found": dumps[0]["found"] if dumps else [],
            "missing": dumps[0]["missing"] if dumps else [],
            "rebound_at": dumps[0]["sites"] if dumps else [],
            "failures": gate(workload, run) + gate(workload, replay),
            "attempted": len(run["requests"]) + len(replay["requests"])}
    return metrics, info


def layer_shares(metrics: dict) -> dict[str, float]:
    request_s = metrics["trace.request_s"][0]
    shares: Counter = Counter()
    for name, (value, _) in metrics.items():
        if name.endswith(".self_s") and not name.startswith("generators.instances"):
            shares[name.split(".")[0]] += value / request_s if request_s else 0.0
    return dict(shares)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()

    if not (ROOT / "src" / "ehrhart" / "__init__.py").is_file():
        print(f"run.py: no ehrhart package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    work = BENCH / "_work" / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        if args.trace:
            metrics, info = traced(args.workload, args.seed, work)
        else:
            metrics, info = timed(args.workload, args.seed, args.seconds, work)
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if work.parent.is_dir() and not any(work.parent.iterdir()):
            work.parent.rmdir()

    failures = info.pop("failures")
    attempted = info.pop("attempted")
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "python": platform.python_version(),
        "nproc": os.cpu_count(), "attempted": attempted, "failed": len(failures),
        "failed_frac": len(failures) / attempted,
        "failures_by_kind": dict(Counter(failures)), **info,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = BENCH / "_results"
    results.mkdir(exist_ok=True)
    (results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1))

    print(f"# {args.workload} seed {args.seed}: corpus sha256 {record['digest']}, "
          f"python {record['python']}, nproc {record['nproc']}")
    print(f"# attempted {attempted}, failed {len(failures)}, "
          f"failed_frac {record['failed_frac']:.4g} frac, by kind {record['failures_by_kind']}")
    if not args.trace:
        print(f"# request_p90_ms has {info['beyond_p90']} of {attempted} samples beyond it")
        print("# times below are rescaled to the reference host speed; raw: " + ", ".join(
            f"{k} {v:.6g}" for k, v in info["raw_metrics"].items()))
    if info.get("exhausted"):
        print("# warning: the corpus ran out before the time was up")
    if args.trace:
        print(f"# traced names found: {', '.join(info['found'])} "
              f"(rebound at {len(info['rebound_at'])} module attributes)")
        print(f"# traced names missing: {', '.join(info['missing']) or 'none'}")
        for layer, share in sorted(layer_shares(metrics).items()):
            print(f"# self-time share {layer} {share:.3f} frac")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted,
                      "failed": len(failures),
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
