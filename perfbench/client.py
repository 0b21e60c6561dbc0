"""The closed-loop client of one measured run, in a fresh interpreter.

    python3 perfbench/client.py --corpus DIR --out FILE (--seconds S | --rounds R)
                                [--trace SPANS_FILE]

One client sends one request at a time; the next goes out only when the last
has finished.  ``--seconds`` starts rounds until the requests have taken that
long, in seconds rescaled to the reference host speed (see ``speed.py``), and
always finishes the round it is in; so every run has whole rounds, and a run
does the same requests however fast the host happens to be.
``--rounds`` runs a fixed number of rounds, as traced runs and their untraced
replays do.  Report workloads call ``polytope_from_json_dict`` and
``full_report`` in this process; the CLI workload starts one
``python3 -m ehrhart count`` child per request and waits for it.

Before each request the client times the host-speed reference kernel of
``speed.py`` a few times.  The responses, latencies, reference times and peak RSS go to
``--out`` as JSON; run.py checks the responses afterwards, outside any timing.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import subprocess
import sys
import time
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--corpus", type=Path, required=True)
    parser.add_argument("--out", type=Path, required=True)
    limit = parser.add_mutually_exclusive_group(required=True)
    limit.add_argument("--seconds", type=float)
    limit.add_argument("--rounds", type=int)
    parser.add_argument("--trace", type=Path, default=None)
    args = parser.parse_args()

    corpus = json.loads((args.corpus / "corpus.json").read_text())
    rounds = corpus["rounds"]
    if args.rounds is not None:
        if args.rounds > len(rounds):
            print(f"corpus has {len(rounds)} rounds, {args.rounds} asked",
                  file=sys.stderr)
            return 2
        rounds = rounds[:args.rounds]
    cli = corpus["workload"].startswith("cli-")
    spans = []  # files the traced processes write their spans to

    if cli:
        env = child_env()

        def serve(i, req):
            argv = ["count", req["file"], "--m", str(req["m"]), "--format", "json"]
            if args.trace is None:
                cmd = [sys.executable, "-m", "ehrhart", *argv]
            else:
                spans.append(f"{args.trace}.{i}")
                cmd = [sys.executable, str(BENCH / "traced_cli.py"), spans[-1], *argv]
            proc = subprocess.run(cmd, env=env, cwd=ROOT, capture_output=True,
                                  text=True, timeout=170)
            if proc.returncode:
                return {"exit": proc.returncode, "stderr": proc.stderr[-400:]}
            return json.loads(proc.stdout)
    else:
        sys.path.insert(0, str(ROOT / "src"))
        if args.trace is not None:
            import tracing
            tracing.install()
            spans.append(str(args.trace))
        from ehrhart import full_report, polytope_from_json_dict

        def serve(i, req):
            P = polytope_from_json_dict(req["polytope"])
            return full_report(P, polytope_id=req["id"])

    done, latencies, references, responses = [], [], [], []
    busy = 0.0
    start = time.perf_counter()
    for rnd in rounds:
        for req in rnd:
            references += speed.sample()
            t0 = time.perf_counter()
            try:
                resp = serve(len(done), req)
            except Exception as exc:  # recorded and counted as failed
                resp = {"exception": type(exc).__name__, "message": str(exc)[:400]}
            latencies.append(time.perf_counter() - t0)
            busy += latencies[-1] * speed.factor(references[-100:])
            done.append(req)
            responses.append(resp)
        if args.seconds is not None and busy >= args.seconds:
            break
    elapsed = time.perf_counter() - start
    usage = resource.getrusage(resource.RUSAGE_CHILDREN if cli else resource.RUSAGE_SELF)

    if args.trace is not None and not cli:
        tracing.dump(args.trace)
    if not cli:
        from ehrhart import report_to_json_dict
        responses = [r if isinstance(r, dict) else report_to_json_dict(r)
                     for r in responses]
    args.out.write_text(json.dumps({
        "elapsed_s": elapsed,
        "latencies_s": latencies,
        "references_s": references,
        "peak_rss_mb": usage.ru_maxrss / 1024,
        "requests": done,
        "responses": responses,
        "spans": spans,
        "exhausted": args.seconds is not None and busy < args.seconds,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
