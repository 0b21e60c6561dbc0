"""The correctness gate: seed-independent identities every response must meet.

run.py calls :func:`failures` after the timed loop, outside any timing.  A
report must not be fatal; reciprocity, non-negativity and characterization
must pass; where the polar dual is a lattice polytope (every dual-of-lattice
draw, by construction) the palindrome and interior-shift checks must pass;
catalog delta-vectors must equal their frozen values.  A deep count must
equal ``evaluate_qp(fit_qp(P), m)`` and its interior count
``(-1)^n * evaluate_qp(qp, -m)``.
"""

from __future__ import annotations

from typing import Optional

# The acceptance suite's frozen delta-vectors, plus the two 3D entries:
# (1, 23, 23, 1) for the cube [-1, 1]^3 and (1, 3, 3, 1) for its dual.
CATALOG_DELTAS = {
    "square2": (1, 6, 1),
    "diamond2": (1, 2, 1),
    "halfdiamond2": (1, 1, 2, 2, 1, 1),
    "seg_mhalf_1": (1, 2, 2, 1),
    "seg_mhalf_third": (1, 1, 2, 3, 4, 4, 4, 4, 3, 2, 1, 1),
    "seg_m1_2": (1, 2),
    "seg_m23_1": (1, 2, 4, 4, 3, 1),
    "cube3": (1, 23, 23, 1),
    "octa3": (1, 3, 3, 1),
}


def _report_failure(req: dict, resp: dict) -> Optional[str]:
    if resp.get("fatal"):
        return "wrong:fatal"
    checks = {c["name"]: c["passed"] for c in resp["checks"]}
    for name in ("reciprocity", "non_negativity", "characterization"):
        if not checks.get(name):
            return f"wrong:{name}"
    if req["kind"] == "dual-of-lattice" and not resp["dual_is_lattice"]:
        return "wrong:dual_is_lattice"
    if resp["dual_is_lattice"]:
        for name in ("palindrome", "interior_shift"):
            if not checks.get(name):
                return f"wrong:{name}"
    if req["kind"] == "lattice" and resp["k"] != "1":
        return "wrong:denominator"
    name = req.get("catalog")
    if name is not None and tuple(map(int, resp["delta"])) != CATALOG_DELTAS[name]:
        return "wrong:catalog_delta"
    return None


def _count_failure(req: dict, resp: dict) -> Optional[str]:
    from ehrhart import evaluate_qp, fit_qp, polytope_from_json_dict

    P = polytope_from_json_dict(req["polytope"])
    qp = fit_qp(P)
    m, n = req["m"], P.ambient_dim
    if int(resp["closed"]) != evaluate_qp(qp, m):
        return "wrong:closed_count"
    if int(resp["interior"]) != (-1) ** n * evaluate_qp(qp, -m):
        return "wrong:interior_count"
    return None


def failures(workload: str, requests: list[dict], responses: list[dict]) -> list[str]:
    """One failure kind per failed request: exception, exit code or wrong answer."""
    check = _count_failure if workload.startswith("cli-") else _report_failure
    out = []
    for req, resp in zip(requests, responses):
        if "exception" in resp:
            out.append(f"exception:{resp['exception']}")
        elif "exit" in resp:
            out.append(f"exit:{resp['exit']}")
        else:
            kind = check(req, resp)
            if kind is not None:
                out.append(kind)
    return out
