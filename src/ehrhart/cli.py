"""Command-line interface.

One JSON document on stdout in json mode, human-readable text otherwise;
diagnostics go to stderr.  Exit codes: 0 success, 1 fatal inconsistency
(a failed reciprocity or equivalence check or negative delta-vector entry;
a lattice-dual polytope failing the theorem, palindrome, interior-shift or
characterization check), 2 usage, parse, input, or budget errors, 3 any
other (unexpected) error.  Input is parsed under the interpreter's limit
on the digits of int <-> str, and results are printed past it.

A command imports the delta-vector, verification and generator modules
only when it runs and needs them, so a ``count`` never loads them.  A
catalog name is parsed as a file is, in integers, with no ``Fraction``.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from ._catalog import VERTICES
from .counting import DEFAULT_BUDGET
from .errors import EhrhartError
from .geometry import Polytope, denominator, dual, is_lattice, origin_interior
from .serialization import load_polytope, polytope_from_json_dict, polytope_to_json_dict

# The interpreter's limit on the digits of int <-> str (from 3.10.7 and 3.11).
_get_digits = getattr(sys, "get_int_max_str_digits", lambda: 0)
_set_digits = getattr(sys, "set_int_max_str_digits", lambda digits: None)


def _resolve_input(name: str) -> tuple[str, Polytope]:
    """Resolve a catalog name or a file path; ambiguity is an error.
    Parses a named entry as a file's coordinates, then lifts the digit limit."""
    path = Path(name)
    if name in VERTICES:
        if path.exists():
            raise EhrhartError(
                f"{name!r} is both a catalog entry and an existing file; "
                "rename the file or use an explicit path like ./" + name)
        rows = [[str(c) for c in row] for row in VERTICES[name]]
        P = polytope_from_json_dict({"dim": len(rows[0]), "vertices": rows})
    elif path.exists():
        P = load_polytope(path)
    else:
        raise EhrhartError(f"{name!r} is neither a catalog entry nor an existing file "
                           f"(catalog: {', '.join(sorted(VERTICES))})")
    _set_digits(0)
    return name, P


def _emit(doc: dict, text: str, fmt: str) -> None:
    print(json.dumps(doc, indent=2) if fmt == "json" else text)


def _cmd_info(args: argparse.Namespace) -> int:
    name, P = _resolve_input(args.input)
    doc = {
        "polytope": name,
        "dim": P.ambient_dim,
        "vertex_count": len(P.rows),
        "denominator": str(denominator(P)),
        "lattice": is_lattice(P),
        "origin_interior": origin_interior(P),
        "facet_count": len(P.facet_rows),
    }
    labels = ("polytope", "dim", "vertices", "denominator", "lattice",
              "origin interior", "facets")
    text = "\n".join(f"{label}: {_yes_no(value)}"
                     for label, value in zip(labels, doc.values()))
    _emit(doc, text, args.format)
    return 0


def _yes_no(value: object) -> object:
    if isinstance(value, bool):
        return "yes" if value else "no"
    return value


def _cmd_count(args: argparse.Namespace) -> int:
    from .counting import count_vector
    name, P = _resolve_input(args.input)
    closed, interior = count_vector(P, (args.m,), (args.m,), args.budget)
    doc = {"polytope": name, "m": args.m,
           "closed": str(closed), "interior": str(interior)}
    text = f"{name}: |{args.m}P| = {closed} lattice points, interior {interior}"
    _emit(doc, text, args.format)
    return 0


def _cmd_delta(args: argparse.Namespace) -> int:
    from .quasipoly import closed_counts, fit_counts, series_counts
    from .verify import check_equivalence, check_palindrome, render_delta
    name, P = _resolve_input(args.input)
    counts = closed_counts(P, budget=args.budget)
    qp, delta = fit_counts(*counts), series_counts(*counts)
    agree = check_equivalence(qp, delta)
    if not agree.passed:
        print(f"ehrhart: FATAL: fit and series routes disagree: {agree.witness}",
              file=sys.stderr)
        return 1
    palindromic = check_palindrome(delta).passed
    fields, lines = render_delta(delta, qp)
    doc = {"polytope": name, "n": qp.n, "k": str(qp.k), **fields,
           "palindromic": palindromic}
    lines = [f"polytope: {name}", f"n = {qp.n}, k = {qp.k}", *lines,
             f"palindromic: {_yes_no(palindromic)}"]
    _emit(doc, "\n".join(lines), args.format)
    return 0


def _show_polytope(P: Polytope, title: str, fmt: str) -> None:
    """Print ``P`` as one JSON document, or as one line of its vertices."""
    doc = polytope_to_json_dict(P)
    pts = ", ".join("(" + ", ".join(v) + ")" for v in doc["vertices"])
    _emit(doc, f"{title}: dim {P.ambient_dim}, vertices {pts}", fmt)


def _cmd_dual(args: argparse.Namespace) -> int:
    name, P = _resolve_input(args.input)
    _show_polytope(dual(P), f"dual of {name}", args.format)
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    from .verify import full_report, render_text, report_to_json_dict
    name, P = _resolve_input(args.input)
    report = full_report(P, polytope_id=name, m_max=args.m_max, budget=args.budget)
    _emit(report_to_json_dict(report), render_text(report), args.format)
    return 1 if report.fatal else 0


def _cmd_gen(args: argparse.Namespace) -> int:
    from .generators import GeneratorConfig, instances
    cfg = GeneratorConfig(seed=args.seed, dim=args.dim, coordinate_bound=args.bound)
    _show_polytope(instances(cfg, 1, kind=args.kind)[0],
                   f"generated ({args.kind}, seed {args.seed})", args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ehrhart",
        description="Exact Ehrhart quasi-polynomials, delta-vectors, and "
                    "polytope duality for rational convex polytopes.")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: argparse.ArgumentParser, budget: bool = True) -> None:
        p.add_argument("--format", choices=("text", "json"), default="text")
        if budget:
            p.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                           help="maximum box cells per count, and counts per request")

    p = sub.add_parser("info", help="basic facts about a polytope")
    p.add_argument("input", help="catalog name or JSON file")
    common(p, budget=False)
    p.set_defaults(func=_cmd_info)

    p = sub.add_parser("count", help="lattice points of a dilation")
    p.add_argument("input")
    p.add_argument("--m", type=int, default=1, help="dilation factor")
    common(p)
    p.set_defaults(func=_cmd_count)

    p = sub.add_parser("delta", help="delta-vector and residue table")
    p.add_argument("input")
    common(p)
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("dual", help="polar dual polytope")
    p.add_argument("input")
    common(p, budget=False)
    p.set_defaults(func=_cmd_dual)

    p = sub.add_parser("verify", help="run all consistency checks")
    p.add_argument("input")
    p.add_argument("--m-max", type=int, default=6,
                   help="largest dilation for reciprocity and interior-shift")
    common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("gen", help="generate a seeded test polytope")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--dim", type=int, default=2)
    p.add_argument("--kind", choices=("lattice", "dual-of-lattice", "rational"),
                   default="dual-of-lattice")
    p.add_argument("--bound", type=int, default=2,
                   help="coordinate bound of the underlying lattice draw")
    common(p, budget=False)
    p.set_defaults(func=_cmd_gen)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    digits = _get_digits()  # restored on return, for callers in the same process
    try:
        return args.func(args)
    except (EhrhartError, ValueError, OSError) as exc:
        print(f"ehrhart: error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a bug, not a fault of the input
        print(f"ehrhart: internal error: {exc!r}", file=sys.stderr)
        return 3
    finally:
        _set_digits(digits)
