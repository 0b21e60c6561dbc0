"""The polytope JSON exchange format.

A polytope is a document {"dim": n, "vertices": [[c, ...], ...]} where every
coordinate c is a string "p" or "p/q" of decimal integers (q positive, no
leading zeros).  The format is bit-exact by construction; floating-point
literals anywhere in the document are rejected outright.
"""

from __future__ import annotations

import json
import re
from pathlib import Path
from typing import Union

from .errors import ParseError
from .geometry import Polytope, from_ratios

#: The most bytes :func:`load_polytope` reads.  It bounds the input, not the hull:
#: a 2D file this size, some 740 000 random points, loads in about 17 s.
MAX_FILE_BYTES = 16 * 2**20

# A coordinate "p" or "p/q", parsed straight to the integers p and q.
_COORD = re.compile(r"(-?(?:0|[1-9][0-9]*))(?:/([1-9][0-9]*))?\Z")


def polytope_to_json_dict(P: Polytope) -> dict:
    return {
        "dim": P.ambient_dim,
        "vertices": [[str(c) for c in v] for v in P.vertices],
    }


def dumps_polytope(P: Polytope) -> str:
    return json.dumps(polytope_to_json_dict(P), indent=2)


def _reject_float(text: str) -> None:
    raise ParseError(f"floating-point literal {text!r} is not allowed")


def polytope_from_json_dict(obj: object) -> Polytope:
    if not isinstance(obj, dict):
        raise ParseError("top level must be a JSON object")
    extra = set(obj) - {"dim", "vertices"}
    if extra:
        raise ParseError(f"unknown keys {sorted(extra)}")
    if "dim" not in obj or "vertices" not in obj:
        raise ParseError('both "dim" and "vertices" are required')
    dim = obj["dim"]
    if isinstance(dim, bool) or not isinstance(dim, int) or dim < 1:
        raise ParseError('"dim" must be a positive integer')
    vertices = obj["vertices"]
    if not isinstance(vertices, list) or not vertices:
        raise ParseError('"vertices" must be a non-empty list')
    parsed = []
    for row, vertex in enumerate(vertices):
        if not isinstance(vertex, list) or len(vertex) != dim:
            raise ParseError(f"vertex {row} must be a list of {dim} coordinates")
        coords = []
        for col, coord in enumerate(vertex):
            match = _COORD.match(coord) if isinstance(coord, str) else None
            if match is None:
                raise ParseError(
                    f"vertex {row} coordinate {col}: {coord!r} is not a "
                    f'"p" or "p/q" integer string')
            coords.append((int(match[1]), int(match[2] or 1)))
        parsed.append(coords)
    return from_ratios(parsed)


def loads_polytope(text: str) -> Polytope:
    try:
        obj = json.loads(text, parse_float=_reject_float,
                         parse_constant=_reject_float)
    except json.JSONDecodeError as exc:
        raise ParseError(
            f"invalid JSON at line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    except RecursionError as exc:
        raise ParseError("JSON is nested too deeply") from exc
    return polytope_from_json_dict(obj)


def load_polytope(path: Union[str, Path]) -> Polytope:
    with open(path, "rb") as f:
        data = f.read(MAX_FILE_BYTES + 1)
    if len(data) > MAX_FILE_BYTES:
        raise ParseError(f"file holds more than {MAX_FILE_BYTES} bytes")
    return loads_polytope(data.decode())
