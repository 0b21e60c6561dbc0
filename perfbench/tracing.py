"""Outside-in tracing of the ehrhart package, for traced benchmark runs only.

:func:`install` rebinds each public function named in ``TARGETS``, in every
loaded ehrhart module that holds it (``verify.fit_qp``, ``quasipoly.count_points``,
``geometry.from_vertices``, ``cli.catalog`` and so on), to a wrapper that
records a span: name, parent span, start and end on the system-wide monotonic
clock.  A few wrappers also count work at that boundary.  Spans and counters
stay in memory until :func:`dump` writes them.  Names a later refactor
removed are skipped and listed.

The untraced benchmark never imports this module.
"""

from __future__ import annotations

import functools
import importlib
import json
import math
import time
from collections import Counter
from pathlib import Path

TARGETS = (
    ("geometry", "from_vertices"),
    ("geometry", "dual"),
    ("linalg", "in_convex_hull"),
    ("linalg", "hyperplane_through"),
    ("counting", "count_points"),
    ("counting", "lattice_points"),
    ("counting", "interior_shift_mismatch"),
    ("quasipoly", "fit_qp"),
    ("quasipoly", "delta_vector_series"),
    ("verify", "full_report"),
    ("verify", "check_reciprocity"),
    ("verify", "check_palindrome"),
    ("verify", "check_theorem"),
    ("verify", "check_equivalence"),
    ("verify", "check_characterization"),
    ("verify", "check_non_negativity"),
    ("serialization", "polytope_from_json_dict"),
    ("serialization", "load_polytope"),
    ("generators", "instances"),
    ("generators", "catalog"),
    ("cli", "main"),
)

#: Exact work counters; box cells and prefixes are computed from
#: ``vertex_ranges``, not measured inside the walk.
COUNTERS = (
    "counting.count_points.requested",
    "counting.count_points.computed",
    "counting.walk.box_cells",
    "counting.walk.prefix_bound",
    "counting.lattice_points.points",
    "geometry.hull.points_in",
    "geometry.hull.candidate_planes",
    "geometry.dual.repeat_calls",
)


def clock() -> float:
    """Seconds on CLOCK_MONOTONIC, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


_spans: list = []  # [name, parent index or None, start, end]
_stack: list[int] = []
counters: Counter = Counter()
_count_keys: set = set()
_dualized: set = set()
found: list[str] = []
missing: list[str] = []
sites: list[str] = []


def span_open(name: str) -> int:
    sid = len(_spans)
    _spans.append([name, _stack[-1] if _stack else None, clock(), None])
    _stack.append(sid)
    return sid


def span_close(sid: int) -> None:
    _spans[sid][3] = clock()
    _stack.pop()


def _walk_work(P, m: int) -> None:
    from ehrhart.geometry import vertex_ranges

    bx = [(math.ceil(m * lo), math.floor(m * hi)) for lo, hi in vertex_ranges(P)]
    widths = [max(0, hi - lo + 1) for lo, hi in bx]
    if math.prod(widths):
        counters["counting.walk.box_cells"] += math.prod(widths)
        counters["counting.walk.prefix_bound"] += math.prod(widths[:-1])


def _arg(args, kwargs, index, name, default=None):
    if len(args) > index:
        return args[index]
    return kwargs.get(name, default)


def _on_count_points(args, kwargs, result):
    P, m = _arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "m")
    key = (P, m, bool(_arg(args, kwargs, 2, "strict", False)))
    counters["counting.count_points.requested"] += 1
    if key not in _count_keys:
        _count_keys.add(key)
        counters["counting.count_points.computed"] += 1
        _walk_work(P, m)


def _on_lattice_points(args, kwargs, result):
    counters["counting.lattice_points.points"] += len(result)
    _walk_work(_arg(args, kwargs, 0, "P"), _arg(args, kwargs, 1, "m"))


def _on_from_vertices(args, kwargs, result):
    counters["geometry.hull.points_in"] += len(_arg(args, kwargs, 0, "points"))
    counters["geometry.hull.candidate_planes"] += math.comb(
        len(result.vertices), result.ambient_dim)


def _on_dual(args, kwargs, result):
    P = _arg(args, kwargs, 0, "P")
    if P in _dualized:
        counters["geometry.dual.repeat_calls"] += 1
    _dualized.add(P)


_HOOKS = {
    "counting.count_points": _on_count_points,
    "counting.lattice_points": _on_lattice_points,
    "geometry.from_vertices": _on_from_vertices,
    "geometry.dual": _on_dual,
}


def _wrap(name: str, fn):
    hook = _HOOKS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        if name == "geometry.from_vertices" and args and not hasattr(args[0], "__len__"):
            args = (list(args[0]),) + args[1:]
        sid = span_open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            span_close(sid)
        if hook is not None:
            hook(args, kwargs, result)
        return result

    return traced


def install() -> None:
    """Import the ehrhart modules and rebind every target name they hold."""
    import sys

    modules = {}
    for module, _ in TARGETS:
        try:
            modules[module] = importlib.import_module(f"ehrhart.{module}")
        except ImportError:
            pass
    holders = [mod for key, mod in sys.modules.items()
               if mod is not None and (key == "ehrhart" or key.startswith("ehrhart."))]
    for module, attr in TARGETS:
        name = f"{module}.{attr}"
        original = getattr(modules.get(module), attr, None)
        if original is None:
            missing.append(name)
            continue
        wrapper = _wrap(name, original)
        found.append(name)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    setattr(holder, key, wrapper)
                    sites.append(f"{holder.__name__}.{key}")


def dump(path: Path) -> None:
    """Write the spans, counters, and the names found, missing and rebound."""
    Path(path).write_text(json.dumps({
        "spans": _spans, "counters": dict(counters),
        "found": found, "missing": missing, "sites": sites}))


def aggregate(dumps: list[dict], latencies: list[float]) -> dict[str, float]:
    """Per-name calls, total and self time, counters, and span coverage.

    ``total_s`` counts only the outermost span of a name, so recursion through
    another traced name is not counted twice.  ``self_s`` is a span's duration
    minus that of its direct children.
    """
    calls: Counter = Counter()
    total: Counter = Counter()
    self_s: Counter = Counter()
    counts: Counter = Counter()
    top = 0.0
    for doc in dumps:
        spans = doc["spans"]
        child = [0.0] * len(spans)
        for name, parent, start, end in spans:
            if parent is not None:
                child[parent] += end - start
        for sid, (name, parent, start, end) in enumerate(spans):
            duration = end - start
            calls[name] += 1
            self_s[name] += duration - child[sid]
            outer = parent
            while outer is not None and spans[outer][0] != name:
                outer = spans[outer][1]
            if outer is None:
                total[name] += duration
            if parent is None:
                top += duration
        counts.update(doc["counters"])
    names = [f"{m}.{a}" for m, a in TARGETS] + ["cli.import"]
    out: dict[str, float] = {}
    for name in names:
        out[f"{name}.calls"] = calls[name]
        out[f"{name}.total_s"] = total[name]
        out[f"{name}.self_s"] = self_s[name]
    for name in COUNTERS:
        out[name] = counts[name]
    request_s = sum(latencies)
    out["trace.request_s"] = request_s
    out["trace.span_coverage"] = top / request_s if request_s else 0.0
    out["cli.outside_spans_s"] = request_s - top if calls["cli.import"] else 0.0
    return out
