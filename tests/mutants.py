"""The mutation table: deliberate faults in ``src/ehrhart``, each with the
tier-1 tests that must catch it.

    python tests/mutants.py

For each mutant, copies ``src/``, ``tests/`` and
``pyproject.toml`` into a fresh temporary directory, makes the mutant's
edits there, each replacing an old text that must occur exactly once in
its module by a new text, and runs the mutant's tests in a child pytest,
for at most ``TIMEOUT`` seconds.  One line per mutant:

- ``caught``: every named test failed or errored (a test function named
  without a parameter id fails when one of its cases does);
- ``survived``: some named test passed (they are listed); an entry with a
  reason is known to survive, for that reason;
- ``stale``: an old text is not in its module exactly once, or a named
  test was not found, so the entry must be rewritten with the code.  A
  mutant that stops a test module from importing shows as stale too;
- ``timed out``: the child pytest ran past ``TIMEOUT`` and was killed, as
  a mutant that never ends a loop would; it is never counted as caught.

Exits 1 if a mutant without a reason survives, any entry is stale or any
child timed out, else 0.  Nothing is written outside the temporary
directory, which is removed.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path
from typing import NamedTuple, Optional, Union

ROOT = Path(__file__).resolve().parent.parent

#: Seconds a mutant's child pytest may run, well above the slowest row's 15 s.
TIMEOUT = 120


class Mutant(NamedTuple):
    name: str
    module: str  # a path under src/
    old: Union[str, tuple[str, ...]]  # one text, or one per edit
    new: Union[str, tuple[str, ...]]  # its replacement, or one per edit
    tests: tuple[str, ...]  # pytest node ids, from the repository root
    survives: Optional[str] = None  # why the mutant is known to survive

    @property
    def edits(self) -> list[tuple[str, str]]:
        """The (old, new) text of each edit, in order."""
        if isinstance(self.old, str):
            return [(self.old, self.new)]
        return list(zip(self.old, self.new, strict=True))


# Node-id prefixes of the six test modules that the table names.
C, A, V = "tests/test_counting.py::", "tests/test_acceptance.py::", "tests/test_verify.py::"
G, CLI, PKG = "tests/test_geometry.py::", "tests/test_cli.py::", "tests/test_package.py::"
MUTANTS = (
    # The five mutants of ROADMAP item 29, one from each of PRs 37-40 and
    # item 20's L(m) + 1.
    Mutant("floor sum +1 past 40 columns", "ehrhart/counting.py",
           "    total = 0\n    while n:", "    total = int(n > 40)\n    while n:",
           (C + "test_chamber_walk_hand_cases[crossing_on_top]",
            C + "test_chamber_walk_matches_scan_in_4d[rational]",
            V + "test_reports_stay_byte_identical")),
    Mutant("tip shift d taken as 1", "ehrhart/counting.py",
           "L // math.gcd(L, *r)", "1",
           (C + "test_reused_tips_equal_single_counts_on_hand_cases[third]",
            C + "test_a_gap_or_a_decreasing_order_only_misses",
            C + "test_reused_tips_equal_single_counts")),
    Mutant("tip window bound off by one", "ehrhart/counting.py",
           "// K.scale + (sign > 0)", "// K.scale + (sign > 0) + 1",
           (C + "test_reused_tips_equal_single_counts_on_hand_cases[half]",
            C + "test_a_gap_or_a_decreasing_order_only_misses")),
    Mutant("chain clip keeps pieces of length 0", "ehrhart/counting.py",
           "if lo[0] * hi[1] < hi[0] * lo[1]:", "if lo[0] * hi[1] <= hi[0] * lo[1]:",
           (C + "test_sweep_chain_hand_cases",)),
    Mutant("chain sweep pushes a line tied at a piece's start", "ehrhart/counting.py",
           "if start is None or f * start[1] > start[0] * e:",
           "if start is None or f * start[1] >= start[0] * e:",
           (C + "test_sweep_chain_hand_cases",),
           "the piece it keeps under the new one has length 0, and the clip drops it, "
           "so every chain is the same"),
    Mutant("every count L(m) + 1", "ehrhart/counting.py",
           ("return _chamber_count(K, m, strict)\n",
            "return _section(K.chains, m, s, 0, lo, hi) if"),
           ("return _chamber_count(K, m, strict) + 1\n",
            "return _section(K.chains, m, s, 0, lo, hi) + 1 if"),
           (A + "test_criterion_1_fixture_delta_vectors",
            C + "test_square_counts_match_closed_form",
            C + "test_chamber_walk_hand_cases[cube4]")),
    # A kernel that reads P in its walk's axis order must permute every
    # facet normal and every vertex row it reads.
    Mutant("normals read in P's axis order", "ehrhart/counting.py",
           "            a = turn(a)  # facet i stays bit i of P._incidence\n", "",
           (C + "test_framed_counts_match_the_given_frame",
            C + "test_reused_tips_equal_single_counts")),
    Mutant("rows read in P's axis order", "ehrhart/counting.py",
           "rows = sorted(map(turn, P.rows))", "rows = sorted(P.rows)",
           (C + "test_framed_counts_match_the_given_frame",
            C + "test_reused_tips_equal_single_counts")),
    Mutant("4D strip rows read in P's axis order", "ehrhart/counting.py",
           "strips(sorted(zip(map(turn, P.rows), P._incidence)), L)",
           "strips(sorted(zip(P.rows, P._incidence)), L)",
           (C + "test_framed_counts_match_the_given_frame",
            C + "test_a_count_builds_the_incidence_once",
            C + "test_counts_walk_the_table_of_their_frame")),
    # Every kernel holds each facet's prefix weights as an (x1, x2) pair,
    # 0 on an axis that P lacks, so a 3D kernel's x1 weight is 0.
    Mutant("3D prefix weights padded on the wrong side", "ehrhart/counting.py",
           "(0, 0, *a[:-2])[-2:]", "(*a[:-2], 0, 0)[:2]",
           (C + "test_count_matches_listed_points",
            C + "test_count_matches_listed_points_generated")),
    # The remainder tables: one per residue (a, B) of a piece's first
    # Euclid step, keyed there by the piece's length and residue of b.
    Mutant("remainder table keyed on B alone", "ehrhart/counting.py",
           "tables.setdefault((a, B), {})", "tables.setdefault(B, {})",
           (C + "test_a_piece_splits_its_floor_sum_at_the_first_euclid_step",
            C + "test_chamber_walk_matches_scan_in_4d[lattice]")),
    Mutant("remainder table keyed on a alone", "ehrhart/counting.py",
           "tables.setdefault((a, B), {})", "tables.setdefault(a, {})",
           (C + "test_a_piece_splits_its_floor_sum_at_the_first_euclid_step",
            C + "test_chamber_walk_matches_scan_in_4d[lattice]",
            V + "test_reports_stay_byte_identical")),
    Mutant("remainder keyed on the piece's length alone", "ehrhart/counting.py",
           "key = n * B + r", "key = n",
           (C + "test_a_piece_splits_its_floor_sum_at_the_first_euclid_step",)),
    Mutant("remainder keyed on b mod B alone", "ehrhart/counting.py",
           "key = n * B + r", "key = r",
           (C + "test_a_piece_splits_its_floor_sum_at_the_first_euclid_step",
            V + "test_reports_stay_byte_identical")),
    # The walk's window, and the tips whose counts set it.
    Mutant("window lower bound on x1 off by one", "ehrhart/counting.py",
           "lo = max(lo, l1)", "lo = max(lo, l1 + 1)",
           (C + "test_clipped_chamber_count_matches_listed_points",
            C + "test_reused_tips_equal_single_counts")),
    Mutant("window lower bound on x2 off by one", "ehrhart/counting.py",
           "                x2 = l2\n", "                x2 = l2 + 1\n",
           (C + "test_clipped_chamber_count_matches_listed_points",
            A + "test_criterion_2_theorem_suite")),
    Mutant("tip on a level that two vertices hold", "ehrhart/counting.py",
           "if r[0] != other[0] and len(levels) > 2]", "if len(levels) > 2]",
           (C + "test_reused_tips_equal_single_counts_on_hand_cases[two lowest]",)),
    Mutant("tip on a polytope of two levels", "ehrhart/counting.py",
           "if r[0] != other[0] and len(levels) > 2]", "if r[0] != other[0]]",
           (C + "test_reused_tips_equal_single_counts_on_hand_cases[pyramid]",)),
    Mutant("chain sweep drops the second of two identical lines", "ehrhart/counting.py",
           "                if not f:\n                    piece.append(line)\n",
           "",
           (C + "test_sweep_chain_hand_cases",
            C + "test_sweep_chain_matches_the_all_pairs_scan")),
    # Closed and strict counts keep their tip counts apart.
    Mutant("closed and strict counts share one tip table", "ehrhart/counting.py",
           ("K.tip_counts.get((sign, strict, m - d))", "K.tip_counts[sign, strict, m]"),
           ("K.tip_counts.get((sign, m - d))", "K.tip_counts[sign, m]"),
           (C + "test_reused_tips_equal_single_counts_on_hand_cases[half]",
            C + "test_a_gap_or_a_decreasing_order_only_misses")),
    # The interior-shift witness compares int(mP) with the closed (m-1)P,
    # in clipped counts that neither read nor keep a tip count; the search
    # over every m of a report runs on one kernel, which holds tip counts.
    Mutant("clipped counts use the tips", "ehrhart/counting.py",
           "tips = () if window else K.tips", "tips = K.tips",
           (C + "test_the_witness_neither_reads_nor_writes_the_tip_counts[3]",
            C + "test_the_witness_neither_reads_nor_writes_the_tip_counts[4]",
            C + "test_interior_shift_search_builds_one_chamber_table",
            C + "test_clipped_chamber_count_matches_listed_points")),
    Mutant("witness slab scan counts (m-1)P strict", "ehrhart/counting.py",
           "_chamber_count(K, m - 1, False, window)", "_chamber_count(K, m - 1, True, window)",
           (C + "test_interior_shift_witness_is_least_listed_difference_deeper",
            C + "test_the_witness_walks_no_more_sections_than_its_two_counts")),
    # A report's witness is sought on a kernel in P's own axis order, and
    # the search hands the witness the kernel, and the table, of its counts.
    Mutant("report's witness kernel in the walk's frame", "ehrhart/counting.py",
           "K = _Kernel(P) if K is None else K", "K = _Kernel(P, _frame(P)) if K is None else K",
           (V + "test_full_report_names_the_least_shift_witness_in_p_s_own_frame",)),
    Mutant("search's witness builds a kernel of its own", "ehrhart/counting.py",
           "return m, shift_witness(P, m, K)", "return m, shift_witness(P, m)",
           (C + "test_interior_shift_search_builds_one_chamber_table",)),
    # The vertex-facet incidence has one producer, the cached scan of P's
    # rows against its facets, which the frame and the 4D strips read.
    Mutant("incidence marks every facet above a vertex", "ehrhart/geometry.py",
           "if sum(map(mul, a, row)) == b)", "if sum(map(mul, a, row)) <= b)",
           (G + "test_incidence_is_the_vertex_facet_scan",
            C + "test_chamber_walk_matches_scan_in_4d[lattice]",
            C + "test_a_count_builds_the_incidence_once")),
    # The frame reads facet k's vertex rows off bit k of the masks.
    Mutant("frame reads the next facet's vertices too", "ehrhart/counting.py",
           "if f >> k & 1]", "if f >> k & 3]",
           (C + "test_frame_is_the_first_cheapest_order_of_the_cost_model",
            C + "test_framed_counts_match_the_given_frame")),
    # The 3D/4D hull's start: the first n + 1 affinely independent points,
    # each facet turned away from the start point it leaves out.
    Mutant("start facets turned towards the point left out", "ehrhart/geometry.py",
           "if sum(map(mul, normal, points[left])) > sum(map(mul, normal, q)):",
           "if sum(map(mul, normal, points[left])) < sum(map(mul, normal, q)):",
           (G + "test_hulls_stay_byte_identical",
            G + "test_from_vertices_matches_oracle_on_hand_cases",
            G + "test_insertion_matches_oracle")),
    Mutant("start facets turned away on a tie as well", "ehrhart/geometry.py",
           "if sum(map(mul, normal, points[left])) > sum(map(mul, normal, q)):",
           "if sum(map(mul, normal, points[left])) >= sum(map(mul, normal, q)):",
           (G + "test_hulls_stay_byte_identical",),
           "the point left out is off the plane of an independent simplex's other "
           "points, so the two sides never tie"),
    Mutant("start takes a dependent point", "ehrhart/geometry.py",
           "        if any(v):\n", "        if True:\n",
           (G + "test_hulls_stay_byte_identical",
            G + "test_insertion_matches_oracle[dependent-start]",
            G + "test_flat_clouds_are_dimension_deficient")),
    # A command renders the delta-vector only in the format it prints.
    Mutant("delta renders both formats", "ehrhart/cli.py",
           "    palindromic = check_palindrome(delta).passed\n",
           "    palindromic = check_palindrome(delta).passed\n"
           "    delta_fields(delta, qp), delta_lines(delta, qp)\n",
           (CLI + "test_delta_renders_only_the_format_it_prints",)),
    Mutant("verify's JSON renders the text delta too", "ehrhart/verify.py",
           '"fatal": report.fatal,',
           '"fatal": report.fatal or not delta_lines(report.delta, report.residue_table),',
           (CLI + "test_verify_renders_only_the_format_it_prints[json-render_text]",)),
    # A report's JSON writes every integer as a decimal string, by one rule.
    Mutant("report integers left as ints", "ehrhart/verify.py",
           "return str(value) if isinstance(value, int)", "return value if isinstance(value, int)",
           (V + "test_fatal_witnesses_render",
            V + "test_report_json_values_are_strings",
            V + "test_reports_stay_byte_identical")),
    # A dilation is read as an integer before any count.
    Mutant("a float dilation is charged", "ehrhart/counting.py",
           "ends = [index(m) for d in requests", "ends = [m for d in requests",
           (PKG + "test_input_guards[float_dilation_2d]",
            PKG + "test_input_guards[float_dilation_1d]",
            PKG + "test_input_guards[fraction_dilation]",
            PKG + "test_input_guards[float_shift]")),
)


def run(mutant: Mutant, scratch: Path) -> tuple[str, str]:
    """The outcome of one mutant and a note on it, from a copy under ``scratch``."""
    tree = Path(tempfile.mkdtemp(dir=scratch))
    for part in ("src", "tests"):
        shutil.copytree(ROOT / part, tree / part,
                        ignore=shutil.ignore_patterns("__pycache__", ".hypothesis"))
    shutil.copy(ROOT / "pyproject.toml", tree)
    path = tree / "src" / mutant.module
    text = path.read_text()
    for old, new in mutant.edits:
        if text.count(old) != 1:
            return "stale", f"old text {old!r} occurs {text.count(old)} times in {mutant.module}"
        text = text.replace(old, new)
    path.write_text(text)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=str(tree / "src"))
    try:
        child = subprocess.run(
            [sys.executable, "-m", "pytest", "-q", "-rfE", "-p", "no:cacheprovider",
             *mutant.tests], cwd=tree, env=env, capture_output=True, text=True, timeout=TIMEOUT)
    except subprocess.TimeoutExpired:
        return "timed out", f"killed after {TIMEOUT} s"
    if child.returncode > 1:  # 4: a node id was not found; 5: none collected
        last = (child.stderr.strip() or child.stdout.strip()).splitlines()[-1:]
        return "stale", f"pytest exited {child.returncode}: {' '.join(last)}"
    # "FAILED <node id> - <message>": a parameter id may hold spaces.
    failed = [line.split(" ", 1)[1].split(" - ", 1)[0] for line in child.stdout.splitlines()
              if line.startswith(("FAILED ", "ERROR "))]
    passed = [test for test in mutant.tests
              if not any(case == test or case.startswith(test + "[") for case in failed)]
    if not passed:
        return "caught", f"{len(failed)} failed"
    return "survived", "passed: " + ", ".join(passed) + (
        f"; known: {mutant.survives}" if mutant.survives else "")


def main() -> int:
    bad = 0
    with tempfile.TemporaryDirectory() as scratch:
        for mutant in MUTANTS:
            start = time.perf_counter()
            outcome, note = run(mutant, Path(scratch))
            print(f"{outcome:9}  {mutant.name}  ({note}; {time.perf_counter() - start:.1f} s)",
                  flush=True)
            bad += outcome != "caught" and not (outcome == "survived" and mutant.survives)
    return int(bad > 0)


if __name__ == "__main__":
    sys.exit(main())
