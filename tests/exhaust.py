"""Audit every small extended program against the oracle and the duality theorem.

Run ``python3 tests/exhaust.py 2x2`` (any shapes ``MxN``).  For each shape it
takes every program ``(A, b, c)`` with each entry of ``A``, ``b`` and ``c``
in ``{bot, top, -1, 0, 1}`` and prints one census line of counts:

* ``programs``, the ``valid`` ones, and the valid ones whose optimum and
  dual optimum are ``both_top``;
* ``broken_valid``: valid programs whose optima are neither opposites nor
  both top, which the paper's duality theorem rules out;
* ``oracle_mismatches``: programs where ``optimum_pair`` differs from
  ``oracle_solve_extended`` on the program or on its dual;
* ``swap_mismatches``: programs where ``validate(dualize(p))`` does not fail
  exactly the ``DUAL_CONDITION_SWAP`` images of what ``validate(p)`` fails,
  at the same indices;
* one count per condition, in ``CONDITIONS`` order: the programs that fail
  that condition alone and whose optima are neither opposites nor both top.
  A nonzero count shows the condition is needed for duality.

``programs`` and ``census`` take another domain as ``values``.  A test pins
the census of 1x1, 1x2 and 2x1, over these values and over
``{bot, top, -2, -1/2, 0, 1/2, 2}``; CI pins the one of 2x2.

``python3 tests/exhaust.py --systems 2x2`` audits the paper's extended
Farkas alternative instead.  It takes every system ``A x <= b`` with entries
in the same values.  Its primal side holds when the oracle's optimum of the
program ``(A, b, 0)`` is not top, its dual side when the oracle's optimum of
``(-A^T, 0, b)`` is below 0, so neither side calls the simplex.  The census
line counts

* ``systems`` and those ``meeting`` the four hypotheses of
  ``system_preconditions``;
* ``mismatches``: systems meeting them on which not exactly one side holds,
  or whose ``solve_extended`` witness fails its check or picks the other
  side;
* ``neither``: systems failing one hypothesis alone on which neither side
  holds;
* one count per hypothesis, in ``HYPOTHESES`` order: the systems that fail
  that hypothesis alone and on which both sides hold.  A nonzero count shows
  the hypothesis is needed for the alternative.

A test pins the system census of 1x1, 1x2, 2x1 and 1x3; CI pins 2x2 and 3x1.
"""

import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from extlp import BOT, TOP, ZERO, as_ext, solve_extended, system_preconditions, verify_dual_ext, verify_primal_ext  # noqa: E402
from extlp.elp import CONDITIONS, DUAL_CONDITION_SWAP, ExtendedLP, dualize, opposites_opt, optimum_pair, validate  # noqa: E402
from extlp.farkas import BOT_ROW_BOT_RHS, MIXED_COL, MIXED_ROW, TOP_ROW_TOP_RHS  # noqa: E402
from extlp.oracle import oracle_solve_extended  # noqa: E402

VALUES = (BOT, TOP, as_ext(-1), ZERO, as_ext(1))
# the hypotheses of the extended Farkas alternative, in system_preconditions' order
HYPOTHESES = (MIXED_ROW, MIXED_COL, TOP_ROW_TOP_RHS, BOT_ROW_BOT_RHS)


def programs(m: int, n: int, values=VALUES):
    """Every ``m x n`` program with entries in ``values``."""
    for entries in product(values, repeat=m * n + m + n):
        rows = [entries[i * n : (i + 1) * n] for i in range(m)]
        yield ExtendedLP(rows, entries[m * n : m * n + m], entries[m * n + m :])


def census(m: int, n: int, values=VALUES) -> dict[str, int]:
    """The counts of the module docstring for shape ``m x n``, by name,
    over the entries ``values``."""
    counts = dict.fromkeys(("programs", "valid", "both_top", "broken_valid", "oracle_mismatches", "swap_mismatches"), 0)
    counts.update(dict.fromkeys(CONDITIONS, 0))
    for p in programs(m, n, values):
        d = dualize(p)
        failed = validate(p).failed()
        opt_p, opt_d = optimum_pair(p)
        both_top = opt_p.value.is_top and opt_d.value.is_top
        broken = not both_top and not opposites_opt(opt_p, opt_d)
        counts["programs"] += 1
        counts["oracle_mismatches"] += (opt_p, opt_d) != (oracle_solve_extended(p), oracle_solve_extended(d))
        counts["swap_mismatches"] += validate(d).failed() != {DUAL_CONDITION_SWAP[k]: v for k, v in failed.items()}
        if not failed:
            counts["valid"] += 1
            counts["both_top"] += both_top
            counts["broken_valid"] += broken
        elif len(failed) == 1 and broken:
            counts[next(iter(failed))] += 1
    return counts


def systems(m: int, n: int, values=VALUES):
    """Every ``m x n`` system ``A x <= b`` with entries in ``values``, as the
    program ``(A, b, 0)``."""
    zero = (ZERO,) * n
    for entries in product(values, repeat=m * n + m):
        yield ExtendedLP([entries[i * n : (i + 1) * n] for i in range(m)], entries[m * n :], zero)


def system_census(m: int, n: int, values=VALUES) -> dict[str, int]:
    """The system census of the module docstring for shape ``m x n``, by
    name, over the entries ``values``."""
    counts = dict.fromkeys(("systems", "meeting", "mismatches", "neither"), 0)
    counts.update(dict.fromkeys(HYPOTHESES, 0))
    for p in systems(m, n, values):
        a, b = p.A, p.b
        primal = not oracle_solve_extended(p).value.is_top
        dual = oracle_solve_extended(dualize(p)).value < ZERO  # the program (-A^T, 0, b)
        failed = system_preconditions(a, b)
        counts["systems"] += 1
        if not failed:
            out = solve_extended(a, b)
            verified = verify_primal_ext(a, b, out.x) if out.is_primal else verify_dual_ext(a, b, out.y)
            counts["meeting"] += 1
            counts["mismatches"] += primal == dual or out.is_primal != primal or not verified
        elif len(failed) == 1:
            counts["neither"] += not primal and not dual
            counts[next(iter(failed))] += primal and dual
    return counts


def census_line(m: int, n: int, count=census) -> str:
    return " ".join([f"{m}x{n}"] + [f"{name} {c}" for name, c in count(m, n).items()])


if __name__ == "__main__":
    shapes, count = sys.argv[1:], census
    if shapes[:1] == ["--systems"]:
        shapes, count = shapes[1:], system_census
    for shape in shapes:
        print(census_line(*map(int, shape.split("x")), count))
