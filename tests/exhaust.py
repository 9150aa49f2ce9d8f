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
"""

import sys
from itertools import product
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src")]

from extlp import BOT, TOP, ZERO, as_ext  # noqa: E402
from extlp.elp import CONDITIONS, DUAL_CONDITION_SWAP, ExtendedLP, dualize, opposites_opt, optimum_pair, validate  # noqa: E402
from extlp.oracle import oracle_solve_extended  # noqa: E402

VALUES = (BOT, TOP, as_ext(-1), ZERO, as_ext(1))


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


def census_line(m: int, n: int) -> str:
    return " ".join([f"{m}x{n}"] + [f"{name} {count}" for name, count in census(m, n).items()])


if __name__ == "__main__":
    for shape in sys.argv[1:]:
        print(census_line(*map(int, shape.split("x"))))
