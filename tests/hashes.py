"""Hash every answer and every witness of a fixed set of seeded programs.

Run ``python3 tests/hashes.py``.  It prints two lines:

* the answer hash: the optima, primal and dual, of 4180 valid programs and
  then of 3000 invalid ones, each set hashed alone;
* the witness hash: 3080 outputs of ``solve_extended``, ``solve_equality``,
  ``solve_inequality`` and ``solve_program``.

Any changed optimum, witness or optimal pair changes a hash.  The Tier-1
test ``tests/test_pins.py`` compares both lines with pinned values.
"""

import hashlib
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import gen  # noqa: E402
import workloads  # noqa: E402
from extlp import elp, farkas  # noqa: E402


def digest(value) -> str:
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def optima(programs) -> str:
    return digest([tuple(str(o) for o in elp.optimum_pair(workloads.to_elp(p))) for p in programs])


def answer_hash() -> str:
    valid = gen.audit_programs(1, 2000) + gen.audit_programs(2, 2000) + workloads.lp_finite_programs(1)[:180]
    return f"{optima(valid)} {optima(gen.raw_programs(1, 3000))}"


def witness_hash() -> str:
    systems = [
        workloads.rational_rows(p) + ([Fraction(t) for t in p.c],) for p in workloads.lp_finite_programs(1)[:360]
    ]
    extended = [farkas.solve_extended(q.A, q.b) for q in map(workloads.to_elp, gen.audit_programs(1, 2000))]
    finite = [solve(a, b) for a, b, _ in systems for solve in (farkas.solve_equality, farkas.solve_inequality)]
    out = [(o.x, o.y) for o in extended + finite]
    return digest(out + [farkas.solve_program(a, b, c) for a, b, c in systems])


if __name__ == "__main__":
    print(answer_hash())
    print(witness_hash())
