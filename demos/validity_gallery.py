"""
Six ways to break strong duality
================================

Each validity condition earns its keep: drop any one and there is a
program whose optimum is 0 while its dual's is bot.  This gallery runs
all six minimal offenders and shows the violated condition moving to
its partner condition under dualization.
"""

from extlp import (
    DUAL_CONDITION_SWAP,
    ExtendedLP,
    dualize,
    opposites_opt,
    validate,
)
from extlp.oracle import oracle_solve_extended

GALLERY = [
    ExtendedLP([["bot"], ["top"]], [-1, 0], [0]),
    ExtendedLP([["bot"]], ["bot"], [0]),
    ExtendedLP([["top"], [-1]], ["top", -1], [0]),
]

for p in GALLERY:
    d = dualize(p)
    for label, prog in (("P", p), ("D", d)):
        report = validate(prog)
        (condition,) = report.failed()
        print(f"{label}: violates {condition:16s} optimum {oracle_solve_extended(prog)}")
    p_fail = next(iter(validate(p).failed()))
    d_fail = next(iter(validate(d).failed()))
    print(
        "   swap:",
        p_fail,
        "<->",
        DUAL_CONDITION_SWAP[p_fail],
        "| opposites:",
        opposites_opt(oracle_solve_extended(p), oracle_solve_extended(d)),
    )
    print()
