"""
A tour of arithmetic with bot and top
=====================================

The carrier behind every solver in this package is the exact rationals
plus two endpoints.  This script walks the rules that make the endpoints
usable inside linear programs: bot absorbs, top yields, and the zero
scale treats them differently on purpose.
"""

from fractions import Fraction

from extlp import BOT, TOP, ZERO, DomainError, ExtValue, smul_nn

# Addition: bot wins every meeting, including the one with top.
print("bot + 5   =", BOT + ExtValue(5))
print("top + 5   =", TOP + ExtValue(5))
print("bot + top =", BOT + TOP)

# Negation swaps the endpoints, but there is no subtraction to recover
# a zero: the structure is a monoid, not a group.
print("-(bot)       =", -BOT)
print("top + (-top) =", TOP + (-TOP))

# The scalar action is defined for nonnegative rationals only.  Zero
# clears a top but cannot clear a bot; that single asymmetry is what
# lets the all-zero vector certify infeasibility later on.
print("0 * top =", smul_nn(0, TOP))
print("0 * bot =", smul_nn(0, BOT))
print("3 * bot =", smul_nn(3, BOT))
print("2/3 * 9 =", smul_nn(Fraction(2, 3), ExtValue(9)))

try:
    smul_nn(-1, TOP)
except DomainError as exc:
    print("negative scale:", exc)

# The order is total: bot sits under every rational, top above.
samples = [TOP, ExtValue(-1000000), BOT, ZERO, ExtValue(Fraction(1, 3))]
print("sorted:", " < ".join(str(v) for v in sorted(samples)))
