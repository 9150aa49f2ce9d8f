"""
Witnesses on both sides of an alternative
=========================================

A linear system over nonnegative variables either has a solution or a
short certificate that none exists, never both.  The solvers here always
return one of the two, and every witness can be re-checked by hand.
"""

from extlp import (
    ExtMatrix,
    ExtVector,
    solve_extended,
    solve_inequality,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_ineq,
)

# A solvable system: two "at least this much" resource rows.
a = [[-27, -90], [-1300, -1150]]
b = [-30, -700]
out = solve_inequality(a, b)
print("solvable system  ->", out)
print("witness checks   ->", verify_primal_ineq(a, b, out.x))

# An unsolvable one: x <= 1 together with x >= 2.  The dual witness is a
# nonnegative row combination that adds up to the contradiction 0 <= -1.
a = [[1], [-1]]
b = [1, -2]
out = solve_inequality(a, b)
print("empty system     ->", out)
print("witness checks   ->", verify_dual_ineq(a, b, out.y))

# The certificate alone answers only the infeasibility question: None for
# solvable systems, a verifying certificate otherwise.
print("search, solvable ->", solve_inequality([[-1]], [-1]).y)
print("search, empty    ->", solve_inequality(a, b).y)

# With endpoints the same story holds.  Here the first row is dead (a bot
# entry makes it unsatisfiable-proof), the second is plainly false, and
# the zero weight on the dead row is part of the certificate.
ea = ExtMatrix([["bot"], [0]])
eb = ExtVector([0, -1])
out = solve_extended(ea, eb)
print("extended system  ->", out)
print("witness checks   ->", verify_dual_ext(ea, eb, out.y))
