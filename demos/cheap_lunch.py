"""
The cheapest compliant lunch
============================

A classic diet question: hit 30 g of protein and 700 kcal at minimal
cost, choosing amounts of two foods.  Written as minimization with
"at least" rows negated into <= form, it is a two-by-two program the
whole duality pipeline can be watched on.
"""

from fractions import Fraction

from extlp import (
    ExtendedLP,
    ValidELP,
    dualize,
    optimum_pair,
    reaches,
    strong_duality_check,
    validate,
    weak_duality_check,
)
from extlp.oracle import oracle_solve_finite

# Rows: -protein and -energy per unit, costs per unit in the objective.
lunch = ValidELP(
    [[-27, -90], [-1300, -1150]],
    [-30, -700],
    [Fraction(23, 25), Fraction(7, 4)],
)
print("valid:", validate(lunch).is_valid)

# The exact optimum and its dual, from one certificate.
p_opt, d_opt = optimum_pair(lunch)
print("optimum      :", p_opt, "=", float(p_opt.value.finite_value))
print("dual optimum :", d_opt)
print("strong duality:", strong_duality_check(lunch))

# The brute-force oracle agrees and also names the menu.
vertex = oracle_solve_finite(
    [[Fraction(-27), Fraction(-90)], [Fraction(-1300), Fraction(-1150)]],
    [Fraction(-30), Fraction(-700)],
    [Fraction(23, 25), Fraction(7, 4)],
)
print("menu         :", vertex.point, "->", vertex.value)
print("reaches      :", reaches(lunch, vertex.point))

# Weak duality in action: any primal solution and any dual solution
# bracket the optimum, so their value sum never goes negative.
print("weak duality :", weak_duality_check(lunch, (Fraction(10, 9), 0), (Fraction(1, 100), 0)))

# Pricing the second food at top forbids buying it at all; the optimum
# moves to the best single-food menu, and duality still holds exactly.
priced_out = ExtendedLP(lunch.A, lunch.b, [Fraction(23, 25), "top"])
p_opt, d_opt = optimum_pair(priced_out)
print("top-priced   :", p_opt, "and dual", d_opt)
print("dual program :", dualize(priced_out).c)
