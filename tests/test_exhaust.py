"""Every program of shape 1x1, 1x2 and 2x1 with entries in {bot, top, -1, 0, 1},
and, for the census, in {bot, top, -2, -1/2, 0, 1/2, 2}."""

from fractions import Fraction
from itertools import product

import pytest

from extlp import BOT, TOP, ZERO, ExtValue, as_ext
from extlp.elp import CONDITIONS, dualize, is_bounded_by, is_solution, validate, weak_duality_check
from extlp.oracle import oracle_solve_extended
from exhaust import census, programs

# shape: programs, valid, both optima top; then the programs broken by one
# condition alone, in CONDITIONS order: mixed_row, mixed_col, bot_row_bot_rhs,
# top_col_bot_cost, top_row_top_rhs, bot_col_top_cost.  Each condition breaks
# some program alone, so each is needed: the necessity side of the paper's
# conditions, found by search instead of by fixture
CENSUS = {
    (1, 1): (125, 107, 8, (0, 0, 2, 2, 1, 1)),
    (1, 2): (3125, 2213, 244, (12, 0, 40, 64, 25, 23)),
    (2, 1): (3125, 2213, 244, (0, 12, 64, 40, 23, 25)),
}


# the same over {bot, top, -2, -1/2, 0, 1/2, 2}: 16807 programs of 1x2 or 2x1,
# with non-unit pivots and denominators.  The domain is closed under negation,
# so every dual's entries lie in it and the census keeps its swap symmetry
WIDE_VALUES = (BOT, TOP, as_ext(-2), as_ext(Fraction(-1, 2)), ZERO, as_ext(Fraction(1, 2)), as_ext(2))
WIDE_CENSUS = {
    (1, 1): (343, 317, 21, (0, 0, 3, 3, 2, 2)),
    (1, 2): (16807, 14047, 1313, (60, 0, 129, 215, 100, 114)),
    (2, 1): (16807, 14047, 1313, (0, 60, 215, 129, 114, 100)),
}


def assert_census(counts, programs, valid, both_top, alone):
    assert (counts["programs"], counts["valid"], counts["both_top"]) == (programs, valid, both_top)
    # optimum_pair agrees with the oracle on each program and on its dual, the
    # dual fails the swapped conditions, and a valid program obeys duality
    assert (counts["oracle_mismatches"], counts["swap_mismatches"], counts["broken_valid"]) == (0, 0, 0)
    assert tuple(counts[name] for name in CONDITIONS) == alone


@pytest.mark.parametrize("m, n", sorted(CENSUS))
def test_every_small_program_matches_the_oracle_and_the_duality_theorem(m, n):
    assert_census(census(m, n), *CENSUS[m, n])


@pytest.mark.parametrize("m, n", sorted(WIDE_CENSUS))
def test_every_small_program_over_a_wider_domain_matches_the_oracle_and_the_duality_theorem(m, n):
    assert_census(census(m, n, WIDE_VALUES), *WIDE_CENSUS[m, n])



# shape: the (x, y) pairs of 0/1 points that solve a valid program and its
# dual; then the programs that fail one condition alone and break weak
# duality on such a pair, in CONDITIONS order; 6384 pairs in all
WEAK_DUALITY = {
    (1, 1): (138, (0, 0, 2, 2, 1, 1)),
    (1, 2): (3123, (12, 0, 40, 64, 25, 21)),
    (2, 1): (3123, (0, 12, 64, 40, 21, 25)),
}


@pytest.mark.parametrize("m, n", sorted(WEAK_DUALITY))
def test_every_small_program_is_bounded_by_its_oracle_optimum_and_obeys_weak_duality(m, n):
    bound_mismatches = broken_valid = pairs = 0
    alone = dict.fromkeys(CONDITIONS, 0)
    for p in programs(m, n):
        # bounded by r exactly when the oracle's optimum is at least r
        reference = oracle_solve_extended(p).value
        bound_mismatches += sum(is_bounded_by(p, r) != (ExtValue(r) <= reference) for r in (-1, 0, 1))
        d = dualize(p)
        xs = [x for x in product((0, 1), repeat=n) if is_solution(p, x)]
        ys = [y for y in product((0, 1), repeat=m) if is_solution(d, y)]
        broken = not all(weak_duality_check(p, x, y) for x in xs for y in ys)
        failed = validate(p).failed()
        if not failed:
            pairs += len(xs) * len(ys)
            broken_valid += broken
        elif len(failed) == 1 and broken:
            alone[next(iter(failed))] += 1
    assert (bound_mismatches, broken_valid) == (0, 0)
    assert (pairs, tuple(alone.values())) == WEAK_DUALITY[m, n]
