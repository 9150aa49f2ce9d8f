"""Every program of shape 1x1, 1x2 and 2x1 with entries in {bot, top, -1, 0, 1}."""

import pytest

from extlp.elp import CONDITIONS
from exhaust import census

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


@pytest.mark.parametrize("m, n", sorted(CENSUS))
def test_every_small_program_matches_the_oracle_and_the_duality_theorem(m, n):
    counts = census(m, n)
    programs, valid, both_top, alone = CENSUS[m, n]
    assert (counts["programs"], counts["valid"], counts["both_top"]) == (programs, valid, both_top)
    # optimum_pair agrees with the oracle on each program and on its dual, the
    # dual fails the swapped conditions, and a valid program obeys duality
    assert (counts["oracle_mismatches"], counts["swap_mismatches"], counts["broken_valid"]) == (0, 0, 0)
    assert tuple(counts[name] for name in CONDITIONS) == alone

