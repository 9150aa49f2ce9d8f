"""Alternative theorems: every call returns exactly one verifying branch."""

import random
from fractions import Fraction
from operator import mul

import pytest

from extlp import (
    BOT,
    TOP,
    ZERO,
    DimensionError,
    ExtMatrix,
    ExtVector,
    PreconditionError,
    farkas_bartl,
    solve_equality,
    solve_extended,
    solve_inequality,
    system_preconditions,
    verify_dual_eq,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_eq,
    verify_primal_ext,
    verify_primal_ineq,
)
from extlp import check as check_module
from extlp import extlinalg as extlinalg_module
from extlp import farkas as farkas_module
from extlp.extlinalg import dot_weig, le_vec, mul_weig, neg_transpose, rat_vector
from extlp.elp import _check_pair
from extlp.farkas import _bartl, _feasible, _simplex, solve_program
from extlp.oracle import oracle_feasible_point
from conftest import fractions


def random_system(rng: random.Random, max_dim: int = 4, bound: int = 3):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)
    a = [[Fraction(rng.randint(-bound, bound)) for _ in range(n)] for _ in range(m)]
    b = [Fraction(rng.randint(-bound, bound)) for _ in range(m)]
    return a, b, n


# --- core recursion ---


def test_identity_columns_give_the_target_back():
    out = farkas_bartl([(1, 0), (0, 1)], (3, 4))
    assert out.is_primal and out.x == (3, 4)


def test_empty_functional_list_zero_target():
    out = farkas_bartl([], ())
    assert out.is_primal and out.x == ()


def test_empty_functional_list_nonzero_target():
    out = farkas_bartl([], (2,))
    # no functionals on Q^1: as a system, one row of width zero
    assert out.is_dual and verify_dual_eq([[]], (2,), out.y)


def test_arity_mismatch_rejected():
    with pytest.raises(DimensionError):
        farkas_bartl([(1,), (2, 3)], (1, 2))


@pytest.mark.parametrize(
    "verify", [verify_primal_eq, verify_dual_eq, verify_primal_ineq, verify_dual_ineq, verify_primal_ext, verify_dual_ext]
)
@pytest.mark.parametrize(
    "a, b, w",
    [
        ([[1], [10]], [5], [3]),  # row 1 has no right-hand side
        ([[1, 2], [1]], [1, -1], [1, 1]),  # ragged rows
        ([], [2], [1]),  # no rows, one right-hand side
        ([[1, 2], [3, 4]], [5, 6], [1]),  # a witness one entry too short
        ([[1, 2], [3, 4]], [5, 6], [1, 1, 1]),  # a witness one entry too long
        ([[1, 2], [3, 4]], [5, 6], [-1]),  # too short, and its sign alone would refuse it
        ([[1, 2], [3, 4]], [5, 6], [-1, 1, 1]),  # too long, and its sign alone would refuse it
    ],
)
def test_verifiers_reject_a_misshapen_system(verify, a, b, w):
    with pytest.raises(DimensionError):
        verify(a, b, w)


# --- equality systems ---


def test_equality_contradictory_rows():
    # x = 1 and x = 2 cannot both hold
    out = solve_equality([[1], [1]], [1, 2])
    assert out.is_dual
    assert verify_dual_eq([[1], [1]], [1, 2], out.y)


def test_equality_solvable_system():
    a = [[2, 1], [1, 1]]
    b = [3, 2]
    out = solve_equality(a, b)
    assert out.is_primal and out.x == (1, 1)
    assert verify_primal_eq(a, b, out.x)


def test_equality_width_of_an_empty_system():
    out = solve_equality([], [], ncols=3)
    assert out.is_primal and out.x == (0, 0, 0)
    # a system with no rows has no width, so its checks take a witness of any length
    assert verify_primal_eq([], [], out.x) and verify_primal_ineq([], [], out.x)
    # without ncols an empty matrix is read as zero columns
    assert solve_equality([], []).x == ()
    with pytest.raises(DimensionError):
        solve_equality([[1, 2]], [1], ncols=3)


def test_equality_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        solve_equality([[1, 2], [1]], [1, 1])
    with pytest.raises(DimensionError):
        solve_inequality([[1], [1, 2]], [1, 1])


def test_equality_many_functionals_do_not_deepen_the_recursion():
    # 2000 functionals, twice the default recursion limit
    a = [[1] * 2000]
    out = solve_equality(a, [1])
    assert out.is_primal and out.x == (1,) + (0,) * 1999
    assert verify_primal_eq(a, [1], out.x)


def test_equality_negative_solution_goes_dual():
    # x = -1 has no nonnegative solution
    a = [[1]]
    b = [-1]
    out = solve_equality(a, b)
    assert out.is_dual and verify_dual_eq(a, b, out.y)


# --- inequality systems ---


def test_inequality_two_resource_rows():
    a = [[-27, -90], [-1300, -1150]]
    b = [-30, -700]
    out = solve_inequality(a, b)
    assert out.is_primal and out.x == (Fraction(10, 9), 0)
    assert verify_primal_ineq(a, b, out.x)


def test_inequality_infeasible_band():
    # x <= 1 together with x >= 2
    a = [[1], [-1]]
    b = [1, -2]
    out = solve_inequality(a, b)
    assert out.is_dual and verify_dual_ineq(a, b, out.y)


def test_inequality_neg_shares_the_witness_semantics():
    a = [[1], [-1]]
    b = [1, -2]
    out = solve_inequality(a, b)
    assert out.is_dual
    # y >= 0 with (-A^T) y <= 0 and b.y < 0
    y = out.y
    assert all(t >= 0 for t in y)
    assert -(y[0] - y[1]) <= 0
    assert b[0] * y[0] + b[1] * y[1] < 0


def test_exactly_one_branch_on_random_systems():
    rng = random.Random(99)
    for _ in range(60):
        a, b, n = random_system(rng)
        out = solve_inequality(a, b, ncols=n)
        point = oracle_feasible_point(a, b, ncols=n)
        if out.is_primal:
            assert verify_primal_ineq(a, b, out.x)
            assert point is not None
        else:
            assert verify_dual_ineq(a, b, out.y)
            assert point is None


def test_equality_branches_agree_with_double_inequality_oracle():
    rng = random.Random(4)
    for _ in range(60):
        a, b, n = random_system(rng, max_dim=3, bound=2)
        out = solve_equality(a, b, ncols=n)
        # Ax = b, x >= 0 encoded as Ax <= b and -Ax <= -b
        both = [row[:] for row in a] + [[-v for v in row] for row in a]
        rhs = b + [-v for v in b]
        point = oracle_feasible_point(both, rhs, ncols=n)
        assert out.is_primal == (point is not None)


# --- the dual certificate alone: solve_inequality(a, b).y ---


def test_search_returns_none_on_feasible_systems():
    assert solve_inequality([[-27, -90], [-1300, -1150]], [-30, -700]).y is None
    assert solve_inequality([[-1]], [-1]).y is None


def test_search_certifies_infeasible_systems():
    a = [[1], [-1]]
    b = [1, -2]
    y = solve_inequality(a, b).y
    assert y is not None and verify_dual_ineq(a, b, y)


# --- extended systems ---


def ext_system(a_rows, b_vals):
    a = ExtMatrix(a_rows, ncols=len(a_rows[0]) if a_rows else 0)
    return a, ExtVector(b_vals)


def test_preconditions_flag_offending_rows_and_cols():
    a, b = ext_system([["bot", "top"]], [0])
    assert system_preconditions(a, b) == {"mixed_row": (0,)}
    a, b = ext_system([["bot"], ["top"]], [0, 0])
    assert system_preconditions(a, b) == {"mixed_col": (0,)}
    a, b = ext_system([["top"]], ["top"])
    assert system_preconditions(a, b) == {"top_row_top_rhs": (0,)}
    a, b = ext_system([["bot"]], ["bot"])
    assert system_preconditions(a, b) == {"bot_row_bot_rhs": (0,)}
    with pytest.raises(PreconditionError) as err:
        solve_extended(*ext_system([["bot", "top"]], [0]))
    assert err.value.violations == {"mixed_row": (0,)}


def test_extended_finite_passthrough():
    a, b = ext_system([[-27, -90], [-1300, -1150]], [-30, -700])
    out = solve_extended(a, b)
    assert out.is_primal and out.x == (Fraction(10, 9), 0)
    assert verify_primal_ext(a, b, out.x)


def test_extended_masked_rows_keep_full_width():
    # every row dies, so the witness must still cover all three columns
    a, b = ext_system([["bot", "bot", "bot"]], [5])
    out = solve_extended(a, b)
    assert out.is_primal and out.x == (0, 0, 0)
    assert verify_primal_ext(a, b, out.x)


def test_extended_top_columns_are_pinned_to_zero():
    a, b = ext_system([["top", -1]], [-2])
    out = solve_extended(a, b)
    assert out.is_primal
    assert out.x[0] == 0 and out.x[1] >= 2
    assert verify_primal_ext(a, b, out.x)


def test_extended_bot_rhs_certified_by_zero_vector():
    # a surviving bot on the right admits the all-zero dual witness:
    # the zero weight keeps bot absorbing, so b.y = bot < 0
    a, b = ext_system([[-1]], ["bot"])
    out = solve_extended(a, b)
    assert out.is_dual and out.y == (0,)
    assert verify_dual_ext(a, b, out.y)
    # the unit indicator is not a certificate here: (-A^T) e_0 = 1 > 0
    assert not verify_dual_ext(a, b, (1,))


def test_extended_bot_rhs_mixed_with_finite_rows():
    a, b = ext_system([[1], [2]], [3, "bot"])
    out = solve_extended(a, b)
    assert out.is_dual and out.y == (0, 0)
    assert verify_dual_ext(a, b, out.y)


def test_extended_finite_residual_infeasible():
    # dead bot row on top, contradictory finite row below
    a, b = ext_system([["bot"], [0]], [0, -1])
    out = solve_extended(a, b)
    assert out.is_dual and out.y == (0, 1)
    assert verify_dual_ext(a, b, out.y)


def test_extended_random_systems_verify():
    rng = random.Random(12)
    pool = [BOT, TOP] + [Fraction(k) for k in range(-3, 4)]
    trials = 0
    while trials < 120:
        m, n = rng.randint(1, 3), rng.randint(1, 3)
        rows = [[rng.choice(pool) for _ in range(n)] for _ in range(m)]
        rhs = [rng.choice(pool) for _ in range(m)]
        a = ExtMatrix(rows, ncols=n)
        b = ExtVector(rhs)
        if system_preconditions(a, b):
            continue
        trials += 1
        out = solve_extended(a, b)
        if out.is_primal:
            assert verify_primal_ext(a, b, out.x)
        else:
            assert verify_dual_ext(a, b, out.y)


def test_the_extended_verifiers_check_the_shape_first():
    # a negative witness on a misshapen system is a shape error, as in solve_extended
    for verify, a, w in ((verify_primal_ext, [[1]], [-1]), (verify_dual_ext, [[-1]], [1])):
        with pytest.raises(DimensionError) as err:
            verify(ExtMatrix(a), ExtVector([1, 2]), w)
        assert str(err.value) == "1 rows vs 2 rhs entries"


def test_the_extended_verifiers_take_a_list_of_right_hand_sides():
    a = ExtMatrix([[1, 2]])
    assert verify_primal_ext(a, [3], [1, 1])
    assert not verify_primal_ext(a, [2], [1, 1])
    assert verify_dual_ext(a, [-1], [1])


def test_solve_extended_takes_a_list_of_right_hand_sides():
    a = ExtMatrix([[1, 2]])
    assert solve_extended(a, [1]) == solve_extended(a, ExtVector([1]))
    a = ExtMatrix([["top", -1], [1, 1]])
    assert solve_extended(a, ["bot", 0]) == solve_extended(a, ExtVector(["bot", 0]))


def test_the_extended_solver_and_verifiers_take_a_list_of_rows():
    for rows, b in (([[1, 2]], [1]), ([[1, 1]], [-1]), ([["top", -1], [1, 1]], ["bot", 0])):
        assert solve_extended(rows, b) == solve_extended(ExtMatrix(rows), b)
    assert verify_primal_ext([[1, 2]], [1], [0, 0]) and not verify_primal_ext([[1, 2]], [1], [1, 1])
    assert verify_dual_ext([[1, 2]], [-1], [1]) and not verify_dual_ext([[1, 2]], [1], [1])
    for call, witness in ((solve_extended, ()), (verify_primal_ext, ([0, 0],)), (verify_dual_ext, ([0, 0],))):
        with pytest.raises(DimensionError, match="1 rows vs 2 rhs entries"):
            call([[1, 2]], [1, 2], *witness)


def test_verify_dual_ext_builds_no_transpose(monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return neg_transpose(m)

    for module in (extlinalg_module, farkas_module, check_module):
        monkeypatch.setattr(module, "neg_transpose", counted, raising=False)
    a, b = ext_system([["bot"], [0]], [0, -1])
    assert verify_dual_ext(a, b, (0, 1)) and not verify_dual_ext(a, b, (1, 0))
    a, b = ext_system([[-1, "top"]], ["bot"])
    assert verify_dual_ext(a, b, (0,)) and not verify_dual_ext(a, b, (1,))
    assert calls == []


def transpose_verify_dual_ext(a, b, y) -> bool:
    """``verify_dual_ext`` as it read through ``neg_transpose``, the reference."""
    ys = rat_vector(y)
    if len(ys) != a.nrows:
        raise DimensionError(f"{len(ys)} weights for {a.nrows} rows")
    if any(v < 0 for v in ys):
        return False
    if not le_vec(mul_weig(neg_transpose(a), ys), ExtVector([ZERO] * a.ncols)):
        return False
    return dot_weig(b, ys) < ZERO


def test_verify_dual_ext_agrees_with_the_transpose_formula():
    rng = random.Random(4000)
    pool = [BOT, TOP, Fraction(1, 2)] + [Fraction(k) for k in range(-3, 4)]
    weights = [Fraction(0)] * 3 + [Fraction(1), Fraction(2), Fraction(1, 3)]
    seen = {}
    for _ in range(4000):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = ExtMatrix([[rng.choice(pool) for _ in range(n)] for _ in range(m)], ncols=n)
        b = ExtVector([rng.choice(pool) for _ in range(m)])
        size = m if rng.random() < 0.8 else rng.choice([k for k in range(6) if k != m])
        y = [rng.choice(weights) if rng.random() < 0.95 else Fraction(-1) for _ in range(size)]
        try:
            expected = transpose_verify_dual_ext(a, b, y)
        except DimensionError:
            with pytest.raises(DimensionError):
                verify_dual_ext(a, b, y)
            expected = "raised"
        else:
            assert verify_dual_ext(a, b, y) is expected, (a, b, y)
        seen[expected] = seen.get(expected, 0) + 1
    assert min(seen.values()) >= 200, seen


# --- the simplex against the recursive reference ---


def fractional_system(rng: random.Random, max_dim: int = 7):
    m = rng.randint(0, max_dim)
    n = rng.randint(0, max_dim)

    def entry():
        return Fraction(rng.randint(-6, 6), rng.randint(1, 4))

    return [[entry() for _ in range(n)] for _ in range(m)], [entry() for _ in range(m)], n


def assert_matches_reference(a, b, n):
    """Both solvers take the branch ``_bartl`` takes on the same functionals,
    and every witness verifies."""
    cols = tuple(zip(*[rat_vector(r) for r in a])) or ((),) * n
    rhs = rat_vector(b)
    eq = solve_equality(a, b, ncols=n)
    assert eq.is_primal == _bartl(cols, rhs).is_primal
    assert verify_primal_eq(a, b, eq.x) if eq.is_primal else verify_dual_eq(a, b, eq.y)
    ineq = solve_inequality(a, b, ncols=n)
    identity = tuple(tuple(Fraction(int(i == j)) for j in range(len(a))) for i in range(len(a)))
    assert ineq.is_primal == _bartl(identity + cols, rhs).is_primal
    assert verify_primal_ineq(a, b, ineq.x) if ineq.is_primal else verify_dual_ineq(a, b, ineq.y)
    return eq.is_primal, ineq.is_primal


def test_simplex_matches_the_bartl_reference_on_random_fractional_systems():
    rng = random.Random(2007)
    branches = set()
    for _ in range(150):
        branches.add(assert_matches_reference(*fractional_system(rng)))
    assert branches == {(True, True), (False, True), (False, False)}


def test_simplex_matches_the_reference_on_degenerate_systems():
    rng = random.Random(1968)
    for _ in range(40):
        a, b, n = fractional_system(rng, max_dim=5)
        assert_matches_reference(a, [0] * len(a), n)
        assert_matches_reference(a + a, b + b, n)
        assert_matches_reference(a + [[2 * v for v in r] for r in a], b + [2 * v for v in b], n)


# Beale's example, on which the textbook most-negative-cost rule cycles:
# minimize -3/4 x0 + 150 x1 - 1/50 x2 + 6 x3 subject to these rows, optimum
# -1/20 at x = (1/25, 0, 1, 0); the objective is appended as a cut
BEALE_A = [
    [Fraction(1, 4), -60, Fraction(-1, 25), 9],
    [Fraction(1, 2), -90, Fraction(-1, 50), 3],
    [0, 0, 1, 0],
]
BEALE_B = [0, 0, 1]
BEALE_COST = [Fraction(-3, 4), 150, Fraction(-1, 50), 6]


@pytest.mark.parametrize("cut", [None, Fraction(-1, 100), Fraction(-1, 20), Fraction(-1, 19)])
def test_beale_cycling_example_terminates_and_verifies(cut):
    a, b = BEALE_A, BEALE_B
    if cut is not None:
        a, b = a + [BEALE_COST], b + [cut]
    eq, ineq = assert_matches_reference(a, b, 4)
    assert ineq == (cut is None or cut >= Fraction(-1, 20))
    slack = [[int(i == k) for i in range(len(a))] for k in range(len(a))]
    assert_matches_reference([r + s for r, s in zip(a, slack)], b, 4 + len(a))


# --- Bland's rule, pinned by its exact witnesses ---
# Found by seeded searches over small integer systems: under the "most
# negative reduced cost" entering rule, or with ratio-test ties going to
# the first row instead of the least basic index, each of these ends at
# another witness (in the comments), so a change of rule shows here and not
# as a hang on some unseen input.


PHASE_ONE_CASES = [
    # the other rule: x = (0, 0, 4/5, 0)
    ([[-4, -4, -5, 2], [-5, -1, -2, -1]], [-4, 4], (1, 0, 0, 0), None),
    # the other rule: y = (1, 2/3, 2/3, 0)
    ([[-4, 2, 5], [3, -4, -3], [3, 1, 0], [2, -5, 2]], [-5, -1, 4, 4], None, (Fraction(3, 2), 1, 1, 0)),
    # ties to the first row: y = (0, 1, 0, 1)
    ([[2, -1], [1, 1], [2, -1], [0, -1]], [-1, 1, 0, -2], None, (1, 2, 0, 1)),
]
PHASE_TWO_CASES = [
    # the other rule in phase 2: x = (1, 0, 1)
    ([[2, 1, 0], [-1, -1, -2], [0, 1, 1], [1, 0, 1]], [2, -2, 1, 2], [0, 2, -2], (0, 0, 1), (0, 0, 2, 0)),
    # the other rule in phase 2: x = (0, 0, 1/3)
    ([[-1, -2, -3], [-1, -2, -1], [2, 1, 3]], [-1, 1, 3], [1, 0, 0], (0, Fraction(1, 2), 0), (0, 0, 0)),
    # ties to the first row: y = (2, 0, 0, 0)
    ([[-1, 0], [0, -1], [2, -1], [1, 0]], [0, -2, -1, 1], [2, 0], (0, 2), (0, 0, 0, 0)),
]


@pytest.mark.parametrize("a, b, x, y", PHASE_ONE_CASES)
def test_phase_one_witnesses_follow_blands_rule(a, b, x, y):
    out = solve_inequality(a, b)
    assert (out.x, out.y) == (x, y)


@pytest.mark.parametrize("a, b, c, x, y", PHASE_TWO_CASES)
def test_phase_two_witnesses_follow_blands_rule(a, b, c, x, y):
    assert fractions(solve_program(a, b, c)) == (x, y)


# the pivots of phase 1 and phase 2 on the same six systems: the three of
# PHASE_ONE_CASES as systems (no phase 2), those of PHASE_TWO_CASES as programs
@pytest.mark.parametrize(
    "a, b, c, pivots",
    [(a, b, None, p) for (a, b, *_), p in zip(PHASE_ONE_CASES, [(1, 0), (2, 0), (1, 0)])]
    + [(a, b, c, p) for (a, b, c, *_), p in zip(PHASE_TWO_CASES, [(3, 2), (1, 1), (2, 1)])],
)
def test_each_phase_makes_blands_pivots(a, b, c, pivots):
    run = _simplex(a, b, len(a[0]), True, c)
    assert run.pivots == pivots


# --- the start basis, pinned by its exact witnesses ---
# Each row starts on its first unit column in tableau order, the columns of
# A counted once scaled to integers, so a lone 1/3 in a column is a unit
# column.  Found by seeded searches: starting the row on an artificial, or
# on its slack, ends each of these at another witness (in the comments).


def test_equality_starts_on_a_column_that_is_a_unit_once_scaled():
    # an artificial start for row 0: x = (0, 2, 4)
    out = solve_equality([[Fraction(1, 3), 0, 1], [0, -2, 0]], [4, -4])
    assert (out.x, out.y) == ((12, 2, 0), None)


def test_inequality_starts_a_negative_row_on_a_unit_column_of_a():
    # row 0 is negated for its b < 0, so its slack is no unit column but
    # its lone -1/3 is; an artificial start for row 0: x = (2, 0)
    out = solve_inequality([[-1, Fraction(-1, 3)], [-1, 0]], [-2, -1])
    assert (out.x, out.y) == ((1, 3), None)


def test_program_starts_on_a_unit_column_of_a_before_the_slack():
    # the lone 1/3 of column 1 starts row 0, ahead of row 0's slack; a
    # slack start for row 0: x = (0, 0)
    out = solve_program([[0, Fraction(1, 3)], [3, 0]], [1, 3], [1, 0])
    assert fractions(out) == ((0, 3), (0, 0))


def test_a_nonnegative_right_hand_side_starts_and_ends_on_the_slack_basis():
    # every row starts on its slack, so phase 1 has nothing to do and the
    # witness is x = 0 with no pivots, as Bland's rule ends from that start
    rng = random.Random(23)
    for _ in range(400):
        a, b, n = fractional_system(rng, max_dim=5)
        b = [abs(t) for t in b]
        out = solve_inequality(a, b, ncols=n)
        assert (out.x, out.y) == ((Fraction(0),) * n, None)
        run = _simplex(a, b, n, True)
        assert (run.status, run.x[0], run.pivots) == ("optimal", (0,) * n, (0, 0))
    # one negative entry of b needs phase 1: x = 0 fails row 1
    out = solve_inequality([[1, 1], [-1, 0]], [2, -1])
    assert (out.x, out.y) == ((Fraction(1), Fraction(0)), None)
    assert _simplex([[Fraction(1), Fraction(1)], [Fraction(-1), Fraction(0)]], [Fraction(2), Fraction(-1)], 2, True).pivots == (1, 0)


# --- the run record ---


def test_solve_program_checks_its_shapes():
    # c one short of A's width, c one past it, b one short of A's rows:
    # unchecked, the first two answer wrongly and the third raises IndexError
    for a, b, c in [([[1, 2]], [3], [-1]), ([[1]], [3], [-1, -1]), ([[1]], [3, 1], [-1])]:
        with pytest.raises(DimensionError, match="A must be"):
            solve_program(a, b, c)


def test_the_record_certifies_each_status_of_a_program():
    rng = random.Random(2011)
    statuses = {"infeasible": 0, "unbounded": 0, "optimal": 0}
    for _ in range(6000):
        a, b, n = fractional_system(rng, max_dim=5)
        c = [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]
        run = _simplex(a, b, n, True, c)
        statuses[run.status] += 1
        assert all(p >= 0 for p in run.pivots) and (run.status != "infeasible") == _feasible(a, b, n)
        if run.status == "infeasible":
            assert run.x is None and run.ray is None and run.pivots[1] == 0
            y = [Fraction(v, run.y[1]) for v in run.y[0]]
            assert run.y[1] > 0 and min(y, default=0) >= 0 and sum(map(mul, b, y)) < 0
            assert all(sum(r[j] * v for r, v in zip(a, y)) >= 0 for j in range(n))
            continue
        x = [Fraction(v, run.x[1]) for v in run.x[0]]
        assert run.x[1] > 0 and min(x, default=0) >= 0 and all(sum(map(mul, r, x)) <= t for r, t in zip(a, b))
        if run.status == "unbounded":
            assert run.y is None and min(run.ray) >= 0 and sum(map(mul, c, run.ray)) < 0
            assert all(sum(map(mul, r, run.ray)) <= 0 for r in a)
        else:
            assert run.ray is None and _check_pair(a, b, c, run.x, run.y) == sum(map(mul, c, x))
    assert min(statuses.values()) >= 1200, statuses


# --- sizes the recursion cannot reach ---


def test_tall_all_ones_system():
    # 2^17 + 1 recursive calls for the reference; x = 0 is feasible
    a, b = [[1, 1]] * 16, [1] * 16
    out = solve_inequality(a, b)
    assert out.is_primal and out.x == (0, 0)
    assert verify_primal_ineq(a, b, out.x)


@pytest.mark.parametrize("feasible", [False, True])
def test_random_40x40_system(feasible):
    rng = random.Random(40)
    a = [[rng.randint(-5, 5) for _ in range(40)] for _ in range(40)]
    if feasible:
        # planted: b = A x0 + slack with x0 >= 0, many rows still negative
        x0 = [rng.randint(0, 2) for _ in range(40)]
        b = [sum(v * x for v, x in zip(row, x0)) + rng.randint(0, 2) for row in a]
        assert sum(v < 0 for v in b) >= 10
    else:
        b = [rng.randint(-5, 5) for _ in range(40)]
    out = solve_inequality(a, b)
    assert out.is_primal == feasible
    assert verify_primal_ineq(a, b, out.x) if feasible else verify_dual_ineq(a, b, out.y)
