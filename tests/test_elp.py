"""Extended programs: validity, duality, feasibility, exact optima."""

import random
from fractions import Fraction

import pytest

from extlp import (
    BOT,
    TOP,
    CONDITIONS,
    DUAL_CONDITION_SWAP,
    DimensionError,
    ExtendedLP,
    GenConfig,
    InvalidProgramError,
    Optimum,
    PreconditionError,
    TheoremViolationError,
    ValidELP,
    dualize,
    finite,
    gen_valid_elp,
    is_bounded_by,
    is_feasible,
    is_solution,
    is_unbounded,
    opposites_opt,
    optimum,
    optimum_pair,
    reaches,
    strong_duality_check,
    validate,
    weak_duality_check,
)
from extlp import elp as elp_module
from extlp import farkas as farkas_module
from extlp.extlinalg import neg_transpose, rat_dot
from extlp.farkas import verify_primal_ineq
from extlp.oracle import oracle_feasible_point
from conftest import load_program

COUNTEREXAMPLES = {
    "p1.lp": "mixed_col",
    "d1.lp": "mixed_row",
    "p2.lp": "bot_row_bot_rhs",
    "d2.lp": "top_col_bot_cost",
    "p3.lp": "top_row_top_rhs",
    "d3.lp": "bot_col_top_cost",
}


# --- validity ---


def test_each_counterexample_violates_exactly_one_condition():
    seen = set()
    for name, expected in COUNTEREXAMPLES.items():
        report = validate(load_program(name))
        assert not report.is_valid
        assert list(report.failed()) == [expected], name
        seen.add(expected)
    assert seen == set(CONDITIONS)


def test_lunch_is_valid(lunch):
    report = validate(lunch)
    assert report.is_valid and report.failed() == {}
    assert ValidELP(lunch.A, lunch.b, lunch.c).c == lunch.c


def test_invalid_program_error_carries_the_report():
    with pytest.raises(InvalidProgramError) as err:
        ValidELP([["bot"], ["top"]], [-1, 0], [0])
    assert list(err.value.report.failed()) == ["mixed_col"]


def test_duality_predicates_require_validity():
    p1 = load_program("p1.lp")
    for predicate in (is_unbounded, strong_duality_check):
        with pytest.raises(InvalidProgramError) as err:
            predicate(p1)
        assert list(err.value.report.failed()) == ["mixed_col"], predicate.__name__


def test_dimension_mismatch_rejected():
    with pytest.raises(DimensionError):
        ExtendedLP([[1]], [1, 2], [1])
    with pytest.raises(DimensionError):
        ExtendedLP([[1, 2]], [1], [1])


# --- duality as an involution ---


def test_dualize_swaps_the_failing_condition():
    for p_name, d_name in (("p1.lp", "d1.lp"), ("p2.lp", "d2.lp"), ("p3.lp", "d3.lp")):
        p = load_program(p_name)
        d = load_program(d_name)
        assert dualize(p) == d
        assert dualize(d) == p
        p_fail = next(iter(validate(p).failed()))
        d_fail = next(iter(validate(d).failed()))
        assert DUAL_CONDITION_SWAP[p_fail] == d_fail
        assert DUAL_CONDITION_SWAP[d_fail] == p_fail


def test_swap_table_is_an_involution():
    assert set(DUAL_CONDITION_SWAP) == set(CONDITIONS)
    for name, partner in DUAL_CONDITION_SWAP.items():
        assert DUAL_CONDITION_SWAP[partner] == name


def test_dualize_involution_on_fixtures(lunch):
    for p in [lunch, *(load_program(n) for n in COUNTEREXAMPLES)]:
        assert dualize(dualize(p)) == p


def test_dualize_preserves_validity_class(lunch):
    v = ValidELP(lunch.A, lunch.b, lunch.c)
    d = dualize(v)
    assert isinstance(d, ValidELP)
    assert validate(d).is_valid


def test_dualize_on_generated_programs():
    for seed in range(80):
        p = gen_valid_elp(GenConfig(rows=2, cols=2, seed=seed))
        d = dualize(p)
        assert validate(d).is_valid
        assert dualize(d) == p
        for name, idxs in validate(p).as_dict().items():
            assert validate(d).as_dict()[DUAL_CONDITION_SWAP[name]] == idxs


# --- solutions and feasibility ---


def test_lunch_solutions(lunch):
    assert is_solution(lunch, (Fraction(190, 573), Fraction(134, 573)))
    assert is_solution(lunch, (Fraction(10, 9), 0))
    assert not is_solution(lunch, (0, 0))
    assert not is_solution(lunch, (-1, 1))


def test_reaches_values(lunch):
    assert reaches(lunch, (Fraction(190, 573), Fraction(134, 573))) == finite(Fraction(4093, 5730))
    assert reaches(lunch, (Fraction(10, 9), 0)) == finite(Fraction(46, 45))
    with pytest.raises(PreconditionError):
        reaches(lunch, (0, 0))


def test_lunch_feasible_both_sides(lunch):
    assert is_feasible(lunch)
    assert is_feasible(dualize(lunch))
    assert not is_unbounded(lunch)


def test_feasibility_with_bot_cost_pins_every_value():
    # cost (top, bot): any solution reaches bot, but the program is feasible
    p = ExtendedLP([[-1, 0], [0, 1]], [-1, 0], ["top", "bot"])
    assert validate(p).is_valid
    assert is_feasible(p)
    assert reaches(p, (1, 0)) == BOT
    assert optimum(p).value == BOT
    assert is_unbounded(p)


def test_top_cost_column_is_forced_to_zero():
    # feasibility means reaching a value other than top, so a top-cost
    # variable is pinned at zero; whether that breaks Ax <= b depends on A
    loose = ExtendedLP([[-1, -1]], [-1], ["top", 0])
    assert validate(loose).is_valid
    assert is_feasible(loose)
    assert optimum(loose).value == finite(0)

    tight = ExtendedLP([[-1, 1]], [-1], ["top", 0])
    assert validate(tight).is_valid
    assert not is_feasible(tight)
    p_opt, d_opt = optimum_pair(tight)
    assert p_opt.value == TOP and d_opt.value == BOT
    assert opposites_opt(p_opt, d_opt)


def test_infeasible_program():
    p = ExtendedLP([[0]], [-1], [5])
    assert not is_feasible(p)
    assert optimum(p).value == TOP


# --- optima ---


def test_lunch_optimum_pair(lunch):
    p_opt, d_opt = optimum_pair(lunch)
    assert p_opt.value == finite(Fraction(4093, 5730))
    assert d_opt.value == finite(Fraction(-4093, 5730))
    assert opposites_opt(p_opt, d_opt)
    assert optimum(lunch) == p_opt
    assert optimum(dualize(lunch)) == d_opt
    assert strong_duality_check(lunch)


def test_lunch_with_top_price(lunch):
    p = ExtendedLP(lunch.A, lunch.b, [Fraction(23, 25), "top"])
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == finite(Fraction(46, 45))
    assert d_opt.value == finite(Fraction(-46, 45))
    assert strong_duality_check(p)


def test_unbounded_program_has_bot_optimum():
    p = ExtendedLP([[0]], [0], [-1])
    assert is_feasible(p) and not is_feasible(dualize(p))
    assert is_unbounded(p)
    assert optimum(p).value == BOT
    assert optimum(dualize(p)).value == TOP
    assert strong_duality_check(p)


def test_both_sides_infeasible():
    p = ExtendedLP([[0]], [-1], [-1])
    assert not is_feasible(p) and not is_feasible(dualize(p))
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == TOP and d_opt.value == TOP
    assert not opposites_opt(p_opt, d_opt)
    with pytest.raises(PreconditionError):
        strong_duality_check(p)


def test_optimum_pair_on_generated_programs():
    checked = 0
    for seed in range(40):
        p = gen_valid_elp(GenConfig(rows=2, cols=2, seed=seed, infinity_prob=0.3))
        if not (is_feasible(p) or is_feasible(dualize(p))):
            continue
        checked += 1
        assert strong_duality_check(p)
        p_opt, d_opt = optimum_pair(p)
        assert not p_opt.is_absent and not d_opt.is_absent
        assert opposites_opt(p_opt, d_opt)
    assert checked >= 20


@pytest.fixture
def solves(monkeypatch):
    """The row count of every tableau solve, recorded at ``farkas._simplex``."""
    calls = []
    real = farkas_module._simplex

    def counted(a, b, *rest):
        calls.append(len(b))
        return real(a, b, *rest)

    monkeypatch.setattr(farkas_module, "_simplex", counted)
    return calls


def test_side_decided_alone_stops_after_an_infeasible_primal(solves):
    # invalid: the primal keeps row 1 without column 0 (3 x <= -2, no
    # solution), the dual keeps row 1 of -A^T (2 y0 - 3 y1 <= -3, feasible,
    # unbounded), so the dual residual is not the negated transpose and each
    # side is decided alone: one two-phase solve each
    p = ExtendedLP([["bot", -2], [1, 3]], [2, -2], ["top", -3])
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == TOP and d_opt.value == BOT
    assert len(solves) == 2


@pytest.mark.parametrize(
    "a, b, c, expected",
    [
        # unbounded: x1 grows along x0 = 1; the dual is infeasible
        ([[1, -1], [-1, 0]], [1, -1], [0, -1], (BOT, TOP)),
        # the top right-hand side drops the only row: residuals 0x2 and 2x0
        ([[1, 2]], ["top"], [1, -1], (BOT, TOP)),
        ([[1, 2]], ["top"], [1, 1], (finite(0), finite(0))),
        # infeasible primal (x0 + x1 <= 1 and >= 2), feasible dual
        ([[1, 1], [-1, -1]], [1, -2], [0, 0], (TOP, BOT)),
        # infeasible primal and dual
        ([[1, -1], [-1, 1]], [-1, -1], [-1, -1], (TOP, TOP)),
        # the top cost drops the only column: residuals 2x0 and 0x2
        ([[1], [2]], [1, -1], ["top"], (TOP, BOT)),
    ],
)
def test_one_solve_decides_both_sides_unless_the_primal_is_infeasible(a, b, c, expected, solves):
    p_opt, d_opt = optimum_pair(ExtendedLP(a, b, c))
    assert (p_opt.value, d_opt.value) == expected
    assert len(solves) == (2 if expected[0] == TOP else 1)


def test_artificials_basic_at_zero_leave_through_their_slack(solves):
    # rows 0 and 1 coincide with a negative right-hand side, and phase 1
    # ends with both their artificials basic at level zero; left in the
    # basis they let phase 2 reach x = (2, 0), which breaks row 0
    p = ExtendedLP([[0, -2], [0, -2], [0, -1], [-1, -2]], [-2, -2, 0, -2], [0, 1])
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == finite(1) and d_opt.value == finite(-1)
    assert len(solves) == 1


def planted_program(rng: random.Random, m: int, n: int) -> tuple[ExtendedLP, Fraction]:
    """A finite program with optimum ``c . x*``, planted by complementary
    slackness: ``y*`` is positive only on the rows ``x*`` makes tight and
    ``-A^T y*`` meets ``c`` only on the columns where ``x*`` is positive."""
    a = [[Fraction(rng.randint(-9, 9), rng.randint(1, 3)) for _ in range(n)] for _ in range(m)]
    x = [Fraction(rng.randint(0, 4)) if j % 2 == 0 else Fraction(0) for j in range(n)]
    y = [Fraction(rng.randint(1, 4)) if i % 2 == 0 else Fraction(0) for i in range(m)]
    ax = [sum(r[j] * x[j] for j in range(n)) for r in a]
    b = [v if y[i] else v + rng.randint(1, 5) for i, v in enumerate(ax)]
    neg_aty = [-sum(a[i][j] * y[i] for i in range(m)) for j in range(n)]
    c = [v if x[j] else v + rng.randint(1, 5) for j, v in enumerate(neg_aty)]
    return ExtendedLP(a, b, c), sum(cj * xj for cj, xj in zip(c, x))


def test_optimum_pair_on_a_planted_8x8_program():
    p, value = planted_program(random.Random(8), 8, 8)
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == finite(value) and d_opt.value == finite(-value)
    assert opposites_opt(p_opt, d_opt)


@pytest.mark.parametrize("n", [20, 30])
def test_optimum_pair_on_larger_planted_programs(n, solves):
    p, value = planted_program(random.Random(n), n, n)
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == finite(value) and d_opt.value == finite(-value)
    assert len(solves) == 1


# --- the optimum pair's check ---

# min -x0 - 2 x1 over x0 + x1 <= 4, x0 - x1 <= 2: optimum x = (0, 4),
# dual y = (2, 0), value -8
CHECKED = ExtendedLP([[1, 1], [1, -1]], [4, 2], [-1, -2])
OPTIMAL_X, OPTIMAL_Y = (Fraction(0), Fraction(4)), (Fraction(2), Fraction(0))


def test_the_check_accepts_an_optimal_pair(monkeypatch):
    monkeypatch.setattr(elp_module, "solve_program", lambda a, b, c: (OPTIMAL_X, OPTIMAL_Y))
    p_opt, d_opt = optimum_pair(CHECKED)
    assert p_opt.value == finite(-8) and d_opt.value == finite(8)


@pytest.mark.parametrize(
    "x, y, message",
    [
        ((-1, 4), OPTIMAL_Y, "primal"),  # x0 < 0, both rows hold
        ((0, 5), OPTIMAL_Y, "primal"),  # row 0: 5 > 4
        (OPTIMAL_X, (2, -1), "dual"),  # y1 < 0, both columns hold
        (OPTIMAL_X, (1, 0), "dual"),  # column 1: -1 > -2
        ((0, 0), OPTIMAL_Y, "value sum 8"),  # feasible, c . x + b . y == 8
    ],
)
def test_the_check_rejects_a_bad_witness(x, y, message, monkeypatch):
    pair = tuple(map(Fraction, x)), tuple(map(Fraction, y))
    monkeypatch.setattr(elp_module, "solve_program", lambda a, b, c: pair)
    with pytest.raises(TheoremViolationError, match=message):
        optimum_pair(CHECKED)


def check_stage(a, b, c, x, y) -> str | None:
    """The first part of ``_check_pair`` that fails, None when it passes."""
    try:
        value = elp_module._check_pair(a, b, c, x, y)
    except TheoremViolationError as exc:
        return next(stage for stage in ("primal", "dual", "value") if stage in str(exc))
    assert value == rat_dot(c, x)
    return None


def test_the_integer_check_agrees_with_verify_primal_ineq():
    rng = random.Random(7)

    def entry():
        return Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if rng.random() < 0.7 else Fraction(0)

    def perturb(v):
        v = list(v)
        for k in rng.sample(range(len(v)), rng.randint(0, len(v))):
            v[k] = rng.choice([Fraction(0), -v[k], v[k] + Fraction(rng.randint(-2, 2), rng.randint(1, 4))])
        return tuple(v)

    stages = {}
    for _ in range(900):
        m, n = rng.randint(0, 4), rng.randint(0, 4)
        a = [tuple(entry() for _ in range(n)) for _ in range(m)]
        b, c = [entry() for _ in range(m)], [entry() for _ in range(n)]
        out = farkas_module.solve_program(a, b, c)
        x, y = out if isinstance(out, tuple) else ((Fraction(0),) * n, (Fraction(0),) * m)
        if rng.random() < 0.8:
            x, y = perturb(x), perturb(y)
        if not verify_primal_ineq(a, b, x):
            expected = "primal"
        elif not verify_primal_ineq(*elp_module._mirror(a, b, c)[:2], y):
            expected = "dual"
        else:
            expected = "value" if rat_dot(c, x) + rat_dot(b, y) else None
        assert check_stage(a, b, c, x, y) == expected, (a, b, c, x, y)
        stages[expected] = stages.get(expected, 0) + 1
    assert len(stages) == 4 and min(stages.values()) >= 10, stages


# --- the dual's placement, read by index ---


def random_extended_program(rng: random.Random, size: int = 4, drawn: float = 0.35) -> ExtendedLP:
    """A program, often invalid, with 1..size rows and columns; a share
    ``drawn`` of its entries is drawn from bot, top and an integer, so two
    thirds of that share are endpoints."""
    m, n = rng.randint(1, size), rng.randint(1, size)

    def entry():
        return rng.choice(["bot", "top", rng.randint(-3, 3)]) if rng.random() < drawn else rng.randint(-3, 3)

    return ExtendedLP([[entry() for _ in range(n)] for _ in range(m)], [entry() for _ in range(m)], [entry() for _ in range(n)])


def test_the_index_test_takes_the_shared_path_only_on_a_mirrored_dual():
    rng = random.Random(11)
    programs = [gen_valid_elp(GenConfig(rows=1 + k % 4, cols=1 + k // 4 % 4, seed=k, infinity_prob=0.3)) for k in range(300)]
    programs += [random_extended_program(rng) for _ in range(1500)]
    paths = {}
    for p in programs:
        valid = validate(p).is_valid
        primal = elp_module._residual(p.A, p.b, p.c)
        # the test optimum_pair makes before it decides the dual from the primal's mirror
        shared = not isinstance(primal, Optimum) and elp_module._dual_mirrors(p.A, p.b, p.c, *primal[3:])
        paths[valid, shared] = paths.get((valid, shared), 0) + 1
        if not shared:
            # a valid program leaves the shared path only when placements decide its primal
            assert not valid or isinstance(primal, Optimum)
            continue
        sub, rhs, cost, live, keep = primal
        dual = elp_module._residual(neg_transpose(p.A), p.c, p.b)
        assert dual == (*elp_module._mirror(sub, rhs, cost), keep, live)
    assert len(paths) == 4 and min(paths.values()) >= 30, paths


def test_a_valid_finite_program_builds_no_transpose(lunch, monkeypatch):
    calls = []

    def counted(m):
        calls.append(m.shape)
        return neg_transpose(m)

    monkeypatch.setattr(elp_module, "neg_transpose", counted)
    for p in (lunch, CHECKED):
        optimum_pair(p)
    assert calls == []
    # a dual that is not the primal's mirror is still built from -A^T
    optimum_pair(ExtendedLP([["bot", -2], [1, 3]], [2, -2], ["top", -3]))
    assert calls == [(2, 2)]


# --- duality checks and bounds ---


def test_weak_duality_fails_without_validity():
    # on the mixed-column counterexample the check is computable but false
    # for every positive dual weight, which is why validity is an input
    p = load_program("p1.lp")
    d = dualize(p)
    assert is_solution(p, (0,))
    assert is_solution(d, (Fraction(1, 2), 0))
    assert weak_duality_check(p, (0,), (0, 0))
    assert not weak_duality_check(p, (0,), (Fraction(1, 2), 0))


def test_optimum_is_minimal_by_augmented_row(lunch):
    # appending the objective as a constraint row stays solvable exactly
    # down to the optimum and not a step further
    a = [[Fraction(-27), Fraction(-90)], [Fraction(-1300), Fraction(-1150)]]
    b = [Fraction(-30), Fraction(-700)]
    c = [Fraction(23, 25), Fraction(7, 4)]
    opt = optimum(lunch).value.finite_value
    at_opt = oracle_feasible_point(a + [c], b + [opt], ncols=2)
    assert at_opt is not None
    below = oracle_feasible_point(a + [c], b + [opt - Fraction(1, 10**6)], ncols=2)
    assert below is None


def test_weak_duality_on_lunch(lunch):
    x = (Fraction(10, 9), 0)
    assert weak_duality_check(lunch, x, (0, 0))
    assert weak_duality_check(lunch, x, (Fraction(1, 100), 0))
    with pytest.raises(PreconditionError):
        weak_duality_check(lunch, (0, 0), (0, 0))
    with pytest.raises(PreconditionError):
        weak_duality_check(lunch, x, (1, 0))


def test_is_bounded_by(lunch):
    # lower bounds of a minimization: anything up to the optimum qualifies
    assert is_bounded_by(lunch, 0)
    assert is_bounded_by(lunch, Fraction(4093, 5730))
    assert not is_bounded_by(lunch, Fraction(46, 45))
    assert is_bounded_by(ExtendedLP([[0]], [-1], [5]), 10**9)
    assert not is_bounded_by(ExtendedLP([[0]], [0], [-1]), -(10**9))


# --- the optimum wrapper ---


def test_optimum_tokens():
    assert str(Optimum.of(finite(3))) == "3"
    assert str(Optimum.of(BOT)) == "bot"
    assert str(Optimum.absent()) == "absent"
    assert Optimum.absent().is_absent
    assert not opposites_opt(Optimum.absent(), Optimum.of(finite(0)))


# --- the placement logic against per-entry scans ---


def reference_validity(a, b, c) -> dict:
    """The six conditions of ``validate``'s docstring, scanned entry by entry."""
    rows = [list(a[i]) for i in range(a.nrows)]
    cols = [[a[i][j] for i in range(a.nrows)] for j in range(a.ncols)]

    def bot(line):
        return any(e.is_bot for e in line)

    def top(line):
        return any(e.is_top for e in line)

    return {
        "mixed_row": tuple(i for i, r in enumerate(rows) if bot(r) and top(r)),
        "mixed_col": tuple(j for j, k in enumerate(cols) if bot(k) and top(k)),
        "bot_row_bot_rhs": tuple(i for i, r in enumerate(rows) if b[i].is_bot and bot(r)),
        "top_col_bot_cost": tuple(j for j, k in enumerate(cols) if c[j].is_bot and top(k)),
        "top_row_top_rhs": tuple(i for i, r in enumerate(rows) if b[i].is_top and top(r)),
        "bot_col_top_cost": tuple(j for j, k in enumerate(cols) if c[j].is_top and bot(k)),
    }


def reference_masks(a, b):
    """``infinity_masks`` as its docstring states it, scanned entry by entry."""
    live = [i for i in range(a.nrows) if not b[i].is_top and not any(e.is_bot for e in a[i])]
    if any(b[i].is_bot for i in live):
        return None
    return live, [j for j in range(a.ncols) if not any(a[i][j].is_top for i in live)]


def test_the_placement_logic_matches_per_entry_scans():
    rng = random.Random(9)
    seen = {"invalid": 0, "several": 0, "later": 0}
    # an endpoint share of about 0.35; a few programs reach index 11, past
    # where a set of small ints happens to iterate in ascending order
    for size in [5] * 2000 + [12] * 100:
        p = random_extended_program(rng, size=size, drawn=0.525)
        for a, b, c in ((p.A, p.b, p.c), (neg_transpose(p.A), p.c, p.b)):
            expected = reference_validity(a, b, c)
            assert validate(ExtendedLP(a, b, c)).as_dict() == expected, (a, b, c)
            system = {k: expected[k] for k in ("mixed_row", "mixed_col", "top_row_top_rhs", "bot_row_bot_rhs")}
            assert farkas_module.system_preconditions(a, b) == {k: v for k, v in system.items() if v}, (a, b)
            assert farkas_module.infinity_masks(a, b) == reference_masks(a, b), (a, b)
            seen["invalid"] += any(expected.values())
            seen["several"] += any(len(v) > 1 for v in expected.values())
            seen["later"] += any(v and v[0] > 0 for v in expected.values())
    # most programs break a condition, and many at several or later indices
    assert seen["invalid"] > 2100 and min(seen.values()) >= 200, seen
