"""Extended programs: validity, duality, feasibility, exact optima."""

import random
from fractions import Fraction
from math import lcm

import pytest

from extlp import (
    BOT,
    TOP,
    CONDITIONS,
    DUAL_CONDITION_SWAP,
    DimensionError,
    DomainError,
    ExtendedLP,
    ExtValue,
    GenConfig,
    InvalidProgramError,
    Optimum,
    PreconditionError,
    TheoremViolationError,
    ValidELP,
    dualize,
    gen_valid_elp,
    is_bounded_by,
    is_feasible,
    is_unbounded,
    opposites_opt,
    optimum,
    optimum_pair,
    reaches,
    strong_duality_check,
    validate,
    verify_primal_ext,
    weak_duality_check,
)
from extlp import elp as elp_module
from extlp import farkas as farkas_module
from extlp.cli import format_program, parse_program_text
from extlp.extlinalg import neg_transpose, rat_dot
from extlp.farkas import verify_primal_ineq
from extlp.oracle import oracle_feasible_point
from conftest import fractions, load_program

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


def test_a_cost_of_the_wrong_length_is_named_against_a_list_of_rows():
    for c in ([1, 2], [1, 2, 3, 4]):
        with pytest.raises(DimensionError) as err:
            ExtendedLP([[1, 2, 3]], [1], c)
        assert str(err.value) == f"c has {len(c)} entries for 3 columns"
    # with no rows, the cost vector gives the width
    assert ExtendedLP([], [], [1, 2]).shape == (0, 2)


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
    assert verify_primal_ext(lunch.A, lunch.b, (Fraction(190, 573), Fraction(134, 573)))
    assert verify_primal_ext(lunch.A, lunch.b, (Fraction(10, 9), 0))
    assert not verify_primal_ext(lunch.A, lunch.b, (0, 0))
    assert not verify_primal_ext(lunch.A, lunch.b, (-1, 1))


def test_reaches_values(lunch):
    assert reaches(lunch, (Fraction(190, 573), Fraction(134, 573))) == ExtValue(Fraction(4093, 5730))
    assert reaches(lunch, (Fraction(10, 9), 0)) == ExtValue(Fraction(46, 45))
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
    assert optimum(loose).value == ExtValue(0)

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
    assert p_opt.value == ExtValue(Fraction(4093, 5730))
    assert d_opt.value == ExtValue(Fraction(-4093, 5730))
    assert opposites_opt(p_opt, d_opt)
    assert optimum(lunch) == p_opt
    assert optimum(dualize(lunch)) == d_opt
    assert strong_duality_check(lunch)


def test_lunch_with_top_price(lunch):
    p = ExtendedLP(lunch.A, lunch.b, [Fraction(23, 25), "top"])
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == ExtValue(Fraction(46, 45))
    assert d_opt.value == ExtValue(Fraction(-46, 45))
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
        assert p_opt.value is not None and d_opt.value is not None
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
        ([[1, 2]], ["top"], [1, 1], (ExtValue(0), ExtValue(0))),
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
    assert p_opt.value == ExtValue(1) and d_opt.value == ExtValue(-1)
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
    assert p_opt.value == ExtValue(value) and d_opt.value == ExtValue(-value)
    assert opposites_opt(p_opt, d_opt)


@pytest.mark.parametrize("n", [20, 30])
def test_optimum_pair_on_larger_planted_programs(n, solves):
    p, value = planted_program(random.Random(n), n, n)
    p_opt, d_opt = optimum_pair(p)
    assert p_opt.value == ExtValue(value) and d_opt.value == ExtValue(-value)
    assert len(solves) == 1


# --- the optimum pair's check ---

# min -x0 - 2 x1 over x0 + x1 <= 4, x0 - x1 <= 2: optimum x = (0, 4),
# dual y = (2, 0), value -8
CHECKED = ExtendedLP([[1, 1], [1, -1]], [4, 2], [-1, -2])
OPTIMAL_X, OPTIMAL_Y = (Fraction(0), Fraction(4)), (Fraction(2), Fraction(0))


def ints(v) -> tuple:
    """Rationals ``v`` as one side of ``solve_program``'s pair: integer
    numerators over the lcm of their denominators."""
    v = [Fraction(f) for f in v]
    den = lcm(*(f.denominator for f in v))
    return tuple(int(f * den) for f in v), den


def test_the_check_accepts_an_optimal_pair(monkeypatch):
    monkeypatch.setattr(elp_module, "solve_program", lambda a, b, c: (ints(OPTIMAL_X), ints(OPTIMAL_Y)))
    p_opt, d_opt = optimum_pair(CHECKED)
    assert p_opt.value == ExtValue(-8) and d_opt.value == ExtValue(8)


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
    pair = ints(x), ints(y)
    monkeypatch.setattr(elp_module, "solve_program", lambda a, b, c: pair)
    with pytest.raises(TheoremViolationError, match=message):
        optimum_pair(CHECKED)


@pytest.mark.parametrize(
    "x, y",
    [
        (((0, 4), 0), ints(OPTIMAL_Y)),  # x over a zero denominator
        (ints(OPTIMAL_X), ((2, 0), 0)),  # y over a zero denominator
        (((0, -4), -1), ints(OPTIMAL_Y)),  # x = (0, 4) over a negative denominator
        (((0, 4, 0), 1), ints(OPTIMAL_Y)),  # x one entry too long
        (ints(OPTIMAL_X), ((2,), 1)),  # y one entry too short
        (ints(OPTIMAL_X), ((2, 0, 0), 1)),  # y one entry too long
    ],
)
def test_the_check_rejects_a_malformed_pair(x, y, monkeypatch):
    monkeypatch.setattr(elp_module, "solve_program", lambda a, b, c: (x, y))
    with pytest.raises(TheoremViolationError, match="wrong shape or denominator"):
        optimum_pair(CHECKED)


def mirror(a: list, b: list, c: list) -> tuple[list, list, list]:
    """The dual ``(-A^T, c, b)`` of a finite residual, the reference for the
    dual's residual that ``_residual`` reads off ``A``."""
    return [tuple(-row[j] for row in a) for j in range(len(c))], c, b


def check_stage(a, b, c, x, y) -> str | None:
    """The first part of ``_check_pair`` that fails, None when it passes."""
    try:
        value = elp_module._check_pair(a, b, c, ints(x), ints(y))
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
        x, y = fractions(out) if isinstance(out, tuple) else ((Fraction(0),) * n, (Fraction(0),) * m)
        if rng.random() < 0.8:
            x, y = perturb(x), perturb(y)
        if not verify_primal_ineq(a, b, x):
            expected = "primal"
        elif not verify_primal_ineq(*mirror(a, b, c)[:2], y):
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
        dual_kept = elp_module._dual_kept(p.A, p.b, p.c)
        # the dual's residual, read off A's index and entries, is the one -A^T gives
        dual = elp_module._residual(neg_transpose(p.A), p.c, p.b)
        assert elp_module._residual(p.A, p.c, p.b, dual_kept) == dual
        # the test optimum_pair makes before it decides the dual from the primal's mirror
        shared = not isinstance(primal, Optimum) and dual_kept == (primal[4], primal[3], False)
        paths[valid, shared] = paths.get((valid, shared), 0) + 1
        if not shared:
            # a valid program leaves the shared path only when placements decide its primal
            assert not valid or isinstance(primal, Optimum)
            continue
        sub, rhs, cost, live, keep = primal
        assert dual == (*mirror(sub, rhs, cost), keep, live)
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
    # a dual that is not the primal's mirror is read off A too, on every path
    rng = random.Random(5)
    for p in [ExtendedLP([["bot", -2], [1, 3]], [2, -2], ["top", -3])] + [random_extended_program(rng) for _ in range(300)]:
        optimum_pair(p)
    assert calls == []


# --- duality checks and bounds ---


def test_weak_duality_fails_without_validity():
    # on the mixed-column counterexample the check is computable but false
    # for every positive dual weight, which is why validity is an input
    p = load_program("p1.lp")
    d = dualize(p)
    assert verify_primal_ext(p.A, p.b, (0,))
    assert verify_primal_ext(d.A, d.b, (Fraction(1, 2), 0))
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
    assert str(Optimum(ExtValue(3))) == "3"
    assert str(Optimum(BOT)) == "bot"


def test_an_optimum_is_never_none():
    with pytest.raises(DomainError):
        Optimum(None)


def test_an_optimum_coerces_its_value():
    assert Optimum("3/4") == Optimum(Fraction(3, 4)) == Optimum(ExtValue(Fraction(3, 4)))
    assert hash(Optimum("3/4")) == hash(Optimum(Fraction(3, 4)))
    assert Optimum("top").value == TOP
    assert opposites_opt(Optimum(BOT), Optimum(TOP)) and opposites_opt(Optimum(0), Optimum(0))
    assert not opposites_opt(Optimum(1), Optimum(1))


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


def reference_masks(a, b, c):
    """``infinity_masks`` as its docstring states it, scanned entry by entry."""
    live = [i for i in range(a.nrows) if not b[i].is_top and not any(e.is_bot for e in a[i])]
    if any(b[i].is_bot for i in live):
        return None
    bot_cost = any(e.is_bot for e in c)
    # a top cost forces its column to zero unless a bot cost pins every value; a system has no cost
    top_cost = [not bot_cost and e.is_top for e in c] or [False] * a.ncols
    keep = [j for j in range(a.ncols) if not any(a[i][j].is_top for i in live) and not top_cost[j]]
    return live, keep, bot_cost


def assert_indexed(a, b, c):
    """The endpoint index of ``A``, of each of its rows, of ``b`` and of ``c``
    against a per-entry scan."""
    cells = [(i, j) for i in range(a.nrows) for j in range(a.ncols)]
    assert a.bots == tuple(ij for ij in cells if a[ij[0]][ij[1]].is_bot), a
    assert a.tops == tuple(ij for ij in cells if a[ij[0]][ij[1]].is_top), a
    for v in (*a.rows, b, c):
        assert v.bots == tuple(j for j, e in enumerate(v) if e.is_bot), v
        assert v.tops == tuple(j for j, e in enumerate(v) if e.is_top), v


def test_the_placement_logic_matches_per_entry_scans():
    rng = random.Random(9)
    seen = {"invalid": 0, "several": 0, "later": 0}
    # an endpoint share of about 0.35; a few programs reach index 11, past
    # where a set of small ints happens to iterate in ascending order
    for size in [5] * 2000 + [12] * 100:
        p = random_extended_program(rng, size=size, drawn=0.525)
        # vectors built by ExtVector(...) and as rows of ExtMatrix (p is built
        # from lists), by neg_transpose and by the parser
        parsed = parse_program_text(format_program(p.A, p.b, p.c))
        assert parsed == (p.A, p.b, p.c)
        for a, b, c in ((p.A, p.b, p.c), (neg_transpose(p.A), p.c, p.b), parsed):
            assert_indexed(a, b, c)
        for a, b, c in ((p.A, p.b, p.c), (neg_transpose(p.A), p.c, p.b)):
            expected = reference_validity(a, b, c)
            assert validate(ExtendedLP(a, b, c)).as_dict() == expected, (a, b, c)
            system = {k: expected[k] for k in ("mixed_row", "mixed_col", "top_row_top_rhs", "bot_row_bot_rhs")}
            assert farkas_module.system_preconditions(a, b) == {k: v for k, v in system.items() if v}, (a, b)
            assert farkas_module.infinity_masks(a.bots, a.tops, b, c, a.ncols) == reference_masks(a, b, c), (a, b, c)
            # a system has no cost
            assert farkas_module.infinity_masks(a.bots, a.tops, b, (), a.ncols) == reference_masks(a, b, ()), (a, b)
            seen["invalid"] += any(expected.values())
            seen["several"] += any(len(v) > 1 for v in expected.values())
            seen["later"] += any(v and v[0] > 0 for v in expected.values())
        # the dual's placement read off A: its tops and bots, each (i, j) as (j, i)
        dual_bots, dual_tops = [(j, i) for i, j in p.A.tops], [(j, i) for i, j in p.A.bots]
        swapped = farkas_module.infinity_masks(dual_bots, dual_tops, p.c, p.b, p.A.nrows)
        assert swapped == reference_masks(neg_transpose(p.A), p.c, p.b), p
    # most programs break a condition, and many at several or later indices
    assert seen["invalid"] > 2100 and min(seen.values()) >= 200, seen
