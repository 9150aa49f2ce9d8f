"""Acceptance gate: the headline results, re-checked end to end.

Each criterion prints a single pass/fail line with its runtime, visible
even under pytest's capture, and fails the suite if the result or the
time budget is missed.
"""

import random
import sys
from fractions import Fraction
from functools import lru_cache
from time import perf_counter

from extlp import (
    BOT,
    TOP,
    ZERO,
    CONDITIONS,
    DUAL_CONDITION_SWAP,
    ExtendedLP,
    ExtMatrix,
    ExtVector,
    ExtValue,
    GenConfig,
    dot_weig,
    dualize,
    gen_valid_elp,
    is_feasible,
    opposites_opt,
    optimum_pair,
    oracle_feasible_point,
    oracle_solve_extended,
    oracle_solve_finite,
    smul_nn,
    solve_inequality,
    strong_duality_check,
    validate,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_ext,
    verify_primal_ineq,
    system_preconditions,
)
from conftest import load_program


def run_criterion(num: int, name: str, fn, budget: float | None) -> None:
    start = perf_counter()
    ok = False
    try:
        fn()
        ok = True
    finally:
        elapsed = perf_counter() - start
        in_budget = budget is None or elapsed < budget
        verdict = "PASS" if ok and in_budget else "FAIL"
        print(f"acceptance criterion {num} ({name}): {verdict} [{elapsed:.2f}s]", file=sys.__stdout__)
    assert ok
    if budget is not None:
        assert elapsed < budget, f"criterion {num} took {elapsed:.2f}s, budget {budget}s"


# --- 1: the six strong-duality counterexamples ---


def check_counterexample_fixtures():
    pairs = (("p1.lp", "d1.lp"), ("p2.lp", "d2.lp"), ("p3.lp", "d3.lp"))
    failed_conditions = []
    for p_name, d_name in pairs:
        p = load_program(p_name)
        d = load_program(d_name)
        assert dualize(p) == d
        # the optimum gap the validity conditions exist to rule out
        p_opt = oracle_solve_extended(p)
        d_opt = oracle_solve_extended(d)
        assert p_opt.value == ExtValue(0)
        assert d_opt.value == BOT
        assert not opposites_opt(p_opt, d_opt)
        for prog in (p, d):
            report = validate(prog)
            assert not report.is_valid
            names = list(report.failed())
            assert len(names) == 1
            assert len(report.failed()[names[0]]) == 1
            failed_conditions.append(names[0])
    assert sorted(failed_conditions) == sorted(CONDITIONS)


def test_criterion_1_counterexample_fixtures():
    run_criterion(1, "counterexample fixtures", check_counterexample_fixtures, 1.0)


# --- 2: alternative-theorem preconditions are each load-bearing ---

OVERLAP_QUADRUPLES = [
    # (A, b, x, y, condition whose omission lets both branches verify)
    ([["bot", "top"], [0, -1]], [0, -1], (1, 1), (0, 1), "mixed_row"),
    ([["bot"], ["top"]], [-1, 0], (0,), (1, 1), "mixed_col"),
    ([["top"], [-1]], ["top", -1], (1,), (0, 1), "top_row_top_rhs"),
    ([["bot"]], ["bot"], (1,), (0,), "bot_row_bot_rhs"),
]


def check_exclusivity_preconditions():
    for a_rows, b_vals, x, y, condition in OVERLAP_QUADRUPLES:
        a = ExtMatrix(a_rows)
        b = ExtVector(b_vals)
        assert system_preconditions(a, b) == {condition: (0,)}
        assert verify_primal_ext(a, b, x)
        assert verify_dual_ext(a, b, y)

    # one bot entry is already fatal for the transposed-sign dual form:
    # A^T y >= 0 never holds because the bot column absorbs every weight
    a = ExtMatrix([["bot"], [0]])
    b = ExtVector([0, -1])
    grid = sorted(
        {Fraction(n, d) for d in range(1, 9) for n in range(0, 4 * d + 1)}
    )
    col = [row[0] for row in a]
    for y0 in grid:
        for y1 in grid:
            transposed = dot_weig(col, (y0, y1))
            rhs = dot_weig(b, (y0, y1))
            assert not (transposed >= ZERO and rhs < ZERO)
    # the primal side is just as empty: its only live row reads 0 <= -1
    assert oracle_feasible_point([[0]], [-1], ncols=1) is None
    # while the negated-transpose form hands out a working certificate
    assert verify_dual_ext(a, b, (0, 1))


def test_criterion_2_exclusivity_preconditions():
    run_criterion(2, "exclusivity preconditions", check_exclusivity_preconditions, 1.0)


# --- 3: the lunch menu, exact and against printed decimals ---


def check_lunch_numbers():
    lunch = load_program("lunch.lp")
    p_opt, d_opt = optimum_pair(lunch)
    assert p_opt.value == ExtValue(Fraction(4093, 5730))
    assert d_opt.value == ExtValue(Fraction(-4093, 5730))
    assert abs(float(p_opt.value.finite_value) - 0.714311) < 1e-5

    vertex = oracle_solve_finite(
        [[Fraction(-27), Fraction(-90)], [Fraction(-1300), Fraction(-1150)]],
        [Fraction(-30), Fraction(-700)],
        [Fraction(23, 25), Fraction(7, 4)],
    )
    assert vertex.value == Fraction(4093, 5730)
    assert abs(float(vertex.point[0]) - 0.331588) < 1e-5
    assert abs(float(vertex.point[1]) - 0.233857) < 1e-5

    top_priced = ExtendedLP(lunch.A, lunch.b, [Fraction(23, 25), "top"])
    p_opt, d_opt = optimum_pair(top_priced)
    assert p_opt.value == ExtValue(Fraction(46, 45))
    assert d_opt.value == ExtValue(Fraction(-46, 45))
    assert abs(float(p_opt.value.finite_value) - 1.022222) < 1e-5


def test_criterion_3_lunch_numbers():
    run_criterion(3, "lunch menu optima", check_lunch_numbers, 1.0)


# --- 4 and 7 share one generated population; 8 audits both ---


@lru_cache(maxsize=None)
def duality_population() -> tuple:
    collected = []
    seed = 0
    while len(collected) < 500:
        seed += 1
        rows = 1 + seed % 3
        cols = 1 + (seed // 3) % 3
        p = gen_valid_elp(GenConfig(rows=rows, cols=cols, seed=seed, infinity_prob=0.3))
        if is_feasible(p) or is_feasible(dualize(p)):
            collected.append(p)
    return tuple(collected)


@lru_cache(maxsize=None)
def structural_population() -> tuple:
    return tuple(
        gen_valid_elp(GenConfig(rows=1 + s % 3, cols=1 + (s // 3) % 3, seed=10_000 + s, infinity_prob=0.3))
        for s in range(500)
    )


def check_strong_duality_suite():
    for p in duality_population():
        assert strong_duality_check(p)
        p_opt, d_opt = optimum_pair(p)
        assert opposites_opt(p_opt, d_opt)
        assert oracle_solve_extended(p) == p_opt
        assert oracle_solve_extended(dualize(p)) == d_opt


def test_criterion_4_strong_duality_suite():
    run_criterion(4, "strong duality on 500 programs", check_strong_duality_suite, 60.0)


# --- 5: alternative exclusivity at scale ---


def check_exclusivity_suite():
    rng = random.Random(20260817)
    for _ in range(1000):
        m = rng.randint(1, 4)
        n = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        out = solve_inequality(a, b)
        if out.is_primal:
            assert verify_primal_ineq(a, b, out.x)
        else:
            assert verify_dual_ineq(a, b, out.y)


def test_criterion_5_exclusivity_suite():
    run_criterion(5, "farkas exclusivity on 1000 systems", check_exclusivity_suite, 60.0)


# --- 6: the monoid and action laws, exhaustively by symbol class ---


def check_algebra_tables():
    rng = random.Random(6)
    finites = [ExtValue(Fraction(rng.randint(-999, 999), rng.randint(1, 60))) for _ in range(200)]
    values = [BOT, TOP] + finites
    reps = [BOT, TOP, ZERO, ExtValue(1), ExtValue(Fraction(-7, 3))]
    scales = [Fraction(0), Fraction(1), Fraction(2), Fraction(5, 4)]

    for a in values:
        assert -(-a) == a
        assert a + ZERO == a
        for b in values:
            assert a + b == b + a
    for a in reps:
        for b in reps:
            for c in reps:
                assert (a + b) + c == a + (b + c)
    for _ in range(2000):
        a, b, c = rng.choice(values), rng.choice(values), rng.choice(values)
        assert (a + b) + c == a + (b + c)
    for v in values:
        assert smul_nn(1, v) == v
        for s in scales:
            for t in scales:
                assert smul_nn(s, smul_nn(t, v)) == smul_nn(s * t, v)
                assert smul_nn(s + t, v) == smul_nn(s, v) + smul_nn(t, v)
    for s in scales:
        for v in reps:
            for w in reps:
                assert smul_nn(s, v + w) == smul_nn(s, v) + smul_nn(s, w)
                if v <= w:
                    assert smul_nn(s, v) <= smul_nn(s, w)
    for _ in range(2000):
        s = Fraction(rng.randint(0, 30), rng.randint(1, 9))
        v, w = rng.choice(values), rng.choice(values)
        if v <= w:
            assert smul_nn(s, v) <= smul_nn(s, w)


def test_criterion_6_algebra_tables():
    run_criterion(6, "extended arithmetic laws", check_algebra_tables, 10.0)


# --- 7: duality is a validity-preserving involution ---


def check_structural_identities():
    for p in structural_population():
        d = dualize(p)
        assert dualize(d) == p
        p_report = validate(p)
        d_report = validate(d)
        assert p_report.is_valid and d_report.is_valid
        for name, idxs in p_report.as_dict().items():
            assert d_report.as_dict()[DUAL_CONDITION_SWAP[name]] == idxs


def test_criterion_7_structural_identities():
    run_criterion(7, "dualize involution on 500 programs", check_structural_identities, 10.0)


# --- 8: every valid program has an optimum ---


def check_optimum_always_present():
    audited = 0
    for p in duality_population() + structural_population():
        p_opt, d_opt = optimum_pair(p)
        assert p_opt.value is not None
        assert d_opt.value is not None
        audited += 1
    assert audited == 1000


def test_criterion_8_optimum_always_present():
    run_criterion(8, "optimum never absent", check_optimum_always_present, None)
