"""Reference solvers and the random program generator."""

import random
from fractions import Fraction

import pytest

from extlp import (
    BOT,
    TOP,
    DimensionError,
    ExtValue,
    GenConfig,
    GenerationBudgetError,
    ScaleLimitError,
    gen_valid_elp,
    is_feasible,
    opposites_opt,
    optimum,
    optimum_pair,
    oracle_feasible_point,
    oracle_solve_extended,
    oracle_solve_finite,
    fm_minimum,
    validate,
)
from extlp.elp import ExtendedLP, dualize
from extlp.oracle import INFEASIBLE, MAX_ORACLE_COLS, MAX_ORACLE_ROWS, OPTIMAL, UNBOUNDED
from conftest import load_program

LUNCH_A = [[-27, -90], [-1300, -1150]]
LUNCH_B = [-30, -700]
LUNCH_C = [Fraction(23, 25), Fraction(7, 4)]


# --- finite vertex enumeration ---


def test_lunch_vertex_solution():
    r = oracle_solve_finite(LUNCH_A, LUNCH_B, LUNCH_C)
    assert r.status == OPTIMAL
    assert r.value == Fraction(4093, 5730)
    assert r.point == (Fraction(190, 573), Fraction(134, 573))
    assert abs(float(r.value) - 0.714311) < 1e-5
    assert abs(float(r.point[0]) - 0.331588) < 1e-5
    assert abs(float(r.point[1]) - 0.233857) < 1e-5


def test_optimal_point_is_feasible_and_attains_value():
    r = oracle_solve_finite(LUNCH_A, LUNCH_B, LUNCH_C)
    for row, rhs in zip(LUNCH_A, LUNCH_B):
        assert sum(q * x for q, x in zip(row, r.point)) <= rhs
    assert sum(q * x for q, x in zip(LUNCH_C, r.point)) == r.value


def test_unbounded_ray_invariants():
    r = oracle_solve_finite([[-1]], [0], [-1])
    assert r.status == UNBOUNDED and r.value is None
    d = r.ray
    assert all(t >= 0 for t in d) and any(t > 0 for t in d)
    assert all(sum(q * t for q, t in zip(row, d)) <= 0 for row in [[-1]])
    assert sum(q * t for q, t in zip([-1], d)) < 0


def test_infeasible_system():
    r = oracle_solve_finite([[0]], [-1], [1])
    assert r.status == INFEASIBLE
    assert oracle_feasible_point([[0]], [-1], ncols=1) is None


def test_zero_column_system_handled():
    r = oracle_solve_finite([], [], [Fraction(0)] * 0)
    assert r.status == OPTIMAL and r.value == 0 and r.point == ()


def test_size_caps():
    big = [[0] * (MAX_ORACLE_COLS + 1)]
    with pytest.raises(ScaleLimitError):
        oracle_solve_finite(big, [0], [0] * (MAX_ORACLE_COLS + 1))
    tall = [[0]] * (MAX_ORACLE_ROWS + 1)
    with pytest.raises(ScaleLimitError):
        oracle_feasible_point(tall, [0] * (MAX_ORACLE_ROWS + 1), ncols=1)


@pytest.mark.parametrize(
    "solve,args",
    [
        pytest.param(oracle_feasible_point, ([[1, 2]], [1, 1]), id="feasible_point_long_rhs"),
        pytest.param(oracle_feasible_point, ([[1, 2], [1]], [1, 1]), id="feasible_point_ragged"),
        pytest.param(oracle_solve_finite, ([[1]], [1, 2], [1]), id="solve_finite_long_rhs"),
        pytest.param(oracle_solve_finite, ([[1], [1]], [1], [1]), id="solve_finite_short_rhs"),
        pytest.param(oracle_solve_finite, ([[1, 2], [1]], [1, 1], [1, 1]), id="solve_finite_ragged"),
        pytest.param(fm_minimum, ([[1, 2], [1]], [1, 1], [1, 1]), id="fm_minimum_ragged"),
        pytest.param(fm_minimum, ([[1]], [1, 2], [1]), id="fm_minimum_long_rhs"),
        pytest.param(fm_minimum, ([[1, 2]], [1], [1]), id="fm_minimum_wide_rows"),
    ],
)
def test_misshapen_systems_raise_a_dimension_error(solve, args):
    with pytest.raises(DimensionError):
        solve(*args)


# --- elimination oracle against the vertex oracle ---


def test_elimination_matches_vertices_on_lunch():
    r = fm_minimum(LUNCH_A, LUNCH_B, LUNCH_C)
    assert r.status == OPTIMAL and r.value == Fraction(4093, 5730)


def test_elimination_matches_vertices_on_random_systems():
    rng = random.Random(21)
    for _ in range(120):
        n = rng.randint(1, 2)
        m = rng.randint(1, 4)
        a = [[Fraction(rng.randint(-3, 3)) for _ in range(n)] for _ in range(m)]
        b = [Fraction(rng.randint(-3, 3)) for _ in range(m)]
        c = [Fraction(rng.randint(-3, 3)) for _ in range(n)]
        vert = oracle_solve_finite(a, b, c)
        elim = fm_minimum(a, b, c)
        assert vert.status == elim.status
        if vert.status == OPTIMAL:
            assert vert.value == elim.value


# --- extended oracle ---


def test_extended_oracle_on_counterexample_fixtures():
    pairs = (("p1.lp", "d1.lp"), ("p2.lp", "d2.lp"), ("p3.lp", "d3.lp"))
    for solve in (oracle_solve_extended, optimum):
        for p_name, d_name in pairs:
            p_opt = solve(load_program(p_name))
            d_opt = solve(load_program(d_name))
            assert p_opt.value == ExtValue(0), (solve.__name__, p_name)
            assert d_opt.value == BOT, (solve.__name__, d_name)
            assert not opposites_opt(p_opt, d_opt)


def test_certified_optimum_matches_oracle_on_invalid_programs():
    rng = random.Random(2024)

    def entry():
        if rng.random() < 0.3:
            return rng.choice(("bot", "top"))
        return rng.randint(-3, 3)

    checked = 0
    while checked < 500:
        m, n = rng.randint(1, 5), rng.randint(1, 5)
        p = ExtendedLP(
            [[entry() for _ in range(n)] for _ in range(m)],
            [entry() for _ in range(m)],
            [entry() for _ in range(n)],
        )
        if validate(p).is_valid:
            continue
        checked += 1
        expected = (oracle_solve_extended(p), oracle_solve_extended(dualize(p)))
        assert optimum(p) == expected[0], p
        assert optimum(dualize(p)) == expected[1], p
        assert optimum_pair(p) == expected, p
        assert is_feasible(p) == (not expected[0].value.is_top), p


def test_extended_oracle_agrees_with_pipeline_on_lunch(lunch):
    assert oracle_solve_extended(lunch).value == ExtValue(Fraction(4093, 5730))
    assert oracle_solve_extended(dualize(lunch)).value == ExtValue(Fraction(-4093, 5730))
    top_priced = ExtendedLP(lunch.A, lunch.b, [Fraction(23, 25), "top"])
    assert oracle_solve_extended(top_priced).value == ExtValue(Fraction(46, 45))


def test_extended_oracle_statuses():
    assert oracle_solve_extended(ExtendedLP([[0]], [-1], [5])).value == TOP
    assert oracle_solve_extended(ExtendedLP([[0]], [0], [-1])).value == BOT
    assert oracle_solve_extended(ExtendedLP([[-1, 0], [0, 1]], [-1, 0], ["top", "bot"])).value == BOT


# --- generator ---


def test_generator_is_deterministic():
    a = gen_valid_elp(GenConfig(rows=3, cols=2, seed=42))
    b = gen_valid_elp(GenConfig(rows=3, cols=2, seed=42))
    assert a == b
    assert a != gen_valid_elp(GenConfig(rows=3, cols=2, seed=43))


def test_generator_output_is_valid_with_requested_shape():
    for seed in range(60):
        p = gen_valid_elp(GenConfig(rows=2, cols=3, seed=seed))
        assert p.shape == (2, 3)
        assert validate(p).is_valid


def test_generator_mixes_finite_and_endpoint_entries():
    endpoints = 0
    finites = 0
    for seed in range(120):
        p = gen_valid_elp(GenConfig(rows=2, cols=2, seed=seed, infinity_prob=0.3))
        entries = [e for row in p.A.rows for e in row] + list(p.b) + list(p.c)
        endpoints += sum(1 for e in entries if not e.is_finite)
        finites += sum(1 for e in entries if e.is_finite)
    assert endpoints > 60
    assert finites > 300


def test_generator_entry_magnitude_is_bounded():
    for seed in range(30):
        p = gen_valid_elp(GenConfig(rows=3, cols=3, magnitude=3, seed=seed))
        for e in [e for row in p.A.rows for e in row] + list(p.b) + list(p.c):
            if e.is_finite:
                assert abs(e.finite_value) <= 3
                assert e.finite_value.denominator == 1


def test_generator_rejects_out_of_range_dims():
    with pytest.raises(ScaleLimitError):
        GenConfig(rows=0, cols=2)
    with pytest.raises(ScaleLimitError):
        GenConfig(rows=2, cols=0)


@pytest.mark.parametrize("rows,cols", [(5, 5), (6, 6), (8, 4), (4, 8)])
def test_optimum_pair_matches_oracle_beyond_four_by_four(rows, cols):
    for seed in range(40):
        p = gen_valid_elp(GenConfig(rows=rows, cols=cols, seed=seed))
        expected = (oracle_solve_extended(p), oracle_solve_extended(dualize(p)))
        assert optimum_pair(p) == expected, seed


def test_optimum_pair_matches_oracle_on_degenerate_programs():
    # right-hand sides <= 0, so most rows start with an artificial, and a
    # repeated row in half the draws, so phase 1 often ends with an
    # artificial basic at level zero
    rng = random.Random(1983)
    for k in range(300):
        m, n = rng.randint(1, 4), rng.randint(1, 3)
        a = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(m)]
        b = [rng.randint(-2, 0) for _ in range(m)]
        if m > 1 and k % 2:
            a[1], b[1] = list(a[0]), b[0]
        p = ExtendedLP(a, b, [rng.randint(-2, 2) for _ in range(n)])
        assert optimum_pair(p) == (oracle_solve_extended(p), oracle_solve_extended(dualize(p))), k


def test_generator_budget_error_carries_the_seed():
    cfg = GenConfig(rows=4, cols=4, seed=17, infinity_prob=1.0, max_attempts=3)
    with pytest.raises(GenerationBudgetError) as err:
        gen_valid_elp(cfg)
    assert err.value.seed == 17


def test_generated_programs_have_usable_optima():
    for seed in range(25):
        p = gen_valid_elp(GenConfig(rows=2, cols=2, seed=seed, infinity_prob=0.25))
        if not (is_feasible(p) or is_feasible(dualize(p))):
            continue
        p_opt, d_opt = optimum_pair(p)
        assert oracle_solve_extended(p) == p_opt
        assert oracle_solve_extended(dualize(p)) == d_opt
