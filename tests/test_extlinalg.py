"""Vectors, matrices, weighted sums, and the negated transpose."""

import random
from fractions import Fraction

import pytest

import extlp
from extlp import (
    BOT,
    TOP,
    ZERO,
    DimensionError,
    DomainError,
    ExtMatrix,
    ExtValue,
    ExtVector,
    dot_weig,
    le_vec,
    mul_weig,
    neg_transpose,
    rat_vector,
)
from extlp import elp, extfield, extlinalg, farkas
from extlp.extlinalg import rat_dot, scatter


def random_ext_vector(rng: random.Random, n: int, extra: tuple = ()) -> ExtVector:
    pool = [BOT, TOP, *extra] + [ExtValue(rng.randint(-9, 9)) for _ in range(4)]
    return ExtVector([rng.choice(pool) for _ in range(n)])


# --- containers ---


def test_vector_coerces_and_is_immutable():
    v = ExtVector([1, "bot", "3/4"])
    assert v[0] == ExtValue(1) and v[1] == BOT and v[2] == ExtValue(Fraction(3, 4))
    with pytest.raises(TypeError):
        v[0] = ZERO  # type: ignore[index]
    assert len(v) == 3
    assert hash(v) == hash(ExtVector([1, BOT, Fraction(3, 4)]))


def test_matrix_rejects_ragged_rows():
    with pytest.raises(DimensionError):
        ExtMatrix([[1, 2], [3]])


def test_matrix_empty_needs_explicit_ncols():
    with pytest.raises(DimensionError):
        ExtMatrix([])
    m = ExtMatrix([], ncols=3)
    assert m.shape == (0, 3)


def test_malformed_input_to_the_constructors_names_its_fault():
    cases = [
        (lambda: ExtValue(0.5), DomainError, "refusing inexact float 0.5; pass a Fraction or string"),
        (lambda: ExtValue(True), DomainError, "not a rational: True"),
        (lambda: ExtVector([1, 0.5]), DomainError, "refusing inexact float 0.5; pass a Fraction or string"),
        (lambda: ExtVector([False]), DomainError, "not a rational: False"),
        (lambda: ExtMatrix([[1.5]]), DomainError, "refusing inexact float 1.5; pass a Fraction or string"),
        (lambda: ExtMatrix([[1, 2], [3]]), DimensionError, "ragged rows: widths [1, 2]"),
        (lambda: ExtMatrix([[1, 2]], ncols=3), DimensionError, "ncols 3 does not match row width 2"),
        (lambda: ExtMatrix([]), DimensionError, "a matrix with no rows needs an explicit ncols"),
    ]
    for build, kind, message in cases:
        with pytest.raises(kind) as err:
            build()
        assert str(err.value) == message


def test_matrix_rows_and_cols():
    m = ExtMatrix([[1, "top"], ["bot", 4]])
    assert m.shape == (2, 2)
    assert m[0] == ExtVector([1, TOP])
    assert ExtVector(row[1] for row in m) == ExtVector([TOP, 4])


# --- weighted sums ---


def test_dot_weig_examples():
    # weights act on entries; a zero weight still keeps bot absorbing
    assert dot_weig(ExtVector([BOT, TOP]), rat_vector([0, 1])) == BOT
    assert dot_weig(ExtVector([TOP, BOT]), rat_vector([1, 0])) == BOT
    assert dot_weig(ExtVector([TOP, ExtValue(2)]), rat_vector([0, 3])) == ExtValue(6)
    assert dot_weig(ExtVector([TOP, ExtValue(2)]), rat_vector([1, 3])) == TOP
    assert dot_weig(ExtVector([]), rat_vector([])) == ZERO


def test_dot_weig_rejects_negative_weights_and_bad_arity():
    with pytest.raises(DomainError):
        dot_weig(ExtVector([1]), [-1])
    with pytest.raises(DimensionError):
        dot_weig(ExtVector([1, 2]), [1])


def test_dot_weig_permutation_invariant():
    rng = random.Random(3)
    for _ in range(80):
        n = rng.randint(0, 6)
        v = random_ext_vector(rng, n)
        w = [Fraction(rng.randint(0, 7), rng.randint(1, 4)) for _ in range(n)]
        base = dot_weig(v, w)
        order = list(range(n))
        rng.shuffle(order)
        assert dot_weig(ExtVector([v[i] for i in order]), [w[i] for i in order]) == base


def test_mul_weig_is_rowwise_dot():
    m = ExtMatrix([[BOT, 1], [2, TOP], [0, -5]])
    w = rat_vector([1, 2])
    assert mul_weig(m, w) == ExtVector([BOT, TOP, ExtValue(-10)])
    for i in range(3):
        assert mul_weig(m, w)[i] == dot_weig(m[i], w)


def test_le_vec_pointwise():
    assert le_vec(ExtVector([BOT, 1]), ExtVector([0, 1]))
    assert not le_vec(ExtVector([2, 1]), ExtVector([0, TOP]))
    with pytest.raises(DimensionError):
        le_vec(ExtVector([1]), ExtVector([1, 2]))


# --- negated transpose ---


def test_neg_transpose_entries():
    m = ExtMatrix([[BOT, 2], [TOP, -3]])
    t = neg_transpose(m)
    assert t.shape == (2, 2)
    assert t[0] == ExtVector([TOP, BOT])
    assert t[1] == ExtVector([-2, 3])


def test_neg_transpose_involution():
    # each negation reuses a numerator and a denominator, some over 2**64;
    # twice over, the matrix and its rows' indexes come back and hash alike
    rng = random.Random(5)
    big = [ExtValue(Fraction(rng.randint(-(2**70), 2**70), rng.randint(1, 2**66))) for _ in range(3)]
    for k in range(160):
        nr, nc = rng.randint(0, 4), rng.randint(0, 4)
        m = ExtMatrix([random_ext_vector(rng, nc, big if k % 2 else ()) for _ in range(nr)], ncols=nc)
        back = neg_transpose(neg_transpose(m))
        assert back == m and hash(back) == hash(m)
        assert [(r.bots, r.tops) for r in back] == [(r.bots, r.tops) for r in m]


def test_neg_transpose_equals_a_rebuild_through_the_constructor():
    # the constructor coerces, checks the shape and scans for endpoints;
    # neg_transpose trusts m and must build the same matrix
    rng = random.Random(17)
    pool = [BOT, TOP] + [ExtValue(Fraction(rng.randint(-9, 9), rng.randint(1, 4))) for _ in range(4)]
    shapes = [(0, 0), (0, 3), (3, 0)] + [(rng.randint(0, 5), rng.randint(0, 5)) for _ in range(120)]
    for nr, nc in shapes:
        m = ExtMatrix([[rng.choice(pool) for _ in range(nc)] for _ in range(nr)], ncols=nc)
        t = neg_transpose(m)
        ref = ExtMatrix([[-m[i][j] for i in range(nr)] for j in range(nc)], ncols=nr)
        assert [r.entries for r in t] == [r.entries for r in ref]
        assert (t.ncols, t.bots, t.tops) == (ref.ncols, ref.bots, ref.tops)
        assert t == ref and hash(t) == hash(ref)


def test_neg_transpose_shape_swap():
    m = ExtMatrix([[1, 2, 3]])
    assert neg_transpose(m).shape == (3, 1)
    empty = ExtMatrix([], ncols=2)
    assert neg_transpose(empty).shape == (2, 0)


# --- the endpoint index ---


def test_the_endpoint_index_matches_a_scan():
    m = ExtMatrix([[BOT, 2, TOP], [TOP, -3, BOT]])
    assert m.bots == ((0, 0), (1, 2)) and m.tops == ((0, 2), (1, 0))
    rng = random.Random(7)
    for _ in range(60):
        nr, nc = rng.randint(0, 5), rng.randint(0, 5)
        m = ExtMatrix([random_ext_vector(rng, nc) for _ in range(nr)], ncols=nc)
        cells = [(i, j) for i in range(nr) for j in range(nc)]
        assert m.bots == tuple(ij for ij in cells if m[ij[0]][ij[1]].is_bot)
        assert m.tops == tuple(ij for ij in cells if m[ij[0]][ij[1]].is_top)
        t = neg_transpose(m)
        assert t.bots == tuple(sorted((j, i) for i, j in m.tops))
        assert t.tops == tuple(sorted((j, i) for i, j in m.bots))


def test_an_all_finite_matrix_indexes_no_endpoints():
    for m in (ExtMatrix([[1, 2], [3, 4]]), ExtMatrix([], ncols=2)):
        assert m.bots == () and m.tops == ()


def test_the_endpoint_index_is_read_only():
    m = ExtMatrix([[BOT, TOP]])
    with pytest.raises(AttributeError):
        m.bots = ()  # type: ignore[misc]
    with pytest.raises(AttributeError):
        m.tops = ()  # type: ignore[misc]
    assert m.bots == ((0, 0),) and m.tops == ((0, 1),)


# --- rational helpers ---


def test_rat_vector_validation():
    assert rat_vector(["1/2", 3]) == (Fraction(1, 2), Fraction(3))
    with pytest.raises(DomainError):
        rat_vector([0.5])


def test_rat_dot_and_mat_vec():
    x = [Fraction(3), Fraction(4)]
    assert rat_dot(x, x) == 25


def test_the_helpers_no_solver_called_are_gone():
    assert not hasattr(extlp, "nonneg_vector")
    assert not hasattr(extlinalg, "nonneg_vector") and not hasattr(extlinalg, "rat_identity")
    assert not hasattr(extlinalg, "rat_mat_vec") and not hasattr(extlinalg, "rat_transpose")
    assert not hasattr(ExtMatrix, "col")


def test_the_names_that_restate_another_are_gone():
    # ExtValue, str of a Fraction, verify_primal_ext(p.A, p.b, x) and solve_inequality(a, b).y say each
    for module, name in ((extfield, "finite"), (extfield, "format_rational"), (elp, "is_solution"),
                         (farkas, "dual_infeasibility_search")):
        assert not hasattr(module, name) and not hasattr(extlp, name), name
    # str(v), report._asdict(), p.A.shape, iteration and indexing of the matrix, and extlp.oracle say each
    assert not hasattr(extfield, "format_ext") and not hasattr(extlp, "format_ext")
    assert not hasattr(elp.ValidityReport, "as_dict") and not hasattr(elp.ExtendedLP, "shape")
    assert not hasattr(extlinalg.ExtMatrix, "rows")
    assert "_ORACLE_NAMES" not in vars(extlp) and "__getattr__" not in vars(extlp)


def test_scatter_re_expands_masked_witnesses():
    assert scatter((Fraction(7), Fraction(9)), (1, 3), 5) == (0, 7, 0, 9, 0)
    assert scatter((), (), 3) == (0, 0, 0)
