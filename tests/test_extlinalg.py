"""Vectors, matrices, weighted sums, and the negated transpose."""

import random
from fractions import Fraction

import pytest

from extlp import (
    BOT,
    TOP,
    ZERO,
    DimensionError,
    DomainError,
    ExtMatrix,
    ExtVector,
    dot_weig,
    finite,
    le_vec,
    mul_weig,
    neg_transpose,
    nonneg_vector,
    rat_vector,
)
from extlp.extlinalg import rat_dot, rat_identity, rat_mat_vec, rat_transpose, scatter


def random_ext_vector(rng: random.Random, n: int) -> ExtVector:
    pool = [BOT, TOP] + [finite(rng.randint(-9, 9)) for _ in range(4)]
    return ExtVector([rng.choice(pool) for _ in range(n)])


# --- containers ---


def test_vector_coerces_and_is_immutable():
    v = ExtVector([1, "bot", "3/4"])
    assert v[0] == finite(1) and v[1] == BOT and v[2] == finite(Fraction(3, 4))
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


def test_matrix_rows_and_cols():
    m = ExtMatrix([[1, "top"], ["bot", 4]])
    assert m.shape == (2, 2)
    assert m[0] == ExtVector([1, TOP])
    assert m.col(1) == ExtVector([TOP, 4])


# --- weighted sums ---


def test_dot_weig_examples():
    # weights act on entries; a zero weight still keeps bot absorbing
    assert dot_weig(ExtVector([BOT, TOP]), rat_vector([0, 1])) == BOT
    assert dot_weig(ExtVector([TOP, BOT]), rat_vector([1, 0])) == BOT
    assert dot_weig(ExtVector([TOP, finite(2)]), rat_vector([0, 3])) == finite(6)
    assert dot_weig(ExtVector([TOP, finite(2)]), rat_vector([1, 3])) == TOP
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
    assert mul_weig(m, w) == ExtVector([BOT, TOP, finite(-10)])
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
    rng = random.Random(5)
    for _ in range(40):
        nr, nc = rng.randint(0, 4), rng.randint(0, 4)
        m = ExtMatrix([random_ext_vector(rng, nc) for _ in range(nr)], ncols=nc)
        assert neg_transpose(neg_transpose(m)) == m


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
    with pytest.raises(DomainError):
        nonneg_vector([1, -1])
    assert nonneg_vector([0, "2/3"]) == (Fraction(0), Fraction(2, 3))


def test_rat_dot_and_mat_vec():
    a = [[Fraction(1), Fraction(2)], [Fraction(0), Fraction(-1)]]
    x = [Fraction(3), Fraction(4)]
    assert rat_dot(x, x) == 25
    assert rat_mat_vec(a, x) == (Fraction(11), Fraction(-4))


def test_rat_transpose_and_identity():
    a = [[1, 2, 3], [4, 5, 6]]
    t = rat_transpose([[Fraction(v) for v in row] for row in a], 3)
    assert t == ((1, 4), (2, 5), (3, 6))
    assert rat_transpose([], 2) == ((), ())
    assert rat_identity(2) == ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(1)))


def test_scatter_re_expands_masked_witnesses():
    assert scatter((Fraction(7), Fraction(9)), (1, 3), 5) == (0, 7, 0, 9, 0)
    assert scatter((), (), 3) == (0, 0, 0)
