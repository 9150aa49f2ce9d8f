"""Arithmetic and order laws of the extended carrier."""

import random
import sys
from fractions import Fraction
from math import gcd

import pytest
from hypothesis import given
from hypothesis import strategies as st

from extlp import (
    BOT,
    TOP,
    ZERO,
    DomainError,
    ExtValue,
    as_ext,
    as_rational,
    parse_ext,
    parse_rational,
    smul_nn,
)

rationals = st.fractions(min_value=-(10**6), max_value=10**6, max_denominator=10**4)


def sample_values(n: int, seed: int = 7) -> list[ExtValue]:
    rng = random.Random(seed)
    out = [BOT, TOP, ZERO, ExtValue(1), ExtValue(-1)]
    while len(out) < n:
        out.append(ExtValue(Fraction(rng.randint(-999, 999), rng.randint(1, 50))))
    return out


# --- construction ---


def test_as_rational_rejects_floats_and_bools():
    with pytest.raises(DomainError):
        as_rational(0.5)
    with pytest.raises(DomainError):
        as_rational(True)
    assert as_rational("3/7") == Fraction(3, 7)
    assert as_rational(4) == 4


def test_as_ext_passthrough_and_coercion():
    assert as_ext(BOT) is BOT
    assert as_ext(3) == ExtValue(3)
    assert as_ext("1/2") == ExtValue(Fraction(1, 2))
    assert as_ext(Fraction(5, 7)).finite_value == Fraction(5, 7)


def test_finite_value_access():
    v = ExtValue(Fraction(2, 3))
    assert v.is_finite and v.finite_value == Fraction(2, 3)
    assert not BOT.is_finite and BOT.is_bot
    assert not TOP.is_finite and TOP.is_top
    with pytest.raises(DomainError):
        BOT.finite_value


# --- addition ---


def test_add_endpoint_table():
    # bot absorbs everything, including top; top absorbs finite values
    assert BOT + BOT == BOT
    assert BOT + TOP == BOT
    assert TOP + BOT == BOT
    assert TOP + TOP == TOP
    assert BOT + ExtValue(5) == BOT
    assert TOP + ExtValue(5) == TOP
    assert ExtValue(5) + BOT == BOT
    assert ExtValue(5) + TOP == TOP


def test_add_commutative_over_samples():
    vals = sample_values(40)
    for a in vals:
        for b in vals:
            assert a + b == b + a


def test_add_associative_over_samples():
    vals = sample_values(12)
    for a in vals:
        for b in vals:
            for c in vals:
                assert (a + b) + c == a + (b + c)


def test_zero_is_identity():
    for v in sample_values(30):
        assert v + ZERO == v
        assert ZERO + v == v


@given(rationals, rationals)
def test_finite_add_matches_fraction(p, q):
    assert ExtValue(p) + ExtValue(q) == ExtValue(p + q)


# --- negation ---


def test_neg_swaps_endpoints():
    assert -BOT == TOP
    assert -TOP == BOT
    assert -ExtValue(3) == ExtValue(-3)


@given(rationals, rationals)
def test_computed_values_equal_constructed_ones(p, q):
    # negation, sums and scaling wrap the Fraction they compute without the
    # constructor's coercion; the results equal and hash like constructed ones
    cases = [(-ExtValue(p), -p), (ExtValue(p) + ExtValue(q), p + q), (smul_nn(abs(q), ExtValue(p)), abs(q) * p)]
    for got, want in cases:
        assert got == ExtValue(want) and hash(got) == hash(ExtValue(want))
        assert type(got.finite_value) is Fraction


def test_neg_involution():
    for v in sample_values(50):
        assert -(-v) == v


def test_negation_is_canonical():
    # -v reuses v's coprime numerator and denominator without re-normalising;
    # the result must be the Fraction that -q builds, in lowest terms
    rng = random.Random(19)
    qs = [Fraction(0), Fraction(-1), Fraction(2**64 + 1), Fraction(-(2**70), 3), Fraction(7, 2**65)]
    for _ in range(600):
        num = rng.choice([rng.randint(-99, 99), rng.randint(-(2**70), 2**70)])
        den = rng.choice([1, rng.randint(1, 60), rng.randint(2**64, 2**66)])
        qs.append(Fraction(num, den))
    for q in qs:
        got, want = -ExtValue(q), ExtValue(-q)
        assert got == want and hash(got) == hash(want)
        r = got.finite_value
        assert type(r) is Fraction and (r.numerator, r.denominator) == ((-q).numerator, (-q).denominator)
        assert r.denominator > 0 and gcd(r.numerator, r.denominator) == 1
        assert hash(r) == hash(-q) and str(r) == str(-q) and -r == q


def test_neg_is_not_an_additive_inverse_at_endpoints():
    # the carrier is a monoid, not a group
    assert TOP + (-TOP) == BOT
    assert BOT + (-BOT) == BOT


# --- order ---


def test_order_endpoints():
    assert BOT < ExtValue(-(10**9)) < TOP
    assert BOT < TOP
    assert not TOP < BOT
    assert BOT <= BOT and TOP <= TOP


def test_order_total_and_transitive():
    vals = sample_values(15)
    for a in vals:
        for b in vals:
            assert (a <= b) or (b <= a)
            assert (a <= b and b <= a) == (a == b)
    svals = sorted(vals)
    for lo, hi in zip(svals, svals[1:]):
        assert lo <= hi


def test_greater_is_the_reflected_less():
    # ExtValue defines only < and <=; Python answers > and >= by reflecting them
    vals = [BOT, ExtValue(-1), ZERO, ExtValue(Fraction(1, 2)), TOP]
    for a in vals:
        for b in vals:
            assert (a > b) == (b < a)
            assert (a >= b) == (b <= a)
    with pytest.raises(TypeError):
        ExtValue(1) > 1
    with pytest.raises(TypeError):
        ExtValue(1) >= Fraction(1)


@given(rationals, rationals)
def test_finite_order_matches_fraction(p, q):
    assert (ExtValue(p) < ExtValue(q)) == (p < q)


def test_add_monotone_in_each_argument():
    vals = sample_values(12)
    for a in vals:
        for b in vals:
            if a <= b:
                for c in vals:
                    assert a + c <= b + c


# --- scalar action ---


def test_smul_rejects_negative_scale():
    with pytest.raises(DomainError):
        smul_nn(-1, ExtValue(2))
    with pytest.raises(DomainError):
        smul_nn(Fraction(-1, 3), TOP)


def test_smul_endpoint_table():
    # bot is absorbing even at scale zero; top collapses to zero there
    assert smul_nn(0, BOT) == BOT
    assert smul_nn(0, TOP) == ZERO
    assert smul_nn(3, BOT) == BOT
    assert smul_nn(3, TOP) == TOP
    assert smul_nn(0, ExtValue(9)) == ZERO
    assert smul_nn(Fraction(2, 3), ExtValue(9)) == ExtValue(6)


def test_smul_coerces_the_value_as_as_ext_does():
    assert smul_nn(2, 3) == ExtValue(6)
    assert smul_nn(0, "bot") == BOT
    assert smul_nn(1, "top") == TOP
    with pytest.raises(DomainError):
        smul_nn(1, 1.5)


def test_smul_action_laws():
    rng = random.Random(11)
    vals = sample_values(20)
    scales = [Fraction(0), Fraction(1), Fraction(3, 2)] + [
        Fraction(rng.randint(0, 40), rng.randint(1, 9)) for _ in range(12)
    ]
    for v in vals:
        assert smul_nn(1, v) == v
        for c in scales:
            for d in scales:
                assert smul_nn(c, smul_nn(d, v)) == smul_nn(c * d, v)
                assert smul_nn(c + d, v) == smul_nn(c, v) + smul_nn(d, v)


def test_smul_distributes_over_add():
    vals = sample_values(14)
    for c in (Fraction(0), Fraction(1), Fraction(5, 2)):
        for v in vals:
            for w in vals:
                assert smul_nn(c, v + w) == smul_nn(c, v) + smul_nn(c, w)


def test_smul_order_monotone():
    vals = sample_values(14)
    for c in (Fraction(0), Fraction(1), Fraction(7, 3)):
        for v in vals:
            for w in vals:
                if v <= w:
                    assert smul_nn(c, v) <= smul_nn(c, w)


def test_no_value_times_value_product():
    with pytest.raises(TypeError):
        ExtValue(2) * ExtValue(3)  # type: ignore[operator]


# --- parsing and formatting ---


@pytest.mark.parametrize(
    "text,value",
    [
        ("bot", BOT),
        ("top", TOP),
        ("0", ZERO),
        ("-30", ExtValue(-30)),
        ("23/25", ExtValue(Fraction(23, 25))),
        ("0.92", ExtValue(Fraction(23, 25))),
        ("-1.75", ExtValue(Fraction(-7, 4))),
    ],
)
def test_parse_ext(text, value):
    assert parse_ext(text) == value


def test_format_parse_round_trip():
    for v in sample_values(60):
        assert parse_ext(str(v)) == v


def test_parse_rejects_garbage():
    for bad in ("", "infinity", "1/0", "--3", "nan", "0x3"):
        with pytest.raises(DomainError):
            parse_ext(bad)


def test_parse_refuses_digit_separators():
    # Fraction accepts "1_000" from Python 3.11 on; the file format has no separators on any version
    for bad in ("1_000", "1_0/3", "0.0_1", "1e1_0"):
        with pytest.raises(DomainError) as err:
            parse_rational(bad)
        assert str(err.value) == f"bad rational literal {bad!r}: Invalid literal for Fraction: {bad!r}"


def test_parse_refuses_an_exponent_over_the_digit_limit():
    limit = sys.get_int_max_str_digits()
    assert parse_ext(f"1e{limit}") == ExtValue(10**limit)
    assert parse_ext(f"2.5E-{limit}") == ExtValue(Fraction(25, 10 ** (limit + 1)))
    # 1e999999999 would otherwise build 10**999999999 and hang
    for bad in (f"1e{limit + 1}", f"-1E-{limit + 1}", "1e999999999", "3/4e5", "1e5x"):
        with pytest.raises(DomainError):
            parse_ext(bad)
    sys.set_int_max_str_digits(0)
    try:
        assert parse_ext(f"1e{limit + 1}") == ExtValue(10 ** (limit + 1))
    finally:
        sys.set_int_max_str_digits(limit)


def test_repr_and_hash_consistency():
    assert hash(ExtValue(Fraction(4, 2))) == hash(ExtValue(2))
    assert len({BOT, TOP, ZERO, ExtValue(0)}) == 3
    assert str(BOT) == "bot" and str(TOP) == "top"
    assert repr(BOT) == "BOT" and repr(TOP) == "TOP"
