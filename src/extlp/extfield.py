"""Arithmetic on rationals extended with a bottom and a top element.

The carrier is the exact rationals together with two endpoints, written
``bot`` and ``top`` and ordered ``bot < q < top`` for every rational ``q``.
Addition keeps the carrier a commutative ordered monoid rather than a group:

* ``bot`` absorbs everything, in particular ``bot + top == bot``;
* ``top`` absorbs everything finite;
* finite values add as rationals.

Negation swaps the endpoints and is an involution.  There is no general
product of two extended values.  The only multiplicative structure is the
scalar action :func:`smul_nn` by *nonnegative* rationals, with one deliberate
asymmetry at zero::

    0 * top == 0        but        0 * bot == bot

Scaling by a negative rational is undefined and raises :class:`DomainError`.
"""

from __future__ import annotations

import sys
from fractions import Fraction

from .errors import DomainError

__all__ = [
    "ExtValue",
    "BOT",
    "TOP",
    "ZERO",
    "as_ext",
    "as_rational",
    "smul_nn",
    "parse_rational",
    "parse_ext",
    "format_ext",
]

_BOT = -1
_FIN = 0
_TOP = 1


def as_rational(value) -> Fraction:
    """Coerce ``value`` to an exact rational.

    Accepts :class:`Fraction`, :class:`int` and strings (``"p/q"``, integer
    or decimal literals, all parsed exactly).  Floats are rejected: they
    carry binary rounding and would silently break exactness.
    """
    if type(value) is Fraction:
        return value
    if isinstance(value, bool):
        raise DomainError(f"not a rational: {value!r}")
    if isinstance(value, str):
        return parse_rational(value)
    if isinstance(value, int):
        return Fraction(value)
    if isinstance(value, float):
        raise DomainError(f"refusing inexact float {value!r}; pass a Fraction or string")
    raise DomainError(f"not a rational: {value!r}")


class ExtValue:
    """A rational number, or one of the endpoints ``BOT`` / ``TOP``.

    ``a > b`` and ``a >= b`` are Python's reflections ``b < a`` and ``b <= a``."""

    __slots__ = ("_tag", "_q")

    def __init__(self, value):
        self._tag = _FIN
        self._q = as_rational(value)

    @property
    def is_bot(self) -> bool:
        return self._tag == _BOT

    @property
    def is_top(self) -> bool:
        return self._tag == _TOP

    @property
    def is_finite(self) -> bool:
        return self._tag == _FIN

    @property
    def finite_value(self) -> Fraction:
        """The underlying rational; raises on an endpoint."""
        if self._tag != _FIN:
            raise DomainError(f"{self} has no finite value")
        return self._q

    def __add__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        # bot absorbs everything, then top absorbs the rest
        if self._tag == _BOT or other._tag == _BOT:
            return BOT
        if self._tag == _TOP or other._tag == _TOP:
            return TOP
        return _ext(_FIN, self._q + other._q)

    def __neg__(self):
        if self._tag == _BOT:
            return TOP
        if self._tag == _TOP:
            return BOT
        return _ext(_FIN, _neg_q(self._q))

    def __eq__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        return self._tag == other._tag and (self._tag != _FIN or self._q == other._q)

    def __hash__(self):
        return hash((self._tag, self._q))

    def __lt__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        if self._tag != other._tag:
            return self._tag < other._tag
        return self._tag == _FIN and self._q < other._q

    def __le__(self, other):
        if not isinstance(other, ExtValue):
            return NotImplemented
        if self._tag != other._tag:
            return self._tag < other._tag
        return self._tag != _FIN or self._q <= other._q

    def __repr__(self):
        if self._tag == _BOT:
            return "BOT"
        if self._tag == _TOP:
            return "TOP"
        return f"ExtValue('{self._q}')"

    def __str__(self):
        return format_ext(self)


def _ext(tag: int, q: Fraction | None) -> ExtValue:
    """An :class:`ExtValue` on a tag and a rational (None for an endpoint)
    that this module made already: nothing is coerced."""
    v = object.__new__(ExtValue)
    v._tag = tag
    v._q = q
    return v


def _neg_q(q: Fraction) -> Fraction:
    """``-q`` from ``q``'s coprime numerator and denominator, not re-normalised
    by ``Fraction.__new__`` as ``-q`` is (``Fraction._from_coprime_ints`` on 3.12+)."""
    r = object.__new__(Fraction)
    r._numerator, r._denominator = -q._numerator, q._denominator
    return r


BOT = _ext(_BOT, None)
TOP = _ext(_TOP, None)
ZERO = ExtValue(0)


def as_ext(value) -> ExtValue:
    """Coerce to :class:`ExtValue`.

    Strings go through :func:`parse_ext`, so the endpoint tokens ``"bot"``
    and ``"top"`` are accepted alongside rational literals.
    """
    if isinstance(value, ExtValue):
        return value
    if isinstance(value, str):
        return parse_ext(value)
    return ExtValue(value)


def smul_nn(scale, v) -> ExtValue:
    """Scale ``v``, coerced by :func:`as_ext`, by a nonnegative rational.

    ``bot`` is absorbing for every admissible scale, including zero; ``top``
    collapses to 0 under the zero scale and is preserved by positive ones.
    A negative ``scale`` raises :class:`DomainError`.
    """
    c = as_rational(scale)
    if c < 0:
        raise DomainError(f"scalar action undefined for negative scale {c}")
    v = as_ext(v)
    tag = v._tag
    if tag == _BOT:
        return BOT
    if tag == _TOP:
        return TOP if c > 0 else ZERO
    if c == 1:
        return v
    return _ext(_FIN, c * v._q)


def parse_rational(token: str) -> Fraction:
    """Parse ``p/q``, integer or decimal literals exactly, in ASCII with no
    ``_``; an exponent over Python's limit on int digits (0 for none) is
    refused unbuilt."""
    t = token.strip()
    try:
        exp = t.lower().partition("e")[2]
        # Fraction takes digit separators from Python 3.11 on, and any Unicode digit
        if "_" in t or not t.isascii() or exp and not exp[exp[0] in "+-" :].isdigit():
            raise ValueError(f"Invalid literal for Fraction: {t!r}")
        limit = exp and getattr(sys, "get_int_max_str_digits", int)()  # int() == 0: no limit before 3.10.7
        if limit and abs(int(exp)) > limit:
            raise ValueError(f"exponent exceeds the limit ({limit}) for integer string conversion")
        return Fraction(t)
    except (ValueError, ZeroDivisionError) as exc:
        raise DomainError(f"bad rational literal {token!r}: {exc}") from None


def parse_ext(token: str) -> ExtValue:
    """Parse an extended-value token: ``bot``, ``top`` or a rational literal."""
    t = token.strip()
    if t == "bot":
        return BOT
    if t == "top":
        return TOP
    return ExtValue(parse_rational(t))


def format_ext(v: ExtValue) -> str:
    """Inverse of :func:`parse_ext`; lossless for rationals."""
    if v._tag == _BOT:
        return "bot"
    if v._tag == _TOP:
        return "top"
    return str(v._q)
