"""The answer checks: whether a witness, a certificate or an optimal pair
proves its answer.  It imports no solver, so it can be trusted apart from them.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import DimensionError, TheoremViolationError
from .extfield import ZERO
from .extlinalg import (ExtMatrix, ExtVector, _ext_system, _rational_system, dot_weig, le_vec, mul_weig,
                        rat_dot, rat_vector)

__all__ = [
    "verify_primal_eq",
    "verify_dual_eq",
    "verify_primal_ineq",
    "verify_dual_ineq",
    "verify_primal_ext",
    "verify_dual_ext",
]


def _witness(w: Sequence, size: int | None) -> tuple[Fraction, ...]:
    """``w`` as Fractions, else DimensionError unless it has ``size``
    entries; a rational system with no rows has no width, so its ``size``
    is None and any length passes.  Each check reads this before a sign."""
    ws = rat_vector(w)
    if size is not None and len(ws) != size:
        raise DimensionError(f"witness has {len(ws)} entries, the system needs {size}")
    return ws


def verify_primal_eq(a: Sequence[Sequence], b: Sequence, x: Sequence) -> bool:
    """``x >= 0`` and ``A x == b`` over rationals."""
    mat, rhs, ncols = _rational_system(a, b, None)
    xs = _witness(x, ncols if mat else None)
    return all(v >= 0 for v in xs) and all(rat_dot(row, xs) == t for row, t in zip(mat, rhs))


def verify_dual_eq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``A^T y >= 0`` and ``b . y < 0`` over rationals; ``y`` may have any sign."""
    mat, rhs, _ = _rational_system(a, b, None)
    ys = _witness(y, len(rhs))
    return all(rat_dot(col, ys) >= 0 for col in zip(*mat)) and rat_dot(rhs, ys) < 0


def verify_primal_ineq(a: Sequence[Sequence], b: Sequence, x: Sequence) -> bool:
    """``x >= 0`` and ``A x <= b`` over rationals."""
    mat, rhs, ncols = _rational_system(a, b, None)
    xs = _witness(x, ncols if mat else None)
    return all(v >= 0 for v in xs) and all(rat_dot(row, xs) <= t for row, t in zip(mat, rhs))


def verify_dual_ineq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``y >= 0``, ``A^T y >= 0`` and ``b . y < 0`` over rationals."""
    ys = rat_vector(y)
    return verify_dual_eq(a, b, ys) and all(v >= 0 for v in ys)


def verify_primal_ext(a: ExtMatrix | Sequence, b: ExtVector | Sequence, x: Sequence) -> bool:
    """Finite ``x >= 0`` with ``mul_weig(A, x) <= b``."""
    a, b = _ext_system(a, b)
    xs = _witness(x, a.ncols)
    if any(v < 0 for v in xs):
        return False
    return le_vec(mul_weig(a, xs), b)


def verify_dual_ext(a: ExtMatrix | Sequence, b: ExtVector | Sequence, y: Sequence) -> bool:
    """Finite ``y >= 0`` with ``mul_weig(-A^T, y) <= 0`` and ``dot_weig(b, y) < 0``;
    each column of ``-A^T`` is read off ``A``'s rows."""
    a, b = _ext_system(a, b)
    ys = _witness(y, a.nrows)
    if any(v < 0 for v in ys):
        return False
    cols = (dot_weig([-row[j] for row in a], ys) for j in range(a.ncols))
    return all(v <= ZERO for v in cols) and dot_weig(b, ys) < ZERO


def _check_pair(a: list, b: list, c: list, x: tuple, y: tuple) -> Fraction:
    """``c . x`` for the integer pair ``x = (xs, dx)``, ``y = (ys, dy)``, read
    as ``xs / dx`` and ``ys / dy``, once both have the program's shape and a
    positive denominator and ``x >= 0``, ``A x <= b``, ``y >= 0``, ``-A^T y <= c``
    and ``c . x + b . y == 0`` hold, else TheoremViolationError.  One lcm
    clears ``(A | b ; c | 0)`` of denominators, and only ints are compared, a
    row against ``x`` and a column against ``y``; of the solve, only the
    returned pair goes in."""
    (xs, dx), (ys, dy) = x, y
    if not (dx > 0 and dy > 0 and len(xs) == len(c) and len(ys) == len(b)):
        raise TheoremViolationError("two-phase solve returned a pair of the wrong shape or denominator")
    w = len(c) + 1
    ratios = [v.as_integer_ratio() for row, t in zip(a, b) for v in (*row, t)] + [v.as_integer_ratio() for v in c]
    den = lcm(*[q for _, q in ratios])
    ints = [p * (den // q) for p, q in ratios] + [0]
    rows = [ints[k : k + w] for k in range(0, len(ints), w)]
    if min(xs, default=0) < 0 or any([sum(map(mul, r, xs)) > r[-1] * dx for r in rows[:-1]]):
        raise TheoremViolationError("two-phase solve returned an infeasible primal optimum")
    cols = list(zip(*rows))
    if min(ys, default=0) < 0 or any([-sum(map(mul, k, ys)) > k[-1] * dy for k in cols[:-1]]):
        raise TheoremViolationError("two-phase solve returned an infeasible dual optimum")
    cx, by = sum(map(mul, rows[-1], xs)), sum(map(mul, cols[-1], ys))
    if cx * dy + by * dx:
        raise TheoremViolationError(f"optimum pair has value sum {Fraction(cx, den * dx) + Fraction(by, den * dy)}, expected 0")
    return Fraction(cx, den * dx)
