"""Constructive alternative-theorem solvers with checkable certificates.

Every solver returns a :class:`FarkasOutcome`: either a primal witness or a
dual certificate, never both, never neither.  Witnesses are exact rational
vectors and can be re-checked with the ``verify_*`` functions; the test
suites do exactly that on every output.

The alternative, for rational functionals ``rows[0..n-1]`` and ``target``
on Q^d, is between

* primal: ``x >= 0`` with ``sum_i x[i] * rows[i] == target``, and
* dual: ``y`` with ``rows[i] . y >= 0`` for all i and ``target . y < 0``.

:func:`solve_equality` and :func:`solve_inequality` decide it with one
exact phase-1 simplex: fraction-free integer pivoting (Bareiss 1968) under
Bland's anti-cycling rule (Bland 1977), which reads ``x`` off the final
basis and ``y`` off the phase-1 duals.  The extended solver is a reduction
to them that carries its certificate back along the reduction.
:func:`farkas_bartl` is the paper's constructive Farkas-Bartl proof, an
induction on the number of functionals that is exponential in the worst
case; it is kept as the reference the simplex is checked against.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import lcm
from typing import Sequence

from .errors import DimensionError, PreconditionError, TheoremViolationError
from .extfield import BOT, TOP, ZERO, ExtValue
from .extlinalg import (
    ExtMatrix,
    ExtVector,
    dot_weig,
    le_vec,
    mul_weig,
    neg_transpose,
    rat_dot,
    rat_identity,
    rat_mat_vec,
    rat_transpose,
    rat_vector,
    scatter,
)

__all__ = [
    "FarkasOutcome",
    "farkas_bartl",
    "solve_equality",
    "solve_inequality",
    "solve_extended",
    "system_preconditions",
    "MIXED_ROW",
    "MIXED_COL",
    "TOP_ROW_TOP_RHS",
    "BOT_ROW_BOT_RHS",
    "verify_primal_eq",
    "verify_dual_eq",
    "verify_primal_ineq",
    "verify_dual_ineq",
    "verify_primal_ext",
    "verify_dual_ext",
    "dual_infeasibility_search",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


@dataclass(frozen=True, slots=True)
class FarkasOutcome:
    """Exactly one of a primal witness ``x`` or a dual certificate ``y``."""

    x: tuple[Fraction, ...] | None
    y: tuple[Fraction, ...] | None

    def __post_init__(self):
        if (self.x is None) == (self.y is None):
            raise ValueError("outcome must carry exactly one witness")

    @classmethod
    def primal(cls, x: Sequence[Fraction]) -> "FarkasOutcome":
        return cls(tuple(x), None)

    @classmethod
    def dual(cls, y: Sequence[Fraction]) -> "FarkasOutcome":
        return cls(None, tuple(y))

    @property
    def is_primal(self) -> bool:
        return self.x is not None

    @property
    def is_dual(self) -> bool:
        return self.y is not None


def farkas_bartl(rows: Sequence[Sequence], target: Sequence) -> FarkasOutcome:
    """Decide the alternative for rational functionals on Q^d.

    Returns ``primal(x)`` with ``x >= 0``, ``sum_i x[i]*rows[i] == target``,
    or ``dual(y)`` with ``rows[i].y >= 0`` for every i and ``target.y < 0``.
    """
    b = rat_vector(target)
    d = len(b)
    rs = [rat_vector(r) for r in rows]
    for i, r in enumerate(rs):
        if len(r) != d:
            raise DimensionError(f"functional {i} has arity {len(r)}, target has {d}")
    return _bartl(rs, b)


def _bartl(rows: Sequence[tuple[Fraction, ...]], b: tuple[Fraction, ...]) -> FarkasOutcome:
    # no functionals: primal iff the target is the zero functional,
    # otherwise a signed basis vector witnesses target.y < 0
    out = FarkasOutcome.primal(())
    for k, t in enumerate(b):
        if t != 0:
            y = [_F0] * len(b)
            y[k] = -_F1 if t > 0 else _F1
            out = FarkasOutcome.dual(y)
            break

    # extend the answer for the prefix rows[:m] to rows[:m + 1]; only the
    # projected system recurses, so the depth counts nested projections,
    # not functionals
    for m, last in enumerate(rows):
        if out.is_primal:
            # the remaining functionals are not needed: give them weight zero
            return FarkasOutcome.primal(out.x + (_F0,) * (len(rows) - m))

        yp = out.y
        t = rat_dot(last, yp)
        if t >= 0:
            continue

        # last.yp < 0: normalize so the last functional takes value 1 on y,
        # then project it out of the head functionals and the target
        head = rows[:m]
        y = tuple(v / t for v in yp)
        b_y = rat_dot(b, y)
        head_y = [rat_dot(r, y) for r in head]
        reduced = [
            tuple(rk - ry * lk for rk, lk in zip(r, last))
            for r, ry in zip(head, head_y)
        ]
        reduced_b = tuple(bk - b_y * lk for bk, lk in zip(b, last))
        out2 = _bartl(reduced, reduced_b)

        if out2.is_primal:
            x_last = b_y - sum((ry * xi for ry, xi in zip(head_y, out2.x)), _F0)
            if x_last < 0:
                raise TheoremViolationError(
                    f"constructed weight for the last functional is negative: {x_last}"
                )
            out = FarkasOutcome.primal(out2.x + (x_last,))
        else:
            w = out2.y
            s = rat_dot(last, w)
            out = FarkasOutcome.dual(tuple(wk - s * yk for wk, yk in zip(w, y)))
    return out


def _simplex(rows: Sequence[tuple[Fraction, ...]], b: tuple[Fraction, ...]) -> FarkasOutcome:
    """:func:`_bartl`'s alternative, decided by one phase-1 simplex.

    The functionals are the columns of ``A x == b``.  Rows with a negative
    right-hand side are negated, column ``j`` is scaled to integers by the
    lcm ``scale[j]`` of its denominators and ``b`` by the lcm ``lb`` of its
    own, so unit columns stay unit.  Each row starts with its first unit
    column in the basis, or with an artificial variable, and phase 1
    minimizes the sum of the artificials.  The tableau ``tab`` holds
    integers over one positive common denominator ``den`` (the basis
    determinant, so every Bareiss division is exact); its last row holds
    the reduced costs, and their right-hand side is ``-den`` times the
    objective.  Bland's rule picks the entering and the leaving variable.

    Objective zero leaves ``x`` on the basic rows.  Otherwise the phase-1
    duals ``pi`` satisfy ``A^T pi <= 0 < b . pi`` on the signed system; they
    are read from the reduced cost ``z`` of each row's start column,
    ``-z/den`` for a unit column and ``1 - z/den`` for an artificial, and
    ``y`` is ``-pi`` with the row signs undone.
    """
    d, n = len(b), len(rows)
    sign = [-1 if t < 0 else 1 for t in b]
    scale = [lcm(*(v.denominator for v in col)) for col in rows]
    lb = lcm(*(t.denominator for t in b))
    tab = [
        [sg * col[i].numerator * (s // col[i].denominator) for col, s in zip(rows, scale)]
        for i, sg in enumerate(sign)
    ]
    start: list[int | None] = [None] * d
    for j, col in enumerate(zip(*tab)):
        if sum(map(abs, col)) == 1 and 1 in col and start[col.index(1)] is None:
            start[col.index(1)] = j
    artificial = [i for i in range(d) if start[i] is None]
    for k, i in enumerate(artificial):
        start[i] = n + k
    for i, row in enumerate(tab):
        row += [int(start[i] == n + k) for k in range(len(artificial))]
        row.append(abs(b[i].numerator) * (lb // b[i].denominator))
    cost = [0] * n + [1] * len(artificial) + [0]
    for i in artificial:
        cost = [z - v for z, v in zip(cost, tab[i])]
    tab.append(cost)

    basis = list(start)
    den = 1
    while tab[d][-1]:
        k = next((j for j in range(n) if tab[d][j] < 0), None)
        if k is None:
            break
        r = None
        for i in range(d):
            p = tab[i][k]
            if p > 0 and (
                r is None
                or (tab[i][-1] * tab[r][k], basis[i]) < (tab[r][-1] * p, basis[r])
            ):
                r = i
        p, prow = tab[r][k], tab[r]
        for i, row in enumerate(tab):
            if i != r:
                f = row[k]
                if f:
                    tab[i] = [(v * p - f * w) // den for v, w in zip(row, prow)]
                elif p != den:
                    tab[i] = [v * p // den for v in row]
        den = p
        basis[r] = k

    if not tab[d][-1]:
        x = [_F0] * n
        for i, j in enumerate(basis):
            if j < n:
                x[j] = Fraction(tab[i][-1] * scale[j], den * lb)
        return FarkasOutcome.primal(x)
    cost = tab[d]
    return FarkasOutcome.dual(
        Fraction(sg * cost[j] if j < n else sg * (cost[j] - den), den)
        for sg, j in zip(sign, start)
    )


def _rational_system(a: Sequence[Sequence], b: Sequence, ncols: int | None) -> tuple[list, tuple, int]:
    """``(A, b)`` as Fractions with their shape checked, and the width of ``A``.

    ``ncols`` is only needed when ``A`` has no rows; it defaults to 0 there.
    """
    mat = [rat_vector(row) for row in a]
    rhs = rat_vector(b)
    if len(mat) != len(rhs):
        raise DimensionError(f"{len(mat)} rows vs {len(rhs)} rhs entries")
    if mat:
        widths = {len(row) for row in mat}
        if len(widths) != 1:
            raise DimensionError(f"ragged rows: widths {sorted(widths)}")
        width = widths.pop()
        if ncols is not None and ncols != width:
            raise DimensionError(f"ncols {ncols} does not match row width {width}")
        ncols = width
    elif ncols is None:
        ncols = 0
    return mat, rhs, ncols


def solve_equality(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> FarkasOutcome:
    """Alternative for ``A x == b, x >= 0`` over exact rationals.

    Primal: ``x >= 0`` with ``A x == b``.  Dual: ``y`` (any sign) with
    ``A^T y >= 0`` and ``b . y < 0``.  The columns of ``A`` are handed to
    :func:`_simplex` as functionals on the row space.  ``ncols`` is only
    needed when ``A`` has no rows (the width is ambiguous there).
    """
    mat, rhs, ncols = _rational_system(a, b, ncols)
    return _simplex(rat_transpose(mat, ncols=ncols), rhs)


def solve_inequality(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> FarkasOutcome:
    """Alternative for ``A x <= b, x >= 0`` over exact rationals.

    Reduces to :func:`solve_equality` on ``(I | A)`` and drops the slack
    block from a primal witness; the identity columns force the dual
    certificate to be nonnegative, so it passes through unchanged.  Read as
    ``(-A^T) y <= 0``, the certificate has the form the extended solver
    embeds into.
    """
    mat, rhs, ncols = _rational_system(a, b, ncols)
    n = len(mat)
    out = _simplex(rat_identity(n) + rat_transpose(mat, ncols=ncols), rhs)
    if out.is_primal:
        return FarkasOutcome.primal(out.x[n:])
    return out


MIXED_ROW = "mixed_row"
MIXED_COL = "mixed_col"
TOP_ROW_TOP_RHS = "top_row_top_rhs"
BOT_ROW_BOT_RHS = "bot_row_bot_rhs"


def system_preconditions(a: ExtMatrix, b: ExtVector) -> dict[str, tuple[int, ...]]:
    """Violations of the four hypotheses :func:`solve_extended` needs.

    Keys are condition names, values the offending row/column indices; only
    violated conditions appear.
    """
    mixed_rows = []
    top_top, bot_bot = [], []
    for i in range(a.nrows):
        row = a[i]
        has_bot = any(e.is_bot for e in row)
        has_top = any(e.is_top for e in row)
        if has_bot and has_top:
            mixed_rows.append(i)
        if has_top and b[i].is_top:
            top_top.append(i)
        if has_bot and b[i].is_bot:
            bot_bot.append(i)
    mixed_cols = []
    for j in range(a.ncols):
        col = [a[i][j] for i in range(a.nrows)]
        if any(e.is_bot for e in col) and any(e.is_top for e in col):
            mixed_cols.append(j)
    out: dict[str, tuple[int, ...]] = {}
    if mixed_rows:
        out[MIXED_ROW] = tuple(mixed_rows)
    if mixed_cols:
        out[MIXED_COL] = tuple(mixed_cols)
    if top_top:
        out[TOP_ROW_TOP_RHS] = tuple(top_top)
    if bot_bot:
        out[BOT_ROW_BOT_RHS] = tuple(bot_bot)
    return out


def infinity_masks(a: ExtMatrix, b: ExtVector) -> tuple[list[int], list[int]] | None:
    """The rows of ``A x <= b`` that can fail and the columns left free.

    A row holds for every ``x`` when it carries a bot in ``A`` (its value is
    pinned to bot) or has a top right-hand side; the others are live.  A top
    in a live row forces its variable to zero.  Returns the live rows and
    the columns no live top forces, or None when a live row has a bot
    right-hand side, which no all-finite row value can meet.
    """
    live = [
        i
        for i in range(a.nrows)
        if not b[i].is_top and not any(e.is_bot for e in a[i])
    ]
    if any(b[i].is_bot for i in live):
        return None
    free = [j for j in range(a.ncols) if not any(a[i][j].is_top for i in live)]
    return live, free


def solve_extended(a: ExtMatrix, b: ExtVector) -> FarkasOutcome:
    """Alternative for ``A x <= b`` with extended entries.

    Primal: finite ``x >= 0`` with ``mul_weig(A, x) <= b``.  Dual: finite
    ``y >= 0`` with ``mul_weig(neg_transpose(A), y) <= 0`` and
    ``dot_weig(b, y) < 0``.

    Requires the four named hypotheses of :func:`system_preconditions`;
    violations raise :class:`PreconditionError`.  The solve itself masks
    rows and columns with :func:`infinity_masks`, then dispatches on the
    residual:

    * a live bot right-hand side makes the system unsatisfiable, and
      ``y = 0`` is a certificate: ``0 * bot == bot`` gives ``b . y == bot < 0``
      while ``(-A^T) y`` is entrywise 0 or bot;
    * otherwise the residual is all finite and goes to
      :func:`solve_inequality`, whose dual certificate is read as
      ``(-A^T) y <= 0``; the witness is re-expanded with zeros at the
      masked positions.
    """
    if a.nrows != len(b):
        raise DimensionError(f"{a.nrows} rows vs {len(b)} rhs entries")
    bad = system_preconditions(a, b)
    if bad:
        names = ", ".join(sorted(bad))
        raise PreconditionError(f"extended system hypotheses violated: {names}", bad)

    masks = infinity_masks(a, b)
    if masks is None:
        return FarkasOutcome.dual((_F0,) * a.nrows)
    live, free = masks
    sub = [tuple(a[i][j].finite_value for j in free) for i in live]
    rhs = [b[i].finite_value for i in live]
    out = solve_inequality(sub, rhs, ncols=len(free))
    if out.is_primal:
        return FarkasOutcome.primal(scatter(out.x, free, a.ncols))
    return FarkasOutcome.dual(scatter(out.y, live, a.nrows))


def verify_primal_eq(a: Sequence[Sequence], b: Sequence, x: Sequence) -> bool:
    """``x >= 0`` and ``A x == b`` over rationals."""
    xs = rat_vector(x)
    if any(v < 0 for v in xs):
        return False
    return rat_mat_vec([rat_vector(r) for r in a], xs) == tuple(rat_vector(b))


def verify_dual_eq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``A^T y >= 0`` and ``b . y < 0`` over rationals; ``y`` may have any sign."""
    ys = rat_vector(y)
    mat = [rat_vector(r) for r in a]
    ncols = len(mat[0]) if mat else 0
    cols = rat_transpose(mat, ncols=ncols)
    if any(rat_dot(col, ys) < 0 for col in cols):
        return False
    return rat_dot(rat_vector(b), ys) < 0


def verify_primal_ineq(a: Sequence[Sequence], b: Sequence, x: Sequence) -> bool:
    """``x >= 0`` and ``A x <= b`` over rationals."""
    xs = rat_vector(x)
    if any(v < 0 for v in xs):
        return False
    lhs = rat_mat_vec([rat_vector(r) for r in a], xs)
    return all(l <= r for l, r in zip(lhs, rat_vector(b)))


def verify_dual_ineq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``y >= 0``, ``A^T y >= 0`` and ``b . y < 0`` over rationals."""
    ys = rat_vector(y)
    if any(v < 0 for v in ys):
        return False
    return verify_dual_eq(a, b, ys)


def verify_primal_ext(a: ExtMatrix, b: ExtVector, x: Sequence) -> bool:
    """Finite ``x >= 0`` with ``mul_weig(A, x) <= b``."""
    xs = rat_vector(x)
    if any(v < 0 for v in xs):
        return False
    return le_vec(mul_weig(a, xs), b)


def verify_dual_ext(a: ExtMatrix, b: ExtVector, y: Sequence) -> bool:
    """Finite ``y >= 0`` with ``mul_weig(-A^T, y) <= 0`` and ``dot_weig(b, y) < 0``."""
    ys = rat_vector(y)
    if any(v < 0 for v in ys):
        return False
    zero = ExtVector([ZERO] * a.ncols)
    if not le_vec(mul_weig(neg_transpose(a), ys), zero):
        return False
    return dot_weig(b, ys) < ZERO


def dual_infeasibility_search(a: Sequence[Sequence], b: Sequence) -> tuple[Fraction, ...] | None:
    """Search for ``y >= 0`` with ``A^T y >= 0`` and ``b . y < 0``; None if there is none.

    The strict system is homogeneous in ``y``, so it is solvable iff the
    non-strict reformulation ``-A^T y <= 0, b . y <= -1, y >= 0`` is; that
    one is decided by :func:`solve_inequality`.
    """
    mat, rhs, ncols = _rational_system(a, b, None)
    cols = rat_transpose(mat, ncols=ncols)
    sys_rows = [tuple(-v for v in col) for col in cols]
    sys_rows.append(tuple(rhs))
    sys_rhs = [_F0] * ncols + [Fraction(-1)]
    out = solve_inequality(sys_rows, sys_rhs)
    if out.is_primal:
        if not verify_dual_ineq(mat, rhs, out.x):
            raise TheoremViolationError("search returned a non-verifying certificate")
        return out.x
    return None
