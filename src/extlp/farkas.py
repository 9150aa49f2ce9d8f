"""Constructive alternative-theorem solvers with checkable certificates.

Every solver returns a :class:`FarkasOutcome`: either a primal witness or a
dual certificate, never both, never neither.  Witnesses are exact rational
vectors and can be re-checked with the ``verify_*`` functions; the test
suites do exactly that on every output.

The alternative, for rational functionals ``rows[0..n-1]`` and ``target``
on Q^d, is between

* primal: ``x >= 0`` with ``sum_i x[i] * rows[i] == target``, and
* dual: ``y`` with ``rows[i] . y >= 0`` for all i and ``target . y < 0``.

One exact simplex, :func:`_simplex`, decides every finite system and
program: fraction-free integer pivoting (Bareiss 1968) under Bland's
anti-cycling rule (Bland 1977).  Phase 1 alone serves :func:`solve_equality`
and :func:`solve_inequality`, reading ``x`` off the final basis and ``y``
off the phase-1 duals; given a cost row, phase 2 follows and
:func:`solve_program` gets an optimal pair.  The extended solver reduces to
:func:`solve_inequality`.  :func:`farkas_bartl`, the paper's constructive
Farkas-Bartl proof, is exponential in the worst case and is kept as the
reference the simplex is checked against.
"""

from __future__ import annotations

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

_set = object.__setattr__


class _Record:
    """A read-only record of the fields in ``__match_args__``, which ``__init__``
    sets through ``_set``; like a frozen dataclass, it equals only a record of
    its own class with equal fields, and hashes and prints its fields."""

    __slots__ = ()

    def _fields(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        return self._fields() == other._fields() if other.__class__ is self.__class__ else NotImplemented

    def __hash__(self):
        return hash(self._fields())

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__match_args__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value=None):
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__  # ``value`` has a default for this


class FarkasOutcome(_Record):
    """Exactly one of a primal witness ``x`` or a dual certificate ``y``."""

    __slots__ = __match_args__ = ("x", "y")

    def __init__(self, x: tuple[Fraction, ...] | None, y: tuple[Fraction, ...] | None):
        if (x is None) == (y is None):
            raise ValueError("outcome must carry exactly one witness")
        _set(self, "x", x)
        _set(self, "y", y)

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


def _bland(tab: list[list[int]], basis: list[int], den: int, d: int, n: int, phase1: bool) -> int | None:
    """Pivot by Bland's rule on the objective in row ``d``, over the first
    ``n`` columns, until no reduced cost is negative (in phase 1, or the
    objective is zero); the Bareiss updates divide exactly by ``den``.
    Returns the last ``den``, or None when the objective is unbounded.
    """
    while not phase1 or tab[d][-1]:
        k = next((j for j in range(n) if tab[d][j] < 0), None)
        if k is None:
            break
        r = None
        for i in range(d):
            p = tab[i][k]
            if p > 0 and (r is None or (tab[i][-1] * tab[r][k], basis[i]) < (tab[r][-1] * p, basis[r])):
                r = i
        if r is None:
            return None
        p, prow = tab[r][k], tab[r]
        for i, row in enumerate(tab):
            if i != r:
                f = row[k]
                if f:
                    tab[i] = [(v * p - f * w) // den for v, w in zip(row, prow)]
                elif p != den:
                    tab[i] = [v * p // den for v in row]
        den, basis[r] = p, k
    return den


def _simplex(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], ncols: int, slack: bool, cost: Sequence[Fraction] | None = None
) -> FarkasOutcome | tuple | ExtValue:
    """Decide ``A x == b`` over ``x >= 0`` (``A x <= b`` with ``slack``) by
    one exact simplex; with ``cost`` (and ``slack``) minimize ``cost . x``.

    Rows with a negative right-hand side are negated, column ``j`` of ``A``
    is scaled to integers by the lcm ``scale[j]`` of its denominators and
    ``b`` by the lcm ``lb`` of its own.  The slack block comes first without
    ``cost``, else last, where Bland's rule tries ``A`` first.  Each row
    starts with its first unit column in the basis, or an artificial, and
    phase 1 minimizes their sum.  ``tab`` holds integers over one positive
    common denominator ``den``: the rows, the phase-1 reduced costs, whose
    right-hand side is ``-den`` times the objective, and the cost.

    Without ``cost``: ``x`` from the basic rows at objective zero, else
    ``y = -pi`` with the row signs undone, where the phase-1 duals ``pi``
    are ``-z/den`` for a unit start column with reduced cost ``z`` and
    ``1 - z/den`` for an artificial.  With ``cost``: top at a positive
    objective; a basic artificial, at level zero, leaves for its row's
    slack, whose column is its negative, by negating the row; then phase 2
    gives bot or ``(x, y)``, ``y`` the slacks' reduced costs.
    """
    d = len(b)
    sign = [-1 if t < 0 else 1 for t in b]
    scale = [lcm(*(row[j].denominator for row in a)) for j in range(ncols)]
    lb = lcm(*(t.denominator for t in b))
    n = ncols + d * slack
    x0 = n - ncols if cost is None else 0  # the first column of A
    tab = []
    for i, (row, sg) in enumerate(zip(a, sign)):
        ints = [sg * v.numerator * (s // v.denominator) for v, s in zip(row, scale)]
        units = [sg * (i == k) for k in range(n - ncols)]
        tab.append(units + ints if cost is None else ints + units)
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
    phase1 = [0] * n + [1] * len(artificial) + [0]
    for i in artificial:
        phase1 = [z - v for z, v in zip(phase1, tab[i])]
    tab.append(phase1)
    if cost is not None:
        cs = [cj * s for cj, s in zip(cost, scale)]
        lc = lcm(*(v.denominator for v in cs))
        row = [v.numerator * (lc // v.denominator) for v in cs] + [0] * (d + len(artificial) + 1)
        for i, j in enumerate(start):
            f = row[j]
            if f:
                row = [z - f * v for z, v in zip(row, tab[i])]
        tab.append(row)

    basis = list(start)
    den = _bland(tab, basis, 1, d, n, True)
    if tab[d][-1]:
        if cost is not None:
            return TOP
        z = tab[d]
        return FarkasOutcome.dual(
            Fraction(sg * z[j] if j < n else sg * (z[j] - den), den)
            for sg, j in zip(sign, start)
        )
    if cost is not None:
        del tab[d]
        for r, j in enumerate(basis):
            if j >= n:
                tab[r] = [-v for v in tab[r]]
                basis[r] = ncols + artificial[j - n]
        den = _bland(tab, basis, den, d, n, False)
        if den is None:
            return BOT
    x = [_F0] * ncols
    for i, j in enumerate(basis):
        if x0 <= j < x0 + ncols:
            x[j - x0] = Fraction(tab[i][-1] * scale[j - x0], den * lb)
    if cost is None:
        return FarkasOutcome.primal(x)
    return tuple(x), tuple(Fraction(v, den * lc) for v in tab[d][ncols:n])


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
    ``A^T y >= 0`` and ``b . y < 0``, by :func:`_simplex` on the rows of
    ``A``.  ``ncols`` is only needed when ``A`` has no rows (the width is
    ambiguous there).
    """
    mat, rhs, ncols = _rational_system(a, b, ncols)
    return _simplex(mat, rhs, ncols, False)


def solve_inequality(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> FarkasOutcome:
    """Alternative for ``A x <= b, x >= 0`` over exact rationals.

    :func:`_simplex` solves ``(I | A)`` and drops the slack block from a
    primal witness; the identity columns force the dual certificate to be
    nonnegative.  Read as ``(-A^T) y <= 0``, the certificate has the form
    the extended solver embeds into.
    """
    mat, rhs, ncols = _rational_system(a, b, ncols)
    return _simplex(mat, rhs, ncols, True)


def solve_program(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]) -> tuple | ExtValue:
    """Minimize ``c . x`` over ``A x <= b, x >= 0``, rationals throughout:
    top if infeasible, bot if unbounded, else ``x`` with ``y >= 0``, optimal
    for the dual ``-A^T y <= c``, so ``c . x + b . y == 0``."""
    return _simplex(a, b, len(c), True, c)


MIXED_ROW = "mixed_row"
MIXED_COL = "mixed_col"
TOP_ROW_TOP_RHS = "top_row_top_rhs"
BOT_ROW_BOT_RHS = "bot_row_bot_rhs"


def system_preconditions(a: ExtMatrix, b: ExtVector) -> dict[str, tuple[int, ...]]:
    """Violations of the four hypotheses :func:`solve_extended` needs.

    Keys are condition names, values the offending row/column indices in
    ascending order; only violated conditions appear.  They are read off
    the endpoint index ``a.bots`` / ``a.tops`` and ``b``.
    """
    bot_rows, top_rows = {i for i, _ in a.bots}, {i for i, _ in a.tops}
    found = (
        (MIXED_ROW, bot_rows & top_rows),
        (MIXED_COL, {j for _, j in a.bots} & {j for _, j in a.tops}),
        (TOP_ROW_TOP_RHS, {i for i in top_rows if b[i].is_top}),
        (BOT_ROW_BOT_RHS, {i for i in bot_rows if b[i].is_bot}),
    )
    return {name: tuple(sorted(idx)) for name, idx in found if idx}


def infinity_masks(a: ExtMatrix, b: ExtVector) -> tuple[list[int], list[int]] | None:
    """The rows of ``A x <= b`` that can fail and the columns left free.

    A row holds for every ``x`` when it carries a bot in ``A`` (its value is
    pinned to bot) or has a top right-hand side; the others are live.  A top
    in a live row forces its variable to zero.  Returns the live rows and
    the columns no live top forces, or None when a live row has a bot
    right-hand side, which no all-finite row value can meet.  The rows with
    a bot and the tops come from the endpoint index of ``a``.
    """
    bot_rows = {i for i, _ in a.bots}
    live = [i for i in range(a.nrows) if not b[i].is_top and i not in bot_rows]
    if any(b[i].is_bot for i in live):
        return None
    forced = {j for i, j in a.tops if i not in bot_rows and not b[i].is_top}
    return live, [j for j in range(a.ncols) if j not in forced]


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
    mat, rhs, _ = _rational_system(a, b, None)
    xs = rat_vector(x)
    return all(v >= 0 for v in xs) and rat_mat_vec(mat, xs) == rhs


def verify_dual_eq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``A^T y >= 0`` and ``b . y < 0`` over rationals; ``y`` may have any sign."""
    mat, rhs, ncols = _rational_system(a, b, None)
    ys = rat_vector(y)
    return all(rat_dot(col, ys) >= 0 for col in rat_transpose(mat, ncols=ncols)) and rat_dot(rhs, ys) < 0


def verify_primal_ineq(a: Sequence[Sequence], b: Sequence, x: Sequence) -> bool:
    """``x >= 0`` and ``A x <= b`` over rationals."""
    mat, rhs, _ = _rational_system(a, b, None)
    xs = rat_vector(x)
    return all(v >= 0 for v in xs) and all(l <= r for l, r in zip(rat_mat_vec(mat, xs), rhs))


def verify_dual_ineq(a: Sequence[Sequence], b: Sequence, y: Sequence) -> bool:
    """``y >= 0``, ``A^T y >= 0`` and ``b . y < 0`` over rationals."""
    ys = rat_vector(y)
    return verify_dual_eq(a, b, ys) and all(v >= 0 for v in ys)


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
