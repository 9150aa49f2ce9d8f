"""Extended linear programs: validity screening, duality, exact optima.

A program ``(A, b, c)`` asks to minimize ``dot_weig(c, x)`` over finite
``x >= 0`` with ``mul_weig(A, x) <= b``; entries of ``A``, ``b``, ``c`` may
be ``bot`` or ``top``.  The dual swaps the roles: ``dualize`` sends
``(A, b, c)`` to ``(-A^T, c, b)`` and is an involution.

Validity is six index-level conditions that rule out the degenerate
infinity placements under which duality breaks (the counterexample fixtures
in the tests show each one failing individually).  Every optimum, of a
valid program or not, comes from one reduction: the infinity placements
decide it or leave a finite program, which one two-phase simplex in
:mod:`extlp.farkas` solves.  When the kept rows and columns of ``A``, read
by index, show the dual's finite program to be the negated transpose of the
primal's, as for every valid program, that solve's optimal pair ``(x, y)``,
checked in integers on its support, or an unbounded objective decides both
optima; only an infeasible primal needs a feasibility test of the dual.
Otherwise each side is decided on its own.  Only ``is_unbounded`` and
``strong_duality_check`` are stated through duality and so require validity.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm
from operator import mul
from typing import Sequence

from .errors import (
    DimensionError,
    InvalidProgramError,
    PreconditionError,
    TheoremViolationError,
)
from .extfield import BOT, TOP, ZERO, ExtValue, as_ext, as_rational
from .extlinalg import (
    ExtMatrix,
    ExtVector,
    dot_weig,
    le_vec,
    mul_weig,
    neg_transpose,
    rat_vector,
)
from .farkas import (
    BOT_ROW_BOT_RHS,
    MIXED_COL,
    MIXED_ROW,
    TOP_ROW_TOP_RHS,
    _Record,
    _set,
    infinity_masks,
    solve_inequality,
    solve_program,
    system_preconditions,
)

__all__ = [
    "ExtendedLP",
    "ValidELP",
    "ValidityReport",
    "validate",
    "dualize",
    "CONDITIONS",
    "DUAL_CONDITION_SWAP",
    "TOP_COL_BOT_COST",
    "BOT_COL_TOP_COST",
    "is_solution",
    "reaches",
    "is_feasible",
    "is_unbounded",
    "is_bounded_by",
    "Optimum",
    "optimum",
    "optimum_pair",
    "opposites_opt",
    "weak_duality_check",
    "strong_duality_check",
]

TOP_COL_BOT_COST = "top_col_bot_cost"
BOT_COL_TOP_COST = "bot_col_top_cost"

# all six validity conditions, and how dualization permutes them
CONDITIONS = (
    MIXED_ROW,
    MIXED_COL,
    BOT_ROW_BOT_RHS,
    TOP_COL_BOT_COST,
    TOP_ROW_TOP_RHS,
    BOT_COL_TOP_COST,
)
DUAL_CONDITION_SWAP = {
    MIXED_ROW: MIXED_COL,
    MIXED_COL: MIXED_ROW,
    BOT_ROW_BOT_RHS: TOP_COL_BOT_COST,
    TOP_COL_BOT_COST: BOT_ROW_BOT_RHS,
    TOP_ROW_TOP_RHS: BOT_COL_TOP_COST,
    BOT_COL_TOP_COST: TOP_ROW_TOP_RHS,
}

class ExtendedLP(_Record):
    """Minimize ``c . x`` over finite ``x >= 0`` subject to ``A x <= b``."""

    __slots__ = __match_args__ = ("A", "b", "c")

    def __init__(self, A: ExtMatrix, b: ExtVector, c: ExtVector):
        c = c if isinstance(c, ExtVector) else ExtVector(c)
        b = b if isinstance(b, ExtVector) else ExtVector(b)
        a = A if isinstance(A, ExtMatrix) else ExtMatrix(A, ncols=len(c))
        if len(b) != a.nrows:
            raise DimensionError(f"b has {len(b)} entries for {a.nrows} rows")
        if len(c) != a.ncols:
            raise DimensionError(f"c has {len(c)} entries for {a.ncols} columns")
        _set(self, "A", a)
        _set(self, "b", b)
        _set(self, "c", c)

    @property
    def shape(self) -> tuple[int, int]:
        return self.A.shape


class ValidityReport(_Record):
    """Per-condition violating indices; a valid program has all six empty."""

    __slots__ = __match_args__ = CONDITIONS

    def __init__(self, mixed_row, mixed_col, bot_row_bot_rhs, top_col_bot_cost, top_row_top_rhs, bot_col_top_cost):
        _set(self, "mixed_row", mixed_row)
        _set(self, "mixed_col", mixed_col)
        _set(self, "bot_row_bot_rhs", bot_row_bot_rhs)
        _set(self, "top_col_bot_cost", top_col_bot_cost)
        _set(self, "top_row_top_rhs", top_row_top_rhs)
        _set(self, "bot_col_top_cost", bot_col_top_cost)

    @property
    def is_valid(self) -> bool:
        return not self.failed()

    def as_dict(self) -> dict[str, tuple[int, ...]]:
        return {name: getattr(self, name) for name in CONDITIONS}

    def failed(self) -> dict[str, tuple[int, ...]]:
        return {name: idx for name, idx in self.as_dict().items() if idx}


def validate(p: ExtendedLP) -> ValidityReport:
    """Screen a program against the six validity conditions.

    Row conditions look at ``A`` together with ``b``, column conditions at
    ``A`` together with ``c``:

    * no row of ``A`` may contain both bot and top (``mixed_row``), and no
      column either (``mixed_col``);
    * a row whose ``b`` entry is bot must not carry bot in ``A``
      (``bot_row_bot_rhs``), and dually for top against a top ``b`` entry
      (``top_row_top_rhs``);
    * a column whose ``c`` entry is bot must not carry top in ``A``
      (``top_col_bot_cost``), and dually (``bot_col_top_cost``).
    """
    a, c = p.A, p.c
    found = system_preconditions(a, p.b)
    found[TOP_COL_BOT_COST] = tuple(sorted({j for _, j in a.tops if c[j].is_bot}))
    found[BOT_COL_TOP_COST] = tuple(sorted({j for _, j in a.bots if c[j].is_top}))
    return ValidityReport(*[found.get(name, ()) for name in CONDITIONS])


class ValidELP(ExtendedLP):
    """An :class:`ExtendedLP` that passed validity screening at construction."""

    __slots__ = ()

    def __init__(self, A: ExtMatrix, b: ExtVector, c: ExtVector):
        super().__init__(A, b, c)
        report = validate(self)
        if not report.is_valid:
            raise InvalidProgramError(report)


def _as_valid(p: ExtendedLP) -> ValidELP:
    if isinstance(p, ValidELP):
        return p
    return ValidELP(p.A, p.b, p.c)


def dualize(p: ExtendedLP) -> ExtendedLP:
    """The dual program ``(-A^T, c, b)``; preserves (and re-checks) validity."""
    cls = ValidELP if isinstance(p, ValidELP) else ExtendedLP
    return cls(neg_transpose(p.A), p.c, p.b)


def is_solution(p: ExtendedLP, x: Sequence) -> bool:
    """Whether finite ``x >= 0`` satisfies every constraint row."""
    xs = rat_vector(x)
    if any(v < 0 for v in xs):
        return False
    return le_vec(mul_weig(p.A, xs), p.b)


def reaches(p: ExtendedLP, x: Sequence) -> ExtValue:
    """The objective value of a solution; non-solutions are rejected."""
    xs = rat_vector(x)
    if not is_solution(p, xs):
        raise PreconditionError("reaches: x is not a solution")
    return dot_weig(p.c, xs)


def is_feasible(p: ExtendedLP) -> bool:
    """Whether some solution of any program, valid or not, reaches a value
    other than top."""
    residual = _residual(p.A, p.b, p.c)
    if isinstance(residual, Optimum):
        return not residual.value.is_top
    a, b, c = residual[:3]
    return solve_inequality(a, b, ncols=len(c)).is_primal


def is_unbounded(p: ExtendedLP) -> bool:
    """Feasible with no finite lower bound: an optimum of bot.  The paper
    states it through dual infeasibility, which agrees only on valid
    programs, so the program must be valid."""
    return optimum(_as_valid(p)).value.is_bot


class Optimum(_Record):
    """The optimum of a program: a value, or absent.

    ``top`` encodes infeasibility, ``bot`` unboundedness, a finite value an
    attained optimum.  ``absent`` never occurs for valid programs; it exists
    so that the raw reference path can share the type.
    """

    __slots__ = __match_args__ = ("value",)

    def __init__(self, value: ExtValue | None):
        _set(self, "value", value)

    @classmethod
    def of(cls, v) -> "Optimum":
        return cls(as_ext(v))

    @classmethod
    def absent(cls) -> "Optimum":
        return cls(None)

    @property
    def is_absent(self) -> bool:
        return self.value is None

    def __str__(self):
        return "absent" if self.value is None else str(self.value)


def opposites_opt(p: Optimum, q: Optimum) -> bool:
    """Both present and exactly negatives of each other (endpoints swap)."""
    if p.is_absent or q.is_absent:
        return False
    return p.value == -q.value


def _residual(a: ExtMatrix, b: ExtVector, c: ExtVector) -> Optimum | tuple:
    """The optimum of ``(A, b, c)`` if the infinity placements decide it,
    else the finite residual ``(A', b', c')`` and the rows and columns of
    ``A`` it keeps.

    :func:`~extlp.farkas.infinity_masks` drops the rows that always hold
    and the columns a live top forces to zero, or finds a live bot
    right-hand side, which means top.  A bot cost pins every value to bot,
    so solvability decides bot or top; otherwise top-cost columns must be
    zero.
    """
    masks = infinity_masks(a, b)
    if masks is None:
        return Optimum.of(TOP)
    live, free = masks
    bot_cost = any(e.is_bot for e in c)
    keep = free if bot_cost else [j for j in free if not c[j].is_top]
    sub = [tuple(a[i][j].finite_value for j in keep) for i in live]
    rhs = [b[i].finite_value for i in live]
    if bot_cost:
        return Optimum.of(BOT if solve_inequality(sub, rhs, ncols=len(keep)).is_primal else TOP)
    return sub, rhs, [c[j].finite_value for j in keep], live, keep


def _mirror(a: list, b: list, c: list) -> tuple[list, list, list]:
    """The dual ``(-A^T, c, b)`` of a finite residual."""
    return [tuple(-row[j] for row in a) for j in range(len(c))], c, b


def _dual_mirrors(a: ExtMatrix, b: ExtVector, c: ExtVector, live: list, keep: list) -> bool:
    """Whether the dual's residual is the :func:`_mirror` of a primal one on
    rows ``live`` and columns ``keep`` of ``A``, read off ``A`` by index.

    Unless a bot in ``b``, its cost, decides it, the dual keeps as rows the
    columns ``j`` with ``c[j]`` not top and no top in column ``j``, and as
    columns the rows ``i`` with finite ``b[i]`` and no bot at those ``j``.
    The tops and bots of ``A`` come from its endpoint index.
    """
    top_cols = {j for _, j in a.tops}
    cols = [j for j in range(a.ncols) if not c[j].is_top and j not in top_cols]
    dead = {i for i, j in a.bots if not c[j].is_top and j not in top_cols}
    return cols == keep and not any(e.is_bot for e in b) and live == [
        i for i in range(a.nrows) if b[i].is_finite and i not in dead
    ]


def _ints(v) -> tuple[list[int], int]:
    """Fractions ``v`` as integers over the lcm of their denominators."""
    den = lcm(*(f.denominator for f in v))
    return [f.numerator * (den // f.denominator) for f in v], den


def _int_dot(coefs: list, ws: list[int], dw: int) -> tuple[int, int]:
    """``coefs . ws / dw`` for Fractions ``coefs`` as a numerator and a denominator."""
    nums, den = _ints(coefs)
    return sum(map(mul, nums, ws)), den * dw


def _check_pair(a: list, b: list, c: list, x: tuple, y: tuple) -> Fraction:
    """``c . x`` once ``x >= 0``, ``A x <= b``, ``y >= 0``, ``-A^T y <= c``
    and ``c . x + b . y == 0`` hold, else TheoremViolationError.  Sums run
    over the support of ``x`` or ``y`` and compare ints, cleared of
    denominators per vector and per row or column; of the solve, only the
    returned pair goes in."""
    (xs, dx), (ys, dy) = _ints(x), _ints(y)
    sx = [j for j, v in enumerate(xs) if v]
    sy = [i for i, v in enumerate(ys) if v]
    xw, yw = [xs[j] for j in sx], [ys[i] for i in sy]
    rows = (_int_dot([row[j] for j in sx], xw, dx) for row in a)
    if min(xs, default=0) < 0 or any(s * t.denominator > t.numerator * d for (s, d), t in zip(rows, b)):
        raise TheoremViolationError("two-phase solve returned an infeasible primal optimum")
    cols = (_int_dot([a[i][j] for i in sy], yw, dy) for j in range(len(c)))
    if min(ys, default=0) < 0 or any(-s * t.denominator > t.numerator * d for (s, d), t in zip(cols, c)):
        raise TheoremViolationError("two-phase solve returned an infeasible dual optimum")
    (sc, dc), (sb, db) = _int_dot([c[j] for j in sx], xw, dx), _int_dot([b[i] for i in sy], yw, dy)
    if sc * db + sb * dc:
        raise TheoremViolationError(f"optimum pair has value sum {Fraction(sc, dc) + Fraction(sb, db)}, expected 0")
    return Fraction(sc, dc)


def _decide(residual: Optimum | tuple) -> tuple[Optimum, Optimum | None]:
    """The optimum of one side and, when the same solve settles it, of the
    residual's :func:`_mirror`: one two-phase solve gives ``(v, -v)``,
    checked by :func:`_check_pair`, or ``(bot, top)``; an infeasible primal,
    or one the placements decide, leaves the dual open (None).
    """
    if isinstance(residual, Optimum):
        return residual, None
    a, b, c = residual[:3]
    out = solve_program(a, b, c)
    if out is TOP:
        return Optimum.of(TOP), None
    if out is BOT:
        return Optimum.of(BOT), Optimum.of(TOP)
    value = _check_pair(a, b, c, *out)
    return Optimum.of(value), Optimum.of(-value)


def optimum_pair(p: ExtendedLP) -> tuple[Optimum, Optimum]:
    """Optima of any program and of its dual ``(-A^T, c, b)``.

    When the primal's residual is finite and :func:`_dual_mirrors` finds
    the dual's to be its :func:`_mirror`, as for every valid program, one
    :func:`_decide` settles both sides unless the primal is infeasible;
    then one feasibility test of the mirror picks bot or top.  Otherwise
    the dual's residual is built and decided on its own.
    """
    primal = _residual(p.A, p.b, p.c)
    p_opt, d_opt = _decide(primal)
    if isinstance(primal, Optimum) or not _dual_mirrors(p.A, p.b, p.c, *primal[3:]):
        return p_opt, _decide(_residual(neg_transpose(p.A), p.c, p.b))[0]
    if d_opt is None:
        a, b, c = _mirror(*primal[:3])
        d_opt = Optimum.of(BOT if solve_inequality(a, b, ncols=len(c)).is_primal else TOP)
    return p_opt, d_opt


def optimum(p: ExtendedLP) -> Optimum:
    """The exact optimum of any program, valid or not.

    top when infeasible, bot when feasible with no finite lower bound,
    otherwise an attained finite value.  Never absent.
    """
    return _decide(_residual(p.A, p.b, p.c))[0]


def is_bounded_by(p: ExtendedLP, r) -> bool:
    """Whether every reached value is at least the rational ``r``.

    An infeasible program is bounded by anything; an unbounded one by
    nothing; otherwise the optimum is attained and decides the comparison.
    """
    opt = optimum(p).value
    if opt.is_top:
        return True
    if opt.is_bot:
        return False
    return as_rational(r) <= opt.finite_value


def weak_duality_check(p: ExtendedLP, x: Sequence, y: Sequence) -> bool:
    """Evaluate ``c . x + b . y >= 0`` for a solution pair.

    ``x`` must solve ``p`` and ``y`` its dual (else PreconditionError).  For
    valid programs the inequality always holds; on invalid ones it can fail,
    which is what the counterexample fixtures demonstrate.
    """
    xs = rat_vector(x)
    ys = rat_vector(y)
    if not is_solution(p, xs):
        raise PreconditionError("weak_duality_check: x does not solve the primal")
    if not is_solution(dualize(p), ys):
        raise PreconditionError("weak_duality_check: y does not solve the dual")
    return dot_weig(p.c, xs) + dot_weig(p.b, ys) >= ZERO


def strong_duality_check(p: ExtendedLP) -> bool:
    """Whether the optima of a valid program and its dual are exact opposites.

    Requires at least one feasible side; with both sides infeasible the
    optima are both top, the theorem does not apply, and this raises
    PreconditionError.
    """
    opt_p, opt_d = optimum_pair(_as_valid(p))
    if opt_p.value.is_top and opt_d.value.is_top:
        raise PreconditionError(
            "strong_duality_check: both the program and its dual are infeasible"
        )
    return opposites_opt(opt_p, opt_d)
