"""Extended linear programs: validity screening, duality, exact optima.

A program ``(A, b, c)`` asks to minimize ``dot_weig(c, x)`` over finite
``x >= 0`` with ``mul_weig(A, x) <= b``; entries of ``A``, ``b``, ``c`` may
be ``bot`` or ``top``.  The dual swaps the roles: ``dualize`` sends
``(A, b, c)`` to ``(-A^T, c, b)`` and is an involution.

Validity is six index-level conditions that rule out the degenerate
infinity placements under which duality breaks (the counterexample fixtures
in the tests show each one failing individually).  Every optimum, of a
valid program or not, is a value and comes from one reduction: the infinity
placements decide it or leave a finite program, which one two-phase simplex
in :mod:`extlp.farkas` solves.  When the kept rows and columns of ``A``,
read by index, show the dual's finite program to be the negated transpose
of the primal's, as for every valid program whose primal the placements do
not decide, that solve's optimal pair ``(x, y)``, checked in integers on
its support, or an unbounded objective decides both optima; only an
infeasible primal needs a feasibility test of the dual.  Otherwise, as when
the placements decide the primal, each side is decided on its own.  Either
way the dual's placements and finite program are read off ``A``'s endpoint
index and entries: only :func:`dualize` builds ``-A^T``.  Only
``is_unbounded`` and ``strong_duality_check`` are stated through duality
and so require validity.
"""

from __future__ import annotations

from collections import namedtuple
from typing import Sequence

from .check import _check_pair, verify_primal_ext
from .errors import DimensionError, InvalidProgramError, PreconditionError
from .extfield import BOT, TOP, ZERO, ExtValue, _neg_q, as_ext
from .extlinalg import ExtMatrix, ExtVector, dot_weig, neg_transpose, rat_vector
from .farkas import (
    BOT_ROW_BOT_RHS,
    MIXED_COL,
    MIXED_ROW,
    TOP_ROW_TOP_RHS,
    _Record,
    _feasible,
    infinity_masks,
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

class ExtendedLP(_Record, namedtuple("ExtendedLP", "A b c")):
    """Minimize ``c . x`` over finite ``x >= 0`` subject to ``A x <= b``."""

    __slots__ = ()

    def __new__(cls, A: ExtMatrix, b: ExtVector, c: ExtVector):
        c = c if isinstance(c, ExtVector) else ExtVector(c)
        b = b if isinstance(b, ExtVector) else ExtVector(b)
        if isinstance(A, ExtMatrix):
            a = A
        else:
            # the width comes from the rows, so a short or long c is named below
            rows = tuple(A)
            a = ExtMatrix(rows, ncols=None if rows else len(c))
        if len(b) != a.nrows:
            raise DimensionError(f"b has {len(b)} entries for {a.nrows} rows")
        if len(c) != a.ncols:
            raise DimensionError(f"c has {len(c)} entries for {a.ncols} columns")
        return super().__new__(cls, a, b, c)


class ValidityReport(_Record, namedtuple("ValidityReport", CONDITIONS)):
    """Per-condition violating indices; a valid program has all six empty."""

    __slots__ = ()

    @property
    def is_valid(self) -> bool:
        return not self.failed()

    def failed(self) -> dict[str, tuple[int, ...]]:
        return {name: idx for name, idx in self._asdict().items() if idx}


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
    if a.tops and c.bots:
        top_cols = {j for _, j in a.tops}
        found[TOP_COL_BOT_COST] = tuple([j for j in c.bots if j in top_cols])
    if a.bots and c.tops:
        bot_cols = {j for _, j in a.bots}
        found[BOT_COL_TOP_COST] = tuple([j for j in c.tops if j in bot_cols])
    return ValidityReport(*[found.get(name, ()) for name in CONDITIONS])


class ValidELP(ExtendedLP):
    """An :class:`ExtendedLP` that passed validity screening at construction."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        p = super().__new__(cls, *args, **kwargs)
        report = validate(p)
        if not report.is_valid:
            raise InvalidProgramError(report)
        return p


def _as_valid(p: ExtendedLP) -> ValidELP:
    if isinstance(p, ValidELP):
        return p
    return ValidELP(p.A, p.b, p.c)


def dualize(p: ExtendedLP) -> ExtendedLP:
    """The dual program ``(-A^T, c, b)``; preserves (and re-checks) validity."""
    cls = ValidELP if isinstance(p, ValidELP) else ExtendedLP
    return cls(neg_transpose(p.A), p.c, p.b)


def reaches(p: ExtendedLP, x: Sequence) -> ExtValue:
    """The value ``c . x`` that the solution ``x`` reaches; a point that does
    not solve ``p`` raises PreconditionError."""
    xs = rat_vector(x)
    if not verify_primal_ext(p.A, p.b, xs):
        raise PreconditionError("reaches: the point does not solve the program")
    return dot_weig(p.c, xs)


def is_feasible(p: ExtendedLP) -> bool:
    """Whether some solution of any program, valid or not, reaches a value
    other than top."""
    residual = _residual(p.A, p.b, p.c)
    if isinstance(residual, Optimum):
        return not residual.value.is_top
    return _feasible(residual[0], residual[1], len(residual[2]))


def is_unbounded(p: ExtendedLP) -> bool:
    """Feasible with no finite lower bound: an optimum of bot.  The paper
    states it through dual infeasibility, which agrees only on valid
    programs, so the program must be valid."""
    return optimum(_as_valid(p)).value.is_bot


class Optimum(_Record, namedtuple("Optimum", "value")):
    """The optimum of a program, always a value, coerced by ``as_ext``:
    ``top`` encodes infeasibility, ``bot`` unboundedness, a finite value an
    attained optimum."""

    __slots__ = ()

    def __new__(cls, value):
        return super().__new__(cls, as_ext(value))

    def __str__(self):
        return str(self.value)


def opposites_opt(p: Optimum, q: Optimum) -> bool:
    """Exactly negatives of each other (endpoints swap)."""
    return p.value == -q.value


def _residual(a: ExtMatrix, b: ExtVector, c: ExtVector, dual: tuple | Optimum | None = None) -> Optimum | tuple:
    """The optimum of ``(A, b, c)`` if the infinity placements decide it,
    else the finite residual ``(A', b', c')`` and the rows and columns of
    ``A`` it keeps.

    :func:`~extlp.farkas.infinity_masks` on ``A``'s endpoint index finds
    top, or the rows and columns to keep; under a bot cost, solvability of
    the kept system decides bot or top.  Given ``dual``, the
    :func:`_dual_kept` of ``(A, c, b)``, the program is instead that dual,
    ``(-A^T, b, c)``: its entries are read off ``A`` as ``-A[j][i]``, its
    rows and columns are ``A``'s columns and rows, and on the columns and
    rows of a primal residual it is ``(-A'^T, c', b')``.
    """
    kept = dual or infinity_masks(a.bots, a.tops, b, c, a.ncols) or Optimum(TOP)
    if isinstance(kept, Optimum):
        return kept
    live, keep, bot_cost = kept
    # the masks keep finite entries only, so each rational is read unchecked
    if dual is None:
        rows = [a[i].entries for i in live]
        sub = [tuple([r[j]._q for j in keep]) for r in rows]
    else:
        rows = [a[i].entries for i in keep]
        sub = [tuple([_neg_q(r[j]._q) for r in rows]) for j in live]
    b, c = b.entries, c.entries
    rhs = [b[i]._q for i in live]
    if bot_cost:
        return Optimum(BOT if _feasible(sub, rhs, len(keep)) else TOP)
    return sub, rhs, [c[j]._q for j in keep], live, keep


def _dual_kept(a: ExtMatrix, b: ExtVector, c: ExtVector) -> tuple | Optimum:
    """The masks of the dual ``(-A^T, c, b)``, read off ``A``'s index, or
    its optimum top: the bots of ``-A^T`` are the tops of ``A`` and its tops
    the bots of ``A``, with ``(i, j)`` read as ``(j, i)``.
    """
    return infinity_masks([(j, i) for i, j in a.tops], [(j, i) for i, j in a.bots], c, b, a.nrows) or Optimum(TOP)


def _decide(residual: Optimum | tuple) -> tuple[Optimum, Optimum | None]:
    """The optimum of one side and, when the same solve settles it, of its
    dual ``(-A'^T, c', b')``: one solve gives ``(v, -v)``, checked by
    :func:`_check_pair`, or ``(bot, top)``; an infeasible primal, or one the
    placements decide, leaves the dual open (None).
    """
    if isinstance(residual, Optimum):
        return residual, None
    a, b, c = residual[:3]
    out = solve_program(a, b, c)
    if out is TOP:
        return Optimum(TOP), None
    if out is BOT:
        return Optimum(BOT), Optimum(TOP)
    value = _check_pair(a, b, c, *out)
    return Optimum(value), Optimum(-value)


def optimum_pair(p: ExtendedLP) -> tuple[Optimum, Optimum]:
    """Optima of any program and of its dual ``(-A^T, c, b)``.

    The dual's placements come once from :func:`_dual_kept`, off ``A``'s
    index.  When the dual keeps the columns and rows of a finite primal
    residual under a cost with no bot, as for every valid program with one,
    one :func:`_decide` settles both sides unless the primal is infeasible;
    then the bot-cost rule of :func:`_residual` picks bot or top for the
    dual.  Otherwise the dual's residual is decided on its own.
    :func:`_residual` reads it off ``A``'s entries: ``-A^T`` is never built.
    """
    a, b, c = p.A, p.b, p.c
    primal = _residual(a, b, c)
    dual = _dual_kept(a, b, c)
    p_opt, d_opt = _decide(primal)
    if isinstance(primal, Optimum) or dual != (primal[4], primal[3], False):
        return p_opt, _decide(_residual(a, c, b, dual))[0]
    if d_opt is None:
        d_opt = _residual(a, c, b, (*dual[:2], True))
    return p_opt, d_opt


def optimum(p: ExtendedLP) -> Optimum:
    """The exact optimum of any program, valid or not.

    top when infeasible, bot when feasible with no finite lower bound,
    otherwise an attained finite value.
    """
    return _decide(_residual(p.A, p.b, p.c))[0]


def is_bounded_by(p: ExtendedLP, r) -> bool:
    """Whether every value ``p`` reaches is at least the rational ``r``: its
    optimum, the greatest such bound, is at least ``r`` (top when infeasible,
    bot when unbounded)."""
    return optimum(p).value >= ExtValue(r)


def weak_duality_check(p: ExtendedLP, x: Sequence, y: Sequence) -> bool:
    """Whether ``0 <= c . x + b . y``: the value the solution ``x`` reaches in
    ``p`` plus the one the solution ``y`` reaches in its dual, each by
    :func:`reaches` (else PreconditionError).  It holds on every valid
    program and can fail on an invalid one, as the counterexample fixtures
    show."""
    return reaches(p, x) + reaches(dualize(p), y) >= ZERO


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
