"""Constructive alternative-theorem solvers with checkable certificates.

Every solver returns a :class:`FarkasOutcome`: either a primal witness or a
dual certificate, never both, never neither.  Witnesses are exact rational
vectors; the ``verify_*`` functions of :mod:`extlp.check` re-check them,
and the test suites do so on every output.

The alternative, for rational functionals ``rows[0..n-1]`` and ``target``
on Q^d, is between

* primal: ``x >= 0`` with ``sum_i x[i] * rows[i] == target``, and
* dual: ``y`` with ``rows[i] . y >= 0`` for all i and ``target . y < 0``.

One exact simplex, :func:`_simplex`, decides every finite system and
program: fraction-free integer pivoting (Bareiss 1968) under Bland's
anti-cycling rule (Bland 1977).  It reads the rationals once, into the
tableau, and returns one run record: infeasible with the phase-1 duals
``y``, else, after phase 2 under a cost row, unbounded with ``x`` and a
ray, or optimal with ``x`` (and ``y`` under a cost), each as integers
over one denominator.  Each entry point makes at most one run, which
:func:`_outcome` reads for a system and :func:`solve_program` for a
program.  :func:`farkas_bartl`, the paper's constructive Farkas-Bartl
proof, is exponential in the worst case and is kept as the reference the
simplex is checked against.
"""

from __future__ import annotations

from collections import namedtuple
from fractions import Fraction
from math import gcd, lcm
from typing import Sequence

# farkas calls none of these checks; it republishes them, since bench/workloads.py reads them as farkas.verify_*
from .check import verify_dual_eq, verify_dual_ext, verify_dual_ineq, verify_primal_eq, verify_primal_ext, verify_primal_ineq
from .errors import DimensionError, PreconditionError, TheoremViolationError
from .extfield import BOT, TOP, ExtValue
from .extlinalg import ExtMatrix, ExtVector, _ext_system, _rational_system, rat_dot, rat_vector, scatter

__all__ = [
    "FarkasOutcome",
    "farkas_bartl",
    "solve_equality",
    "solve_inequality",
    "solve_extended",
    "system_preconditions",
]

_F0 = Fraction(0)
_F1 = Fraction(1)


class _Record(tuple):
    """Equality for the records, each a ``namedtuple`` subclass that names
    its fields once: a record equals only a record of its own class with
    equal fields, never another tuple, and hashes as the tuple of its fields.
    A record also unpacks, indexes and orders as a tuple; ``_make`` and
    ``_replace`` skip its constructor's checks, so nothing here calls them."""

    __slots__ = ()

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return tuple.__eq__(self, other)
        # tuple.__eq__ answers the reflected call, so any other tuple is refused here
        return False if isinstance(other, tuple) else NotImplemented

    def __ne__(self, other):
        eq = self.__eq__(other)
        return eq if eq is NotImplemented else not eq

    __hash__ = tuple.__hash__


class FarkasOutcome(_Record, namedtuple("FarkasOutcome", "x y")):
    """Exactly one of a primal witness ``x`` or a dual certificate ``y``."""

    __slots__ = ()

    def __new__(cls, x: tuple[Fraction, ...] | None, y: tuple[Fraction, ...] | None):
        if (x is None) == (y is None):
            raise ValueError("outcome must carry exactly one witness")
        return super().__new__(cls, x, y)

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


def _bland(tab: list[list[int]], basis: list[int], den: int, d: int, n: int, phase1: bool) -> tuple[int, int, int | None]:
    """Pivot by Bland's rule on the objective in row ``d``, over the first
    ``n`` columns, until no reduced cost is negative (in phase 1, or the
    objective is zero); the Bareiss updates divide exactly by ``den``.
    Returns the last ``den``, the pivots and the column no row blocks or None.
    """
    pivots = 0
    while not phase1 or tab[d][-1]:
        z = tab[d]
        for k in range(n):
            if z[k] < 0:
                break
        else:
            break
        r = None
        for i in range(d):
            p = tab[i][k]
            if p > 0 and (r is None or (tab[i][-1] * tab[r][k], basis[i]) < (tab[r][-1] * p, basis[r])):
                r = i
        if r is None:
            return den, pivots, k
        p, prow = tab[r][k], tab[r]
        for i, row in enumerate(tab):
            if i != r:
                f = row[k]
                if f and den == 1:
                    tab[i] = [v * p - f * w for v, w in zip(row, prow)]
                elif f:
                    tab[i] = [(v * p - f * w) // den for v, w in zip(row, prow)]
                elif p != den:
                    tab[i] = [v * p // den for v in row]
        den, basis[r], pivots = p, k, pivots + 1
    return den, pivots, None


_Run = namedtuple("_Run", "status x y ray pivots")


def _simplex(
    a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], ncols: int, slack: bool, cost: Sequence[Fraction] | None = None
) -> _Run:
    """Decide ``A x == b`` over ``x >= 0`` (``A x <= b`` with ``slack``) by
    one exact simplex; with ``cost`` (and ``slack``) minimize ``cost . x``.

    One integer pass reads each entry's numerator and denominator once:
    column ``j`` of ``A`` is scaled by the lcm ``scale[j]`` of its
    denominators, ``b`` by ``lb`` and ``cost * scale`` by ``lc``, and rows
    with a negative right-hand side are negated.  The slack block comes
    first without ``cost``, else last, where Bland's rule tries ``A`` first.
    Each row starts on its first unit column in that order (its slack when
    ``b[i] >= 0``), or an artificial, and phase 1 minimizes their sum.
    ``tab`` holds integers over one positive common denominator ``den``: the
    rows, the phase-1 reduced costs, whose right-hand side is ``-den`` times
    the objective, and the cost.  A system with ``slack`` and ``b >= 0``
    needs no tableau: every row starts on its slack, phase 1 has no work,
    and it is "optimal" at ``x = 0`` with no pivots, as Bland's rule ends.

    Returns ``_Run(status, x, y, ray, pivots)``, ``x`` and ``y`` as
    ``(numerators, denominator)`` or None, and the pivots of each phase.  A
    positive phase-1 objective is "infeasible", with ``y = -pi``, the row
    signs undone, where the phase-1 duals ``pi`` are ``-z/den`` for a unit
    start column with reduced cost ``z`` and ``1 - z/den`` for an
    artificial.  Else, with ``cost``, a basic artificial, at level zero,
    leaves for its row's slack, whose column is its negative, by negating
    the row, and the artificial columns drop for phase 2.  ``x`` is read off
    the basic rows and, if "optimal", ``y`` off the slacks' reduced costs,
    or, if "unbounded", an integer ``ray >= 0`` with ``A ray <= 0`` and
    ``cost . ray < 0`` off the column no row blocks.
    """
    d = len(b)
    rhs = [t.as_integer_ratio() for t in b]
    lb = lcm(*[q for _, q in rhs])
    sign = [-1 if t < 0 else 1 for t, _ in rhs]
    if cost is None and slack and -1 not in sign:
        # the slack basis is feasible: phase 1 has no work, and x = 0
        return _Run("optimal", ((0,) * ncols, lb), None, None, (0, 0))
    ratios = [[v.as_integer_ratio() for v in row] for row in a]
    scale = [lcm(*[q for _, q in col]) for col in zip(*ratios)] if d else [1] * ncols
    body = [[sg * p * (s // q) for (p, q), s in zip(row, scale)] for row, sg in zip(ratios, sign)]
    n = ncols + d * slack
    x0 = n - ncols if cost is None else 0  # the first column of A
    units = {}
    for j, col in enumerate(zip(*body)):
        if col.count(0) == d - 1 and 1 in col:
            units.setdefault(col.index(1), x0 + j)
    start = [units.get(i) for i in range(d)]
    for i, sg in enumerate(sign):
        if slack and sg > 0:
            start[i] = i if cost is None else units.get(i, ncols + i)
    artificial = [i for i, j in enumerate(start) if j is None]
    m = len(artificial)
    pad, s0 = [0] * (n - ncols), 0 if x0 else ncols  # the slack block, and its first column
    tab = [(pad + row if x0 else row + pad) + [0] * m + [abs(t) * (lb // q)] for row, (t, q) in zip(body, rhs)]
    if slack:
        for i, sg in enumerate(sign):
            tab[i][s0 + i] = sg
    for k, i in enumerate(artificial):
        start[i] = n + k
        tab[i][n + k] = 1
    phase1 = [-sum(col) for col in zip(*[tab[i] for i in artificial])] or [0] * (n + 1)
    phase1[n : n + m] = [0] * m
    tab.append(phase1)
    if cost is not None:
        cq = [t.as_integer_ratio() for t in cost]
        lc = lcm(*[q // gcd(q, s) for (_, q), s in zip(cq, scale)])
        row = [p * s * lc // q for (p, q), s in zip(cq, scale)] + [0] * (d + m + 1)
        for i, j in enumerate(start):
            f = row[j]
            if f:
                row = [z - f * v for z, v in zip(row, tab[i])]
        tab.append(row)

    basis = list(start)
    den, p1, _ = _bland(tab, basis, 1, d, n, True)
    if tab[d][-1]:
        z = tab[d]
        ys = tuple(sg * z[j] if j < n else sg * (z[j] - den) for sg, j in zip(sign, start))
        return _Run("infeasible", None, (ys, den), None, (p1, 0))
    p2, k, y = 0, None, None
    if cost is not None:
        del tab[d]
        for r, j in enumerate(basis):
            if j >= n:
                tab[r] = [-v for v in tab[r]]
                basis[r] = ncols + artificial[j - n]
        if m:
            tab = [row[:n] + row[-1:] for row in tab]
        den, p2, k = _bland(tab, basis, den, d, n, False)
        y = (tuple(tab[d][ncols:n]), den * lc)
    xs = [0] * ncols
    for i, j in enumerate(basis):
        if x0 <= j < x0 + ncols:
            xs[j - x0] = tab[i][-1] * scale[j - x0]
    x = (tuple(xs), den * lb)
    if k is None:
        return _Run("optimal", x, y, None, (p1, p2))
    ray = [den * s if j == k else 0 for j, s in enumerate(scale)]
    for i, j in enumerate(basis):
        if j < ncols:
            ray[j] = -tab[i][k] * scale[j]
    return _Run("unbounded", x, None, tuple(ray), (p1, p2))


def _outcome(run: _Run) -> FarkasOutcome:
    """A run's ``y`` if it is infeasible, else its ``x``, as Fractions."""
    if run.status == "infeasible":
        ys, dy = run.y
        return FarkasOutcome.dual(Fraction(v, dy) for v in ys)
    xs, dx = run.x
    return FarkasOutcome.primal(Fraction(v, dx) if v else _F0 for v in xs)


def solve_equality(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> FarkasOutcome:
    """Alternative for ``A x == b, x >= 0`` over exact rationals.

    Primal: ``x >= 0`` with ``A x == b``.  Dual: ``y`` (any sign) with
    ``A^T y >= 0`` and ``b . y < 0``, by :func:`_simplex` on the rows of
    ``A``.  ``ncols`` is only needed when ``A`` has no rows (the width is
    ambiguous there).
    """
    return _outcome(_simplex(*_rational_system(a, b, ncols), False))


def solve_inequality(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> FarkasOutcome:
    """Alternative for ``A x <= b, x >= 0`` over exact rationals.

    :func:`_simplex` solves ``(I | A)`` and drops the slack block from a
    primal witness; the identity columns force the dual certificate to be
    nonnegative.  Read as ``(-A^T) y <= 0``, the certificate has the form
    the extended solver embeds into.
    """
    return _outcome(_simplex(*_rational_system(a, b, ncols), True))


def _feasible(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], ncols: int) -> bool:
    """Whether ``A x <= b, x >= 0`` holds for some ``x``, off one run's status: no witness is built."""
    return _simplex(a, b, ncols, True).status != "infeasible"


def solve_program(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction], c: Sequence[Fraction]) -> tuple | ExtValue:
    """Minimize ``c . x`` over ``A x <= b, x >= 0`` for rational ``A, b, c``:
    top if infeasible, bot if unbounded, else ``x`` with ``y >= 0``, optimal
    for the dual ``-A^T y <= c``, so ``c . x + b . y == 0``, as integers
    ``((xs, dx), (ys, dy))``: ``x = xs / dx`` and ``y = ys / dy``, ``dx, dy > 0``.
    DimensionError unless ``A`` has ``len(b)`` rows of ``len(c)`` entries."""
    if len(a) != len(b) or not {len(c)}.issuperset(map(len, a)):
        raise DimensionError(f"A must be {len(b)}x{len(c)}: a row per entry of b, a column per entry of c")
    run = _simplex(a, b, len(c), True, c)
    return TOP if run.status == "infeasible" else BOT if run.status == "unbounded" else (run.x, run.y)


MIXED_ROW = "mixed_row"
MIXED_COL = "mixed_col"
TOP_ROW_TOP_RHS = "top_row_top_rhs"
BOT_ROW_BOT_RHS = "bot_row_bot_rhs"


def system_preconditions(a: ExtMatrix, b: ExtVector) -> dict[str, tuple[int, ...]]:
    """Violations of the four hypotheses :func:`solve_extended` needs.

    Keys are condition names, values the offending row/column indices in
    ascending order; only violated conditions appear.  They are read off
    the endpoint indexes of ``a`` and ``b``: an all-finite ``A`` violates
    none.
    """
    if not a.bots and not a.tops:
        return {}
    bot_rows, top_rows = {i for i, _ in a.bots}, {i for i, _ in a.tops}
    found = (
        (MIXED_ROW, bot_rows & top_rows),
        (MIXED_COL, {j for _, j in a.bots} & {j for _, j in a.tops}),
        (TOP_ROW_TOP_RHS, top_rows.intersection(b.tops)),
        (BOT_ROW_BOT_RHS, bot_rows.intersection(b.bots)),
    )
    return {name: tuple(sorted(idx)) for name, idx in found if idx}


def infinity_masks(bots: Sequence, tops: Sequence, b: ExtVector, c: ExtVector | tuple, ncols: int) -> tuple[list[int], list[int], bool] | None:
    """The rows of ``A x <= b`` that can fail, the columns left free, and
    whether the cost ``c`` has a bot; a system passes ``()`` as its cost.

    ``A`` comes as its endpoint index, the ``(i, j)`` positions of its bot
    and of its top entries in any order, and has ``len(b)`` rows and
    ``ncols`` columns: ``A.bots`` and ``A.tops`` for a matrix, ``A``'s tops
    and bots with each ``(i, j)`` read as ``(j, i)`` for ``-A^T``.  ``b``
    and ``c`` come as vectors and are read only through their endpoint
    indexes, so the masks are set algebra on positions.

    A row holds for every ``x`` when it carries a bot in ``A`` (its value is
    pinned to bot) or has a top right-hand side; the others are live.  A top
    in a live row forces its variable to zero.  A bot cost pins every value
    to bot, so it forces nothing more; otherwise a top cost forces its
    column to zero too.  Returns ``(live, keep, bot_cost)``, the live rows
    and the columns nothing forces, or None when a live row has a bot
    right-hand side, which no all-finite row value can meet.
    """
    held = {i for i, _ in bots}.union(b.tops)
    if not held.issuperset(b.bots):
        return None
    bot_cost, top_cost = (c.bots, c.tops) if c else ((), ())
    forced = {j for i, j in tops if i not in held}
    if not bot_cost:
        forced.update(top_cost)
    live = [i for i in range(len(b)) if i not in held]
    return live, [j for j in range(ncols) if j not in forced], bool(bot_cost)


def solve_extended(a: ExtMatrix | Sequence, b: ExtVector | Sequence) -> FarkasOutcome:
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
    * otherwise the live rows on the free columns are all finite, and one
      :func:`_simplex` run decides them as :func:`solve_inequality` would:
      its dual certificate is read as ``(-A^T) y <= 0``; either witness is
      re-expanded with zeros at the masked positions.
    """
    a, b = _ext_system(a, b)
    bad = system_preconditions(a, b)
    if bad:
        names = ", ".join(sorted(bad))
        raise PreconditionError(f"extended system hypotheses violated: {names}", bad)

    masks = infinity_masks(a.bots, a.tops, b, (), a.ncols)
    if masks is None:
        return FarkasOutcome.dual((_F0,) * a.nrows)
    live, free, _ = masks
    sub = [tuple([a[i][j]._q for j in free]) for i in live]  # the masks keep finite entries only
    out = _outcome(_simplex(sub, [b[i]._q for i in live], len(free), True))
    if out.is_primal:
        return FarkasOutcome.primal(scatter(out.x, free, a.ncols))
    return FarkasOutcome.dual(scatter(out.y, live, a.nrows))
