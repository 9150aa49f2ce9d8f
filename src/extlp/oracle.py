"""Brute-force reference solvers and a random program generator.

It shares types and coercion with the certificate solvers, not their
algorithms: the record base ``_Record`` of :mod:`extlp.farkas`; the
records of :mod:`extlp.elp` and its :func:`~extlp.elp.validate`, which only
the generator calls; and ``_rational_system``, ``rat_dot`` and
``rat_vector`` of :mod:`extlp.extlinalg`.  It never calls ``_simplex`` or
``infinity_masks``, so its answers check theirs.  Optimization is
exhaustive enumeration of feasible basic points (the feasible sets all live
in the nonnegative orthant, so nonempty means some basic point is feasible,
and a finite minimum is attained at one), unboundedness is a separate
direction-feasibility query, and extended programs are reduced case by case
over the infinity placements.  A small Fourier-Motzkin solver triangulates
the enumeration on low-dimensional instances.

Everything is exact and deliberately slow; sizes are capped.
"""

from __future__ import annotations

import random
from collections import namedtuple
from fractions import Fraction
from itertools import combinations
from typing import Iterator, Sequence

from .errors import GenerationBudgetError, ScaleLimitError, TheoremViolationError
from .extfield import BOT, TOP, ExtValue
from .extlinalg import ExtMatrix, ExtVector, _rational_system, rat_dot, rat_vector
from .elp import ExtendedLP, Optimum, ValidELP, validate
from .farkas import _Record

__all__ = [
    "OracleResult",
    "INFEASIBLE",
    "UNBOUNDED",
    "OPTIMAL",
    "oracle_solve_finite",
    "oracle_feasible_point",
    "fm_minimum",
    "oracle_solve_extended",
    "GenConfig",
    "gen_valid_elp",
]

INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"
OPTIMAL = "optimal"

MAX_ORACLE_ROWS = 12
MAX_ORACLE_COLS = 8

_F0 = Fraction(0)
_F1 = Fraction(1)


class OracleResult(_Record, namedtuple("OracleResult", "status value point ray", defaults=(None, None, None))):
    """Outcome of a finite reference solve.

    ``point`` is an argmin for :func:`oracle_solve_finite` (Fourier-Motzkin
    reports the value only); ``ray`` witnesses unboundedness with
    ``ray >= 0``, ``A ray <= 0`` and ``c . ray <= -1``.
    """

    __slots__ = ()


def _solve_square(mat: list[tuple[Fraction, ...]], rhs: list[Fraction]) -> tuple[Fraction, ...] | None:
    """Exact Gauss-Jordan; None when the system is singular."""
    n = len(mat)
    work = [list(row) + [r] for row, r in zip(mat, rhs)]
    for col in range(n):
        piv = next((r for r in range(col, n) if work[r][col] != 0), None)
        if piv is None:
            return None
        work[col], work[piv] = work[piv], work[col]
        pivot = work[col][col]
        work[col] = [v / pivot for v in work[col]]
        for r in range(n):
            if r != col and work[r][col] != 0:
                f = work[r][col]
                work[r] = [a - f * b for a, b in zip(work[r], work[col])]
    return tuple(work[i][n] for i in range(n))


def _check_scale(nrows: int, ncols: int) -> None:
    if nrows > MAX_ORACLE_ROWS or ncols > MAX_ORACLE_COLS:
        raise ScaleLimitError(
            f"{nrows}x{ncols} exceeds the oracle cap {MAX_ORACLE_ROWS}x{MAX_ORACLE_COLS}"
        )


def _basic_points(a: list[tuple[Fraction, ...]], b: Sequence[Fraction], ncols: int) -> Iterator[tuple[Fraction, ...]]:
    """Feasible basic points of ``{x >= 0, A x <= b}``, deduplicated."""
    cons = [(row, rhs) for row, rhs in zip(a, b)]
    for j in range(ncols):
        cons.append((tuple(-_F1 if k == j else _F0 for k in range(ncols)), _F0))
    if ncols == 0:
        if all(rhs >= 0 for _, rhs in cons):
            yield ()
        return
    seen = set()
    for combo in combinations(range(len(cons)), ncols):
        pt = _solve_square([cons[i][0] for i in combo], [cons[i][1] for i in combo])
        if pt is None or pt in seen:
            continue
        seen.add(pt)
        if all(rat_dot(row, pt) <= rhs for row, rhs in cons):
            yield pt


def oracle_feasible_point(a: Sequence[Sequence], b: Sequence, ncols: int | None = None) -> tuple[Fraction, ...] | None:
    """Some point of ``{x >= 0, A x <= b}``, or None if the set is empty."""
    mat, rhs, n = _rational_system(a, b, ncols)
    _check_scale(len(mat), n)
    return next(_basic_points(mat, rhs, n), None)


def oracle_solve_finite(a: Sequence[Sequence], b: Sequence, c: Sequence) -> OracleResult:
    """Minimize ``c . x`` over ``{x >= 0, A x <= b}`` by enumeration.

    The unbounded case is recognized through feasibility of the direction
    system ``{d >= 0, A d <= 0, c . d <= -1}``.
    """
    cv = rat_vector(c)
    mat, rhs, ncols = _rational_system(a, b, len(cv))
    _check_scale(len(mat), ncols)

    points = list(_basic_points(mat, rhs, ncols))
    if not points:
        return OracleResult(INFEASIBLE)

    ray_rows = mat + [cv]
    ray_rhs = [_F0] * len(mat) + [Fraction(-1)]
    ray = next(_basic_points(ray_rows, ray_rhs, ncols), None)
    if ray is not None:
        return OracleResult(UNBOUNDED, ray=ray)

    best = min(points, key=lambda pt: rat_dot(cv, pt))
    return OracleResult(OPTIMAL, value=rat_dot(cv, best), point=best)


def fm_minimum(a: Sequence[Sequence], b: Sequence, c: Sequence) -> OracleResult:
    """Fourier-Motzkin route for objectives in at most two variables, kept
    as the reference that the tests check :func:`oracle_solve_finite` against.

    Minimizes ``t`` over ``{x >= 0, A x <= b, c . x <= t}`` by eliminating
    the ``x`` coordinates and reading the greatest surviving lower bound on
    ``t``.  Value only, no argmin.
    """
    cv = rat_vector(c)
    mat, rhs, n = _rational_system(a, b, len(cv))
    if n > 2:
        raise ScaleLimitError(f"fourier-motzkin route capped at 2 variables, got {n}")

    # rows over (x_0 .. x_{n-1}, t)
    rows: list[tuple[tuple[Fraction, ...], Fraction]] = []
    for row, ri in zip(mat, rhs):
        rows.append((tuple(row) + (_F0,), ri))
    for j in range(n):
        rows.append((tuple(-_F1 if k == j else _F0 for k in range(n)) + (_F0,), _F0))
    rows.append((tuple(cv) + (Fraction(-1),), _F0))

    for k in range(n):
        pos = [r for r in rows if r[0][k] > 0]
        neg = [r for r in rows if r[0][k] < 0]
        rest = [r for r in rows if r[0][k] == 0]
        combined = []
        for (pc, pr) in pos:
            for (nc, nr) in neg:
                alpha, gamma = pc[k], -nc[k]
                coef = tuple(gamma * pv + alpha * nv for pv, nv in zip(pc, nc))
                combined.append((coef, gamma * pr + alpha * nr))
        rows = rest + combined

    # every x coordinate is eliminated now; rows constrain t alone
    lowers = []
    for coef, r in rows:
        if any(coef[k] != 0 for k in range(n)):
            raise TheoremViolationError("fourier-motzkin left an uneliminated coordinate")
        tcoef = coef[n]
        if tcoef == 0:
            if r < 0:
                return OracleResult(INFEASIBLE)
        elif tcoef < 0:
            lowers.append(r / tcoef)
        else:
            # no source row puts positive weight on t and positive
            # combinations cannot create one
            raise TheoremViolationError("fourier-motzkin produced an upper bound on the objective")
    if not lowers:
        return OracleResult(UNBOUNDED)
    return OracleResult(OPTIMAL, value=max(lowers))


def oracle_solve_extended(p: ExtendedLP) -> Optimum:
    """Reference optimum of a raw extended program, validity not required.

    Case analysis on the infinity placements:

    * rows with a bot entry in ``A`` (their value is pinned to bot) or a top
      right-hand side hold for every ``x`` and drop out;
    * a surviving bot right-hand side can never be met by the remaining
      all-finite row values: no solutions, optimum top;
    * a top entry in a surviving row forces that variable to zero;
    * any bot entry in ``c`` pins every solution's value to bot: the optimum
      is bot if the residual is solvable, else top;
    * otherwise values other than top require zeros at top-cost columns, and
      the residual finite program decides among top/bot/finite.
    """
    a, b, c = p.A, p.b, p.c
    live = [
        i
        for i in range(a.nrows)
        if not b[i].is_top and not any(e.is_bot for e in a[i])
    ]
    if any(b[i].is_bot for i in live):
        return Optimum(TOP)
    forced = {j for j in range(a.ncols) if any(a[i][j].is_top for i in live)}
    free = [j for j in range(a.ncols) if j not in forced]
    rhs = [b[i].finite_value for i in live]

    if any(e.is_bot for e in c):
        sub = [[a[i][j].finite_value for j in free] for i in live]
        solvable = oracle_feasible_point(sub, rhs, ncols=len(free)) is not None
        return Optimum(BOT if solvable else TOP)

    keep = [j for j in free if not c[j].is_top]
    sub = [[a[i][j].finite_value for j in keep] for i in live]
    res = oracle_solve_finite(sub, rhs, [c[j].finite_value for j in keep])
    if res.status == INFEASIBLE:
        return Optimum(TOP)
    if res.status == UNBOUNDED:
        return Optimum(BOT)
    return Optimum(res.value)


class GenConfig(_Record, namedtuple("GenConfig", "rows cols magnitude infinity_prob seed max_attempts", defaults=(3, 0.25, 0, 10000))):
    """Shape, entry distribution and seed for :func:`gen_valid_elp`."""

    __slots__ = ()

    def __new__(cls, *args, **kwargs):
        cfg = super().__new__(cls, *args, **kwargs)
        # a bool is an int, and True would silently mean 1
        for name, v in zip(cfg._fields, cfg):
            kinds = (int, float, Fraction) if name == "infinity_prob" else (int,)
            if name != "seed" and (isinstance(v, bool) or not isinstance(v, kinds)):
                raise ScaleLimitError(f"{name} must be {' or '.join(k.__name__ for k in kinds)}, not {type(v).__name__}")
        if cfg.rows < 1 or cfg.cols < 1:
            raise ScaleLimitError(f"generator needs at least one row and one column, got {cfg.rows}x{cfg.cols}")
        if cfg.magnitude < 0:
            raise ScaleLimitError(f"negative magnitude {cfg.magnitude}")
        if not 0 <= cfg.infinity_prob <= 1:
            raise ScaleLimitError(f"infinity_prob {cfg.infinity_prob} outside [0, 1]")
        return cfg


def gen_valid_elp(cfg: GenConfig) -> ValidELP:
    """Draw a random valid program, deterministic per config.

    Entries are integers in ``[-magnitude, magnitude]`` or an endpoint with
    probability ``infinity_prob``; half of the draws additionally insist on
    at least one endpoint somewhere (when endpoints are possible at all).
    Rejection keeps sampling until validity holds; exhausting the budget
    raises :class:`GenerationBudgetError` carrying the seed.
    """
    rng = random.Random(cfg.seed)

    def entry() -> ExtValue:
        if rng.random() < cfg.infinity_prob:
            return BOT if rng.random() < 0.5 else TOP
        return ExtValue(rng.randint(-cfg.magnitude, cfg.magnitude))

    for _ in range(cfg.max_attempts):
        want_infinite = cfg.infinity_prob > 0 and rng.random() < 0.5
        rows = [[entry() for _ in range(cfg.cols)] for _ in range(cfg.rows)]
        rhs = [entry() for _ in range(cfg.rows)]
        cost = [entry() for _ in range(cfg.cols)]
        if want_infinite:
            drawn = [e for row in rows for e in row] + rhs + cost
            if all(e.is_finite for e in drawn):
                continue
        prog = ExtendedLP(ExtMatrix(rows, ncols=cfg.cols), ExtVector(rhs), ExtVector(cost))
        if validate(prog).is_valid:
            return ValidELP(prog.A, prog.b, prog.c)
    raise GenerationBudgetError(
        f"no valid program within {cfg.max_attempts} attempts (seed {cfg.seed})",
        seed=cfg.seed,
    )
