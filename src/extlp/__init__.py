"""Exact linear programming over rationals extended with bot and top.

The pieces, bottom to top:

* :mod:`extlp.extfield` -- the extended carrier and its monoid arithmetic;
* :mod:`extlp.extlinalg` -- vectors/matrices over it, weighted sums,
  negated transpose, and exact rational helpers;
* :mod:`extlp.farkas` -- certificate-producing alternative solvers, from
  rational equality systems up to extended inequality systems;
* :mod:`extlp.elp` -- extended programs, validity, duality, exact optima;
* :mod:`extlp.oracle` -- independent brute-force reference solvers and a
  seeded random program generator;
* :mod:`extlp.cli` -- the ``extlp`` command and the program file format.

``import extlp`` loads every module but the oracle, which loads on the first
read of ``extlp.oracle`` or of one of its names, so only its users pay for it.
"""

from .errors import (
    DimensionError,
    DomainError,
    ExtLPError,
    GenerationBudgetError,
    InvalidProgramError,
    LPFormatError,
    PreconditionError,
    ScaleLimitError,
    TheoremViolationError,
)
from .extfield import (
    BOT,
    TOP,
    ZERO,
    ExtValue,
    as_ext,
    as_rational,
    finite,
    format_ext,
    format_rational,
    parse_ext,
    parse_rational,
    smul_nn,
)
from .extlinalg import (
    ExtMatrix,
    ExtVector,
    dot_weig,
    le_vec,
    mul_weig,
    neg_transpose,
    nonneg_vector,
    rat_vector,
)
from .farkas import (
    FarkasOutcome,
    dual_infeasibility_search,
    farkas_bartl,
    solve_equality,
    solve_extended,
    solve_inequality,
    system_preconditions,
    verify_dual_eq,
    verify_dual_ext,
    verify_dual_ineq,
    verify_primal_eq,
    verify_primal_ext,
    verify_primal_ineq,
)
from .elp import (
    CONDITIONS,
    DUAL_CONDITION_SWAP,
    ExtendedLP,
    Optimum,
    ValidELP,
    ValidityReport,
    dualize,
    is_bounded_by,
    is_feasible,
    is_solution,
    is_unbounded,
    opposites_opt,
    optimum,
    optimum_pair,
    reaches,
    strong_duality_check,
    validate,
    weak_duality_check,
)

# served from the oracle, which loads on the first read of one of them (PEP 562)
_ORACLE_NAMES = {"GenConfig", "OracleResult", "fm_minimum", "gen_valid_elp",
                 "oracle_feasible_point", "oracle_solve_extended", "oracle_solve_finite"}


def __getattr__(name: str):
    if name != "oracle" and name not in _ORACLE_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    oracle = import_module(".oracle", __name__)
    return oracle if name == "oracle" else getattr(oracle, name)


__version__ = "0.1.0"
