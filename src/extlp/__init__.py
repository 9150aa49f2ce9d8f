"""Exact linear programming over rationals extended with bot and top.

The pieces, bottom to top:

* :mod:`extlp.extfield` -- the extended carrier and its monoid arithmetic;
* :mod:`extlp.extlinalg` -- vectors/matrices over it, weighted sums,
  negated transpose, and exact rational helpers;
* :mod:`extlp.check` -- the answer checks, which import no solver;
* :mod:`extlp.farkas` -- certificate-producing alternative solvers, from
  rational equality systems up to extended inequality systems;
* :mod:`extlp.elp` -- extended programs, validity, duality, exact optima;
* :mod:`extlp.oracle` -- independent brute-force reference solvers and a
  seeded random program generator;
* :mod:`extlp.cli` -- the ``extlp`` command and the program file format.

Each module's ``__all__`` is the one list of its public names; the package
republishes those of ``errors`` and of every module above but the oracle and
the CLI.  ``import extlp`` loads no oracle: it loads on the first read of
``extlp.oracle`` or of one of its names, so only its users pay for it, and
those names stay listed in ``_ORACLE_NAMES`` because the loader must know them
before the oracle is imported.
"""

from .errors import *
from .extfield import *
from .extlinalg import *
from .check import *
from .farkas import *
from .elp import *

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
