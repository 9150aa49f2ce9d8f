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
the CLI.  ``import extlp`` loads neither: their names are read from
``extlp.oracle`` and ``extlp.cli``.
"""

from .errors import *
from .extfield import *
from .extlinalg import *
from .check import *
from .farkas import *
from .elp import *

__version__ = "0.1.0"
