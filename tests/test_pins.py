"""The pinned answer and witness hashes and the pinned package and oracle surfaces.

A changed optimum, witness or optimal pair changes a hash line of
``tests/hashes.py``; a public name added to or dropped from a module's
``__all__``, and so from ``extlp`` or ``extlp.oracle``, fails a surface
test, which names it.
"""

import os
import subprocess
import sys
from pathlib import Path

import hashes

SRC = Path(__file__).resolve().parents[1] / "src"

SURFACE = (
    "import types, extlp\n"
    "print(*sorted(n for n, v in vars(extlp).items() if not n.startswith('_') and not isinstance(v, types.ModuleType)))\n"
)
ORACLE_SURFACE = "import extlp.oracle as o\nprint(*sorted(o.__all__))\nprint(all(hasattr(o, n) for n in o.__all__))\n"

# the public names of a fresh ``import extlp``, sorted; the oracle's names are read from ``extlp.oracle`` alone
NAMES = (
    "BOT", "CONDITIONS", "DUAL_CONDITION_SWAP", "DimensionError", "DomainError", "ExtLPError",
    "ExtMatrix", "ExtValue", "ExtVector", "ExtendedLP", "FarkasOutcome", "GenerationBudgetError",
    "InvalidProgramError", "LPFormatError", "Optimum", "PreconditionError", "ScaleLimitError", "TOP",
    "TheoremViolationError", "ValidELP", "ValidityReport", "ZERO", "as_ext", "as_rational", "dot_weig",
    "dualize", "farkas_bartl", "is_bounded_by", "is_feasible", "is_unbounded", "le_vec", "mul_weig",
    "neg_transpose", "opposites_opt", "optimum", "optimum_pair", "parse_ext", "parse_rational",
    "rat_vector", "reaches", "smul_nn", "solve_equality", "solve_extended", "solve_inequality",
    "strong_duality_check", "system_preconditions", "validate", "verify_dual_eq", "verify_dual_ext",
    "verify_dual_ineq", "verify_primal_eq", "verify_primal_ext", "verify_primal_ineq",
    "weak_duality_check",
)

# the names of ``extlp.oracle.__all__``, sorted: the brute-force reference and the generator
ORACLE_NAMES = (
    "GenConfig", "INFEASIBLE", "OPTIMAL", "OracleResult", "UNBOUNDED", "fm_minimum", "gen_valid_elp",
    "oracle_feasible_point", "oracle_solve_extended", "oracle_solve_finite",
)


def test_the_answers_and_witnesses_hash_to_their_pins():
    assert hashes.answer_hash() == "8156ba6951a01db9 8b5a7dcb8b41f528"
    assert hashes.witness_hash() == "792c6fa24dad8e87"


def _fresh(code: str) -> list[str]:
    """The lines that ``code`` prints in a fresh interpreter, so names that the other tests import do not count."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.splitlines()


def test_a_fresh_import_of_extlp_has_the_pinned_surface():
    assert tuple(_fresh(SURFACE)[0].split()) == NAMES


def test_a_fresh_import_of_the_oracle_has_the_pinned_surface():
    assert _fresh(ORACLE_SURFACE) == [" ".join(ORACLE_NAMES), "True"]
