"""The pinned answer and witness hashes and the pinned package surface.

A changed optimum, witness or optimal pair changes a hash line of
``tests/hashes.py``; a public name added to or dropped from a module's
``__all__``, and so from ``extlp``, fails the surface test, which names it.
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

# the public names of a fresh ``import extlp``, sorted; the oracle's names load on first use, so none is here
NAMES = (
    "BOT", "CONDITIONS", "DUAL_CONDITION_SWAP", "DimensionError", "DomainError", "ExtLPError", "ExtMatrix",
    "ExtValue", "ExtVector", "ExtendedLP", "FarkasOutcome", "GenerationBudgetError", "InvalidProgramError",
    "LPFormatError", "Optimum", "PreconditionError", "ScaleLimitError", "TOP", "TheoremViolationError",
    "ValidELP", "ValidityReport", "ZERO", "as_ext", "as_rational", "dot_weig", "dualize", "farkas_bartl",
    "format_ext", "is_bounded_by", "is_feasible", "is_unbounded", "le_vec", "mul_weig", "neg_transpose",
    "opposites_opt", "optimum", "optimum_pair", "parse_ext", "parse_rational", "rat_vector", "reaches",
    "smul_nn", "solve_equality", "solve_extended", "solve_inequality", "strong_duality_check",
    "system_preconditions", "validate", "verify_dual_eq", "verify_dual_ext", "verify_dual_ineq",
    "verify_primal_eq", "verify_primal_ext", "verify_primal_ineq", "weak_duality_check",
)


def test_the_answers_and_witnesses_hash_to_their_pins():
    assert hashes.answer_hash() == "8156ba6951a01db9 8b5a7dcb8b41f528"
    assert hashes.witness_hash() == "792c6fa24dad8e87"


def test_a_fresh_import_of_extlp_has_the_pinned_surface():
    # a fresh interpreter, so names that the other tests import into extlp do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SURFACE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert tuple(proc.stdout.split()) == NAMES
