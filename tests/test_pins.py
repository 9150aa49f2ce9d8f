"""The pinned answer and witness hashes and the pinned package surface.

A changed optimum, witness or optimal pair changes a hash line of
``tests/hashes.py``; a public name dropped from a module's ``__all__``, and
so from ``extlp``, changes the surface line.
"""

import os
import subprocess
import sys
from pathlib import Path

import hashes

SRC = Path(__file__).resolve().parents[1] / "src"

SURFACE = (
    "import hashlib, types, extlp\n"
    "names = sorted(n for n, v in vars(extlp).items() if not n.startswith('_') and not isinstance(v, types.ModuleType))\n"
    "print(len(names), hashlib.sha256('\\n'.join(names).encode()).hexdigest()[:16])\n"
)


def test_the_answers_and_witnesses_hash_to_their_pins():
    assert hashes.answer_hash() == "8156ba6951a01db9 8b5a7dcb8b41f528"
    assert hashes.witness_hash() == "792c6fa24dad8e87"


def test_a_fresh_import_of_extlp_has_the_pinned_surface():
    # a fresh interpreter, so names that the other tests import into extlp do not count
    env = dict(os.environ, PYTHONPATH=str(SRC))
    proc = subprocess.run([sys.executable, "-c", SURFACE], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "59 212a1364228cbce6\n"
