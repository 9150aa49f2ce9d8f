"""The answer checks live in one module that imports no solver."""

import subprocess
import sys
from pathlib import Path

import extlp
from extlp import check, elp, farkas


def test_the_checks_load_no_solver():
    # a bare package stands in for extlp/__init__.py, which loads every solver
    code = (
        "import sys, types\n"
        "pkg = types.ModuleType('extlp')\n"
        "pkg.__path__ = [sys.argv[1]]\n"
        "sys.modules['extlp'] = pkg\n"
        "import extlp.check\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'extlp'))\n"
    )
    proc = subprocess.run([sys.executable, "-c", code, str(Path(check.__file__).parent)], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "['extlp', 'extlp.check', 'extlp.errors', 'extlp.extfield', 'extlp.extlinalg']\n"


def test_the_solver_modules_serve_the_checks_themselves():
    for name in check.__all__:
        assert getattr(farkas, name) is getattr(extlp, name) is getattr(check, name)
        assert name not in farkas.__all__
    assert elp._check_pair is check._check_pair
