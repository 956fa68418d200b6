"""Start-up cost: importing the CLI pulls in numpy and nothing heavier.

scipy alone costs about a second of import time, several times the rest
of a typical job; it is a test-only oracle (tests/test_pchip.py).
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def test_importing_the_cli_loads_no_scipy_module():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    probe = (
        "import solitonlab.cli; import sys; "
        "print(sorted(m for m in sys.modules "
        "if m == 'scipy' or m.startswith('scipy.')))"
    )
    out = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, check=True)
    assert out.stdout.strip() == "[]"
