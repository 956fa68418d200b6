"""The traced benchmark run patches solitonlab functions by name.

bench/tracer.py wraps every (module, function) in its TARGETS list and
every function in solitonlab.families.__all__, looking each one up with
getattr.  Renaming or deleting one of them breaks the traced run, so
this checks that every name still resolves to a function.  The
benchmark file is only read.
"""

import importlib
import inspect
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"
sys.path.insert(0, str(BENCH))

import tracer  # noqa: E402


def test_every_traced_target_resolves_to_a_function():
    importlib.import_module("solitonlab.families")
    targets = tracer.TARGETS + tracer.families_targets()
    missing = [
        f"{module}.{name}" for module, name in targets
        if not inspect.isfunction(
            getattr(importlib.import_module(f"solitonlab.{module}"), name, None)
        )
    ]
    assert len(targets) > len(tracer.TARGETS)
    assert missing == []
