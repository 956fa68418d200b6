"""Start-up cost: importing the CLI pulls in numpy and nothing heavier,
and builds its classes cheaply.

scipy alone costs about a second of import time, several times the rest
of a typical job, and no module of the package may pull it in.

A dataclass decoration costs about 0.7 ms, a plain class with
``__slots__`` a few hundredths of that, so only the expression node
kinds, whose field lists tree walkers read through
``dataclasses.fields``, are dataclasses.  A dataclass without a
docstring gets one built from ``inspect.signature``; the first such
call compiles tokenize's pattern, so every node kind carries its own
docstring.  numpy calls ``inspect.signature`` on its own dispatchers
while it imports, so the count starts after numpy is imported.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"

NODE_KINDS = ["Const", "Var", "Neg", "Add", "Sub", "Mul", "Div", "Pow",
              "Call", "Integral"]

PROBE = """
import dataclasses, inspect, json, sys
import numpy
decorated, signatures = [], []
dataclass, signature = dataclasses.dataclass, inspect.signature

def counting_dataclass(cls=None, /, **options):
    def wrap(cls):
        decorated.append(cls.__qualname__)
        return dataclass(cls, **options)
    return wrap if cls is None else wrap(cls)

def counting_signature(*args, **kwargs):
    signatures.append(repr(args[0]))
    return signature(*args, **kwargs)

dataclasses.dataclass = counting_dataclass
inspect.signature = counting_signature
import solitonlab.cli
print(json.dumps({
    "decorated": decorated,
    "signatures": signatures,
    "scipy": sorted(m for m in sys.modules
                    if m == "scipy" or m.startswith("scipy.")),
}))
"""


@pytest.fixture(scope="module")
def probe():
    env = dict(os.environ, PYTHONPATH=str(SRC))
    out = subprocess.run([sys.executable, "-c", PROBE], env=env,
                         capture_output=True, text=True, check=True)
    return json.loads(out.stdout)


def test_importing_the_cli_loads_no_scipy_module(probe):
    assert probe["scipy"] == []


def test_importing_the_cli_decorates_only_the_node_kinds(probe):
    assert probe["decorated"] == NODE_KINDS


def test_importing_the_cli_calls_no_signature(probe):
    assert probe["signatures"] == []
