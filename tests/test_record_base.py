"""The records take their construction, frozen-ness, repr, equality and
hash from one base in ``solitonlab.errors``: ``_Record``, and
``_ValueRecord`` for the records compared by value.  No record writes
any of these methods out itself, except a constructor for a record
that checks or defaults its fields, which passes them on to the base's.
Only ``errors`` reaches past the frozen ``__setattr__``.
tests/test_records.py checks what the methods do; here the base's
binding of arguments to fields is checked on its error paths.
"""

import ast
from pathlib import Path

import pytest

from solitonlab.autodiff import Jet2
from solitonlab.curvature import CurvatureAtPoint, GridCurvature
from solitonlab.errors import _Record, _ValueRecord
from solitonlab.expressions import ScalarField
from solitonlab.families import (
    GRWSpec,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedConditions,
    WarpedProductSpec,
)
from solitonlab.metrics import MetricAtPoint, MetricField
from solitonlab.soliton import (
    LambdaEstimate,
    PointGeometry,
    ResidualReport,
    SolitonData,
    ThetaCheck,
)

COMPARED = [WarpedProductSpec, GRWSpec, StaticSpec, Walker3Spec,
            Walker3Construction, Walker4Spec, ScalarField, MetricField,
            SolitonData]
BY_IDENTITY = [Jet2, MetricAtPoint, CurvatureAtPoint, GridCurvature,
               PointGeometry, ThetaCheck, LambdaEstimate, ResidualReport,
               WarpedConditions]
RECORDS = COMPARED + BY_IDENTITY
DUNDERS = ("__setattr__", "__delattr__", "__repr__", "__eq__", "__hash__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_takes_its_methods_from_the_base(cls):
    assert issubclass(cls, _Record)
    assert issubclass(cls, _ValueRecord) == (cls in COMPARED)
    assert [name for name in DUNDERS if name in cls.__dict__] == []


CHECKED = [ScalarField, WarpedProductSpec, GRWSpec, StaticSpec, Walker3Spec,
           Walker3Construction, Walker4Spec, SolitonData]
SOURCES = Path(__file__).resolve().parent.parent / "src" / "solitonlab"


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_only_a_record_with_checks_writes_a_constructor(cls):
    assert ("__init__" in cls.__dict__) == (cls in CHECKED)


def test_only_the_base_reaches_past_the_frozen_setattr():
    reaching = {path.name for path in SOURCES.glob("*.py")
                for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
                if isinstance(node, ast.Attribute)
                and node.attr == "__setattr__"
                and isinstance(node.value, ast.Name)
                and node.value.id == "object"}
    assert reaching == {"errors.py"}


def _bad_calls(fields):
    """A call with the first field missing, an unknown field, the first
    field repeated, and one positional argument too many, with the
    field each names."""
    given = {name: 0.0 for name in fields}
    return [((), {name: 0.0 for name in fields[1:]}, fields[0]),
            ((), {**given, "extra": 0.0}, "extra"),
            ((0.0,), given, fields[0]),
            ((0.0,) * (len(fields) + 1), {}, None)]


# One record without checks, which binds through the base alone, and
# one with them, whose own signature binds first.
@pytest.mark.parametrize("cls", [LambdaEstimate, Walker4Spec],
                         ids=lambda cls: cls.__name__)
def test_a_bad_call_raises_a_type_error_naming_the_class(cls):
    for args, kwargs, name in _bad_calls(cls._fields):
        for build in (lambda: cls(*args, **kwargs),
                      lambda: _Record.__init__(cls.__new__(cls), *args,
                                               **kwargs)):
            with pytest.raises(TypeError) as info:
                build()
            assert cls.__name__ in str(info.value)
            assert name is None or repr(name) in str(info.value)
