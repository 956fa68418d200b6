"""The records take their frozen-ness, repr, equality and hash from one
base in ``solitonlab.errors``: ``_Record``, and ``_ValueRecord`` for the
records compared by value.  No record writes any of these methods out
itself; tests/test_records.py checks what they do.
"""

import pytest

from solitonlab.autodiff import Jet2
from solitonlab.curvature import CurvatureAtPoint, GridCurvature
from solitonlab.errors import _Record, _ValueRecord
from solitonlab.expressions import ScalarField
from solitonlab.families import (
    GRWSpec,
    LaplacianReport,
    QuadratureProfile,
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
               QuadratureProfile, LaplacianReport, WarpedConditions]
RECORDS = COMPARED + BY_IDENTITY
DUNDERS = ("__setattr__", "__delattr__", "__repr__", "__eq__", "__hash__")


@pytest.mark.parametrize("cls", RECORDS, ids=lambda cls: cls.__name__)
def test_a_record_takes_its_methods_from_the_base(cls):
    assert issubclass(cls, _Record)
    assert issubclass(cls, _ValueRecord) == (cls in COMPARED)
    assert [name for name in DUNDERS if name in cls.__dict__] == []
