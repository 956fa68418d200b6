"""The records' behaviour: construction by position and by keyword, the
defaults, the construction checks and their messages, equality and
hashing, frozen-ness and the repr.

Each record is listed with its fields in order and one value per
field.  A record compared by value (the specs, the fields, the metric
and the soliton data) is equal to a record of the same class and equal
fields, and hashes as the tuple of its fields; any other record is
equal only to itself.  Every record but the CLI's job is frozen.  The
repr names the class and each field with the repr of its value.
"""

import numpy as np
import pytest

from solitonlab import UnknownVariableError, cli
from solitonlab.autodiff import Jet2
from solitonlab.curvature import CurvatureAtPoint, GridCurvature
from solitonlab.expressions import ScalarField, Var, constant_field, parse_expression
from solitonlab.families import (
    GRWSpec,
    StaticSpec,
    Walker3Construction,
    Walker3Spec,
    Walker4Spec,
    WarpedConditions,
    WarpedProductSpec,
)
from solitonlab.metrics import MetricAtPoint, MetricField, flat_metric
from solitonlab.soliton import (
    LambdaEstimate,
    PointGeometry,
    ResidualReport,
    SolitonData,
    ThetaCheck,
)


def _arrays(*shapes):
    return [np.arange(float(np.prod(s))).reshape(s) for s in shapes]


FIBER = flat_metric(("x", "y"))
T_FIELD = parse_expression("1 + t^2", ("t",))
XY_FIELD = parse_expression("exp(x) + y", ("x", "y"))
METRIC_DATA = MetricAtPoint(*_arrays((2,), (2, 2), (2, 2), (2, 2, 2),
                                     (2, 2, 2, 2)), 1.0)

# Records compared field by field: class, fields, values, and one other
# value with its field's position.
COMPARED = [
    (WarpedProductSpec, ("base", "fiber", "warping"),
     (flat_metric(("u",)), FIBER, parse_expression("2 + u", ("u",))),
     (2, parse_expression("3 + u", ("u",)))),
    (GRWSpec, ("warping", "fiber", "interval"),
     (T_FIELD, FIBER, (0.5, 2.0)), (2, (0.5, 3.0))),
    (StaticSpec, ("lapse", "fiber", "time_var"),
     (XY_FIELD, FIBER, "s"), (2, "t")),
    (Walker3Spec, ("phi_metric",),
     (parse_expression("t*x", ("t", "x", "y")),),
     (0, parse_expression("t*y", ("t", "x", "y")))),
    (Walker3Construction, ("kappa", "eta", "zeta"),
     (1.5, parse_expression("y", ("y",)), constant_field(("x", "y"), 0.0)),
     (0, -1.5)),
    (Walker4Spec, ("warping", "c0", "c1", "c2", "c3", "t0"),
     (T_FIELD, 1.0, 2.0, 3.0, 4.0, 0.5), (5, 0.25)),
    (ScalarField, ("chart", "root"), (("x", "y"), Var("x")),
     (1, Var("y"))),
    (MetricField, ("chart", "components", "signature"),
     (FIBER.chart, FIBER.components, (1, 1)), (2, (-1, 1))),
    (SolitonData, ("potential", "lam", "mu"), (XY_FIELD, -2.0, 0.5),
     (2, 0.25)),
]

# Frozen records equal only to themselves: class, fields, values.
BY_IDENTITY = [
    (Jet2, ("value", "gradient", "hessian"), (1.0, *_arrays((2,), (2, 2)))),
    (MetricAtPoint, ("point", "g", "g_inv", "dg", "d2g", "det"),
     (*_arrays((2,), (2, 2), (2, 2), (2, 2, 2), (2, 2, 2, 2)), 1.0)),
    (CurvatureAtPoint, ("metric_data", "gamma", "ricci", "scalar"),
     (METRIC_DATA, *_arrays((2, 2, 2), (2, 2)), 0.0)),
    (GridCurvature, ("g", "g_inv", "gamma", "ricci", "scalar"),
     tuple(_arrays((3, 2, 2), (3, 2, 2), (3, 2, 2, 2), (3, 2, 2), (3,)))),
    (PointGeometry, ("points", "g", "g_inv", "scal", "dphi", "hess", "lap"),
     tuple(_arrays((3, 2), (3, 2, 2), (3, 2, 2), (3,), (3, 2), (3, 2, 2),
                   (3,)))),
    (ThetaCheck, ("theta_residual", "identity_residual"),
     tuple(_arrays((2, 2), (2, 2)))),
    (LambdaEstimate, ("value", "spread", "samples"),
     (1.0, 0.5, *_arrays((3,)))),
    (ResidualReport, ("points", "residual_grids", "per_point", "max_abs",
                      "mean_abs", "passed", "worst_point"),
     (*_arrays((3, 2), (3, 2, 2), (3,)), 2.0, 1.0, False, *_arrays((2,)))),
    (WarpedConditions, ("fiber_dependence", "pairing_gap", "base_hessian_gap",
                        "fiber_scalar_spread", "pairing_min_abs"),
     (0.0, 1e-12, 2e-12, 0.0, 0.3)),
]

FROZEN = [(cls, fields, values) for cls, fields, values, _ in COMPARED] + BY_IDENTITY


def _ids(table):
    return [row[0].__name__ for row in table]


def _same_fields(record, fields, values):
    return all(getattr(record, name) is value
               for name, value in zip(fields, values))


def _repr(cls, fields, values):
    return (f"{cls.__qualname__}("
            + ", ".join(f"{name}={value!r}" for name, value in zip(fields, values))
            + ")")


@pytest.mark.parametrize("cls, fields, values", FROZEN, ids=_ids(FROZEN))
def test_construction_by_position_and_by_keyword(cls, fields, values):
    assert _same_fields(cls(*values), fields, values)
    assert _same_fields(cls(**dict(zip(fields, values))), fields, values)
    with pytest.raises(TypeError):
        cls(*values, values[-1])


@pytest.mark.parametrize("cls, fields, values", FROZEN, ids=_ids(FROZEN))
def test_the_repr_names_each_field(cls, fields, values):
    assert repr(cls(*values)) == _repr(cls, fields, values)


@pytest.mark.parametrize("cls, fields, values", FROZEN, ids=_ids(FROZEN))
def test_assigning_to_a_frozen_record_raises(cls, fields, values):
    record = cls(*values)
    for name, value in zip(fields, values):
        with pytest.raises(AttributeError):
            setattr(record, name, value)
        with pytest.raises(AttributeError):
            delattr(record, name)
    with pytest.raises(AttributeError):
        record.extra = 1
    assert _same_fields(record, fields, values)


@pytest.mark.parametrize("cls, fields, values, other", COMPARED,
                         ids=_ids(COMPARED))
def test_compared_records_are_equal_by_their_fields(cls, fields, values, other):
    a, b = cls(*values), cls(*values)
    assert a == b and not a != b
    assert hash(a) == hash(b) == hash(values)
    k, value = other
    c = cls(*values[:k], value, *values[k + 1:])
    assert a != c and not a == c
    assert a != values and a.__eq__(values) is NotImplemented


@pytest.mark.parametrize("cls, fields, values", BY_IDENTITY,
                         ids=_ids(BY_IDENTITY))
def test_other_records_are_equal_only_to_themselves(cls, fields, values):
    a, b = cls(*values), cls(*values)
    assert a == a and a != b
    assert hash(a) == object.__hash__(a)
    assert len({a, b}) == 2


def test_defaults():
    spec = Walker4Spec(T_FIELD)
    assert (spec.c0, spec.c1, spec.c2, spec.c3, spec.t0) == (0.0,) * 5
    assert Walker4Spec(T_FIELD, 1.0, t0=2.0) == Walker4Spec(T_FIELD, 1.0, 0.0,
                                                          0.0, 0.0, 2.0)
    assert StaticSpec(XY_FIELD, FIBER).time_var == "t"
    assert SolitonData(XY_FIELD, 1.0).mu == 0.0


def test_the_job_is_mutable_and_takes_a_fresh_dict_per_job():
    family = cli._FAMILIES["custom"]
    fields = ("family", "command", "constants", "tolerance", "potential_src",
              "metric", "chart", "defaults", "spec", "ranges")
    values = (family, "verify", {"lambda": 1.0}, 1e-8, "x", None, (), {},
              None, {})
    a, b = cli._Job(*values[:5]), cli._Job(*values[:5])
    assert [getattr(a, name) for name in fields] == list(values)
    assert a.defaults is not b.defaults and a.ranges is not b.ranges
    assert a.defaults is not a.ranges
    a.defaults["x"] = (0.0, 1.0, 2)
    assert b.defaults == {}
    assert repr(b) == _repr(cli._Job, fields, values)
    job = cli._Job(**dict(zip(fields, values)))
    assert _same_fields(job, fields, values)
    job.chart = ("x",)
    job.metric = FIBER
    assert (job.chart, job.metric) == (("x",), FIBER)


U_FIELD = parse_expression("2 + u", ("u",))
LORENTZ = flat_metric(("x", "y"), "-+")

CHECKS = [
    (lambda: WarpedProductSpec(flat_metric(("u",)), FIBER, XY_FIELD),
     ValueError, "warping must live on the base chart"),
    (lambda: WarpedProductSpec(flat_metric(("x",)), FIBER,
                               parse_expression("2", ("x",))),
     ValueError, "base and fiber charts must not share names"),
    (lambda: GRWSpec(XY_FIELD, flat_metric(("z",)), (0.0, 1.0)),
     ValueError, "warping must live on a one-dimensional chart"),
    (lambda: GRWSpec(parse_expression("x", ("x",)), FIBER, (0.0, 1.0)),
     ValueError, "fiber chart reuses the time coordinate"),
    (lambda: GRWSpec(T_FIELD, LORENTZ, (0.0, 1.0)),
     ValueError, "fiber must be Riemannian"),
    (lambda: GRWSpec(T_FIELD, FIBER, (1.0, 1.0)),
     ValueError, "empty interval (1.0, 1.0)"),
    (lambda: StaticSpec(parse_expression("y", ("y", "x")), FIBER),
     ValueError, "lapse must live on the fiber chart"),
    (lambda: StaticSpec(XY_FIELD, FIBER, "y"),
     ValueError, "fiber chart reuses the time coordinate"),
    (lambda: StaticSpec(XY_FIELD, LORENTZ),
     ValueError, "fiber must be Riemannian"),
    (lambda: Walker3Spec(parse_expression("t", ("x", "y", "t"))),
     ValueError, "metric function must live on ('t', 'x', 'y')"),
    (lambda: Walker3Construction(1.0, U_FIELD, constant_field(("x", "y"), 0.0)),
     ValueError, "eta must live on the chart ('y',)"),
    (lambda: Walker3Construction(1.0, parse_expression("y", ("y",)), XY_FIELD
                                 .with_chart(("y", "x"))),
     ValueError, "zeta must live on the chart ('x', 'y')"),
    (lambda: Walker4Spec(U_FIELD),
     ValueError, "warping must live on the chart ('t',)"),
    (lambda: ScalarField(("x", "y", "x"), Var("x")),
     ValueError, "chart has repeated names: ('x', 'y', 'x')"),
    (lambda: ScalarField(("x",), parse_expression("z + y", ("y", "z")).root),
     UnknownVariableError, "unknown variable 'y'"),
    (lambda: SolitonData(XY_FIELD, float("inf")),
     ValueError, "soliton constant must be finite"),
    (lambda: SolitonData(XY_FIELD, float("nan"), float("nan")),
     ValueError, "soliton constant must be finite"),
    (lambda: SolitonData(XY_FIELD, 0.0, float("-inf")),
     ValueError, "coupling must be finite"),
]


@pytest.mark.parametrize("build, error, message", CHECKS)
def test_construction_checks_raise_their_messages(build, error, message):
    with pytest.raises(error) as info:
        build()
    assert type(info.value) is error and str(info.value) == message


def test_cached_properties_are_computed_once_per_record():
    field = parse_expression("x*y", ("x", "y"))
    assert field.compiled_arrays is field.compiled_arrays
    assert "compiled_arrays" in field.__dict__
    assert FIBER.read_axes is FIBER.read_axes == ()
    curvature = CurvatureAtPoint(METRIC_DATA, *_arrays((2, 2, 2), (2, 2)), 0.0)
    assert curvature.riemann is curvature.riemann
