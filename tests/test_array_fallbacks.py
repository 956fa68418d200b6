"""Where a construct or a check evaluates a field over a stack of points
in one array call, a failure is the one the loop over the points meets
first: the first failing point, with that point's own error.

The field below fails at two points with two different errors, and the
array call meets the later point's error first (its guard comes first
in the tree), so only a rerun of the loop names the right one.  The
messages are those the point-by-point loop gave before these paths took
arrays.
"""

import contextlib
import io

import numpy as np
import pytest

from solitonlab import (
    DomainError,
    NonPositiveWarpingError,
    flat_metric,
    parse_expression,
)
from solitonlab.cli import _check_grid, _Job
from solitonlab.families import _check_positive

CHART = ("x", "y")
# ln fails for x >= 0.5, sqrt for y > 0.5.
TWO_ERRORS = "ln(0.5 - x) + sqrt(0.5 - y)"


def test_check_positive_names_the_first_non_positive_point():
    warping = parse_expression("t - 1.5", ("t",))
    with pytest.raises(NonPositiveWarpingError) as caught:
        _check_positive(warping, [[2.0], [1.0], [0.5]], "warping")
    assert str(caught.value) == "warping is not positive at [1.0]"


@pytest.mark.parametrize("points, error, message", [
    # ln(0.5) < 0 at the second point, before ln fails at the third.
    ([[2.0], [0.5], [-1.0]], NonPositiveWarpingError,
     "lapse is not positive at [0.5]"),
    # ln fails at the second point, before the third is non-positive.
    ([[2.0], [-1.0], [0.5]], DomainError, "ln of a non-positive argument"),
])
def test_check_positive_fails_where_the_loop_fails_first(points, error,
                                                         message):
    with pytest.raises(error) as caught:
        _check_positive(parse_expression("ln(t)", ("t",)), points, "lapse")
    assert type(caught.value) is error
    assert str(caught.value) == message


def test_a_field_column_fails_with_the_first_failing_points_error(tmp_path):
    # The grid runs y fastest: sqrt fails first at point 2, (-1, 1), and
    # ln at points 6 to 8, where x = 1.
    job = _Job(family=None, command="verify", constants={}, tolerance=1e-6,
               potential_src=None, chart=CHART,
               ranges={"x": (-1.0, 1.0, 3), "y": (-1.0, 1.0, 3)})
    field = parse_expression(TWO_ERRORS, CHART)
    with pytest.raises(DomainError) as caught, \
            contextlib.redirect_stdout(io.StringIO()):
        _check_grid(job, str(tmp_path / "out.csv"), flat_metric(CHART),
                    parse_expression("x + y", CHART), [], {"g": field},
                    ["tau"])
    assert str(caught.value) == "sqrt of a negative argument"


def test_the_array_call_alone_meets_the_other_error():
    # What the loop is there for: the array call's own first error.
    field = parse_expression(TWO_ERRORS, CHART)
    with pytest.raises(DomainError, match="ln of a non-positive argument"):
        field.compiled_arrays(np.array([-1.0, 1.0]), np.array([1.0, -1.0]))
