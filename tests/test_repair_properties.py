"""Property tests of the repair layer.

Prescribing an endpoint jet is exact: the new end jet equals the target to
rounding, and only the k control points nearest that end move. Repairing a
random tangential G1 junction under least displacement, on either side,
gives a smooth junction and moves only the three points next to the
junction on the edited side.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, RepairProblem, prescribe_endpoint_jet,
                          repair_tangential)
from agv_path_kit.continuity import SMOOTH

from conftest import random_regular_curve
from test_continuity import ctx_for
from test_layout_properties import curves

COORDINATE = st.floats(-1e2, 1e2, allow_nan=False, allow_infinity=False)
VECTOR = arrays(float, 2, elements=COORDINATE)


@settings(deadline=None, max_examples=50)
@given(curves(), st.sampled_from(["start", "end"]), st.integers(1, 3),
       VECTOR, VECTOR, VECTOR)
def test_prescribed_jet_is_exact_and_local(curve, end, order, d1, d2, d3):
    order = min(order, curve.degree)
    targets = [d1, d2, d3][:order]
    new = prescribe_endpoint_jet(curve, end, *targets)
    u = 0.0 if end == "start" else 1.0
    jet = new.derivatives_many(np.array([u]), order)
    size = 1.0 + max(np.abs(new.control_points).max(), np.abs(curve.control_points).max())
    for k, target in enumerate(targets, start=1):
        bound = 1e-12 * size * (2.0 * (curve.degree + 1)) ** (k + 1)
        assert np.allclose(jet[k][0], target, rtol=0.0, atol=bound)
    n = curve.degree
    moved = range(1, order + 1) if end == "start" else range(n - order, n)
    for i in range(n + 1):
        if i not in moved:
            assert np.array_equal(new.control_points[i], curve.control_points[i])


@st.composite
def g1_junctions(draw):
    """Random tangential junctions that meet with a shared tangent direction only."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    left = random_regular_curve(rng, degree=draw(st.integers(4, 6)))
    template = random_regular_curve(rng, degree=draw(st.integers(4, 6)))
    end = left.jet(1.0)
    template = BezierCurve(template.control_points - template.control_points[0]
                           + end.position)
    right = prescribe_endpoint_jet(template, "start",
                                   end.d1 / draw(st.floats(0.5, 2.0)))
    return left, right


@settings(deadline=None, max_examples=8)
@given(g1_junctions(), st.sampled_from(["right", "left"]))
def test_least_displacement_repair_is_smooth_and_local(two_wheel_vehicle, junction, side):
    left, right = junction
    ctx = ctx_for(left, right, two_wheel_vehicle)
    result = repair_tangential(RepairProblem(ctx, objective="min_displacement", side=side))
    assert result.report_after.verdict == SMOOTH
    edited, kept = ((left, right), (right, left))[side == "right"]
    new_edited, new_kept = ((result.new_left_curve, result.new_right_curve),
                            (result.new_right_curve, result.new_left_curve))[side == "right"]
    assert np.array_equal(new_kept.control_points, kept.control_points)
    n = edited.degree
    allowed = {1, 2, 3} if side == "right" else {n - 3, n - 2, n - 1}
    for i in range(n + 1):
        if i not in allowed:
            assert np.array_equal(new_edited.control_points[i], edited.control_points[i])
    assert {p["index"] for p in result.moved_points} <= allowed
