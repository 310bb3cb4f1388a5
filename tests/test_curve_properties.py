"""Property tests of the Bezier evaluation kernel and the batched arc length.

The kernel evaluates in the Bernstein basis; de Casteljau subdivision
(`split`) and degree elevation (`elevated`) are independent constructions of
the same curve, so agreement with them is checked up to rounding. The
tolerances scale with the size of the control net and the derivative order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import BezierCurve, arc_length, evaluate

COORDINATE = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)
UNIT = st.floats(0.0, 1.0)
INTERIOR = st.floats(0.0, 1.0, exclude_min=True, exclude_max=True)
PARAMETERS = arrays(float, st.integers(1, 12), elements=UNIT)


@st.composite
def curves(draw, max_degree=8):
    degree = draw(st.integers(1, max_degree))
    return BezierCurve(draw(arrays(float, (degree + 1, 2), elements=COORDINATE)))


def rounding_bound(curve: BezierCurve, order: int) -> float:
    """Absolute bound on rounding in an order-``order`` derivative of ``curve``.

    Each difference of the net at most doubles the magnitude and multiplies
    it by at most the degree; 1e-12 leaves room for the evaluation sums.
    """
    size = 1.0 + np.abs(curve.control_points).max()
    return 1e-12 * size * (2.0 * (curve.degree + 1)) ** (order + 1)


@settings(deadline=None)
@given(curves(), INTERIOR)
def test_kernel_agrees_with_de_casteljau_split(curve, s):
    left, right = curve.split(s)
    n = curve.degree
    value, d1 = (d[0] for d in curve.derivatives_many(np.array([s]), 1))
    lp, rp = left.control_points, right.control_points
    assert np.allclose(value, lp[-1], rtol=0.0, atol=rounding_bound(curve, 0))
    assert np.allclose(value, rp[0], rtol=0.0, atol=rounding_bound(curve, 0))
    # Chain rule: left(t) = C(s t) and right(t) = C(s + (1 - s) t).
    assert np.allclose(s * d1, n * (lp[-1] - lp[-2]), rtol=0.0,
                       atol=rounding_bound(curve, 1))
    assert np.allclose((1.0 - s) * d1, n * (rp[1] - rp[0]), rtol=0.0,
                       atol=rounding_bound(curve, 1))


@settings(deadline=None)
@given(curves(max_degree=7), PARAMETERS)
def test_degree_elevation_leaves_evaluation_unchanged(curve, us):
    raised = curve.elevated()
    for order, (a, b) in enumerate(zip(curve.derivatives_many(us, 3),
                                       raised.derivatives_many(us, 3))):
        assert np.allclose(a, b, rtol=0.0, atol=rounding_bound(raised, order))


@settings(deadline=None)
@given(curves(), arrays(float, st.integers(0, 12), elements=UNIT))
def test_endpoint_value_and_tangent_are_exact(curve, interior):
    p, n = curve.control_points, curve.degree
    us = np.concatenate([[0.0], interior, [1.0]])
    value, d1 = curve.derivatives_many(us, 1)
    assert np.array_equal(value[0], p[0]) and np.array_equal(value[-1], p[-1])
    assert np.array_equal(d1[0], n * (p[1] - p[0]))
    assert np.array_equal(d1[-1], n * (p[-1] - p[-2]))
    start, end = evaluate(curve, 0.0, order=1), evaluate(curve, 1.0, order=1)
    assert np.array_equal(start.position, p[0]) and np.array_equal(end.position, p[-1])
    assert np.array_equal(start.d1, n * (p[1] - p[0]))
    assert np.array_equal(end.d1, n * (p[-1] - p[-2]))


@settings(deadline=None, max_examples=50)
@given(curves(max_degree=6), UNIT, arrays(float, st.integers(1, 6), elements=UNIT))
def test_array_arc_length_equals_scalar_calls(curve, u1, ends):
    u1 = min(u1, float(ends.min()))
    batched = arc_length(curve, u1, ends)
    assert batched.tolist() == [arc_length(curve, u1, float(u)) for u in ends]
