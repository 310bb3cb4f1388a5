"""Property tests of the Bezier evaluation kernel and the batched arc length.

The kernel evaluates in the Bernstein basis; de Casteljau subdivision
(`split`) and degree elevation (`elevated`) are independent constructions of
the same curve, so agreement with them is checked up to rounding. The
tolerances scale with the size of the control net and the derivative order.
The hodograph certificate of regularity may only accept curves that the
sampled checks accept, repair candidates and segments share one regularity
verdict, and every segment a junction joins has a regular end jet there.
The planar products give the same bits on Python floats as on stacked
numpy columns.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, JunctionContext, PathSegment, Tangential,
                          VehicleModel, Wheel, arc_length, evaluate)
from agv_path_kit.curve import (REGULAR_SPEED, _cross, _dot, _hodograph_certifies,
                                irregular_parameter)

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


@st.composite
def near_cusp_curves(draw):
    """Curves whose hodograph passes within ``gap`` of 0 at some u0.

    Subtracting the line u (C'(u0) - gap d) from a curve leaves
    C'(u0) = gap d; gaps span the regularity threshold 1e-9.
    """
    curve = draw(curves())
    n = curve.degree
    u0 = draw(UNIT)
    gap = draw(st.sampled_from([0.0, 1e-12, 5e-10, 1e-9, 2e-9, 1e-8, 1e-6]))
    angle = draw(st.floats(-np.pi, np.pi))
    drift = curve.derivatives_many(np.array([u0]), 1)[1][0] \
        - gap * np.array([np.cos(angle), np.sin(angle)])
    ramp = np.arange(n + 1)[:, None] / n
    return BezierCurve(curve.control_points - ramp * drift)


@st.composite
def collinear_curves(draw):
    """Nets on one line, running forward, back and forth, or reversed."""
    degree = draw(st.integers(1, 8))
    steps = draw(arrays(float, degree, elements=st.floats(-10.0, 10.0)))
    if draw(st.booleans()):
        steps = np.abs(steps)
    origin = draw(arrays(float, 2, elements=COORDINATE))
    angle = draw(st.floats(-np.pi, np.pi))
    along = np.concatenate([[0.0], np.cumsum(steps)])
    pts = origin + along[:, None] * np.array([np.cos(angle), np.sin(angle)])
    return BezierCurve(pts[::-1] if draw(st.booleans()) else pts)


def sampled_irregular_parameter(curve, samples):
    """The sampled rule alone: where |C'| <= 1e-9 is smallest on the nodes, or None."""
    us = np.linspace(0.0, 1.0, samples + 1)
    d1 = curve.derivatives_many(us, 1)[1]
    speed = np.hypot(d1[:, 0], d1[:, 1])
    return float(us[int(np.argmin(speed))]) if speed.min() <= 1e-9 else None


@settings(deadline=None, max_examples=150)
@given(st.one_of(curves(), near_cusp_curves(), collinear_curves()), st.booleans())
def test_certificate_accepts_only_what_sampling_accepts(curve, reverse):
    if reverse:
        curve = BezierCurve(curve.control_points[::-1])
    certified = _hodograph_certifies(curve.control_points.tolist())
    for samples in (1024, 256):
        if certified:
            assert sampled_irregular_parameter(curve, samples) is None
    assert irregular_parameter(curve) == sampled_irregular_parameter(curve, 1024)


def test_certificate_decides_forward_curves_without_evaluating(monkeypatch):
    rng = np.random.default_rng(7)
    nets = [np.column_stack([np.linspace(0.0, 6.0, 7) + rng.normal(scale=0.2, size=7),
                             rng.normal(scale=0.5, size=7)]) for _ in range(20)]

    def refuse(*args):
        raise AssertionError("certified curves need no evaluation")

    monkeypatch.setattr(BezierCurve, "derivatives_many", refuse)
    for net in nets:
        assert irregular_parameter(BezierCurve(net)) is None


def test_cusp_curve_keeps_its_segment_message():
    # C'(u) = 2 (1 - 2u, 0) vanishes at u = 0.5; the second curve has its
    # cusp off the middle, at u0 = 0.375 (node 384 of 1024).
    with pytest.raises(ValueError) as info:
        PathSegment(BezierCurve([(0, 0), (1, 0), (0, 0)]), Tangential(0.0), 1.5)
    assert str(info.value) == "curve is not regularly parameterized (|C'| ~ 0 near u=0.5000)"
    net = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, -0.5), (4.0, 0.0)])
    curve = BezierCurve(net)
    drift = curve.derivatives_many(np.array([0.375]), 1)[1][0]
    cusp = BezierCurve(net - np.arange(4)[:, None] / 3 * drift)
    assert not _hodograph_certifies(cusp.control_points.tolist())
    with pytest.raises(ValueError) as info:
        PathSegment(cusp, Tangential(0.0), 1.5)
    assert str(info.value) == "curve is not regularly parameterized (|C'| ~ 0 near u=0.3750)"
    assert irregular_parameter(cusp) == 0.375


def test_candidate_verdict_is_the_segment_verdict_between_coarse_nodes():
    # The cusp sits at u0 = 0.5 + 1/1024, a node of the 1025 that segments
    # sample but between two nodes of a 257-node rule, which passes the curve.
    net = np.array([(0.0, 0.0), (1.0, 1.0), (2.0, -0.5), (4.0, 0.0)])
    u0 = 0.5 + 1.0 / 1024
    drift = BezierCurve(net).derivatives_many(np.array([u0]), 1)[1][0]
    cusp = BezierCurve(net - np.arange(4)[:, None] / 3 * drift)
    assert not _hodograph_certifies(cusp.control_points.tolist())
    assert sampled_irregular_parameter(cusp, 256) is None
    assert irregular_parameter(cusp) == 0.5009765625
    with pytest.raises(ValueError) as info:
        PathSegment(cusp, Tangential(0.0), 1.0)
    assert str(info.value) == "curve is not regularly parameterized (|C'| ~ 0 near u=0.5010)"


def segment_or_none(curve):
    try:
        return PathSegment(curve, Tangential(0.0), 1.0)
    except ValueError:
        return None


@settings(deadline=None, max_examples=150)
@given(st.one_of(curves(), near_cusp_curves(), collinear_curves()))
def test_candidates_and_segments_accept_the_same_curves(curve):
    assert (irregular_parameter(curve) is None) == (segment_or_none(curve) is not None)


@settings(deadline=None, max_examples=150)
@given(st.one_of(curves(), near_cusp_curves(), collinear_curves()))
def test_accepted_segments_have_regular_junction_end_jets(curve):
    # `continuity._extract_curve_route` divides by |d1| at both junction ends
    # with no degenerate-derivative branch: segments sample |C'| at u = 0 and
    # u = 1, and junction end jets come from the same kernel at those nodes.
    p = curve.control_points
    left = segment_or_none(curve)
    right = segment_or_none(BezierCurve(p + (p[-1] - p[0])))
    assume(left is not None and right is not None)
    ctx = JunctionContext(left, right, VehicleModel((Wheel("w", (0.0, 0.0), 1.0, 1.0),)))
    assert np.hypot(*ctx.left_jet.d1) > REGULAR_SPEED
    assert np.hypot(*ctx.right_jet.d1) > REGULAR_SPEED


# Products of components below 1e150 neither overflow nor warn.
COMPONENT = st.floats(-1e150, 1e150, allow_nan=False)


@settings(deadline=None, max_examples=200)
@given(st.lists(st.tuples(COMPONENT, COMPONENT, COMPONENT, COMPONENT), min_size=1,
                max_size=20))
def test_planar_products_on_floats_equal_them_on_stacked_columns(rows):
    # One vector's products run on Python floats, stacked rows' on numpy
    # column views: both round each product and each sum once, in one order.
    a = np.array([row[:2] for row in rows])
    b = np.array([row[2:] for row in rows])
    for product in (_dot, _cross):
        floats = [product(row[:2], row[2:]) for row in rows]
        assert np.array(floats).tobytes() == product(a.T, b.T).tobytes()
