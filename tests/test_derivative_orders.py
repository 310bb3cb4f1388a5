"""Evaluating only the derivative orders a caller reads gives the same bits.

The kernel skips the orders below ``lowest``, and a node plan's tables of a
stacked node row hold the orders from C' up; the junction ends read the
curve to order 3 off its nets and run the law to order 2 on those jets,
with an exponential law reading them where g(u) == u; the unwrap grid runs
order-1 jets. Each must return exactly the entries the full evaluation
returns. Equality is bitwise, signed zeros and NaN positions included.
"""

import math

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed,
                          JunctionContext, PathSegment, Tangential, VehicleModel, Wheel)
from agv_path_kit.curve import _BezierStack
from agv_path_kit.kinematics import _Jets, _wheel_derivative_arrays
from agv_path_kit.motion import _NodePlan, _UNWRAP_U

from test_basis_tables import ENTRY, NETS, bits

# Interior nodes, both ends, and -0.0, which takes the general kernel path.
NODE = st.one_of(st.sampled_from([0.0, 1.0, -0.0]), st.floats(0.0, 1.0))
NODES = arrays(float, st.integers(1, 5), elements=NODE)


def assert_lowest_entries_equal(full, part, lowest):
    assert len(part) == len(full)
    for k, (a, b) in enumerate(zip(full, part)):
        if k < lowest:
            assert b is None
        else:
            assert b.shape == a.shape and bits(b) == bits(a)


@settings(deadline=None, max_examples=300)
@given(NETS, NODES, st.integers(0, 4), st.integers(0, 5))
def test_lowest_skips_only_the_entries_below_it(net, us, order, lowest):
    curve = BezierCurve(net)
    with np.errstate(all="ignore"):
        full = curve.derivatives_many(us, order)
        part = curve.derivatives_many(us, order, lowest=lowest)
    assert_lowest_entries_equal(full, part, lowest)


@st.composite
def stacks(draw):
    """One to three nets of one degree, and a node row of one length for each."""
    degree = draw(st.integers(1, 10))
    nets = draw(st.lists(arrays(float, (degree + 1, 2), elements=ENTRY),
                         min_size=1, max_size=3))
    size = draw(st.integers(1, 5))
    return [BezierCurve(net) for net in nets], [draw(arrays(float, size, elements=NODE))
                                                for _ in nets]


@settings(deadline=None, max_examples=200)
@given(stacks(), st.integers(0, 4), st.integers(0, 5), st.booleans())
def test_stacked_lowest_equals_the_full_stacked_evaluation(stack, order, lowest, shared):
    # One shared row takes a node plan's tables whenever lowest >= 1 and order <= 3;
    # the full evaluation reads positions and so always builds its own.
    curves, rows = stack
    planned = shared and lowest >= 1 and order <= 3
    with np.errstate(all="ignore"):
        nets = [c.control_points for c in curves]
        plan = _NodePlan(curves[0].degree, Tangential(0.0), rows[0], len(curves))
        part_stack = _BezierStack(nets, plan if planned else None)
        us = (part_stack.nodes if planned
              else np.tile(rows[0], len(curves)) if shared else np.concatenate(rows))
        full = _BezierStack(nets).derivatives_many(us, order)
        part = part_stack.derivatives_many(us, order, lowest=lowest)
    assert_lowest_entries_equal(full, part, lowest)


CURVES = [BezierCurve([(0, 0), (1, 0.3), (2, 1), (3, 0.8), (4, 1.5)]),
          BezierCurve([(0.0, 0.0), (1.0, -0.4), (2.2, 0.1), (3.0, 1.2), (3.4, 2.5),
                       (4.5, 3.0), (6.0, 2.8)])]
# n in (1, 2) makes theta'' infinite at the flat end; n = 2 makes g''' vanish.
MODES = [Tangential(0.2), Crab(-0.3)] + [
    mode(0.1, n) for mode in (ExponentialDelayed, ExponentialAnticipated)
    for n in (1.5, 2.0, 3.0)]
VEHICLE = VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, 0.8), Wheel("w0", (0.0, 0.0), 1.7, 0.8),
                        Wheel("w2", (-1.0, -0.5), 1.7, 0.8)))


def test_junction_jets_equal_order_3_jets():
    infinite = 0
    for left, right in (curve.split(0.4) for curve in CURVES):
        for mode in MODES:
            ctx = JunctionContext(PathSegment(left, mode, 1.0), PathSegment(right, mode, 1.0),
                                  VEHICLE)
            for curve_jet, mode_jet, segment, u in (
                    (ctx.left_jet, ctx.left_mode_jet, ctx.left, 1.0),
                    (ctx.right_jet, ctx.right_mode_jet, ctx.right, 0.0)):
                with np.errstate(all="ignore"):
                    reference = _Jets(segment.curve, segment.mode, np.array([u]), order=3)
                for k, d in enumerate((curve_jet.position, curve_jet.d1, curve_jet.d2,
                                       curve_jet.d3)):
                    assert bits(d) == bits(reference.c[k][0])
                for k, value in enumerate((mode_jet.theta, mode_jet.dtheta, mode_jet.ddtheta)):
                    assert bits(value) == bits(reference.theta[k][0])
                infinite += math.isinf(mode_jet.ddtheta)
    # The flat ends of both n = 1.5 laws, on both curves.
    assert infinite == 4


def test_order_1_grid_equals_the_order_2_grid():
    mounts = VEHICLE._arrays
    for curve in CURVES:
        for mode in MODES:
            order1 = _Jets(curve, mode, _UNWRAP_U, 1, lowest=1)
            with np.errstate(all="ignore"):
                order2 = _Jets(curve, mode, _UNWRAP_U)
                wheels2 = _wheel_derivative_arrays(order2, mounts)
            wheels1 = _wheel_derivative_arrays(order1, mounts, 1)
            assert order1.c[0] is None and wheels1[0] is None and len(wheels1) == 2
            assert len(order1.theta) == 2
            for k in range(2):
                assert bits(order1.theta[k]) == bits(order2.theta[k])
            assert bits(order1.speed) == bits(order2.speed)
            for a, b in zip(wheels1[1], wheels2[1]):
                assert bits(a) == bits(b)
