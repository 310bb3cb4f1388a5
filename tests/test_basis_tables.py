"""Fixed-node Bernstein tables and junction-end reads give the kernel's bits.

Three shortcuts stand in for the general kernel: a junction side reads its
derivative nets' end points; the regularity nodes take one table per degree
from a bounded memo, `curve._regularity_tables`; and a travel-time search
evaluates its stacked passes on a node plan (`motion._NodePlan`) that holds
its row's tables and, under an exponential law, g(u) and the tables of the
joined row [u | g(u)]. Each must return exactly what the kernel would build,
and the end reads must do so wherever the nets are finite and hold no -0.0.
Equality is bitwise, signed zeros and NaN positions included.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed,
                          JunctionContext, PathSegment, Tangential, VehicleModel, Wheel)
from agv_path_kit import curve as curve_module
from agv_path_kit import motion
from agv_path_kit import repair as repair_module
from agv_path_kit.cli import main
from agv_path_kit.curve import (_REGULARITY_U, _BezierStack, _basis, _regularity_tables,
                                sampled_irregular_parameter)
from agv_path_kit.kinematics import limit_profile_fast
from agv_path_kit.layouts import bundled_layout_path
from agv_path_kit.motion import _NodePlan, orientation_many
from agv_path_kit.repair import _TIME_US, _travel_times, estimate_travel_time

# Signed zeros, ordinary values and magnitudes whose differences overflow,
# so the derivative nets also hold infinities and NaNs.
ENTRY = st.one_of(st.sampled_from([0.0, -0.0, 1e300, -1e300, 1.7e308, -1.7e308]),
                  st.floats(-1e3, 1e3))


def bits(a: np.ndarray) -> tuple:
    """Values, sign bits and NaN positions: equal tuples mean equal bits up to NaN payload."""
    a = np.asarray(a)
    return (np.nan_to_num(a, nan=0.0).tolist(), np.signbit(a).tolist(),
            np.isnan(a).tolist())


NETS = st.integers(1, 10).flatmap(lambda degree: arrays(float, (degree + 1, 2), elements=ENTRY))


MODES = st.one_of(st.builds(Tangential, st.floats(-3.0, 3.0)),
                  st.builds(Crab, st.floats(-3.0, 3.0)),
                  *(st.builds(law, st.floats(-3.0, 3.0), st.sampled_from([1.5, 2.0, 3.0]))
                    for law in (ExponentialDelayed, ExponentialAnticipated)))


def kernel_safe(net: np.ndarray) -> bool:
    """True when the kernel's end value equals the net's end point: finite
    entries and no -0.0, whose sign the +0.0 products may flip."""
    return bool(np.isfinite(net).all() and not (np.signbit(net) & (net == 0.0)).any())


@settings(deadline=None, max_examples=200)
@given(NETS, NETS, MODES, MODES)
def test_junction_ends_read_the_nets(left_net, right_net, left_mode, right_mode):
    right_net[0] = left_net[-1]
    curves = BezierCurve(left_net), BezierCurve(right_net)
    with np.errstate(all="ignore"):
        try:
            left, right = (PathSegment(curve, mode, 1.0)
                           for curve, mode in zip(curves, (left_mode, right_mode)))
        except ValueError:  # not regularly parameterized
            assume(False)
        ctx = JunctionContext(left, right, VEHICLE)
    for segment, u, end, curve_jet, mode_jet in (
            (left, 1.0, -1, ctx.left_jet, ctx.left_mode_jet),
            (right, 0.0, 0, ctx.right_jet, ctx.right_mode_jet)):
        curve = segment.curve
        with np.errstate(all="ignore"):
            kernel = curve.derivatives_many(np.array([u]), 3)
            law = orientation_many(segment.mode, curve, np.array([u]), False, 2)
        jets = (curve_jet.position, curve_jet.d1, curve_jet.d2, curve_jet.d3)
        safe = []
        for k, jet in enumerate(jets):
            net = curve._derivative_net(k) if k <= curve.degree else np.zeros((1, 2))
            assert bits(jet) == bits(net[end])
            safe.append(kernel_safe(net))
            if safe[k]:
                assert bits(jet) == bits(kernel[k][0])
        if all(safe[1:]):
            mode_values = (mode_jet.theta, mode_jet.dtheta, mode_jet.ddtheta)
            for value, expected in zip(mode_values, law):
                assert bits(value) == bits(expected[0])


def test_regularity_tables_equal_fresh_tables():
    nodes = np.linspace(0.0, 1.0, 1025)
    for degree in range(1, 13):
        tables = _regularity_tables(degree)
        assert len(tables) == 2 and tables[0] is None
        assert not tables[1].flags.writeable
        for lowest in (0, 1):
            assert bits(tables[1]) == bits(_basis(degree, nodes, 1, lowest)[1])


ROW = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(0.0, 1.0))


def refusing(patch):
    """Make building a table or a law raise: a planned pass must use its plan's."""
    def refuse(*args):
        raise AssertionError("the node plan covers every table and law of the pass")

    for module, name in ((curve_module, "_basis"), (motion, "_basis"), (motion, "_reparam")):
        patch.setattr(module, name, refuse)


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), arrays(float, st.integers(1, 8), elements=ROW), st.integers(1, 4),
       MODES, st.data())
def test_plan_pass_equals_a_fresh_pass_on_any_row(degree, row, count, mode, data):
    nets = [data.draw(arrays(float, (degree + 1, 2), elements=st.floats(-1e3, 1e3)))
            for _ in range(count)]
    with np.errstate(all="ignore"):
        stack = _BezierStack(nets, _NodePlan(degree, mode, row, count))
        # No segment limit, so every value is a wheel's quota and reads the law.
        fresh = limit_profile_fast(_BezierStack(nets), mode, np.inf, VEHICLE,
                                   stack.nodes.copy())
        with pytest.MonkeyPatch.context() as patch:
            refusing(patch)
            planned = limit_profile_fast(stack, mode, np.inf, VEHICLE, stack.nodes)
    assert all(bits(a) == bits(b) for a, b in zip(planned, fresh))


def test_regularity_nodes_take_one_table_per_degree():
    rng = np.random.default_rng(3)
    _regularity_tables.cache_clear()
    degrees = (2, 3, 5)
    for degree in degrees * 4:
        x = np.linspace(0.0, 6.0, degree + 1) + rng.uniform(-0.3, 0.3, degree + 1)
        curve = BezierCurve(np.column_stack([x, rng.uniform(-1.0, 1.0, degree + 1)]))
        PathSegment(curve, Tangential(0.0), 1.0)
        for lowest in (0, 1):
            cached = curve.derivatives_many(_REGULARITY_U, 1, lowest=lowest)
            fresh = curve.derivatives_many(_REGULARITY_U.copy(), 1, lowest=lowest)
            assert cached[0] is None if lowest else bits(cached[0]) == bits(fresh[0])
            assert bits(cached[1]) == bits(fresh[1])
    info = _regularity_tables.cache_info()
    assert info.currsize == info.misses == len(degrees)


def test_memo_stays_within_its_maxsize():
    maxsize = _regularity_tables.cache_info().maxsize
    _regularity_tables.cache_clear()
    for degree in range(1, 1 + 3 * maxsize):
        line = np.column_stack([np.linspace(0.0, 1.0, degree + 1), np.zeros(degree + 1)])
        assert sampled_irregular_parameter(BezierCurve(line)) is None
        assert _regularity_tables.cache_info().currsize <= maxsize
    info = _regularity_tables.cache_info()
    assert info.misses == 3 * maxsize and info.currsize == maxsize


@st.composite
def stacked_curves(draw):
    """One to four forward-moving curves of one degree from 1 to 9."""
    degree = draw(st.integers(1, 9))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        x = np.linspace(0.0, 6.0, degree + 1) + draw(
            arrays(float, degree + 1, elements=st.floats(-0.25, 0.25)))
        y = draw(arrays(float, degree + 1, elements=st.floats(-1.5, 1.5)))
        curves.append(BezierCurve(np.column_stack([x, y])))
    return curves


# Every law; exponential ones with infinite theta'' at the flat end (1 < n < 2) and n = 2.
LAWS = st.one_of(
    st.just(Tangential(0.0)), st.builds(Crab, st.floats(-3.0, 3.0)),
    *(st.builds(law, st.just(0.0), st.one_of(st.floats(1.2, 1.9), st.just(2.0),
                                             st.floats(2.5, 4.0)))
      for law in (ExponentialDelayed, ExponentialAnticipated)))
VEHICLE = VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, 0.8),
                        Wheel("w2", (-1.0, -0.5), 1.7, 0.8)))
# A row with the flat ends of both exponential laws, u = 0 and u = 1.
ENDS = np.linspace(0.0, 1.0, 17)


@settings(deadline=None, max_examples=60)
@given(stacked_curves(), LAWS)
def test_stacked_pass_on_a_node_plan_equals_each_curve_own_pass(curves, mode):
    try:
        segments = [PathSegment(curve, mode, 1.5) for curve in curves]
    except ValueError:  # not regularly parameterized
        assume(False)
    degree, nets = curves[0].degree, [c.control_points for c in curves]
    with np.errstate(all="ignore"):
        stack = _BezierStack(nets, _NodePlan(degree, mode, _TIME_US, len(curves)))
        ends = _BezierStack(nets, _NodePlan(degree, mode, ENDS, 4))
        with pytest.MonkeyPatch.context() as patch:
            refusing(patch)
            times = _travel_times(stack, stack.nodes, mode, 1.5, VEHICLE)
            v, speed = limit_profile_fast(ends, mode, 1.5, VEHICLE, ends.nodes)
        for k, (curve, segment) in enumerate(zip(curves, segments)):
            assert bits(times[k]) == bits(estimate_travel_time(segment, VEHICLE))
            v_one, speed_one = limit_profile_fast(curve, mode, 1.5, VEHICLE, ENDS)
            block = slice(k * ENDS.size, (k + 1) * ENDS.size)
            assert bits(v[block]) == bits(v_one) and bits(speed[block]) == bits(speed_one)


def test_a_search_builds_one_plan_per_edited_side(monkeypatch, capsys):
    # six_wheel_exponential's repair edits both sides: tangential on the left, an
    # anticipated exponential law on the right, whose plan holds g(u).
    tables, laws, passes = [], [], []
    basis, reparam, limit = curve_module._basis, motion._reparam, repair_module.limit_profile_fast

    def at_time_nodes(us):
        us = np.asarray(us).ravel()
        return us.size % _TIME_US.size == 0 and us.size > 0 and us[0] == _TIME_US[0]

    def counted_basis(n, us, order, lowest=0):
        if at_time_nodes(us):
            tables.append(np.shape(us))
        return basis(n, us, order, lowest)

    def counted_reparam(anticipated, n, us, order):
        if at_time_nodes(us):
            laws.append(np.shape(us))
        return reparam(anticipated, n, us, order)

    def counted_limit(*args):
        passes.append(args[0])
        return limit(*args)

    monkeypatch.setattr(curve_module, "_basis", counted_basis)
    monkeypatch.setattr(motion, "_basis", counted_basis)
    monkeypatch.setattr(motion, "_reparam", counted_reparam)
    monkeypatch.setattr(repair_module, "limit_profile_fast", counted_limit)
    assert main(["repair", str(bundled_layout_path("six_wheel_exponential"))]) == 0
    capsys.readouterr()
    # One table set per side, the right one on [u | g(u)]; one law, on the right side.
    assert sorted(tables) == [(1, _TIME_US.size), (1, 2 * _TIME_US.size)]
    assert laws == [(_TIME_US.size,)]
    assert len(passes) > 100 and all(isinstance(p, _BezierStack) for p in passes)


class PlanlessStack(_BezierStack):
    """A stack at its plan's nodes that builds every table and law afresh, as a
    stack without a plan does."""

    def __init__(self, nets, plan):
        super().__init__(nets)
        self.nodes = plan.blocks[0][:len(nets) * plan.width]


@pytest.mark.parametrize("name", ["two_wheel_g1", "six_wheel_exponential"])
def test_default_repair_bytes_do_not_depend_on_the_node_plan(name, tmp_path, capsys):
    layout = str(bundled_layout_path(name))
    runs = []
    for planless in (False, True):
        out = tmp_path / f"repaired{int(planless)}.json"
        with pytest.MonkeyPatch.context() as patch:
            if planless:
                patch.setattr(repair_module, "_BezierStack", PlanlessStack)
            assert main(["repair", layout, "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_bytes()))
    assert runs[0] == runs[1]
