"""Fixed-node Bernstein tables and junction-end reads give the kernel's bits.

Two shortcuts stand in for the general kernel: a junction side reads its
derivative nets' end points; and the regularity nodes, like every stacked
travel-time pass whose blocks repeat one node row, take their tables from
the one bounded memo, `curve._row_basis`. The tables must return exactly
what the kernel would build, and so must the end reads wherever the nets
are finite and hold no -0.0. Equality is bitwise, signed zeros and NaN
positions included.
"""

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed,
                          JunctionContext, PathSegment, Tangential, VehicleModel, Wheel)
from agv_path_kit import curve as curve_module
from agv_path_kit.cli import main
from agv_path_kit.curve import _REGULARITY_U, _BezierStack, _basis, _row_basis
from agv_path_kit.kinematics import limit_profile_fast
from agv_path_kit.layouts import bundled_layout_path
from agv_path_kit.motion import orientation_many
from agv_path_kit.repair import _TIME_US, _travel_times

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
        tables = _row_basis(degree, _REGULARITY_U.tobytes(), 1)
        assert len(tables) == 2 and tables[0] is None
        assert not tables[1].flags.writeable
        for lowest in (0, 1):
            assert bits(tables[1]) == bits(_basis(degree, nodes, 1, lowest)[1])


ROW = st.one_of(st.sampled_from([0.0, -0.0, 1.0]), st.floats(-2.0, 2.0))


@settings(deadline=None, max_examples=200)
@given(st.integers(1, 12), arrays(float, st.integers(0, 8), elements=ROW), st.integers(1, 4))
def test_memo_tables_equal_fresh_tables_on_any_row(degree, row, order):
    tables = _row_basis(degree, row.tobytes(), order)
    fresh = _basis(degree, row, order, 1)
    assert len(tables) == len(fresh) and tables[0] is None
    for table, expected in zip(tables[1:], fresh[1:]):
        assert not table.flags.writeable
        assert table.shape == expected.shape and bits(table) == bits(expected)


def test_regularity_nodes_take_one_table_per_degree():
    rng = np.random.default_rng(3)
    _row_basis.cache_clear()
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
    info = _row_basis.cache_info()
    assert info.currsize == info.misses == len(degrees)


@st.composite
def edited_sides(draw):
    """One to four forward-moving curves of one degree from 4 to 7."""
    degree = draw(st.integers(4, 7))
    curves = []
    for _ in range(draw(st.integers(1, 4))):
        x = np.linspace(0.0, 6.0, degree + 1) + draw(
            arrays(float, degree + 1, elements=st.floats(-0.5, 0.5)))
        y = draw(arrays(float, degree + 1, elements=st.floats(-1.5, 1.5)))
        curves.append(BezierCurve(np.column_stack([x, y])))
    return curves


SIDE_MODES = st.one_of(
    st.just(Tangential(0.0)),
    st.builds(ExponentialAnticipated, st.just(0.0),
              st.one_of(st.floats(1.2, 1.9), st.just(2.0), st.floats(2.5, 4.0))))
VEHICLE = VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, 0.8),
                        Wheel("w2", (-1.0, -0.5), 1.7, 0.8)))


@settings(deadline=None, max_examples=40)
@given(edited_sides(), SIDE_MODES)
def test_stacked_pass_on_memo_tables_equals_each_curve_own_pass(curves, mode):
    count = len(curves)
    with np.errstate(all="ignore"):
        # The first pass memoizes the tables of every node row it meets.
        _travel_times(_BezierStack([curves[0].control_points]), 1, mode, 1.5, VEHICLE)

    def refuse(*args):
        raise AssertionError("the memo covers every node row of the pass")

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(curve_module, "_basis", refuse)
        nets = [c.control_points for c in curves]
        v, speed = limit_profile_fast(_BezierStack(nets), mode, 1.5, VEHICLE,
                                      np.tile(_TIME_US, count))
        times = _travel_times(_BezierStack(nets), count, mode, 1.5, VEHICLE)
    with np.errstate(all="ignore"):
        for k, curve in enumerate(curves):
            v_one, speed_one = limit_profile_fast(curve, mode, 1.5, VEHICLE, _TIME_US)
            block = slice(k * _TIME_US.size, (k + 1) * _TIME_US.size)
            assert bits(v[block]) == bits(v_one) and bits(speed[block]) == bits(speed_one)
            assert times[k] == _travel_times(curve, 1, mode, 1.5, VEHICLE)[0]


def test_memo_stays_within_its_maxsize():
    curve = BezierCurve([(0.0, 0.0), (1.0, 0.5), (2.0, -0.5), (3.0, 0.0)])
    maxsize = _row_basis.cache_info().maxsize
    _row_basis.cache_clear()
    for size in range(2, 2 + 3 * maxsize):
        row = np.linspace(0.0, 1.0, size)
        _BezierStack([curve.control_points] * 2).derivatives_many(np.tile(row, 2), 3, lowest=1)
        assert _row_basis.cache_info().currsize <= maxsize
    info = _row_basis.cache_info()
    assert info.misses == 3 * maxsize and info.currsize == maxsize


def test_default_repair_bytes_do_not_depend_on_the_memo(tmp_path, capsys):
    layout = str(bundled_layout_path("two_wheel_g1"))
    runs, misses = [], []
    _row_basis.cache_clear()
    for k in range(2):
        out = tmp_path / f"repaired{k}.json"
        assert main(["repair", layout, "--out", str(out)]) == 0
        runs.append((capsys.readouterr().out.replace(str(out), "OUT"), out.read_bytes()))
        misses.append(_row_basis.cache_info().misses)
    # The first run builds its tables; the second finds all of them in the memo.
    assert misses[0] > 0 and misses[1] == misses[0]
    assert runs[0] == runs[1]
