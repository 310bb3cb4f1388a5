"""Fixed-node Bernstein tables and junction-end reads give the kernel's bits.

Three shortcuts stand in for the general kernel, and each must return
exactly what it would: a one-node evaluation at u = 0 or u = 1 reads the
derivative nets; the regularity nodes take tables built once per degree;
and a stacked travel-time pass takes the tables its search built once per
side. Equality is bitwise, signed zeros and NaN positions included.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, ExponentialAnticipated, PathSegment, Tangential,
                          VehicleModel, Wheel)
from agv_path_kit import curve as curve_module
from agv_path_kit.curve import (_REGULARITY_U, _BezierStack, _basis,
                                _regularity_basis)
from agv_path_kit.kinematics import limit_profile_fast
from agv_path_kit.repair import _TIME_US, _time_tables, _travel_times

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


@settings(deadline=None, max_examples=200)
@given(NETS, st.sampled_from([0.0, 1.0]))
def test_end_reads_equal_the_general_kernel(net, u):
    curve = BezierCurve(net)
    with np.errstate(all="ignore"):
        ends = curve.derivatives_many(np.array([u]), 3)
        general = curve.derivatives_many(np.array([u, 0.5]), 3)
    for end, row in zip(ends, general):
        assert end.shape == (1, 2)
        assert bits(end[0]) == bits(row[0])


def test_regularity_tables_equal_fresh_tables():
    for degree in range(1, 13):
        tables = _regularity_basis(degree)
        fresh = _basis(degree, np.linspace(0.0, 1.0, 1025), 1)
        assert len(tables) == len(fresh) == 2
        for table, expected in zip(tables, fresh):
            assert not table.flags.writeable
            assert np.array_equal(table, expected)


def test_regularity_nodes_take_one_table_per_degree():
    rng = np.random.default_rng(3)
    _regularity_basis.cache_clear()
    degrees = (2, 3, 5)
    for degree in degrees * 4:
        x = np.linspace(0.0, 6.0, degree + 1) + rng.uniform(-0.3, 0.3, degree + 1)
        curve = BezierCurve(np.column_stack([x, rng.uniform(-1.0, 1.0, degree + 1)]))
        PathSegment(curve, Tangential(0.0), 1.0)
        cached = curve.derivatives_many(_REGULARITY_U, 1)
        fresh = curve.derivatives_many(_REGULARITY_U.copy(), 1)
        assert all(np.array_equal(a, b) for a, b in zip(cached, fresh))
    info = _regularity_basis.cache_info()
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
def test_stacked_pass_on_held_tables_equals_each_curve_own_pass(curves, mode):
    tables = _time_tables(PathSegment(curves[0], mode, 1.5))
    count = len(curves)

    def refuse(*args):
        raise AssertionError("the held tables cover every node row of the pass")

    with pytest.MonkeyPatch.context() as patch, np.errstate(all="ignore"):
        patch.setattr(curve_module, "_basis", refuse)
        stack = _BezierStack(curves, tables)
        v, speed = limit_profile_fast(stack, mode, 1.5, VEHICLE, np.tile(_TIME_US, count))
        times = _travel_times(_BezierStack(curves, tables), count, mode, 1.5, VEHICLE)
    with np.errstate(all="ignore"):
        for k, curve in enumerate(curves):
            v_one, speed_one = limit_profile_fast(curve, mode, 1.5, VEHICLE, _TIME_US)
            block = slice(k * _TIME_US.size, (k + 1) * _TIME_US.size)
            assert bits(v[block]) == bits(v_one) and bits(speed[block]) == bits(speed_one)
            assert times[k] == _travel_times(curve, 1, mode, 1.5, VEHICLE)[0]
