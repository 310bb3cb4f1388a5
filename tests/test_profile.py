"""Velocity planning: oracle cases, limit respect, rest points, diagnostics."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from agv_path_kit import (BezierCurve, Crab, DiscontinuousPathError, Path,
                          PathSegment, VehicleModel, Wheel,
                          plan_velocity, time_along)
from agv_path_kit import profile as profile_module
from agv_path_kit.repair import prescribe_endpoint_jet

from conftest import random_regular_curve, straight_segment


def trapezoid_oracle(length, v_max, a):
    """Rest-to-rest time over a straight run under a speed and accel cap."""
    d_accel = v_max**2 / (2.0 * a)
    if 2.0 * d_accel >= length:
        peak = math.sqrt(a * length)
        return peak, 2.0 * math.sqrt(length / a)
    cruise = length - 2.0 * d_accel
    return v_max, 2.0 * v_max / a + cruise / v_max


class TestOracles:
    def test_triangular_profile_on_short_straight(self, two_wheel_vehicle):
        path = Path((straight_segment(length=3.0, v_max=1.5),))
        prof = plan_velocity(path, two_wheel_vehicle, a_max=0.5, resolution=1000)
        peak, total = trapezoid_oracle(3.0, 1.5, 0.5)
        assert prof.v.max() == pytest.approx(peak, abs=1e-3)
        assert prof.total_time == pytest.approx(total, abs=1e-3)

    def test_trapezoid_with_cruise(self, two_wheel_vehicle):
        path = Path((straight_segment(length=12.0, v_max=1.5),))
        prof = plan_velocity(path, two_wheel_vehicle, a_max=0.5, resolution=2000)
        peak, total = trapezoid_oracle(12.0, 1.5, 0.5)
        assert prof.v.max() == pytest.approx(peak, abs=1e-6)
        assert prof.total_time == pytest.approx(total, abs=1e-3)

    def test_unconstrained_peak_rest_to_rest(self):
        # push every limit out of reach so only the acceleration bound acts
        vehicle = VehicleModel((Wheel("w", (0.0, 0.0), 1e9, 1e9),))
        path = Path((straight_segment(length=5.0, v_max=1e9),))
        prof = plan_velocity(path, vehicle, a_max=0.5, resolution=2000)
        assert prof.total_time == pytest.approx(2.0 * math.sqrt(5.0 / 0.5), abs=1e-3)

    def test_time_along(self, two_wheel_vehicle):
        path = Path((straight_segment(length=3.0, v_max=1.5),))
        prof = plan_velocity(path, two_wheel_vehicle, a_max=0.5, resolution=2000)
        assert time_along(prof, 0.0) == 0.0
        assert time_along(prof, 3.0) == pytest.approx(prof.total_time, abs=1e-12)
        # symmetric triangular profile reaches midpoint at half time
        assert time_along(prof, 1.5) == pytest.approx(prof.total_time / 2, abs=1e-3)
        with pytest.raises(ValueError):
            time_along(prof, 3.5)


class TestInvariants:
    def test_never_exceeds_limit_and_acceleration(self, layout_smoothed):
        prof = plan_velocity(layout_smoothed.path(), layout_smoothed.vehicle,
                             a_max=0.5, resolution=800)
        assert np.all(prof.v <= prof.v_limit + 1e-12)
        ds = np.diff(prof.s)
        dv2 = np.abs(np.diff(prof.v**2))
        assert np.all(dv2 <= 2.0 * 0.5 * ds + 1e-9)
        assert np.all(np.diff(prof.t) > 0.0)

    def test_refinement_converges(self, layout_smoothed):
        t1 = plan_velocity(layout_smoothed.path(), layout_smoothed.vehicle,
                           resolution=500).total_time
        t2 = plan_velocity(layout_smoothed.path(), layout_smoothed.vehicle,
                           resolution=1000).total_time
        assert abs(t2 - t1) / t1 < 0.005

    def test_wheel_actuators_within_limits(self, layout_smoothed,
                                           layout_exponential):
        for doc in (layout_smoothed, layout_exponential):
            prof = plan_velocity(doc.path(), doc.vehicle, a_max=0.5,
                                 resolution=800)
            for w in doc.vehicle.wheels:
                assert prof.wheel_speeds[w.id].max() <= w.v_max + 1e-9
                rates = np.abs(prof.wheel_steering_rates[w.id])
                assert np.nanmax(rates) <= w.omega_max + 1e-9

    def test_boundary_speeds_respected(self, two_wheel_vehicle):
        path = Path((straight_segment(length=6.0, v_max=1.5),))
        prof = plan_velocity(path, two_wheel_vehicle, a_max=0.5,
                             boundary=(0.5, 0.25), resolution=1000)
        assert prof.v[0] == pytest.approx(0.5, abs=1e-12)
        assert prof.v[-1] == pytest.approx(0.25, abs=1e-12)

    @pytest.mark.parametrize("end", [0, 1])
    @pytest.mark.parametrize("speed", [-1.0, math.nan])
    def test_negative_or_nan_boundary_speed_refused(self, two_wheel_vehicle, end, speed):
        # A negative start speed was planned as v[0] = -1; min(v, nan) dropped NaN.
        boundary = [0.0, 0.0]
        boundary[end] = speed
        path = Path((straight_segment(length=3.0, v_max=1.5),))
        name = ("start", "end")[end]
        with pytest.raises(ValueError, match=f"{name} boundary speed must be non-negative"):
            plan_velocity(path, two_wheel_vehicle, boundary=tuple(boundary), resolution=100)

    def test_infinite_boundary_speed_leaves_an_end_unbounded(self, two_wheel_vehicle):
        path = Path((straight_segment(length=3.0, v_max=1.5),))
        prof = plan_velocity(path, two_wheel_vehicle, boundary=(0.0, math.inf),
                             resolution=100)
        assert prof.v[0] == 0.0
        assert prof.v[-1] == prof.v_limit[-1] > 0.0


class TestJunctionHandling:
    def test_discontinuous_path_refused(self, layout_g1):
        with pytest.raises(DiscontinuousPathError):
            plan_velocity(layout_g1.path(), layout_g1.vehicle)

    def test_diagnostic_profile_dips_at_junction(self, layout_g1):
        prof = plan_velocity(layout_g1.path(), layout_g1.vehicle,
                             diagnostic=True, resolution=800)
        j = prof.junction_indices[0]
        # the planner respects the lower one-sided limit at the junction
        assert prof.v[j] <= prof.v_limit[j] + 1e-12
        neighborhood = slice(max(0, j - 5), j + 6)
        assert prof.v[neighborhood].min() < prof.v_limit[j - 20] - 1e-3

    def test_rest_only_junction_forces_zero_speed(self, two_wheel_vehicle):
        rng = np.random.default_rng(0)
        left = random_regular_curve(rng, degree=5)
        lj = left.jet(1.0)
        template = random_regular_curve(rng, degree=5)
        template = BezierCurve(template.control_points
                               - template.control_points[0] + lj.position)
        right = prescribe_endpoint_jet(template, "start", lj.d1)
        path = Path((PathSegment(left, Crab(0.2), 1.5),
                     PathSegment(right, Crab(0.2), 1.5)))
        prof = plan_velocity(path, two_wheel_vehicle, resolution=400)
        j = prof.junction_indices[0]
        assert j in prof.rest_indices
        assert prof.v[j] == 0.0
        assert prof.v[j - 5] > 0.0 and prof.v[j + 5] > 0.0

    def test_speed_limit_collapsing_over_an_interval_is_refused(
            self, two_wheel_vehicle, monkeypatch):
        original = profile_module.profile_segment

        def collapsed(segment, vehicle, samples):
            prof = original(segment, vehicle, samples)
            prof.v_max[samples // 3:samples // 2] = 0.0
            return prof

        monkeypatch.setattr(profile_module, "profile_segment", collapsed)
        path = Path((straight_segment(length=3.0, v_max=1.5),))
        with pytest.raises(DiscontinuousPathError, match="collapses to zero"):
            plan_velocity(path, two_wheel_vehicle, resolution=200)

    def test_parameter_validation(self, layout_smoothed):
        with pytest.raises(ValueError):
            plan_velocity(layout_smoothed.path(), layout_smoothed.vehicle,
                          a_max=0.0)
        with pytest.raises(ValueError):
            plan_velocity(layout_smoothed.path(), layout_smoothed.vehicle,
                          resolution=1)


def reference_speeds(s, v_limit, rest, boundary, a_max):
    """The planner's two loops before the one rule: a forward pass, the end
    bound, then a backward pass, one sample at a time."""
    n = s.size
    v = v_limit.copy()
    v[list(rest)] = 0.0
    v[0] = min(v[0], float(boundary[0]))
    ds = np.diff(s)
    for i in range(1, n):
        reachable = math.sqrt(v[i - 1]**2 + 2.0 * a_max * ds[i - 1])
        if reachable < v[i]:
            v[i] = reachable
    v[-1] = min(v[-1], float(boundary[1]))
    for i in range(n - 2, -1, -1):
        reachable = math.sqrt(v[i + 1]**2 + 2.0 * a_max * ds[i])
        if reachable < v[i]:
            v[i] = reachable
    return v


@st.composite
def planner_inputs(draw, limits, steps, speeds, a_maxes):
    n = draw(st.integers(2, 60))
    v_limit = np.array(draw(st.lists(limits, min_size=n, max_size=n)))
    s = np.concatenate(([0.0], np.cumsum(draw(st.lists(steps, min_size=n - 1, max_size=n - 1)))))
    rest = tuple(sorted(draw(st.sets(st.integers(0, n - 1), max_size=n))))
    return s, v_limit, rest, (draw(speeds), draw(speeds)), draw(a_maxes)


def rule_and_reference(s, v_limit, rest, boundary, a_max):
    """Both planners' speeds, once the properties every input keeps are checked."""
    assert np.all(np.diff(s) > 0.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        v = profile_module._speeds(s, v_limit, rest, boundary, a_max)
        ref = reference_speeds(s, v_limit, rest, boundary, a_max)
    assert np.all(v[list(rest)] == 0.0)
    assert np.all(v <= v_limit)
    return v, ref


@settings(max_examples=400, deadline=None)
@given(planner_inputs(limits=st.one_of(st.just(0.0), st.floats(0.0, 1e6)),
                      steps=st.floats(1e-9, 10.0),
                      speeds=st.one_of(st.sampled_from([0.0, 1e300, math.inf]),
                                       st.floats(0.0, 1e6)),
                      a_maxes=st.one_of(st.just(math.inf),
                                        st.floats(-300.0, 300.0).map(lambda e: 10.0**e))))
def test_one_rule_matches_the_two_loops(inputs):
    s, v_limit, rest, boundary, a_max = inputs
    v, ref = rule_and_reference(*inputs)
    # Both compute min over j <= i of w_j + 2 a (s_i - s_j) on w = v^2, forward and
    # backward. The loops round a few times per step along a chain of up to n
    # steps, so their w is off by at most ~3 n eps w. The rule takes the latest
    # argmin of a key whose rounding is at most ~eps (w + 2 a s_max) in w units;
    # a near tie may pick another j, which moves w by that much, and the chosen
    # reach w_j + 2 a (s_i - s_j) is formed in three roundings. At an infinite a
    # no key is compared. Squares and roots add eps (v + ref)^2, and a square
    # below the normal range 2^-1074 per rounding.
    eps = np.finfo(float).eps
    keys = 2.0 * a_max * s[-1] if a_max < math.inf else 0.0
    slack = 8.0 * eps * ((s.size + 1) * (v + ref)**2 + keys) + 8.0 * s.size * 2.0**-1074
    assert np.all(np.abs(v - ref) * (v + ref) <= slack)


@settings(max_examples=400, deadline=None)
@given(planner_inputs(limits=st.one_of(st.just(0.0), st.floats(1e-3, 100.0)),
                      steps=st.floats(1e-3, 10.0),
                      speeds=st.one_of(st.sampled_from([0.0, math.inf]), st.floats(1e-3, 10.0)),
                      a_maxes=st.floats(-3.0, 3.0).map(lambda e: 10.0**e)))
def test_one_rule_stays_relatively_close_to_the_two_loops_on_plannable_inputs(inputs):
    s, v_limit, rest, boundary, a_max = inputs
    v, ref = rule_and_reference(*inputs)
    # Where the rule lowers a sample from an earlier one, w >= 2 a ds_min, so the
    # absolute key error eps (w + 2 a s_max) is at most eps (1 + s_max / ds_min)
    # relative to w; where it keeps the sample's own w, that sample's key is the
    # least and nothing is lost. With the loops' ~3 n eps and v's half of w's
    # relative error this gives the bound below, about 1e-10 at these inputs.
    eps = np.finfo(float).eps
    tol = 4.0 * eps * (s.size + s[-1] / np.diff(s).min())
    assert np.all(np.abs(v - ref) <= tol * ref)
