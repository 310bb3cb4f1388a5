"""Velocity planning: oracle cases, limit respect, rest points, diagnostics."""

import math

import numpy as np
import pytest

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
