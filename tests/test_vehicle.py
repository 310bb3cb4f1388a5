"""Vehicle model, validation, differential offset, and path assembly."""

import math

import numpy as np
import pytest

from agv_path_kit import (BezierCurve, DegenerateGeometryError, Path,
                          PathSegment, Tangential, VehicleModel, Wheel,
                          differential_alpha, validate_vehicle)

from conftest import random_regular_curve


def wheel(wid, x, y, v_max=1.7, omega_max_deg=45.0):
    return Wheel(wid, (x, y), v_max, math.radians(omega_max_deg))


class TestValidation:
    def test_clean_two_wheel_model(self, two_wheel_vehicle):
        assert validate_vehicle(two_wheel_vehicle) == []

    def test_zero_speed_limit_flagged(self):
        model = VehicleModel((wheel("w1", 1, 0, v_max=0.0),))
        violations = validate_vehicle(model)
        assert len(violations) == 1
        assert violations[0].wheel_id == "w1"
        assert violations[0].field == "v_max"

    def test_duplicate_ids_flagged(self):
        model = VehicleModel((wheel("w1", 1, 0), wheel("w1", -1, 0)))
        fields = {v.field for v in validate_vehicle(model)}
        assert "id" in fields

    def test_empty_vehicle_rejected(self):
        with pytest.raises(ValueError):
            VehicleModel(())


class TestDifferentialAlpha:
    def test_diagonal_pair(self):
        model = VehicleModel((wheel("w1", 1.0, 0.5), wheel("w2", -1.0, -0.5)))
        assert math.degrees(differential_alpha(model)) == pytest.approx(
            math.degrees(math.atan(2.0)), abs=1e-9)

    def test_vertical_pair_gives_zero(self):
        model = VehicleModel((wheel("w1", 0.0, 1.0), wheel("w2", 0.0, -1.0)))
        assert differential_alpha(model) == pytest.approx(0.0, abs=1e-15)

    def test_horizontal_pair_gives_quarter_turn(self):
        model = VehicleModel((wheel("w1", 1.0, 0.0), wheel("w2", -1.0, 0.0)))
        assert math.degrees(differential_alpha(model)) == pytest.approx(90.0)

    def test_heading_perpendicular_to_wheel_line(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            phi = rng.uniform(-math.pi, math.pi)
            c1, c2 = rng.uniform(0.3, 2.0, size=2)
            r1 = (c1 * math.cos(phi), c1 * math.sin(phi))
            r2 = (-c2 * math.cos(phi), -c2 * math.sin(phi))
            model = VehicleModel((wheel("w1", *r1), wheel("w2", *r2)))
            alpha = differential_alpha(model)
            heading = np.array([math.cos(-alpha), math.sin(-alpha)])
            axle = np.array(r1) - np.array(r2)
            assert abs(float(heading @ axle)) < 1e-12

    def test_swap_invariance(self):
        a = VehicleModel((wheel("w1", 1.0, 0.5), wheel("w2", -1.0, -0.5)))
        b = VehicleModel((wheel("w2", -1.0, -0.5), wheel("w1", 1.0, 0.5)))
        assert differential_alpha(a) == pytest.approx(differential_alpha(b),
                                                      abs=1e-12)

    def test_coincident_wheels_rejected(self):
        model = VehicleModel((wheel("w1", 1.0, 0.5), wheel("w2", 1.0, 0.5)))
        with pytest.raises(DegenerateGeometryError):
            differential_alpha(model)

    def test_wrong_wheel_count_rejected(self):
        with pytest.raises(DegenerateGeometryError):
            differential_alpha(VehicleModel((wheel("w1", 1.0, 0.0),)))


class TestSegmentsAndPaths:
    def test_segment_rejects_cusp(self):
        with pytest.raises(ValueError):
            PathSegment(BezierCurve([(0, 0), (1, 0), (0, 0)]), Tangential(0.0), 1.5)

    def test_segment_rejects_nonpositive_speed(self):
        with pytest.raises(ValueError):
            PathSegment(BezierCurve([(0, 0), (1, 0)]), Tangential(0.0), 0.0)

    def test_path_accepts_exact_junction(self):
        a = PathSegment(BezierCurve([(0, 0), (1, 0)]), Tangential(0.0), 1.0)
        b = PathSegment(BezierCurve([(1, 0), (2, 0)]), Tangential(0.0), 1.0)
        path = Path((a, b))
        assert len(path.junctions()) == 1

    def test_path_rejects_gap_beyond_tolerance(self):
        a = PathSegment(BezierCurve([(0, 0), (1, 0)]), Tangential(0.0), 1.0)
        b = PathSegment(BezierCurve([(1 + 2e-6, 0), (2, 0)]), Tangential(0.0), 1.0)
        with pytest.raises(ValueError):
            Path((a, b))
        assert Path((a, b), g0_tol=1e-5) is not None

    def test_path_needs_segments(self):
        with pytest.raises(ValueError):
            Path(())

    def test_random_curves_accepted(self):
        rng = np.random.default_rng(1)
        for _ in range(5):
            PathSegment(random_regular_curve(rng), Tangential(0.0), 1.5)
