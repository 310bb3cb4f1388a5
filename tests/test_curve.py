"""Curve engine: evaluation, arc length, curvature, continuity primitives."""

import math
from fractions import Fraction

import numpy as np
import pytest

from agv_path_kit import (BezierCurve, Point2, ShapeParameters, arc_length,
                          check_geometric_continuity, curvature,
                          curvature_arc_derivative, evaluate,
                          SingularParameterizationError)

from conftest import NOMINAL_INITIAL_LEFT, random_regular_curve

# Chord-length sum over 1e6 uniform samples of the initial-layout left curve,
# computed once and frozen.
CHORD_ORACLE_LEFT = 4.8646893176334185

def circle_arc(radius: float, sweep: float) -> BezierCurve:
    """Cubic circle-arc approximation, tangent- and curvature-exact at endpoints."""
    h = (-math.sin(sweep) + math.sqrt(math.sin(sweep)**2
                                      + 6.0 * (1.0 - math.cos(sweep)))) / 3.0
    p0 = np.array([radius, 0.0])
    t0 = np.array([0.0, 1.0])
    p3 = radius * np.array([math.cos(sweep), math.sin(sweep)])
    t3 = np.array([-math.sin(sweep), math.cos(sweep)])
    return BezierCurve([p0, p0 + h * radius * t0, p3 - h * radius * t3, p3])


def quarter_circle(radius: float) -> BezierCurve:
    return circle_arc(radius, math.pi / 2.0)


class TestEvaluate:
    def test_linear_midpoint(self):
        jet = evaluate(BezierCurve([(0, 0), (2, 0)]), 0.5)
        assert np.allclose(jet.position, [1.0, 0.0])
        assert np.allclose(jet.d1, [2.0, 0.0])
        assert np.allclose(jet.d2, 0.0)
        assert np.allclose(jet.d3, 0.0)

    def test_nominal_curve_endpoints(self):
        curve = BezierCurve(NOMINAL_INITIAL_LEFT)
        assert np.allclose(evaluate(curve, 0.0).position, [0.188, -3.187])
        assert np.allclose(evaluate(curve, 1.0).position, [4.500, -1.500])

    def test_parameter_domain(self):
        curve = BezierCurve([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            evaluate(curve, -0.01)
        with pytest.raises(ValueError):
            evaluate(curve, 1.01)
        with pytest.raises(ValueError):
            evaluate(curve, 0.5, order=4)

    def test_endpoints_interpolate_control_points(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            curve = random_regular_curve(rng, degree=int(rng.integers(1, 9)))
            assert np.allclose(curve.point(0.0), curve.control_points[0])
            assert np.allclose(curve.point(1.0), curve.control_points[-1])

    def test_derivatives_match_finite_differences(self):
        # Each order is checked against a central difference of the exact
        # next-lower derivative, which keeps roundoff at eps/h.
        rng = np.random.default_rng(2)
        h = 1e-6
        for _ in range(20):
            degree = int(rng.integers(2, 9))
            curve = random_regular_curve(rng, degree=degree)
            u = float(rng.uniform(0.1, 0.9))
            lo = curve.derivatives_many(np.array([u - h]), 3)
            hi = curve.derivatives_many(np.array([u + h]), 3)
            jet = evaluate(curve, u)
            for order, exact in ((1, jet.d1), (2, jet.d2), (3, jet.d3)):
                fd = (hi[order - 1][0] - lo[order - 1][0]) / (2.0 * h)
                scale = max(1.0, float(np.linalg.norm(exact)))
                assert np.linalg.norm(fd - exact) / scale < 1e-6

    def test_scalar_parameter_gives_one_row(self):
        curve = random_regular_curve(np.random.default_rng(3), degree=4)
        for scalar, row in zip(curve.derivatives_many(0.3, 5),
                               curve.derivatives_many(np.array([0.3]), 5)):
            assert scalar.shape == (1, 2) and np.array_equal(scalar, row)

    def test_degenerate_control_points_rejected(self):
        with pytest.raises(ValueError):
            BezierCurve([(0, 0)])
        with pytest.raises(ValueError):
            BezierCurve([(0, 0), (math.nan, 1)])

    def test_point2_finite(self):
        with pytest.raises(ValueError):
            Point2(math.inf, 0.0)
        assert Point2(1.0, 2.0).as_array().tolist() == [1.0, 2.0]


class TestArcLength:
    def test_straight_3_4_5(self):
        assert arc_length(BezierCurve([(0, 0), (3, 4)])) == pytest.approx(5.0, abs=1e-12)

    def test_zero_width_interval(self):
        curve = BezierCurve(NOMINAL_INITIAL_LEFT)
        assert arc_length(curve, 0.37, 0.37) == 0.0

    def test_chord_oracle(self):
        curve = BezierCurve(NOMINAL_INITIAL_LEFT)
        assert arc_length(curve) == pytest.approx(CHORD_ORACLE_LEFT, abs=1e-6)

    def test_additivity(self):
        rng = np.random.default_rng(3)
        for _ in range(5):
            curve = random_regular_curve(rng)
            u1, u2 = sorted(rng.uniform(0.0, 1.0, size=2))
            whole = arc_length(curve, 0.0, 1.0)
            parts = (arc_length(curve, 0.0, u1) + arc_length(curve, u1, u2)
                     + arc_length(curve, u2, 1.0))
            assert parts == pytest.approx(whole, abs=1e-8)

    def test_order_of_bounds(self):
        with pytest.raises(ValueError):
            arc_length(BezierCurve([(0, 0), (1, 0)]), 0.8, 0.2)

    def test_array_ends_match_scalar_calls_bit_for_bit(self):
        # These curves bisect up to seven times; every end reads the same S.
        rng = np.random.default_rng(11)
        for _ in range(10):
            curve = BezierCurve(rng.normal(size=(6, 2)))
            us = np.sort(rng.uniform(size=200))
            us[0] = 0.0
            batched = arc_length(curve, 0.0, us)
            assert batched.dtype == float and batched.shape == us.shape
            scalar = [arc_length(curve, 0.0, float(u)) for u in us]
            assert batched.tolist() == scalar

    def test_array_shape_and_scalar_type(self):
        curve = BezierCurve(NOMINAL_INITIAL_LEFT)
        assert type(arc_length(curve, 0.2, 0.7)) is float
        ends = np.array([[0.25, 0.5], [0.25, 1.0]])
        lengths = arc_length(curve, 0.25, ends)
        assert lengths.shape == (2, 2)
        assert lengths[0, 0] == lengths[1, 0] == 0.0
        assert lengths[1, 1] == arc_length(curve, 0.25, 1.0)
        assert arc_length(curve, 0.0, np.array([])).shape == (0,)

    @pytest.mark.parametrize("ends", [[0.5, 1.01], [0.5, 0.1], [0.5, float("nan")]])
    def test_array_ends_validated(self, ends):
        with pytest.raises(ValueError):
            arc_length(BezierCurve([(0, 0), (1, 0)]), 0.2, np.array(ends))


class TestCurvature:
    def test_collinear_is_zero(self):
        jet = evaluate(BezierCurve([(0, 0), (1, 1), (2, 2)]), 0.4)
        assert curvature(jet) == pytest.approx(0.0, abs=1e-15)

    def test_quarter_circle_endpoint(self):
        jet = evaluate(quarter_circle(2.0), 0.0)
        assert curvature(jet) == pytest.approx(0.5, abs=1e-3)

    def test_sign_convention(self):
        ccw = evaluate(BezierCurve([(0, 0), (1, 0), (1, 1)]), 0.5)
        cw = evaluate(BezierCurve([(0, 0), (1, 0), (1, -1)]), 0.5)
        assert curvature(ccw) > 0.0
        assert curvature(cw) < 0.0

    def test_nominal_junction_mismatch(self):
        left = evaluate(BezierCurve(NOMINAL_INITIAL_LEFT), 1.0)
        from conftest import NOMINAL_INITIAL_RIGHT
        right = evaluate(BezierCurve(NOMINAL_INITIAL_RIGHT), 0.0)
        k_left, k_right = curvature(left), curvature(right)
        assert k_left == pytest.approx(0.403526, abs=1e-6)
        assert k_right == pytest.approx(0.041176, abs=1e-6)
        assert abs(k_left - k_right) > 0.3

    def test_singular_raises(self):
        jet = evaluate(BezierCurve([(0, 0), (0, 0), (1, 0)]), 0.0)
        with pytest.raises(SingularParameterizationError):
            curvature(jet)


class TestCurvatureArcDerivative:
    def test_collinear_is_zero(self):
        jet = evaluate(BezierCurve([(0, 0), (1, 1), (2, 2), (3, 3)]), 0.3)
        assert curvature_arc_derivative(jet) == pytest.approx(0.0, abs=1e-15)

    def test_matches_finite_differences(self):
        # Clothoid-like curvature ramp sampled as a higher-degree curve.
        curve = BezierCurve([(0, 0), (1, 0), (2, 0.1), (3, 0.5), (3.8, 1.3),
                             (4.2, 2.4), (4.3, 3.6)])
        h = 1e-6
        for u in (0.2, 0.5, 0.8):
            exact = curvature_arc_derivative(evaluate(curve, u))
            k_hi = curvature(evaluate(curve, u + h))
            k_lo = curvature(evaluate(curve, u - h))
            ds = arc_length(curve, u - h, u + h)
            fd = (k_hi - k_lo) / ds
            assert abs(fd - exact) / max(1.0, abs(exact)) < 1e-5

    def test_circle_arc_endpoint_near_zero(self):
        # A short arc keeps the cubic close to the constant-curvature circle.
        jet = evaluate(circle_arc(2.0, math.radians(20.0)), 0.0)
        assert abs(curvature_arc_derivative(jet)) < 1e-3


class TestGeometricInvariance:
    def test_degree_elevation_preserves_curvature(self):
        rng = np.random.default_rng(4)
        curve = random_regular_curve(rng)
        elevated = curve.elevated()
        for u in (0.0, 0.21, 0.5, 0.88, 1.0):
            j1, j2 = evaluate(curve, u), evaluate(elevated, u)
            assert curvature(j1) == pytest.approx(curvature(j2), abs=1e-9)
            assert curvature_arc_derivative(j1) == pytest.approx(
                curvature_arc_derivative(j2), abs=1e-9)

    def test_rigid_motion_invariance(self):
        rng = np.random.default_rng(5)
        curve = random_regular_curve(rng)
        angle, shift = 0.73, np.array([12.0, -4.5])
        rot = np.array([[math.cos(angle), -math.sin(angle)],
                        [math.sin(angle), math.cos(angle)]])
        moved = BezierCurve(curve.control_points @ rot.T + shift)
        for u in (0.1, 0.6, 0.95):
            assert curvature(evaluate(moved, u)) == pytest.approx(
                curvature(evaluate(curve, u)), abs=1e-9)
            assert curvature_arc_derivative(evaluate(moved, u)) == pytest.approx(
                curvature_arc_derivative(evaluate(curve, u)), abs=1e-9)

    def test_mirror_flips_curvature_sign(self):
        rng = np.random.default_rng(6)
        curve = random_regular_curve(rng)
        mirrored = BezierCurve(curve.control_points * np.array([1.0, -1.0]))
        k = curvature(evaluate(curve, 0.4))
        assert curvature(evaluate(mirrored, 0.4)) == pytest.approx(-k, abs=1e-12)


class TestGeometricContinuity:
    def test_identical_jets_unit_parameters(self):
        rng = np.random.default_rng(7)
        curve = random_regular_curve(rng)
        jet = evaluate(curve, 0.5)
        res = check_geometric_continuity(jet, jet, ShapeParameters(1.0, 0.0, 0.0),
                                         order=3)
        assert np.allclose(res, 0.0, atol=1e-12)

    def test_scaled_tangent(self):
        from agv_path_kit.curve import CurveJet
        left = CurveJet(np.zeros(2), np.array([2.0, 0.0]), np.zeros(2), np.zeros(2))
        right = CurveJet(np.zeros(2), np.array([1.0, 0.0]), np.zeros(2), np.zeros(2))
        res = check_geometric_continuity(left, right, ShapeParameters(2.0), order=1)
        assert res[1] == pytest.approx(0.0, abs=1e-15)

    def test_beta3_required_for_order_3(self):
        jet = evaluate(BezierCurve([(0, 0), (1, 0), (2, 1), (3, 1)]), 0.5)
        with pytest.raises(ValueError):
            check_geometric_continuity(jet, jet, ShapeParameters(1.0, 0.0), order=3)

    def test_overflowing_beta1_gives_inf_residuals_not_an_overflow_error(self):
        # beta1^2 and beta1^3 pass the float range: a Python float's ** raised
        # OverflowError here; `analyze_junction` reports such a junction with
        # non-finite residuals, and so does this check now.
        left, right = BezierCurve([(0, 0), (1, 0), (2, 1), (3, 1)]).split(0.4)
        res = check_geometric_continuity(evaluate(left, 1.0), evaluate(right, 0.0),
                                         ShapeParameters(1e200, 0.0, 0.0), order=3)
        assert res[0] == 0.0 and not np.isfinite(res[1:]).any()

    def test_beta1_must_be_positive(self):
        with pytest.raises(ValueError):
            ShapeParameters(0.0)
        with pytest.raises(ValueError):
            ShapeParameters(-1.0)

    def test_split_satisfies_chain_rule_parameters(self):
        rng = np.random.default_rng(8)
        for _ in range(10):
            curve = random_regular_curve(rng, degree=int(rng.integers(3, 7)))
            s = float(rng.uniform(0.2, 0.8))
            left, right = curve.split(s)
            params = ShapeParameters(s / (1.0 - s), 0.0, 0.0)
            res = check_geometric_continuity(evaluate(left, 1.0),
                                             evaluate(right, 0.0), params, order=3)
            assert np.all(res < 1e-9)

    def test_smoothed_layout_junction_is_third_order(self, layout_smoothed):
        left = layout_smoothed.segments[0].segment.curve
        right = layout_smoothed.segments[1].segment.curve
        lj, rj = evaluate(left, 1.0), evaluate(right, 0.0)
        # Recover the shape parameters from the junction itself.
        b1 = float(np.linalg.norm(lj.d1) / np.linalg.norm(rj.d1))
        q = float(rj.d1 @ rj.d1)
        b2 = float((lj.d2 - b1**2 * rj.d2) @ rj.d1) / q
        b3 = float((lj.d3 - b1**3 * rj.d3 - 3 * b1 * b2 * rj.d2) @ rj.d1) / q
        res = check_geometric_continuity(lj, rj, ShapeParameters(b1, b2, b3), order=3)
        assert np.all(res < 1e-9)

    def test_split_requires_interior_parameter(self):
        curve = BezierCurve([(0, 0), (1, 1)])
        with pytest.raises(ValueError):
            curve.split(0.0)
        with pytest.raises(ValueError):
            curve.split(1.0)


def exact_curvature_terms(jet):
    """kappa^2 and d(kappa)/ds of ``jet``'s float entries, as exact fractions."""
    (x1, y1), (x2, y2), (x3, y3) = ([Fraction(v) for v in d.tolist()]
                                    for d in (jet.d1, jet.d2, jet.d3))
    q = x1 * x1 + y1 * y1
    c12, c13 = x1 * y2 - y1 * x2, x1 * y3 - y1 * x3
    return c12 * c12 / q**3, c13 / q**2 - 3 * c12 * (x1 * x2 + y1 * y2) / q**3


@pytest.mark.parametrize("points", [
    [(0, 0), (1e60, 0), (2e60, 1e60), (3e60, 1e60)],
    [(0, 0), (1e150, 0), (2e150, 1e150), (3e150, 3e150)],
    [(0, 0), (1e-3, 0), (2e-3, 1e-3), (3e-3, 3e-3)],
])
def test_curvature_of_a_far_scaled_jet_is_exact_to_rounding(points):
    # A power of |C'| in Python floats raises OverflowError on the first two
    # jets, whose kappa and dkappa/ds are 0 and -2.8e-121, then 2.4e-151 and
    # -1.7e-301; the third is the same shape at an ordinary scale.
    jet = evaluate(BezierCurve(points), 0.5)
    kappa2, dkappa = exact_curvature_terms(jet)
    kappa = Fraction(curvature(jet))
    assert abs(kappa * kappa - kappa2) <= 2e-12 * kappa2
    assert abs(Fraction(curvature_arc_derivative(jet)) - dkappa) <= 1e-12 * abs(dkappa)
    assert dkappa != 0
