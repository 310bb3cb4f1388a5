"""Junction analysis: extraction, verdicts, audits, and the special rule sets."""

import math

import numpy as np
import pytest

from agv_path_kit import (BezierCurve, Crab, DegenerateGeometryError, ExponentialDelayed,
                          ExponentialAnticipated, JunctionContext, Path,
                          PathSegment, Tangential,
                          VehicleModel, Wheel, analyze_junction,
                          audit_wheel_continuity, check_exponential_junction,
                          check_path, check_tangential_junction,
                          extract_shape_parameters)
from agv_path_kit.continuity import DISCONTINUOUS, SMOOTH, SMOOTH_AT_REST_ONLY
from agv_path_kit.repair import prescribe_endpoint_jet

from conftest import junction_of, random_regular_curve


def ctx_for(left_curve, right_curve, vehicle, left_mode=Tangential(0.0),
            right_mode=None):
    right_mode = right_mode if right_mode is not None else left_mode
    return JunctionContext(PathSegment(left_curve, left_mode, 1.5),
                           PathSegment(right_curve, right_mode, 1.5), vehicle)


def smooth_tangential_junction(rng, vehicle, beta=None, alpha=0.0):
    """A junction that satisfies the shared conditions exactly by construction."""
    left = random_regular_curve(rng, degree=6)
    right_template = random_regular_curve(rng, degree=6)
    lj = left.jet(1.0)
    offset = lj.position - right_template.control_points[0]
    right_template = BezierCurve(right_template.control_points + offset)
    if beta is None:
        beta = (float(rng.uniform(0.5, 2.0)), float(rng.uniform(-2, 2)),
                float(rng.uniform(-5, 5)))
    b1, b2, b3 = beta
    d1 = lj.d1 / b1
    d2 = (lj.d2 - b2 * d1) / b1**2
    d3 = (lj.d3 - 3 * b1 * b2 * d2 - b3 * d1) / b1**3
    right = prescribe_endpoint_jet(right_template, "start", d1, d2, d3)
    mode = Tangential(alpha)
    return ctx_for(left, right, vehicle, mode, mode), (b1, b2, b3)


class TestExtraction:
    def test_split_at_midpoint(self, two_wheel_vehicle):
        rng = np.random.default_rng(0)
        curve = random_regular_curve(rng)
        left, right = curve.split(0.5)
        ctx = ctx_for(left, right, two_wheel_vehicle)
        params = extract_shape_parameters(ctx)
        assert params.beta1 == pytest.approx(1.0, abs=1e-9)
        assert params.beta2 == pytest.approx(0.0, abs=1e-9)

    def test_split_at_general_point(self, two_wheel_vehicle):
        rng = np.random.default_rng(1)
        curve = random_regular_curve(rng)
        s = 0.3
        left, right = curve.split(s)
        ctx = ctx_for(left, right, two_wheel_vehicle)
        params = extract_shape_parameters(ctx)
        assert params.beta1 == pytest.approx(s / (1 - s), rel=1e-9)

    def test_crab_junction_falls_back_to_curve_route(self, two_wheel_vehicle):
        rng = np.random.default_rng(2)
        curve = random_regular_curve(rng)
        left, right = curve.split(0.25)
        ctx = ctx_for(left, right, two_wheel_vehicle, Crab(0.3), Crab(0.3))
        params = extract_shape_parameters(ctx)
        lj, rj = left.jet(1.0), right.jet(0.0)
        speed_ratio = np.linalg.norm(lj.d1) / np.linalg.norm(rj.d1)
        assert params.beta1 == pytest.approx(float(speed_ratio), rel=1e-12)

    def test_smoothed_fixture_extraction(self, layout_smoothed):
        params = extract_shape_parameters(junction_of(layout_smoothed))
        assert params.beta1 == pytest.approx(1.1615195, abs=1e-6)
        assert params.beta2 == pytest.approx(-0.9808932, abs=1e-6)

    def test_g1_fixture_extraction_is_the_report_beta(self, layout_g1):
        ctx = junction_of(layout_g1)
        params, beta = extract_shape_parameters(ctx), analyze_junction(ctx).beta
        for name in ("beta1", "beta2", "beta3"):
            assert getattr(params, name) == getattr(beta, name), name
        # The orientation-rate ratio (7.0 here) only feeds the report's note.
        assert params.beta1 == pytest.approx(5.0 / 7.0, rel=1e-12)

    def test_report_holds_python_floats(self, layout_g1, layout_exponential):
        # beta1 was a numpy float, so that its powers overflowed to inf, and
        # every value computed from it was one too.
        report = analyze_junction(junction_of(layout_g1))
        values = [getattr(report.beta, name) for name in ("beta1", "beta2", "beta3")]
        values += [report.g0_position, report.g0_orientation, report.curve_g1,
                   report.curve_g2, report.curve_g3, report.mode_g1, report.mode_g2]
        assert all(type(v) is float for v in values), [type(v) for v in values]
        assert type(check_exponential_junction(junction_of(layout_exponential)).beta1) is float

    def test_reversal_raises(self, two_wheel_vehicle):
        left = BezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
        right = BezierCurve([(3, 0), (2, 0), (1, 0), (0, 0)])
        ctx = ctx_for(left, right, two_wheel_vehicle, Crab(0.0), Crab(0.0))
        with pytest.raises(DegenerateGeometryError):
            extract_shape_parameters(ctx)


class TestVerdicts:
    def test_g1_fixture_signature(self, layout_g1):
        report = analyze_junction(junction_of(layout_g1))
        assert report.verdict == DISCONTINUOUS
        assert report.g0_position <= 1e-9
        assert report.g0_orientation <= 1e-9
        assert report.curve_g1 <= 1e-6
        assert report.curve_g2 > 1e-6
        assert report.mode_g1 > 1e-6
        assert any("disagrees" in n for n in report.notes)

    def test_smoothed_fixture_is_smooth(self, layout_smoothed):
        report = analyze_junction(junction_of(layout_smoothed))
        assert report.verdict == SMOOTH
        assert max(report.curve_g1, report.curve_g2, report.mode_g1,
                   report.mode_g2) < 1e-9

    def test_exponential_fixture_is_smooth(self, layout_exponential):
        report = analyze_junction(junction_of(layout_exponential))
        assert report.verdict == SMOOTH
        assert max(report.curve_g1, report.curve_g2, report.mode_g1,
                   report.mode_g2) < 1e-9

    def test_crab_curvature_mismatch_is_rest_only(self, two_wheel_vehicle):
        rng = np.random.default_rng(3)
        left = random_regular_curve(rng, degree=5)
        lj = left.jet(1.0)
        template = random_regular_curve(rng, degree=5)
        template = BezierCurve(template.control_points
                               - template.control_points[0] + lj.position)
        # first-order match only: tangent aligned, second derivative free
        right = prescribe_endpoint_jet(template, "start", lj.d1 / 1.4)
        ctx = ctx_for(left, right, two_wheel_vehicle, Crab(0.1), Crab(0.1))
        report = analyze_junction(ctx)
        assert report.verdict == SMOOTH_AT_REST_ONLY

    def test_heading_reversal_is_rest_only(self, two_wheel_vehicle):
        left = BezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
        right = BezierCurve([(3, 0), (2, 0), (1, 0), (0, 0)])
        ctx = ctx_for(left, right, two_wheel_vehicle, Crab(0.0), Crab(0.0))
        report = analyze_junction(ctx)
        assert report.verdict == SMOOTH_AT_REST_ONLY
        assert report.beta is None
        assert any("reversal" in n for n in report.notes)

    def test_constructed_smooth_junctions(self, two_wheel_vehicle):
        rng = np.random.default_rng(4)
        for _ in range(10):
            ctx, beta = smooth_tangential_junction(rng, two_wheel_vehicle)
            report = analyze_junction(ctx)
            assert report.verdict == SMOOTH
            assert report.beta.beta1 == pytest.approx(beta[0], rel=1e-9)

    def test_gap_refusal(self, two_wheel_vehicle):
        left = BezierCurve([(0, 0), (1, 0)])
        right = BezierCurve([(1.1, 0), (2, 0)])
        with pytest.raises(DegenerateGeometryError):
            ctx_for(left, right, two_wheel_vehicle)


class TestWheelAudit:
    def test_shared_parameters_propagate_to_wheels(self, layout_smoothed,
                                                   layout_exponential):
        for doc in (layout_smoothed, layout_exponential):
            ctx = junction_of(doc)
            params = extract_shape_parameters(ctx)
            for audit in audit_wheel_continuity(ctx):
                assert audit.beta_w1 == pytest.approx(params.beta1, abs=1e-9)
                assert audit.beta_w2 == pytest.approx(params.beta2, abs=1e-9)
                assert audit.g1_residual < 1e-9
                assert audit.g2_residual < 1e-9

    def test_zero_offset_wheel_reproduces_vehicle_check(self, layout_smoothed):
        doc = layout_smoothed
        vehicle = VehicleModel((Wheel("c", (0.0, 0.0), 1.7, 1.0),))
        ctx = JunctionContext(doc.segments[0].segment, doc.segments[1].segment,
                              vehicle)
        params = extract_shape_parameters(ctx)
        audit = audit_wheel_continuity(ctx)[0]
        assert audit.beta_w1 == pytest.approx(params.beta1, abs=1e-12)
        assert audit.beta_w2 == pytest.approx(params.beta2, abs=1e-12)

    def test_broken_junction_fails_some_wheel(self, layout_g1):
        audits = audit_wheel_continuity(junction_of(layout_g1))
        assert any(a.g2_residual > 1e-6 for a in audits)

    def test_infinite_second_derivative_has_no_finite_beta_w2(self):
        # theta'' is infinite at the flat end (u = 1) of an anticipated law
        # with n = 1.5, so the left wheel's second derivative is not finite.
        left, right = BezierCurve([(0, 0), (1, 0.3), (2, 1), (3, 0.8), (4, 1.5)]).split(0.5)
        vehicle = VehicleModel((Wheel("w", (0.5, 0.2), 1.0, 1.0),))
        ctx = ctx_for(left, right, vehicle, ExponentialAnticipated(0.0, 1.5))
        assert analyze_junction(ctx).mode_g2 == math.inf
        (audit,) = audit_wheel_continuity(ctx)
        assert math.isnan(audit.beta_w2) and audit.g2_residual == math.inf
        assert math.isfinite(audit.beta_w1) and math.isfinite(audit.g1_residual)


def test_junction_context_evaluates_no_curve(two_wheel_vehicle, monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a junction side reads its derivative nets")

    curves = BezierCurve([(0, 0), (1, 0.3), (2, 1), (3, 0.8), (4, 1.5)]).split(0.4)
    sides = [[PathSegment(curve, mode, 1.0) for curve in curves]
             for mode in (Tangential(0.2), Crab(-0.3), ExponentialDelayed(0.1, 1.5),
                          ExponentialAnticipated(0.1, 2.5))]
    monkeypatch.setattr(BezierCurve, "derivatives_many", refuse)
    for left, right in sides:
        # Every law reads the end jets: g(u) == u at both ends of an exponential one.
        analyze_junction(JunctionContext(left, right, two_wheel_vehicle))


class TestTangentialRuleSet:
    def test_smoothed_fixture(self, layout_smoothed):
        checks = check_tangential_junction(junction_of(layout_smoothed))
        assert checks.verdict == SMOOTH
        assert checks.kappa_residual < 1e-9
        assert checks.dkappa_ds_residual < 1e-9
        assert checks.agrees_with_general_check

    def test_g1_fixture(self, layout_g1):
        checks = check_tangential_junction(junction_of(layout_g1))
        assert checks.verdict == DISCONTINUOUS
        assert checks.kappa_residual > 0.3
        assert checks.agrees_with_general_check

    def test_collinear_straights(self, two_wheel_vehicle):
        left = BezierCurve([(0, 0), (1, 0), (2, 0)])
        right = BezierCurve([(2, 0), (3, 0), (4, 0)])
        ctx = ctx_for(left, right, two_wheel_vehicle)
        checks = check_tangential_junction(ctx)
        assert checks.verdict == SMOOTH
        assert checks.kappa_residual == pytest.approx(0.0, abs=1e-12)
        assert checks.dkappa_ds_residual == pytest.approx(0.0, abs=1e-12)

    def test_unequal_offsets_fail(self, two_wheel_vehicle):
        rng = np.random.default_rng(5)
        curve = random_regular_curve(rng)
        left, right = curve.split(0.5)
        ctx = ctx_for(left, right, two_wheel_vehicle, Tangential(0.0),
                      Tangential(0.2))
        checks = check_tangential_junction(ctx)
        assert checks.alpha_gap == pytest.approx(0.2, abs=1e-12)
        assert checks.verdict == DISCONTINUOUS

    def test_requires_tangential_modes(self, layout_exponential):
        with pytest.raises(ValueError):
            check_tangential_junction(junction_of(layout_exponential))

    def test_agreement_on_random_junctions(self, two_wheel_vehicle):
        rng = np.random.default_rng(6)
        for trial in range(15):
            if trial % 2 == 0:
                ctx, _ = smooth_tangential_junction(rng, two_wheel_vehicle)
            else:
                left = random_regular_curve(rng, degree=6)
                template = random_regular_curve(rng, degree=6)
                template = BezierCurve(template.control_points
                                       - template.control_points[0]
                                       + left.jet(1.0).position)
                right = prescribe_endpoint_jet(template, "start",
                                               left.jet(1.0).d1 * 0.8)
                ctx = ctx_for(left, right, two_wheel_vehicle)
            checks = check_tangential_junction(ctx)
            assert checks.agrees_with_general_check


class TestExponentialRuleSet:
    def test_exponential_fixture(self, layout_exponential):
        checks = check_exponential_junction(junction_of(layout_exponential))
        assert checks.verdict == SMOOTH
        assert checks.kappa_left < 1e-9
        assert checks.kappa_right < 1e-9
        assert checks.tangent_parallel_residual < 1e-9
        assert checks.d2_parallel_left < 1e-9
        assert checks.d2_parallel_right < 1e-9
        assert checks.third_derivative_residual < 1e-9

    def test_smoothed_curves_fail_exponential_rule(self, layout_smoothed,
                                                   layout_exponential):
        # Curvature does not vanish at the smoothed tangential junction, so
        # the same geometry cannot support the exponential handover.
        left = PathSegment(layout_smoothed.segments[0].segment.curve,
                           layout_exponential.segments[0].segment.mode, 1.5)
        right = PathSegment(layout_smoothed.segments[1].segment.curve,
                            layout_exponential.segments[1].segment.mode, 1.5)
        ctx = JunctionContext(left, right, layout_exponential.vehicle)
        checks = check_exponential_junction(ctx)
        assert checks.verdict == DISCONTINUOUS
        assert checks.kappa_left > 0.3
        assert checks.kappa_right > 0.3

    def test_collinear_straights_pass(self, two_wheel_vehicle):
        left = BezierCurve([(0, 0), (1, 0), (2, 0), (3, 0), (4, 0)])
        right = BezierCurve([(4, 0), (5, 0), (6, 0), (7, 0), (8, 0)])
        ctx = ctx_for(left, right, two_wheel_vehicle, Tangential(0.0),
                      ExponentialAnticipated(0.0, 1.7))
        checks = check_exponential_junction(ctx)
        assert checks.verdict == SMOOTH

    def test_mode_pair_validated(self, layout_smoothed):
        with pytest.raises(ValueError):
            check_exponential_junction(junction_of(layout_smoothed))

    @pytest.mark.parametrize("scale, n", [(1e110, 1.7), (1.0, 1e200)],
                             ids=["left-scaled-1e110", "n-1e200"])
    def test_overflowing_rhs_is_discontinuous_not_an_overflow(self, layout_exponential,
                                                              scale, n):
        # s1 scaled by 1e110 about the junction makes beta1 about 1.3e110, and
        # n = 1e200 squares past the float range: either way beta1^3 n^2 d3 is
        # not finite. The third-derivative residual is infinite and the verdict
        # discontinuous, as analyze_junction's is.
        left, right = (ls.segment for ls in layout_exponential.segments)
        net = left.curve.control_points
        far = PathSegment(BezierCurve(net[-1] + (net - net[-1]) * scale), left.mode,
                          left.v_max)
        right = PathSegment(right.curve, ExponentialAnticipated(right.mode.alpha, n),
                            right.v_max)
        with np.errstate(over="ignore", invalid="ignore"):
            ctx = JunctionContext(far, right, layout_exponential.vehicle)
            checks = check_exponential_junction(ctx)
            assert analyze_junction(ctx).verdict == DISCONTINUOUS
        assert checks.beta1 == pytest.approx(1.3269817073170733 * scale)
        assert checks.third_derivative_residual == math.inf
        assert checks.verdict == DISCONTINUOUS


class TestPathChecks:
    def test_single_segment_has_no_junctions(self, two_wheel_vehicle):
        rng = np.random.default_rng(7)
        path = Path((PathSegment(random_regular_curve(rng), Tangential(0.0), 1.5),))
        assert check_path(path, two_wheel_vehicle) == []

    def test_fixture_paths(self, layout_g1, layout_smoothed):
        reports = check_path(layout_g1.path(), layout_g1.vehicle)
        assert [r.verdict for r in reports] == [DISCONTINUOUS]
        reports = check_path(layout_smoothed.path(), layout_smoothed.vehicle)
        assert [r.verdict for r in reports] == [SMOOTH]

    def test_split_invariance(self, layout_smoothed):
        # Splitting a segment of a smooth path introduces a junction that is
        # parametrically continuous up to the split-speed ratio.
        rng = np.random.default_rng(8)
        doc = layout_smoothed
        for _ in range(5):
            s = float(rng.uniform(0.2, 0.8))
            first = doc.segments[0].segment
            a, b = first.curve.split(s)
            path = Path((PathSegment(a, first.mode, first.v_max),
                         PathSegment(b, first.mode, first.v_max),
                         doc.segments[1].segment))
            reports = check_path(path, doc.vehicle)
            assert [r.verdict for r in reports] == [SMOOTH, SMOOTH]
            assert reports[0].beta.beta1 == pytest.approx(s / (1 - s), rel=1e-9)

    def test_scaling_changes_beta_not_verdict(self, two_wheel_vehicle):
        rng = np.random.default_rng(9)
        ctx, beta = smooth_tangential_junction(rng, two_wheel_vehicle)
        # Replace the left segment by its tail piece: same geometry traversed
        # with a faster parameterization.
        tail = ctx.left.curve.split(0.35)[1]
        ctx2 = ctx_for(tail, ctx.right.curve, two_wheel_vehicle)
        r1 = analyze_junction(ctx)
        r2 = analyze_junction(ctx2)
        assert r1.verdict == r2.verdict == SMOOTH
        assert r2.beta.beta1 == pytest.approx(r1.beta.beta1 * (1 - 0.35), rel=1e-9)


def test_tolerance_environment_override(monkeypatch):
    from agv_path_kit import Tolerances
    monkeypatch.delenv("AGV_PATH_KIT_TOL", raising=False)
    assert Tolerances.default().relative == 1e-6
    monkeypatch.setenv("AGV_PATH_KIT_TOL", "1e-4")
    assert Tolerances.default().relative == 1e-4


@pytest.mark.parametrize("name", ["position", "angle", "relative"])
@pytest.mark.parametrize("value", [-1e-6, math.nan, math.inf, -math.inf])
def test_tolerances_reject_negative_and_non_finite(name, value):
    from agv_path_kit import Tolerances
    with pytest.raises(ValueError, match=name):
        Tolerances(**{name: value})


def test_tolerances_accept_zero():
    from agv_path_kit import Tolerances
    assert Tolerances(0.0, 0.0, 0.0).relative == 0.0


@pytest.mark.parametrize("value", ["abc", "-1e-4", "nan"])
def test_tolerance_environment_rejects_bad_values(monkeypatch, value):
    from agv_path_kit import Tolerances
    monkeypatch.setenv("AGV_PATH_KIT_TOL", value)
    with pytest.raises(ValueError, match="AGV_PATH_KIT_TOL"):
        Tolerances.default()


def test_check_junctions_labels_and_refuses(layout_smoothed):
    from agv_path_kit.continuity import check_junctions
    left, right = (ls.segment for ls in layout_smoothed.segments)
    shifted = PathSegment(BezierCurve(right.curve.control_points + [0.01, 0.0]),
                          right.mode, right.v_max)
    reports = check_junctions([("L", left, "R", right), ("L", left, "X", shifted)],
                              layout_smoothed.vehicle)
    assert [(r.left_id, r.right_id, r.verdict) for r in reports] == [
        ("L", "R", SMOOTH), ("L", "X", DISCONTINUOUS)]
    assert math.isinf(reports[1].curve_g1) and reports[1].beta is None
    assert "do not share a junction point" in reports[1].notes[0]
