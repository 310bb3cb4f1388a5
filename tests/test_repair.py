"""Control-point repair: endpoint-jet prescription, rule sets, travel time."""

import dataclasses
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import agv_path_kit
from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated,
                          JunctionContext, PathSegment, RepairInfeasibleError,
                          RepairProblem, Tangential, VehicleModel, Wheel,
                          estimate_travel_time, parse_layout,
                          prescribe_endpoint_jet, repair_exponential,
                          repair_junction, repair_tangential)
from agv_path_kit.continuity import SMOOTH
from agv_path_kit.curve import evaluate
from agv_path_kit.kinematics import limit_profile_fast
from agv_path_kit.layouts import bundled_layout_text

from conftest import (NOMINAL_SMOOTHED_RIGHT, junction_of, random_regular_curve,
                      straight_segment)
from test_continuity import ctx_for


class TestPrescribeEndpointJet:
    def test_identity_prescription(self):
        rng = np.random.default_rng(0)
        curve = random_regular_curve(rng, degree=6)
        jet = curve.jet(0.0)
        new = prescribe_endpoint_jet(curve, "start", jet.d1, jet.d2, jet.d3)
        assert np.allclose(new.control_points, curve.control_points, atol=1e-12)

    def test_doubled_tangent_moves_only_first_interior_point(self):
        rng = np.random.default_rng(1)
        curve = random_regular_curve(rng, degree=6)
        jet = curve.jet(0.0)
        new = prescribe_endpoint_jet(curve, "start", 2.0 * jet.d1)
        p = curve.control_points
        expected_p1 = p[0] + 2.0 * (p[1] - p[0])
        assert np.allclose(new.control_points[1], expected_p1, atol=1e-12)
        assert np.allclose(new.control_points[0], p[0])
        assert np.allclose(new.control_points[2:], p[2:])

    def test_end_side_mirror(self):
        rng = np.random.default_rng(2)
        curve = random_regular_curve(rng, degree=6)
        jet = curve.jet(1.0)
        new = prescribe_endpoint_jet(curve, "end", jet.d1, jet.d2, jet.d3)
        assert np.allclose(new.control_points, curve.control_points, atol=1e-12)

    def test_prescription_is_exact(self):
        rng = np.random.default_rng(3)
        curve = random_regular_curve(rng, degree=6)
        d1 = np.array([2.5, 1.0])
        d2 = np.array([-4.0, 3.0])
        d3 = np.array([10.0, -20.0])
        for end, u in (("start", 0.0), ("end", 1.0)):
            new = prescribe_endpoint_jet(curve, end, d1, d2, d3)
            jet = evaluate(new, u)
            assert np.allclose(jet.d1, d1, atol=1e-10)
            assert np.allclose(jet.d2, d2, atol=1e-9)
            assert np.allclose(jet.d3, d3, atol=1e-8)

    def test_smoothed_fixture_jet_reproduces_its_points(self, layout_g1,
                                                        layout_smoothed):
        # Prescribing the smoothed curve's start jet onto the initial curve
        # must reproduce the smoothed control points: the map is linear and
        # only the three junction-adjacent points differ.
        initial = layout_g1.segments[1].segment.curve
        smoothed = layout_smoothed.segments[1].segment.curve
        jet = smoothed.jet(0.0)
        rebuilt = prescribe_endpoint_jet(initial, "start", jet.d1, jet.d2, jet.d3)
        assert np.allclose(rebuilt.control_points, smoothed.control_points,
                           atol=1e-9)
        # and those points sit within print precision of the nominal layout
        assert np.abs(rebuilt.control_points
                      - NOMINAL_SMOOTHED_RIGHT).max() < 2.5e-3

    def test_degree_too_low(self):
        curve = BezierCurve([(0, 0), (1, 0), (2, 0)])
        with pytest.raises(ValueError):
            prescribe_endpoint_jet(curve, "start", np.array([1, 0]),
                                   np.array([0, 0]), np.array([0, 0]))

    def test_contiguous_orders_required(self):
        curve = BezierCurve([(0, 0), (1, 0), (2, 0), (3, 0)])
        with pytest.raises(ValueError):
            prescribe_endpoint_jet(curve, "start", None, np.array([1.0, 0.0]))


@pytest.fixture(scope="module")
def fixture_repair(layout_g1):
    ctx = junction_of(layout_g1)
    return ctx, repair_tangential(RepairProblem(ctx, objective="min_travel_time"))


class TestTangentialRepair:
    def test_fixture_repair_is_smooth_and_fast(self, fixture_repair,
                                               layout_smoothed):
        _, result = fixture_repair
        assert result.report_after.verdict == SMOOTH
        # either close to the bundled smoothed geometry or at least as fast
        table = layout_smoothed.segments[1].segment
        t_table = estimate_travel_time(table, layout_smoothed.vehicle)
        close = np.abs(result.new_right_curve.control_points
                       - table.curve.control_points).max() < 5e-2
        assert close or result.objective_value <= t_table + 1e-9

    def test_far_points_untouched(self, fixture_repair):
        ctx, result = fixture_repair
        before = ctx.right.curve.control_points
        after = result.new_right_curve.control_points
        assert np.array_equal(before[0], after[0])
        assert np.array_equal(before[4:], after[4:])
        assert np.array_equal(ctx.left.curve.control_points,
                              result.new_left_curve.control_points)

    def test_min_displacement_on_smooth_junction_is_identity(self, layout_smoothed):
        ctx = junction_of(layout_smoothed)
        result = repair_tangential(RepairProblem(ctx, objective="min_displacement"))
        assert result.objective_value < 1e-9
        assert np.allclose(result.new_right_curve.control_points,
                           ctx.right.curve.control_points, atol=1e-6)

    def test_random_g1_junctions_all_repaired(self, two_wheel_vehicle):
        rng = np.random.default_rng(4)
        repaired = 0
        for _ in range(100):
            left = random_regular_curve(rng, degree=6)
            template = random_regular_curve(rng, degree=6)
            template = BezierCurve(template.control_points
                                   - template.control_points[0]
                                   + left.jet(1.0).position)
            right = prescribe_endpoint_jet(
                template, "start", left.jet(1.0).d1 / float(rng.uniform(0.5, 2)))
            ctx = ctx_for(left, right, two_wheel_vehicle)
            result = repair_tangential(RepairProblem(ctx,
                                                     objective="min_displacement"))
            assert result.report_after.verdict == SMOOTH
            repaired += 1
        assert repaired == 100

    def test_left_side_repair(self, layout_g1):
        ctx = junction_of(layout_g1)
        result = repair_tangential(RepairProblem(ctx, objective="min_displacement",
                                                 side="left"))
        assert result.report_after.verdict == SMOOTH
        assert np.array_equal(ctx.right.curve.control_points,
                              result.new_right_curve.control_points)
        before = ctx.left.curve.control_points
        after = result.new_left_curve.control_points
        assert np.array_equal(before[:3], after[:3])
        assert np.array_equal(before[6], after[6])

    def test_mode_mismatch_rejected(self, layout_g1):
        doc = layout_g1
        left = PathSegment(doc.segments[0].segment.curve, Tangential(0.0), 1.5)
        right = PathSegment(doc.segments[1].segment.curve, Tangential(0.3), 1.5)
        ctx = JunctionContext(left, right, doc.vehicle)
        with pytest.raises(RepairInfeasibleError):
            repair_tangential(RepairProblem(ctx))
        crab_right = PathSegment(doc.segments[1].segment.curve, Crab(0.0), 1.5)
        ctx = JunctionContext(left, crab_right, doc.vehicle)
        with pytest.raises(RepairInfeasibleError):
            repair_tangential(RepairProblem(ctx))


@pytest.fixture(scope="module")
def exponential_repair(layout_g1, layout_exponential):
    from agv_path_kit import ExponentialAnticipated
    alpha = layout_exponential.segments[0].segment.mode.alpha
    n = layout_exponential.segments[1].segment.mode.n
    left = PathSegment(layout_g1.segments[0].segment.curve, Tangential(alpha), 1.5)
    right = PathSegment(layout_g1.segments[1].segment.curve,
                        ExponentialAnticipated(alpha, n), 1.5)
    ctx = JunctionContext(left, right, layout_exponential.vehicle)
    return ctx, repair_exponential(RepairProblem(ctx, objective="min_travel_time"))


class TestExponentialRepair:
    def test_repair_is_smooth(self, exponential_repair):
        _, result = exponential_repair
        assert result.report_after.verdict == SMOOTH
        # both endpoint curvatures collapse to zero by construction
        for curve, u in ((result.new_left_curve, 1.0), (result.new_right_curve, 0.0)):
            jet = evaluate(curve, u)
            det = jet.d1[0] * jet.d2[1] - jet.d1[1] * jet.d2[0]
            assert abs(det) < 1e-9 * max(1.0, float(np.linalg.norm(jet.d2)))

    def test_junction_heading_preserved(self, exponential_repair):
        ctx, result = exponential_repair
        t_old = ctx.left_jet.d1 / np.linalg.norm(ctx.left_jet.d1)
        d1_new = evaluate(result.new_left_curve, 1.0).d1
        t_new = d1_new / np.linalg.norm(d1_new)
        assert np.allclose(t_old, t_new, atol=1e-9)

    def test_objective_not_worse_than_bundled_layout(self, exponential_repair,
                                                     layout_exponential):
        _, result = exponential_repair
        bundled = sum(estimate_travel_time(ls.segment, layout_exponential.vehicle)
                      for ls in layout_exponential.segments)
        assert result.objective_value <= bundled + 1e-6

    def test_collinear_straights_identity(self, two_wheel_vehicle):
        from agv_path_kit import ExponentialAnticipated
        left = BezierCurve([(x, 0.0) for x in np.linspace(0, 4, 7)])
        right = BezierCurve([(x, 0.0) for x in np.linspace(4, 8, 7)])
        ctx = ctx_for(left, right, two_wheel_vehicle, Tangential(0.0),
                      ExponentialAnticipated(0.0, 1.7))
        result = repair_exponential(RepairProblem(ctx, objective="min_displacement"))
        assert result.objective_value < 1e-12
        assert np.allclose(result.new_right_curve.control_points,
                           right.control_points, atol=1e-7)


class TestSearchReport:
    # The exponential rule set always edits both sides; ``side`` is unused.
    @pytest.mark.parametrize("name, side", [
        ("two_wheel_g1", "right"), ("two_wheel_g1", "left"),
        ("two_wheel_smoothed", "right"), ("two_wheel_smoothed", "left"),
        ("six_wheel_exponential", "right")])
    def test_bundled_min_displacement_repairs_converge(self, name, side):
        ctx = junction_of(parse_layout(bundled_layout_text(name)))
        exponential = isinstance(ctx.right.mode, ExponentialAnticipated)
        repair = repair_exponential if exponential else repair_tangential
        result = repair(RepairProblem(ctx, objective="min_displacement", side=side))
        assert result.converged is True
        # one start of a bracket and Brent search over beta1 alone: 10-27
        # evaluations, where a two-point Nelder-Mead simplex takes 62-75
        assert 0 < result.evaluations <= 30

    def test_min_travel_time_convergence_is_reported(self, fixture_repair,
                                                     exponential_repair,
                                                     record_property):
        results = {"two_wheel_g1": (fixture_repair[1], 3),
                   "two_wheel_g1 exponential": (exponential_repair[1], 3)}
        for result, starts in results.values():
            assert isinstance(result.converged, bool)
            assert 0 < result.evaluations <= starts * 400
        # Not converging is reported, not an error: these searches still
        # stop at their evaluation budget.
        record_property("min_travel_time_not_converged",
                        sorted(k for k, (r, _) in results.items() if not r.converged))

    def test_closed_form_parameters_beat_their_neighbours(self, layout_g1,
                                                          layout_exponential):
        from agv_path_kit.repair import (_exponential_candidate, _displacement,
                                         _tangential_candidate)

        def displacement(problem, built):
            # The candidates return row nets; a side left alone is its own rows.
            return (_displacement(problem._rows[0], built[1])
                    + _displacement(problem._rows[1], built[2]))

        # Beta1 alone is given; the solved (beta2, beta3), and (x_d1L, x_d2L,
        # x_d2R) with x_d1R = x_d1L / beta1, lie inside their boxes, so each
        # step about them moves no fewer points.
        for side in ("right", "left"):
            problem = RepairProblem(junction_of(layout_g1), "min_displacement", side)
            built = _tangential_candidate(problem, (1.1,), ((-1e3, 1e3), (-1e3, 1e3)))
            best = displacement(problem, built)
            assert max(map(abs, built[0][1:])) < 1e3
            for step in ((1, 0), (0, 1), (1, 1), (1, -1)):
                for sign in (-1e-4, 1e-4):
                    beta = np.array(built[0]) + sign * np.array([0.0, *step])
                    other = _tangential_candidate(problem, beta, None)
                    assert displacement(problem, other) >= best
        alpha = layout_exponential.segments[0].segment.mode.alpha
        left = PathSegment(layout_g1.segments[0].segment.curve, Tangential(alpha), 1.5)
        right = PathSegment(layout_g1.segments[1].segment.curve,
                            ExponentialAnticipated(alpha, 1.7), 1.5)
        problem = RepairProblem(JunctionContext(left, right, layout_exponential.vehicle),
                                "min_displacement")
        beta1 = 0.9 / 1.2
        built = _exponential_candidate(problem, (beta1,), 10.0)
        best = displacement(problem, built)
        x1, x2, _, x4 = built[0]
        assert 0.1 < x1 < 10.0 and 0.1 < x1 / beta1 < 10.0 and max(abs(x2), abs(x4)) < 10.0
        for step in ((1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 0), (1, 0, -1), (0, 1, 1)):
            for sign in (-1e-4, 1e-4):
                y1, y2, y4 = np.array([x1, x2, x4]) + sign * np.array(step)
                other = _exponential_candidate(problem, (y1, y2, y1 / beta1, y4), 10.0)
                assert displacement(problem, other) >= best


class TestTravelTime:
    def test_straight_segment_closed_form(self, two_wheel_vehicle):
        t = estimate_travel_time(straight_segment(length=3.0, v_max=1.5),
                                 two_wheel_vehicle)
        assert t == pytest.approx(2.0, abs=1e-9)

    def test_halving_actuator_limits_doubles_time(self):
        rng = np.random.default_rng(5)
        curve = random_regular_curve(rng)
        # huge segment limit so only actuator constraints bind
        seg = PathSegment(curve, Tangential(0.0), 1e9)
        full = VehicleModel((Wheel("w1", (1.0, 0.5), 1.7, math.radians(45)),
                             Wheel("w2", (-1.0, -0.5), 1.7, math.radians(45))))
        half = VehicleModel((Wheel("w1", (1.0, 0.5), 0.85, math.radians(22.5)),
                             Wheel("w2", (-1.0, -0.5), 0.85, math.radians(22.5))))
        t_full = estimate_travel_time(seg, full)
        t_half = estimate_travel_time(seg, half)
        assert t_half == pytest.approx(2.0 * t_full, rel=1e-9)

    def test_speed_comes_from_the_limit_jets(self, layout_exponential, monkeypatch):
        vehicle = layout_exponential.vehicle
        orders = []
        original = BezierCurve.derivatives_many

        def counting(curve, us, order, **kwargs):
            orders.append(order)
            return original(curve, us, order, **kwargs)

        monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
        for ls in layout_exponential.segments:
            orders.clear()
            assert math.isfinite(estimate_travel_time(ls.segment, vehicle))
            # Tangential: one order-3 call at the nodes gives the curve jets, |C'|,
            # the heading and its rates. Exponential: the curve jets (order 2) at
            # the nodes and the law's one order-3 call at g(nodes).
            tangential = isinstance(ls.segment.mode, Tangential)
            assert sorted(orders) == ([3] if tangential else [2, 3])
        monkeypatch.undo()
        us = np.linspace(0.0, 1.0, 192)
        for ls in layout_exponential.segments:
            seg = ls.segment
            _, speed = limit_profile_fast(seg.curve, seg.mode, seg.v_max, vehicle, us)
            d1 = seg.curve.derivatives_many(us, 1)[1]
            assert speed.tolist() == np.hypot(d1[:, 0], d1[:, 1]).tolist()

    def test_fixture_comparison_recorded(self, layout_g1, layout_smoothed):
        t_initial = estimate_travel_time(layout_g1.segments[1].segment,
                                         layout_g1.vehicle)
        t_smoothed = estimate_travel_time(layout_smoothed.segments[1].segment,
                                          layout_smoothed.vehicle)
        assert math.isfinite(t_initial) and math.isfinite(t_smoothed)
        # continuity constraints cost travel time on the downstream segment
        assert t_smoothed > t_initial


def four_wheel_g1_text() -> str:
    """two_wheel_g1's segments on four wheels, one of them at the origin."""
    doc = json.loads(bundled_layout_text("two_wheel_g1"))
    doc["vehicle"]["wheels"] = [
        {"id": wid, "position_m": list(r_w), "v_max_mps": v_max, "omega_max_degps": omega}
        for wid, r_w, v_max, omega in (("c", (0.0, 0.0), 1.7, 45.0), ("w1", (1.0, 0.5), 1.7, 45.0),
                                       ("w2", (-1.0, -0.5), 1.7, 45.0),
                                       ("w3", (0.8, -0.6), 1.2, 30.0))]
    return json.dumps(doc)


# The min_travel_time repairs of the bundled layouts and of four_wheel_g1:
# objective (repr), evaluations, converged, and each moved point as (side,
# index, before, after). The planar
# products behind them are elementwise float arithmetic, so the pins hold
# under every BLAS kernel; the searches stop at their evaluation budget, so
# an ulp anywhere in the objective moves these digits.
GOLDEN_TRAVEL_TIME_REPAIRS = {
    ("two_wheel_g1", "right"): ("4.208581230475475", 1200, False, [
        ("right", 1, (5.025, -0.625),
         (4.762721689313783, -1.0621305178103617)),
        ("right", 2, (5.43, 0.15),
         (5.042651247784153, -0.35016725889881095)),
        ("right", 3, (5.873, 0.787),
         (5.1091716166600865, 0.733390739348112)),
    ]),
    ("two_wheel_g1", "left"): ("3.3943909276990136", 1200, False, [
        ("left", 3, (2.766, -2.991),
         (3.5923025059867655, -2.8912543399392336)),
        ("left", 4, (3.525, -2.625),
         (3.7531655325139823, -2.736409596067981)),
        ("left", 5, (4.125, -2.125),
         (4.348616758353111, -1.752305402744815)),
    ]),
    ("four_wheel_g1", "right"): ("4.56480279878727", 1200, False, [
        ("right", 1, (5.025, -0.625),
         (4.751748547424897, -1.080419087625172)),
        ("right", 2, (5.43, 0.15),
         (5.027738675707495, -0.3950939186900131)),
        ("right", 3, (5.873, 0.787),
         (5.151638041255248, 0.714393510950174)),
    ]),
    ("six_wheel_exponential", "right"): ("7.392079610908477", 1200, False, [
        ("left", 4, (3.495441176470587, -3.1742647058823525),
         (3.6097440198882715, -2.9837599668528787)),
        ("left", 5, (4.039147058823529, -2.2680882352941176),
         (4.01595813263545, -2.3067364456075827)),
        ("right", 1, (4.847294117647059, -0.9211764705882352),
         (5.035668926664494, -0.6072184555591774)),
        ("right", 2, (5.2170000000000005, -0.30500000000000016),
         (5.3786488562627515, -0.035585239562082815)),
        ("right", 3, (5.62435284977111, 0.1667522761443705),
         (5.77062577774206, -0.03837588856026386)),
    ]),
}


@pytest.mark.parametrize("name, side", list(GOLDEN_TRAVEL_TIME_REPAIRS))
def test_bundled_min_travel_time_repairs_are_unchanged(name, side):
    text = four_wheel_g1_text() if name == "four_wheel_g1" else bundled_layout_text(name)
    ctx = junction_of(parse_layout(text))
    result = repair_junction(RepairProblem(ctx, objective="min_travel_time", side=side))
    value, evaluations, converged, moved = GOLDEN_TRAVEL_TIME_REPAIRS[name, side]
    assert repr(result.objective_value) == value
    assert (result.evaluations, result.converged) == (evaluations, converged)
    assert [(p["side"], p["index"], tuple(p["before"]), tuple(p["after"]))
            for p in result.moved_points] == moved


@pytest.mark.parametrize("name", ["two_wheel_g1", "six_wheel_exponential"])
def test_offset_gaps_that_check_accepts_are_repaired(name):
    # check calls angle offsets equal up to Tolerances.angle; both rule sets
    # take that threshold, and refuse a larger gap with one message.
    doc = parse_layout(bundled_layout_text(name))
    left, right = doc.segments[0].segment, doc.segments[1].segment
    for shift, accepted in ((5e-9, True), (2e-8, False)):
        mode = dataclasses.replace(right.mode, alpha=right.mode.alpha + shift)
        ctx = JunctionContext(left, PathSegment(right.curve, mode, right.v_max), doc.vehicle)
        problem = RepairProblem(ctx, objective="min_displacement")
        if accepted:
            assert repair_junction(problem).report_after.verdict == SMOOTH
        else:
            with pytest.raises(RepairInfeasibleError, match="angle offsets must match"):
                repair_junction(problem)


@pytest.mark.parametrize("name, side, keep, message", [
    ("two_wheel_g1", "left", 4, "tangential repair needs degree >= 4 on segment 's1', "
                                "which has degree 3"),
    ("six_wheel_exponential", "right", 3, "exponential repair needs degree >= 3 on "
                                          "segment 's1', which has degree 2"),
])
def test_degree_deficient_left_side_is_refused_by_name(name, side, keep, message):
    # The rules move the points of s1 next to the junction, its last ones:
    # keeping only the last `keep` leaves too few for its start to stay.
    doc = parse_layout(bundled_layout_text(name))
    left, right = doc.segments[0].segment, doc.segments[1].segment
    short = PathSegment(BezierCurve(left.curve.control_points[-keep:]), left.mode, left.v_max)
    ctx = JunctionContext(short, right, doc.vehicle, "s1", "s2")
    for objective in ("min_travel_time", "min_displacement"):
        with pytest.raises(RepairInfeasibleError) as info:
            repair_junction(RepairProblem(ctx, objective=objective, side=side))
        assert str(info.value) == message


@pytest.mark.parametrize("objective", ["min_travel_time", "min_displacement"])
def test_repair_with_n_past_the_square_range_is_infeasible_not_a_traceback(objective,
                                                                           tmp_path):
    # six_wheel_exponential with n = 1e200 on s2: beta1^3 n^2 is past the
    # float range for every multiplier, so no finite right jet meets the
    # order-3 condition and every candidate is inadmissible. The RuntimeWarnings
    # the junction's end states print for this n are not this test's concern.
    doc = json.loads(bundled_layout_text("six_wheel_exponential"))
    doc["segments"][1]["mode"]["n"] = 1e200
    layout = tmp_path / "huge_n.json"
    layout.write_text(json.dumps(doc))
    src = str(Path(agv_path_kit.__file__).resolve().parents[1])
    done = subprocess.run([sys.executable, "-m", "agv_path_kit", "repair", str(layout),
                           "--objective", objective], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": src})
    assert done.returncode == 1
    assert "Traceback" not in done.stderr
    assert done.stderr.splitlines()[-1] == \
        "error: repair infeasible: no admissible multipliers found in bounds"
