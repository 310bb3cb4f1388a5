"""Wheel-level kinematics: wheel jets, states, ratios, speed limits, profiles."""

import math
from types import SimpleNamespace

import numpy as np
import pytest

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed, Path,
                          PathSegment, Tangential, VehicleModel, Wheel, curvature, evaluate,
                          plan_velocity, profile_segment, speed_limit,
                          wheel_curve_jet, wheel_speed_limit, wheel_state)
from agv_path_kit import kinematics, motion
from agv_path_kit.curve import _hodograph_certifies
from agv_path_kit.kinematics import (_wheel_track_arrays, limit_profile_fast,
                                     wheel_end_jet)
from agv_path_kit.motion import _UNWRAP_U

from conftest import random_regular_curve, straight_segment
from test_curve import circle_arc


def wheel(wid, x, y, v_max=1.7, omega_max_deg=45.0):
    return Wheel(wid, (x, y), v_max, math.radians(omega_max_deg))


class TestWheelJets:
    def test_zero_offset_wheel_equals_vehicle_jet(self):
        rng = np.random.default_rng(0)
        for mode in (Tangential(0.3), Crab(-0.4)):
            seg = PathSegment(random_regular_curve(rng), mode, 1.5)
            w = wheel("c", 0.0, 0.0)
            for u in (0.0, 0.41, 1.0):
                wj = wheel_curve_jet(seg, w, u, order=3)
                vj = evaluate(seg.curve, u, order=3)
                assert np.allclose(wj.position, vj.position, atol=1e-15)
                assert np.allclose(wj.d1, vj.d1, atol=1e-15)
                assert np.allclose(wj.d2, vj.d2, atol=1e-15)
                assert np.allclose(wj.d3, vj.d3, atol=1e-15)

    def test_crab_mode_translates_the_curve(self):
        rng = np.random.default_rng(1)
        seg = PathSegment(random_regular_curve(rng), Crab(0.7), 1.5)
        w = wheel("w", 0.8, -0.3)
        rot = np.array([[math.cos(0.7), -math.sin(0.7)],
                        [math.sin(0.7), math.cos(0.7)]])
        offset = rot @ np.array(w.r_w)
        for u in (0.1, 0.6):
            wj = wheel_curve_jet(seg, w, u, order=2)
            vj = evaluate(seg.curve, u, order=2)
            assert np.allclose(wj.position, vj.position + offset, atol=1e-12)
            assert np.allclose(wj.d1, vj.d1, atol=1e-15)
            assert np.allclose(wj.d2, vj.d2, atol=1e-15)

    def test_concentric_circle_wheel_curvature(self):
        seg = PathSegment(circle_arc(2.0, math.pi / 2.0), Tangential(0.0), 1.5)
        for d in (0.5, -0.5):
            st = wheel_state(seg, wheel("w", 0.0, d), 0.0)
            assert st.kappa_w == pytest.approx(1.0 / (2.0 - d), abs=1e-3)

    def test_finite_difference_consistency_of_wheel_jet(self):
        rng = np.random.default_rng(2)
        h = 1e-6
        seg = PathSegment(random_regular_curve(rng), Tangential(0.2), 1.5)
        w = wheel("w", 0.9, 0.4)
        u = 0.37
        lo = wheel_curve_jet(seg, w, u - h, order=2)
        hi = wheel_curve_jet(seg, w, u + h, order=2)
        mid = wheel_curve_jet(seg, w, u, order=3)
        assert np.allclose((hi.position - lo.position) / (2 * h), mid.d1, rtol=1e-5)
        assert np.allclose((hi.d1 - lo.d1) / (2 * h), mid.d2, rtol=1e-5)
        assert np.allclose((hi.d2 - lo.d2) / (2 * h), mid.d3,
                           rtol=1e-4, atol=1e-4)


class TestWheelStates:
    def test_straight_segment_plain(self):
        seg = straight_segment()
        for w in (wheel("w1", 1.0, 0.5), wheel("w2", -1.0, -0.5)):
            st = wheel_state(seg, w, 0.5)
            assert st.delta_w == pytest.approx(0.0, abs=1e-15)
            assert st.r_v == pytest.approx(1.0, abs=1e-15)
            assert st.r_omega == pytest.approx(0.0, abs=1e-15)

    def test_straight_segment_with_offset_orientation(self):
        alpha = math.radians(25.0)
        seg = straight_segment(alpha=alpha)
        for w in (wheel("w1", 1.0, 0.5), wheel("w2", -1.0, -0.5)):
            st = wheel_state(seg, w, 0.3)
            assert st.delta_w == pytest.approx(-alpha, abs=1e-12)

    def test_nominal_junction_steering_jump(self, layout_g1):
        left = layout_g1.segments[0].segment
        right = layout_g1.segments[1].segment
        for w in layout_g1.vehicle.wheels:
            d_left = wheel_state(left, w, 1.0).delta_w
            d_right = wheel_state(right, w, 0.0).delta_w
            assert abs(math.degrees(d_left - d_right)) > 1.0

    def test_ratio_against_finite_difference_speed(self):
        rng = np.random.default_rng(3)
        h = 1e-6
        for _ in range(5):
            seg = PathSegment(random_regular_curve(rng), Tangential(0.1), 1.5)
            w = wheel("w", 0.7, -0.5)
            u = float(rng.uniform(0.1, 0.9))
            lo = wheel_curve_jet(seg, w, u - h).position
            hi = wheel_curve_jet(seg, w, u + h).position
            wheel_speed_fd = float(np.linalg.norm(hi - lo)) / (2 * h)
            vehicle_speed = float(np.linalg.norm(evaluate(seg.curve, u).d1))
            st = wheel_state(seg, w, u)
            assert st.r_v == pytest.approx(wheel_speed_fd / vehicle_speed, rel=1e-5)

    def test_steering_rate_identity(self):
        # omega_w = kappa_w v_w - omega must match d(delta)/dt under an
        # arbitrary smooth positive speed profile.
        rng = np.random.default_rng(4)
        h = 1e-6
        for _ in range(5):
            seg = PathSegment(random_regular_curve(rng), Tangential(-0.2), 1.5)
            w = wheel("w", 0.8, 0.35)
            u = float(rng.uniform(0.1, 0.9))

            def v_of(uu):
                return 1.0 + 0.3 * math.sin(2.0 * uu)

            us = np.array([u - h, u, u + h])
            tr = _wheel_track_arrays(seg, w, us)
            speed = float(np.linalg.norm(evaluate(seg.curve, u).d1))
            # dt = |C'| du / v
            omega_fd = (tr["delta_w"][2] - tr["delta_w"][0]) * v_of(u) / (2 * h * speed)
            omega_exact = v_of(u) * tr["r_omega"][1]
            assert omega_fd == pytest.approx(omega_exact, rel=1e-4)


class TestSpeedLimit:
    def test_straight_binds_segment_limit(self, two_wheel_vehicle):
        sample = speed_limit(straight_segment(), two_wheel_vehicle, 0.5)
        assert sample.v_max == 1.5
        assert sample.binding == "segment"
        assert not sample.flagged

    def test_tie_break_prefers_segment(self):
        vehicle = VehicleModel((wheel("w1", 0.0, 0.0, v_max=1.5),))
        sample = speed_limit(straight_segment(v_max=1.5), vehicle, 0.2)
        assert sample.v_max == 1.5
        assert sample.binding == "segment"

    def test_crab_mode_ratios(self):
        rng = np.random.default_rng(5)
        curve = random_regular_curve(rng)
        seg = PathSegment(curve, Crab(0.5), 1.5)
        w = wheel("w", 1.0, 0.5)
        for u in (0.2, 0.7):
            st = wheel_state(seg, w, u)
            assert st.r_v == pytest.approx(1.0, abs=1e-12)
            k = curvature(evaluate(curve, u))
            assert st.r_omega == pytest.approx(k, rel=1e-12)

    def test_dominance_and_tightness(self, two_wheel_vehicle):
        rng = np.random.default_rng(6)
        for _ in range(5):
            seg = PathSegment(random_regular_curve(rng), Tangential(0.0), 1.5)
            for u in rng.uniform(0.0, 1.0, size=8):
                sample = speed_limit(seg, two_wheel_vehicle, float(u))
                quotients = [seg.v_max]
                for w in two_wheel_vehicle.sorted_wheels():
                    st = wheel_state(seg, w, float(u))
                    assert sample.v_max * st.r_v <= w.v_max + 1e-9
                    assert sample.v_max * abs(st.r_omega) <= w.omega_max + 1e-9
                    if st.r_v > 0:
                        quotients.append(w.v_max / st.r_v)
                    if abs(st.r_omega) > 0:
                        quotients.append(w.omega_max / abs(st.r_omega))
                assert sample.v_max <= seg.v_max
                # the binding quotient is attained exactly
                assert min(quotients) == pytest.approx(sample.v_max, abs=1e-9)

    def test_wheel_speed_limit_cases(self, layout_g1, two_wheel_vehicle):
        seg = straight_segment()
        center = wheel("c", 0.0, 0.0)
        vehicle = VehicleModel((center,))
        assert wheel_speed_limit(seg, vehicle, center, 0.5) == pytest.approx(1.5)

        rng = np.random.default_rng(7)
        crab_seg = PathSegment(random_regular_curve(rng), Crab(0.3), 1.5)
        for w in two_wheel_vehicle.wheels:
            vs = speed_limit(crab_seg, two_wheel_vehicle, 0.4).v_max
            assert wheel_speed_limit(crab_seg, two_wheel_vehicle, w, 0.4) == \
                pytest.approx(vs, rel=1e-12)

        # outer wheel in a turn moves faster than the tracking point
        turn = layout_g1.segments[0].segment
        found_faster = False
        for u in np.linspace(0.1, 0.9, 9):
            for w in two_wheel_vehicle.wheels:
                st = wheel_state(turn, w, float(u))
                if st.r_v > 1.0 + 1e-9:
                    vs = speed_limit(turn, two_wheel_vehicle, float(u)).v_max
                    assert wheel_speed_limit(turn, two_wheel_vehicle, w, float(u)) \
                        >= vs - 1e-12
                    found_faster = True
        assert found_faster


class TestSegmentProfile:
    def test_two_samples_straight(self, two_wheel_vehicle):
        prof = profile_segment(straight_segment(length=3.0), two_wheel_vehicle, 2)
        assert prof.u.tolist() == [0.0, 1.0]
        assert prof.s[0] == 0.0
        assert prof.s[1] == pytest.approx(3.0, abs=1e-12)

    def test_arc_length_is_monotone(self, layout_g1, two_wheel_vehicle):
        prof = profile_segment(layout_g1.segments[0].segment, two_wheel_vehicle, 64)
        assert np.all(np.diff(prof.s) > 0)

    def test_crab_profile_has_zero_orientation_rate(self, two_wheel_vehicle):
        rng = np.random.default_rng(8)
        seg = PathSegment(random_regular_curve(rng), Crab(0.2), 1.5)
        prof = profile_segment(seg, two_wheel_vehicle, 32)
        assert np.allclose(prof.dtheta, 0.0)

    def test_sample_count_validated(self, two_wheel_vehicle):
        with pytest.raises(ValueError):
            profile_segment(straight_segment(), two_wheel_vehicle, 1)

    def test_smoothed_junction_limit_is_continuous(self, layout_smoothed):
        eps = 1e-6
        left = layout_smoothed.segments[0].segment
        right = layout_smoothed.segments[1].segment
        vehicle = layout_smoothed.vehicle
        v_left = speed_limit(left, vehicle, 1.0 - eps).v_max
        v_right = speed_limit(right, vehicle, eps).v_max
        assert v_left == pytest.approx(v_right, rel=1e-3)

    def test_g1_junction_limit_jumps(self, layout_g1):
        eps = 1e-6
        left = layout_g1.segments[0].segment
        right = layout_g1.segments[1].segment
        vehicle = layout_g1.vehicle
        v_left = speed_limit(left, vehicle, 1.0 - eps).v_max
        v_right = speed_limit(right, vehicle, eps).v_max
        assert abs(v_left - v_right) > 0.05

    def test_wheel_grids_share_one_grid_evaluation(self, layout_exponential,
                                                   monkeypatch):
        vehicle = layout_exponential.vehicle
        grid_orders = []
        original = BezierCurve.derivatives_many

        def counting(curve, us, order, **kwargs):
            if np.size(us) == _UNWRAP_U.size:
                grid_orders.append(order)
            return original(curve, us, order, **kwargs)

        tangential, exponential = (ls.segment for ls in layout_exponential.segments)
        assert len(vehicle.wheels) == 6 and isinstance(tangential.mode, Tangential)
        assert _hodograph_certifies(tangential.curve.control_points.tolist())
        for seg, expected in ((tangential, []), (exponential, [1, 2])):
            grid_orders.clear()
            monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
            profile_segment(seg, vehicle, 1000)
            monkeypatch.undo()
            # Tangential on a certified hodograph: theta stays within a half turn
            # of u = 0 and each steering angle within a quarter turn of its
            # velocity line's normal, so no grid. Exponential:
            # six wheels share one grid evaluation, of the curve at the nodes to
            # order 1 and of the law at g(nodes) to order 2.
            assert grid_orders == expected

    def test_only_uncertified_theta_and_non_tangential_wheels_take_the_grid(self, monkeypatch):
        grid_calls, branch_grids = [], []
        curve_pass, branch_turns = BezierCurve.derivatives_many, kinematics._branch_turns

        def counting(curve, us, order, **kwargs):
            if np.size(us) == _UNWRAP_U.size:
                grid_calls.append((order, us is _UNWRAP_U))
            return curve_pass(curve, us, order, **kwargs)

        def counting_turns(us, grid, principal):
            branch_grids.append(grid.shape)
            return branch_turns(us, grid, principal)

        phi = np.linspace(0.0, 1.6 * math.pi, 9)
        winding = BezierCurve(2.0 * np.column_stack((np.cos(phi), np.sin(phi))))
        bend = BezierCurve([[0.0, 0.0], [1.0, 0.0], [2.0, 0.5], [3.0, 1.5]])
        assert not _hodograph_certifies(winding.control_points.tolist())
        assert _hodograph_certifies(bend.control_points.tolist())
        vehicle = VehicleModel((wheel("a", 0.8, 0.4), wheel("b", -0.8, -0.4), wheel("c", 0.0, 0.0)))
        # Theta takes its turns from u = 0 on the certified bend and from a grid row
        # on the winding curve, under every law. Tangential on the winding curve: one
        # grid evaluation, of the curve to order 1 (theta's principal angles read C'
        # alone), for theta alone. Crab on an uncertified curve and both exponential
        # laws on either curve: one wheel pass on `_UNWRAP_U` (order 1 jets; an
        # exponential law reads the curve to order 2 at g(u) as well), whose turns
        # are taken for the three wheel rows alone; on the winding curve theta's grid
        # row is read off that pass, with no evaluation of its own.
        delayed, anticipated = ExponentialDelayed(0.4, 1.5), ExponentialAnticipated(0.4, 3.0)
        theta_row, wheel_rows = (_UNWRAP_U.size,), (3, _UNWRAP_U.size)
        exponential_pass = [(1, True), (2, False)]
        for curve, mode, calls, grids in (
                (winding, Tangential(0.4), [(1, True)], [theta_row]),
                (bend, Tangential(0.4), [], [(1,)]),
                (bend, Crab(0.4), [], [(1,)]),
                (winding, Crab(0.4), [(1, True)], [wheel_rows, theta_row]),
                (bend, delayed, exponential_pass, [wheel_rows, (1,)]),
                (bend, anticipated, exponential_pass, [wheel_rows, (1,)]),
                (winding, delayed, exponential_pass, [wheel_rows, theta_row]),
                (winding, anticipated, exponential_pass, [wheel_rows, theta_row])):
            grid_calls.clear()
            branch_grids.clear()
            monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
            monkeypatch.setattr(kinematics, "_branch_turns", counting_turns)
            profile_segment(PathSegment(curve, mode, 1.5), vehicle, 200)
            monkeypatch.undo()
            assert grid_calls == calls
            assert branch_grids == grids

    def test_repeated_profiles_make_the_same_evaluations(self, layout_exponential,
                                                          monkeypatch):
        vehicle = layout_exponential.vehicle
        calls = []
        original = BezierCurve.derivatives_many

        def counting(curve, us, order, **kwargs):
            calls.append((np.size(us), order))
            return original(curve, us, order, **kwargs)

        monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
        for ls in layout_exponential.segments:
            seg = ls.segment
            fresh = PathSegment(BezierCurve(seg.curve.control_points), seg.mode,
                                seg.v_max)
            runs = []
            for _ in range(2):
                calls.clear()
                profile_segment(fresh, vehicle, 200)
                runs.append(list(calls))
            # Nothing is kept between calls: the second repeats the first's evaluations.
            assert runs[0] == runs[1]

    def test_one_curve_evaluation_per_node_set(self, layout_exponential, monkeypatch):
        vehicle = layout_exponential.vehicle
        w = vehicle.sorted_wheels()[0]
        sizes = []
        original = BezierCurve.derivatives_many

        def counting(curve, us, order, **kwargs):
            sizes.append(np.size(us))
            return original(curve, us, order, **kwargs)

        def calls(fn, *args):
            sizes.clear()
            monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
            fn(*args)
            monkeypatch.undo()
            return list(sizes)

        for ls in layout_exponential.segments:
            seg = ls.segment
            # Tangential: the law reuses the curve jets at the nodes. Exponential:
            # the curve jets at the nodes plus the law's one call at g(nodes).
            per_node_set = 1 if isinstance(seg.mode, Tangential) else 2
            us = np.linspace(0.0, 1.0, 192)
            assert len(calls(limit_profile_fast, seg.curve, seg.mode, seg.v_max,
                             vehicle, us)) == per_node_set
            # The third derivative of theta needs no call of its own.
            assert len(calls(wheel_curve_jet, seg, w, 0.37, 3)) == per_node_set
            # A steering angle needs its u = 0 state too, on every call: nothing
            # is kept between calls. A tangential law reads it from u = +0.0 put
            # first in its one node set (profile samples start there); an
            # exponential law reads the unwrap grid for its wheels, and the u = 0
            # node alone for orientation().
            tangential = isinstance(seg.mode, Tangential)
            grid_sets = 0 if tangential else per_node_set
            for u in (0.37, 0.61):
                sizes_u = calls(wheel_state, seg, w, u)
                assert sizes_u == [2] if tangential else len(sizes_u) == 2 * per_node_set
                assert sizes_u.count(_UNWRAP_U.size) == grid_sets
                assert calls(motion.orientation, seg.mode, seg.curve, u).count(
                    _UNWRAP_U.size) == 0
            sizes_profile = calls(profile_segment, seg, vehicle, 1000)
            assert sizes_profile.count(_UNWRAP_U.size) == grid_sets
            assert sizes_profile.count(1000) == per_node_set and 1 not in sizes_profile

    def test_one_point_limits_build_no_heading_grid(self, layout_exponential,
                                                    monkeypatch):
        vehicle = layout_exponential.vehicle
        w = vehicle.sorted_wheels()[0]
        calls = []
        original = BezierCurve.derivatives_many

        def counting(curve, us, order, **kwargs):
            calls.append((np.size(us), order))
            return original(curve, us, order, **kwargs)

        for ls in layout_exponential.segments:
            seg = ls.segment
            # Theta only feeds cos and sin here: no 4097-node heading grid.
            expected = ([(1, 3)] if isinstance(seg.mode, Tangential)
                        else [(1, 2), (1, 3)])
            for fn, args in ((speed_limit, (vehicle, 0.37, 0.0)),
                             (wheel_speed_limit, (vehicle, w, 0.37))):
                fresh = PathSegment(BezierCurve(seg.curve.control_points), seg.mode,
                                    seg.v_max)
                calls.clear()
                monkeypatch.setattr(BezierCurve, "derivatives_many", counting)
                fn(fresh, *args)
                monkeypatch.undo()
                assert calls == expected


# Three segments of a crab chain; the path reverses where the first meets the
# second, so every steering angle jumps by exactly 180 degrees there. The
# planner re-bases each segment's angles to the branch nearest the previous
# segment's end, and a jump of exactly half a turn is a tie: a few ulps of drift
# in the second segment's first angle turns it the other way and moves the
# second and third segments by 360 degrees. These values were computed with
# the branch rule "unwrap the dense grid alone, then move each sample onto
# the nearest branch".
CUSP_CHAIN = (
    [[-11.727912764812027, -2.25695231828886], [-12.26934213855323, -2.2636810402883163],
     [-12.797678362150576, -2.2394285112072247], [-13.285124332307905, -2.1859802473542542],
     [-13.797247742997612, -2.168670156609589], [-14.294094986837454, -2.1911964365898786],
     [-14.767774112074258, -2.2415612508686196]],
    [[-14.767774112074258, -2.2415612508686196], [-14.316855179315118, -2.193616456400785],
     [-13.864307590965831, -2.153736457427869], [-13.414939593135614, -2.124253926632514],
     [-12.97389109307472, -2.1087655252034083], [-12.509649533297727, -2.102058298411734],
     [-12.047759004325735, -2.121019174721481]],
    [[-12.047759004325735, -2.121019174721481], [-11.557345287989925, -2.1411509445517525],
     [-11.076606032913896, -2.189930529752085], [-10.64141189096992, -2.2857930657203203],
     [-10.187762672517437, -2.361795257216197], [-9.749727531860257, -2.446539889479315],
     [-9.326634627048275, -2.5097753624990315]],
)
# Planned steering angles in degrees at rows 0, 148, 149 (the cusp), 150,
# 297, 298 (the second junction), 299 and 447; a crab moves every wheel alike.
CUSP_DELTA_DEG = (-158.556981877825, -153.32176672973443, -153.19972296612303,
                  26.765442041697217, 18.486363677769944, 18.3802945846315,
                  18.265530152826926, 12.230494691215121)


def test_steering_angles_keep_their_branch_across_a_crab_cusp():
    vehicle = VehicleModel((
        Wheel("w1", (1.0407600430154627, 0.5242419606534718), 1.4, 0.9),
        Wheel("w2", (1.1447461974453423, -0.4560250960477397), 1.7, 0.8),
        Wheel("w3", (-1.0843022984022759, 0.4487352260876353), 1.8, 0.7)))
    mode = Crab(math.radians(-20.731))
    path = Path(tuple(PathSegment(BezierCurve(p), mode, 1.436) for p in CUSP_CHAIN))
    prof = plan_velocity(path, vehicle, 0.377, resolution=150)
    assert prof.rest_indices == (149,) and prof.junction_indices == (149, 298)
    for deltas in prof.wheel_deltas.values():
        got = np.degrees(deltas[[0, 148, 149, 150, 297, 298, 299, 447]])
        assert np.allclose(got, CUSP_DELTA_DEG, rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("shift", [-1e-15, 1e-15])
def test_crab_cusp_branch_survives_ulp_drift(monkeypatch, shift):
    # At the cusp every steering angle jumps by half a turn, so re-basing the
    # second segment is a tie; drift of a few ulps there must not turn the
    # remaining tracks by a whole turn.
    import agv_path_kit.profile as profile_module
    original = profile_module.profile_segment

    def drifting(segment, vehicle, resolution):
        prof = original(segment, vehicle, resolution)
        if segment is path.segments[1]:
            for track in prof.wheel_tracks.values():
                track.delta_w[:] += shift
        return prof

    vehicle = VehicleModel((
        Wheel("w1", (1.0407600430154627, 0.5242419606534718), 1.4, 0.9),
        Wheel("w2", (1.1447461974453423, -0.4560250960477397), 1.7, 0.8),
        Wheel("w3", (-1.0843022984022759, 0.4487352260876353), 1.8, 0.7)))
    mode = Crab(math.radians(-20.731))
    path = Path(tuple(PathSegment(BezierCurve(p), mode, 1.436) for p in CUSP_CHAIN))
    monkeypatch.setattr(profile_module, "profile_segment", drifting)
    prof = plan_velocity(path, vehicle, 0.377, resolution=150)
    for deltas in prof.wheel_deltas.values():
        got = np.degrees(deltas[[0, 148, 149, 150, 297, 298, 299, 447]])
        assert np.allclose(got, CUSP_DELTA_DEG, rtol=0.0, atol=1e-9)


# Cases where a mask of the speed-limit core is not empty: curve, mode, wheels
# and nodes, then v and |C'| of limit_profile_fast at the nodes, and v_max,
# binding and flag of speed_limit at each node; floats as the hex of their
# float64 bytes.
# - crab_cusp: CUSP_CHAIN's first segment out and back, so C' = 0 at the
#   cusp u = 0.5 (up to rounding), where every wheel is singular;
# - flat_end: n = 1.5 at the flat end u = 1, where r_omega is +inf;
# - origin_wheel: a wheel at the origin keeps the curve's own rows.
MASK_CASES = {
    "crab_cusp": (
        CUSP_CHAIN[0] + CUSP_CHAIN[0][-2::-1], Crab(math.radians(-20.731)),
        (("w1", (1.0407600430154627, 0.5242419606534718), 1.4, 0.9),
         ("w2", (1.1447461974453423, -0.4560250960477397), 1.7, 0.8),
         ("w3", (-1.0843022984022759, 0.4487352260876353), 1.8, 0.7)), (0.25, 0.5, 0.75),
        "666666666666f63f666666666666f63f666666666666f63f",
        "59feeb206b8f16408f4a95606506843c5afeeb206b8f1640",
        (("0x1.6666666666666p+0", "traction(w1)", False),
         ("0x1.6666666666666p+0", "traction(w1)", True),
         ("0x1.6666666666666p+0", "traction(w1)", False))),
    "flat_end": (
        [(0, 0), (1, 0.3), (2, 1), (3, 0.8), (4, 1.5)], ExponentialAnticipated(0.0, 1.5),
        (("w1", (1.0, 0.5), 1.7, math.radians(45.0)),
         ("w2", (-1.0, -0.5), 1.7, math.radians(45.0))), (0.0, 0.5, 1.0),
        "778d552671bce03f000000000000f83f0000000000000000",
        "2c94d97b59b410403e39158c57c31040d2354a20ce871340",
        (("0x1.0bc7126558d77p-1", "steering(w1)", False),
         ("0x1.8000000000000p+0", "segment", False),
         ("0x0.0p+0", "steering(w1)", True))),
    "origin_wheel": (
        [(0, 0), (1, 1), (2, 0), (3, 1)], Tangential(0.2),
        (("w1", (1.0, 0.5), 1.7, math.radians(45.0)),
         ("c", (0.0, 0.0), 1.7, math.radians(45.0)),
         ("w2", (-1.0, -0.5), 1.7, math.radians(45.0))), (0.0, 0.5, 1.0),
        "e31994110098f33f5637cc71360df03fe31994110098f33f",
        "d96cdfcc76f810400000000000000840d96cdfcc76f81040",
        (("0x1.39800119419e3p+0", "traction(w1)", False),
         ("0x1.00d3671cc3756p+0", "steering(w1)", False),
         ("0x1.39800119419e3p+0", "traction(w2)", False))),
}


@pytest.mark.parametrize("name", sorted(MASK_CASES))
def test_speed_limit_bits_where_a_mask_is_not_empty(name):
    points, mode, wheels, nodes, v_hex, speed_hex, samples = MASK_CASES[name]
    curve = BezierCurve(points)
    vehicle = VehicleModel(tuple(Wheel(*w) for w in wheels))
    us = np.array(nodes)
    v, speed = limit_profile_fast(curve, mode, 1.5, vehicle, us)
    assert (v.tobytes().hex(), speed.tobytes().hex()) == (v_hex, speed_hex)
    # PathSegment refuses a curve whose C' vanishes; speed_limit reads these three fields.
    segment = SimpleNamespace(curve=curve, mode=mode, v_max=1.5)
    got = [speed_limit(segment, vehicle, float(u), s=0.0) for u in us]
    assert [(s.v_max.hex(), s.binding, s.flagged) for s in got] == list(samples)


class TestEndJets:
    def test_end_jet_matches_interior_for_tangential(self, layout_g1):
        seg = layout_g1.segments[0].segment
        w = layout_g1.vehicle.wheels[0]
        end = wheel_end_jet(seg, w, "end")
        interior = wheel_curve_jet(seg, w, 1.0, order=2)
        assert np.allclose(end.d1, interior.d1, atol=1e-12)
        assert np.allclose(end.d2, interior.d2, atol=1e-12)


class TestSteeringFold:
    def test_default_limit_keeps_half_circle_tracks(self):
        from agv_path_kit import fold_steering_angles
        track = np.array([0.0, 1.0, 2.0, 3.0])
        assert np.array_equal(fold_steering_angles(track), track)

    def test_restricted_range_flips_by_half_turns(self):
        from agv_path_kit import fold_steering_angles
        track = np.array([0.0, 0.6, 1.2, 1.8, 2.4])
        folded = fold_steering_angles(track, limit=math.radians(100.0))
        assert np.abs(folded).max() <= math.radians(100.0) + 1e-12
        # flips preserve the wheel pose: differences are half-turn multiples
        steps = (track - folded) / math.pi
        assert np.allclose(steps, np.round(steps), atol=1e-12)

    def test_limit_validated(self):
        from agv_path_kit import fold_steering_angles
        with pytest.raises(ValueError):
            fold_steering_angles(np.zeros(3), limit=0.0)

    @pytest.mark.parametrize("limit", [math.pi, math.radians(100.0), 1.0, 0.3])
    def test_matches_the_half_turn_loop(self, limit):
        # The reference takes half turns off one at a time; the fold counts
        # them in one step, so only the rounding of the sum may differ.
        from agv_path_kit import fold_steering_angles

        def reference(track):
            out, offset = [], 0.0
            for x in track:
                value = x + offset
                while value > limit:
                    offset, value = offset - math.pi, value - math.pi
                while value < -limit:
                    offset, value = offset + math.pi, value + math.pi
                out.append(value)
            return np.array(out)

        rng = np.random.default_rng(11)
        for _ in range(50):
            track = np.cumsum(rng.normal(0.0, 0.4, 60)) + rng.normal(0.0, 5.0)
            assert np.allclose(fold_steering_angles(track, limit), reference(track),
                               rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
    def test_non_finite_angles_refused(self, bad):
        from agv_path_kit import fold_steering_angles
        with pytest.raises(ValueError, match="steering angles must be finite"):
            fold_steering_angles(np.array([0.0, bad]))

    def test_large_angles_fold_in_one_step(self):
        # Half turns were taken off one loop pass at a time: 1e12 rad took
        # 3e11 passes, and 1e300 never returned.
        from agv_path_kit import fold_steering_angles
        limit = math.radians(100.0)
        track = np.array([0.0, 1e12, 1e12 + 1.0])
        folded = fold_steering_angles(track, limit=limit)
        assert np.abs(folded).max() <= limit + 1e-3  # 1e12 carries ulps of 1.2e-4
        steps = (track - folded) / math.pi
        assert np.allclose(steps, np.round(steps), rtol=0.0, atol=1e-3)

    @pytest.mark.parametrize("track", [[1.7e308, -1.7e308, 0.0], [0.0, 1e17],
                                       [0.0, 1e300, -1e300]])
    def test_angles_beyond_a_float_half_turn_count_refused(self, track):
        # 1.7e308 folded to about -2.0e292 and 1e17 to 0.0, with no warning:
        # a float holds no half-turn count from 2^53 on.
        from agv_path_kit import fold_steering_angles
        with pytest.raises(ValueError, match=r"finite and below 2\^53 half turns"):
            fold_steering_angles(np.array(track))

    @pytest.mark.parametrize("limit", [math.pi, math.radians(100.0)])
    def test_largest_counted_angles_fold_to_their_own_rounding(self, limit):
        from agv_path_kit import fold_steering_angles
        for angle in (2.0**52 * math.pi, np.nextafter(2.0**53 * math.pi, 0.0)):
            folded = fold_steering_angles(np.array([0.0, angle, -angle]), limit)
            assert np.abs(folded).max() <= limit + 2.0 * np.spacing(angle)


_PARAMETER_SEGMENT = PathSegment(BezierCurve([(0, 0), (1, 1), (2, 0), (3, 1)]),
                                 Tangential(0.2), 1.5)
_PARAMETER_VEHICLE = VehicleModel((wheel("w1", 1.0, 0.5), wheel("w2", -1.0, -0.5)))
# Every public entry that takes one curve parameter.
PARAMETER_ENTRIES = {
    "point": lambda u: _PARAMETER_SEGMENT.curve.point(u),
    "evaluate": lambda u: evaluate(_PARAMETER_SEGMENT.curve, u),
    "orientation": lambda u: motion.orientation(Tangential(0.2), _PARAMETER_SEGMENT.curve, u),
    "heading": lambda u: motion.heading(_PARAMETER_SEGMENT.curve, u),
    "unwrapped_heading": lambda u: motion.unwrapped_heading(_PARAMETER_SEGMENT.curve, u),
    "heading_rates": lambda u: motion.heading_rates(_PARAMETER_SEGMENT.curve, [0.5, u]),
    "wheel_curve_jet": lambda u: wheel_curve_jet(
        _PARAMETER_SEGMENT, _PARAMETER_VEHICLE.wheels[0], u),
    "wheel_state": lambda u: wheel_state(_PARAMETER_SEGMENT, _PARAMETER_VEHICLE.wheels[0], u),
    "speed_limit": lambda u: speed_limit(_PARAMETER_SEGMENT, _PARAMETER_VEHICLE, u, s=0.0),
    "wheel_speed_limit": lambda u: wheel_speed_limit(
        _PARAMETER_SEGMENT, _PARAMETER_VEHICLE, _PARAMETER_VEHICLE.wheels[0], u),
}


@pytest.mark.parametrize("u", [math.nan, -0.5, 1.5])
@pytest.mark.parametrize("entry", sorted(PARAMETER_ENTRIES))
def test_parameters_outside_the_unit_interval_are_refused(entry, u):
    with pytest.raises(ValueError, match=r"curve parameter must lie in \[0, 1\], got"):
        PARAMETER_ENTRIES[entry](u)


# Every public entry that takes an order of the orientation law or heading rates.
ORDER_ENTRIES = {
    "orientation_many": lambda order: motion.orientation_many(
        Tangential(0.2), _PARAMETER_SEGMENT.curve, [0.5], order=order),
    "heading_rates": lambda order: motion.heading_rates(_PARAMETER_SEGMENT.curve, [0.5], order),
}


@pytest.mark.parametrize("order", [0, 4, 7])
@pytest.mark.parametrize("entry", sorted(ORDER_ENTRIES))
def test_orders_outside_one_to_three_are_refused(entry, order):
    # heading_rates raised IndexError at order 0 and returned three rates at 4 and 7.
    with pytest.raises(ValueError, match=rf"order must be in 1\.\.3, got {order}"):
        ORDER_ENTRIES[entry](order)
