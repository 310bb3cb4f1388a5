"""Motion modes: orientation laws and their exact derivatives."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated,
                          ExponentialDelayed, PathSegment, Tangential, VehicleModel,
                          Wheel, orientation, orientation_at_end, prescribe_endpoint_jet,
                          profile_segment, wheel_curve_jet, wheel_state)
from agv_path_kit.kinematics import wheel_end_jet
from agv_path_kit.motion import (_UNWRAP_U, _branch_turns, _reparam, heading_rates,
                                 orientation_many, unwrapped_heading, wrap_angle)

from conftest import random_regular_curve
from test_layout_properties import ANGLE, MODES, MOUNT, curves, moved


def all_modes(alpha=0.3, n=1.7):
    return [Tangential(alpha), Crab(alpha), ExponentialDelayed(alpha, n),
            ExponentialAnticipated(alpha, n)]


class TestModeBasics:
    def test_crab_jet_ignores_curve(self):
        alpha = math.radians(-32.0)
        rng = np.random.default_rng(0)
        for u in (0.0, 0.33, 1.0):
            jet = orientation(Crab(alpha), random_regular_curve(rng), u)
            assert jet.theta == pytest.approx(alpha, abs=1e-15)
            assert jet.dtheta == 0.0
            assert jet.ddtheta == 0.0

    def test_tangential_straight_diagonal(self):
        curve = BezierCurve([(0, 0), (1, 1)])
        jet = orientation(Tangential(0.0), curve, 0.5)
        assert jet.theta == pytest.approx(math.pi / 4.0, abs=1e-15)
        assert jet.dtheta == pytest.approx(0.0, abs=1e-15)

    def test_tangential_offset_is_exact(self):
        rng = np.random.default_rng(1)
        curve = random_regular_curve(rng)
        alpha = 1.234
        for u in np.linspace(0.0, 1.0, 7):
            with_offset = orientation(Tangential(alpha), curve, float(u)).theta
            plain = orientation(Tangential(0.0), curve, float(u)).theta
            assert with_offset - plain == pytest.approx(alpha, abs=1e-12)

    def test_exponential_requires_n_above_one(self):
        with pytest.raises(ValueError):
            ExponentialDelayed(0.0, 1.0)
        with pytest.raises(ValueError):
            ExponentialAnticipated(0.0, 0.5)

    def test_delayed_matches_reparameterized_tangential(self):
        rng = np.random.default_rng(2)
        curve = random_regular_curve(rng)
        n = 1.7
        for u in (0.2, 0.5, 0.9):
            delayed = orientation(ExponentialDelayed(0.0, n), curve, u)
            base = orientation(Tangential(0.0), curve, u**n)
            assert delayed.theta == pytest.approx(base.theta, abs=1e-12)
            assert delayed.dtheta == pytest.approx(
                base.dtheta * n * u**(n - 1.0), rel=1e-12)

    def test_exponential_endpoint_consistency(self):
        rng = np.random.default_rng(3)
        curve = random_regular_curve(rng)
        for mode in (ExponentialDelayed(0.4, 1.7), ExponentialAnticipated(0.4, 1.7)):
            assert orientation(mode, curve, 1.0).theta == pytest.approx(
                orientation(Tangential(0.4), curve, 1.0).theta, abs=1e-12)
            assert orientation(mode, curve, 0.0).theta == pytest.approx(
                orientation(Tangential(0.4), curve, 0.0).theta, abs=1e-12)


class TestDerivativeConsistency:
    def test_rates_match_finite_differences(self):
        rng = np.random.default_rng(4)
        h = 1e-6
        for mode in all_modes():
            for trial in range(5):
                curve = random_regular_curve(rng)
                u = float(rng.uniform(0.05, 0.95))
                jets = orientation_many(mode, curve, np.array([u - h, u, u + h]))
                theta, dtheta, ddtheta = (a.copy() for a in jets)
                fd1 = (theta[2] - theta[0]) / (2.0 * h)
                fd2 = (dtheta[2] - dtheta[0]) / (2.0 * h)
                assert abs(fd1 - dtheta[1]) / max(1.0, abs(dtheta[1])) < 1e-5
                assert abs(fd2 - ddtheta[1]) / max(1.0, abs(ddtheta[1])) < 1e-5

    def test_heading_rate_is_curvature_times_speed(self):
        rng = np.random.default_rng(5)
        curve = random_regular_curve(rng)
        us = np.linspace(0.1, 0.9, 9)
        z1, = heading_rates(curve, us, order=1)
        d = curve.derivatives_many(us, 2)
        speed = np.hypot(d[1][:, 0], d[1][:, 1])
        kappa = (d[1][:, 0] * d[2][:, 1] - d[1][:, 1] * d[2][:, 0]) / speed**3
        assert np.allclose(z1, kappa * speed, rtol=1e-12)

    def test_unwrapped_heading_is_continuous(self):
        # Total tangent turn here exceeds pi, so the principal branch wraps.
        curve = BezierCurve([(0, 0), (2, 0), (3, 2), (2, 4), (0, 4), (-1, 2),
                             (0, 0.5)])
        us = np.linspace(0.0, 1.0, 500)
        theta = orientation_many(Tangential(0.0), curve, us)[0]
        assert np.abs(np.diff(theta)).max() < 0.1
        assert unwrapped_heading(curve, 0.0) == pytest.approx(
            math.atan2(0.0, 2.0), abs=1e-12)


class TestJunctionJets:
    def test_delayed_start_rate_vanishes(self):
        rng = np.random.default_rng(6)
        curve = random_regular_curve(rng)
        jet = orientation_at_end(ExponentialDelayed(0.0, 1.7), curve, "start")
        assert jet.dtheta == 0.0

    def test_tangential_end_is_plain_heading_rate(self):
        rng = np.random.default_rng(7)
        curve = random_regular_curve(rng)
        jet = orientation_at_end(Tangential(0.2), curve, "end")
        z1, = heading_rates(curve, np.array([1.0]), order=1)
        assert jet.dtheta == pytest.approx(float(z1[0]), rel=1e-12)

    def test_anticipated_start_scales_rate_by_n(self):
        rng = np.random.default_rng(8)
        curve = random_regular_curve(rng)
        n = 1.7
        jet = orientation_at_end(ExponentialAnticipated(0.0, n), curve, "start")
        z1, = heading_rates(curve, np.array([0.0]), order=1)
        assert math.isfinite(jet.dtheta)
        assert jet.dtheta == pytest.approx(n * float(z1[0]), rel=1e-12)

    def test_flat_end_second_rate_is_infinite_when_turning(self):
        # 1 < n < 2 with nonzero heading rate at the flat end.
        curve = BezierCurve([(0, 0), (1, 0), (2, 1), (3, 1)])
        jet = orientation_at_end(ExponentialAnticipated(0.0, 1.7), curve, "end")
        assert jet.dtheta == 0.0
        assert math.isinf(jet.ddtheta)

    def test_second_rate_one_subnormal_from_the_flat_end_overflows_to_infinity(self):
        # g'' = n(n-1) u^(n-2) at u = 5e-324 is past the float range: +inf, with no warning.
        curve = BezierCurve([(0, 0), (1, 0), (2, 1), (3, 1)])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            jet = orientation(ExponentialDelayed(0.0, 1.03125), curve, 5e-324)
        assert jet.ddtheta == math.inf

    def test_flat_end_second_rate_vanishes_on_straight_exit(self):
        curve = BezierCurve([(0, 0), (1, 1), (2, 2)])
        jet = orientation_at_end(ExponentialAnticipated(0.0, 1.7), curve, "end")
        assert jet.ddtheta == 0.0

    def test_flat_end_third_derivative_is_finite_for_n_two(self):
        # g''' = n(n-1)(n-2) x^(n-3) is identically 0 for n = 2, not 0 * inf at x = 0.
        curve = BezierCurve([(0, 0), (1, 1), (2, 1), (3, 0)])
        wheel = Wheel("w", (0.5, 0.5), 1.0, 1.0)
        for mode, u in ((ExponentialDelayed(0.0, 2.0), 0.0),
                        (ExponentialAnticipated(0.0, 2.0), 1.0)):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                jet = wheel_curve_jet(PathSegment(curve, mode, 1.5), wheel, u, order=3)
            assert np.all(np.isfinite(jet.d3))

    def test_end_argument_validated(self):
        # One rule and one message for every entry that names a segment end.
        curve = BezierCurve([(0, 0), (1, 0)])
        segment = PathSegment(curve, Tangential(0.0), 1.0)
        for entry in (lambda end: orientation_at_end(Tangential(0.0), curve, end),
                      lambda end: wheel_end_jet(segment, Wheel("w", (0.5, 0.5), 1.0, 1.0), end),
                      lambda end: prescribe_endpoint_jet(curve, end, d1=(1.0, 0.0))):
            with pytest.raises(ValueError, match=r"^end must be 'start' or 'end', got 'middle'$"):
                entry("middle")


# Every finite n > 1: one ulp above 1 up to the largest float.
ANY_N = st.floats(1.0, exclude_min=True, allow_infinity=False)


@settings(deadline=None, max_examples=300)
@given(st.booleans(), st.one_of(ANY_N, st.tuples(ANY_N, ANY_N).map(np.array)))
@example(False, math.nextafter(1.0, 2.0))
@example(True, np.array([math.nextafter(1.0, 2.0), np.finfo(float).max]))
def test_reparameterizations_fix_the_segment_ends_bit_for_bit(anticipated, n):
    # A junction end's law reads the curve at u, not at g(u): `_end_states` hands it
    # the curve at u = 0 and 1, which is right because g(0) is +0.0 and g(1) is 1.0,
    # for a scalar n and for one n per row. The derivatives of g overflow once n
    # passes about 5.6e102 (the third one's factor n (n - 1) (n - 2)); only g is
    # pinned here.
    with np.errstate(over="ignore", invalid="ignore"):
        g = _reparam(anticipated, n, np.array([0.0, 1.0]), 3)[0]
    assert g.tobytes() == np.array([0.0, 1.0]).tobytes()


def test_orientation_takes_the_branch_of_the_profile():
    # orientation() once unwrapped on a grid in the curve parameter and read
    # it at g(u); on this quartic it sat one turn above profile_segment's
    # theta on 330 of 401 samples, from u = 0.1775 on.
    curve = BezierCurve([(-0.3548041301011767, 0.32485848577290377),
                         (-0.6439398915539821, 0.29007852458536004),
                         (-0.36289007811925333, -0.04701511385233792),
                         (-0.23425478692727286, 0.5795565561162972),
                         (-2.0870129878862467, 1.4763079620836235)])
    segment = PathSegment(curve, ExponentialAnticipated(0.3, 2.0), 1.5)
    vehicle = VehicleModel((Wheel("w", (0.5, 0.2), 1.0, 1.0),))
    prof = profile_segment(segment, vehicle, 401)
    theta = [orientation(segment.mode, curve, float(u)).theta for u in prof.u]
    assert theta == prof.theta.tolist()


def test_crab_orientation_takes_the_branch_rule_too():
    # The crab law skipped the branch rule: with alpha = -0.0 its unwrapped
    # theta kept -0.0 where profile_segment's theta reads +0.0.
    segment = PathSegment(BezierCurve([(0, 0), (1, 0), (2, 1)]), Crab(-0.0), 1.5)
    vehicle = VehicleModel((Wheel("w", (0.0, 0.0), 1.0, 1.0),))
    prof = profile_segment(segment, vehicle, 33)
    theta = orientation_many(segment.mode, segment.curve, prof.u)[0]
    assert theta.tobytes() == prof.theta.tobytes()
    assert math.copysign(1.0, orientation(segment.mode, segment.curve, 0.5).theta) == 1.0


def test_heading_rates_refuses_parameters_outside_the_unit_interval():
    """heading_rates extrapolated outside [0, 1] and passed NaN through."""
    curve = BezierCurve([(0, 0), (1, 1), (2, 0), (3, 1)])
    with pytest.raises(ValueError, match=r"curve parameter must lie in \[0, 1\], got nan"):
        heading_rates(curve, [math.nan, 1.5, -0.5])


def test_two_dimensional_parameters_are_refused():
    # A (2, 3) array gave (3, 2) derivative arrays for 6 nodes, and tangential
    # thetas for 3 of them, silently.
    curve = BezierCurve([(0, 0), (1, 0), (2, 1), (3, 1)])
    us = np.array([[0.1, 0.2, 0.3], [0.6, 0.7, 0.8]])
    with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
        curve.derivatives_many(us, 1)
    for mode in (Tangential(), Crab(0.3)):
        with pytest.raises(ValueError, match=r"got shape \(2, 3\)"):
            orientation_many(mode, curve, us)
    assert [d.shape for d in curve.derivatives_many(0.3, 1)] == [(1, 2), (1, 2)]
    assert orientation_many(Tangential(), curve, us.ravel())[0].shape == (6,)


def test_wrap_angle_range():
    assert wrap_angle(math.pi) == pytest.approx(math.pi)
    assert wrap_angle(-math.pi) == pytest.approx(math.pi)
    assert wrap_angle(3.5 * math.pi) == pytest.approx(-0.5 * math.pi)
    assert wrap_angle(0.25) == pytest.approx(0.25)


def nudged(angles: np.ndarray, seed: int, most: int = 4) -> np.ndarray:
    """``angles`` each moved by up to ``most`` ulps, up or down, at random."""
    ulps = np.random.default_rng(seed).integers(-most, most + 1, angles.shape)
    out = angles.copy()
    for step in range(1, most + 1):
        out = np.where(ulps >= step, np.nextafter(out, np.inf), out)
        out = np.where(ulps <= -step, np.nextafter(out, -np.inf), out)
    return out


@settings(deadline=None, max_examples=60)
@given(curves(), MODES, ANGLE, st.integers(0, 2**32 - 1))
def test_grid_ulps_do_not_move_the_turn_counts(curve, mode, phi, seed):
    # The unwrap grid only picks whole turns, so a few ulps of its angles, as
    # another SIMD path of np.arctan2 gives, change no count away from a tie.
    segment = moved(PathSegment(curve, mode, 1.5), phi, (0.0, 0.0))
    us = np.linspace(0.0, 1.0, 65)
    principal = orientation_many(segment.mode, segment.curve, us, unwrap=False, order=1)[0]
    grid = orientation_many(segment.mode, segment.curve, _UNWRAP_U, unwrap=False, order=1)[0]
    turns = _branch_turns(us, grid, principal)
    assert np.array_equal(turns, np.rint(turns))
    q = (np.interp(us, _UNWRAP_U, np.unwrap(grid)) - principal) / math.tau
    tie = np.abs(np.abs(q - np.rint(q)) - 0.5) <= 1e-9
    moved_turns = _branch_turns(us, nudged(grid, seed), principal)
    assert np.array_equal(turns[~tie], moved_turns[~tie])


def whole_turns(unwrapped, principal) -> np.ndarray:
    """The whole k with ``unwrapped`` == principal + 2 pi k bit for bit; fails without one."""
    k = np.rint((np.asarray(unwrapped) - principal) / math.tau)
    assert np.array_equal(principal + math.tau * k, unwrapped)
    return k


@settings(deadline=None, max_examples=60)
@given(curves(), MODES, ANGLE, st.tuples(MOUNT, MOUNT), st.sampled_from([0.0, 0.37, 1.0]))
def test_reported_angles_are_principal_values_plus_whole_turns(curve, mode, phi, mount, u):
    # Rotating the path carries its headings across the cut at +-pi.
    segment = moved(PathSegment(curve, mode, 1.5), phi, (0.0, 0.0))
    wheel = Wheel("w", mount, 1.0, 1.0)
    prof = profile_segment(segment, VehicleModel((wheel,)), 17)
    whole_turns(prof.theta, orientation_many(segment.mode, segment.curve, prof.u,
                                             unwrap=False)[0])
    theta = orientation_many(segment.mode, segment.curve, [u], unwrap=False)[0]
    whole_turns([orientation(segment.mode, segment.curve, u).theta], theta)
    d1 = wheel_curve_jet(segment, wheel, u).d1
    zeta = np.arctan2(d1[1:], d1[:1])
    state = wheel_state(segment, wheel, u)
    whole_turns([state.zeta_w], zeta)
    whole_turns([state.delta_w], zeta - theta)
