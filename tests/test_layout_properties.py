"""Property tests of layout-level invariants the paper's kinematics imply.

A rigid motion of the path (rotation and translation of every curve; a crab
orientation turns with it) moves the wheel paths rigidly, since the wheels
stay at their mounts in the vehicle frame. Speed and steering ratios and the
speed limit are therefore unchanged, and so are the junction residuals and
verdicts. Splitting a segment at s gives a smooth junction whose first shape
parameter is s/(1-s): the left piece runs at s times, the right one at 1-s
times the speed of the whole. Degree elevation changes neither a curve nor its
parameterization, so a junction keeps its verdict and, to rounding, its residuals. Reported angles lie on their principal values
up to whole turns, and planned speeds keep the planner's invariants. The
planner's stacked wheel tracks equal a per-wheel assembly bit for bit. The
extracted shape parameters are the junction report's, so they exist exactly
when the report has them.
"""

import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, Crab, DegenerateGeometryError,
                          ExponentialAnticipated, ExponentialDelayed,
                          JunctionContext, Path, PathSegment, Tangential,
                          Tolerances, VehicleModel, Wheel, analyze_junction,
                          audit_wheel_continuity, extract_shape_parameters,
                          plan_velocity, profile_segment, wheel_curve_jet)
from agv_path_kit.kinematics import _wheel_track_arrays
from agv_path_kit.motion import orientation_many

from test_kinematics import CUSP_CHAIN

ANGLE = st.floats(-math.pi, math.pi)
MOUNT = st.floats(-2.0, 2.0, allow_nan=False, allow_infinity=False)
EXPONENT = st.floats(1.1, 4.0)


@st.composite
def curves(draw):
    """Forward-moving curves of degree 2-6 (the bundled layouts use 5 and 6)."""
    degree = draw(st.integers(2, 6))
    x = np.linspace(0.0, 6.0, degree + 1) + draw(
        arrays(float, degree + 1, elements=st.floats(-0.5, 0.5)))
    y = draw(arrays(float, degree + 1, elements=st.floats(-1.5, 1.5)))
    curve = BezierCurve(np.column_stack([x, y]))
    d1 = curve.derivatives_many(np.linspace(0.0, 1.0, 1025), 1)[1]
    assume(np.hypot(d1[:, 0], d1[:, 1]).min() > 1e-3)
    return curve


MODES = st.one_of(
    st.builds(Tangential, ANGLE),
    st.builds(Crab, ANGLE),
    st.builds(ExponentialDelayed, ANGLE, EXPONENT),
    st.builds(ExponentialAnticipated, ANGLE, EXPONENT),
)


@st.composite
def vehicles(draw):
    """One to four wheels at arbitrary mounts, not only round ones."""
    count = draw(st.integers(1, 4))
    return VehicleModel(tuple(
        Wheel(f"w{k}", (draw(MOUNT), draw(MOUNT)), draw(st.floats(0.5, 3.0)),
              draw(st.floats(0.2, 2.0)))
        for k in range(count)))


def moved(segment: PathSegment, phi: float, shift) -> PathSegment:
    """``segment`` rotated by ``phi`` about the origin, then translated by ``shift``."""
    c, s = math.cos(phi), math.sin(phi)
    points = segment.curve.control_points @ np.array([[c, s], [-s, c]]) + shift
    mode = segment.mode
    if isinstance(mode, Crab):
        mode = Crab(mode.alpha + phi)
    return PathSegment(BezierCurve(points), mode, segment.v_max)


def assert_same_track(a: np.ndarray, b: np.ndarray, rtol: float = 1e-9):
    """Equal non-finite entries; finite ones within ``rtol`` of the track's scale.

    The scale is the largest magnitude in either track, but at least 1: the
    ratios are of order one here (R_v is dimensionless, R_omega is per metre
    on metre-sized paths), and a track that is zero up to rounding, such as
    R_omega on a straight tangential path, has no scale of its own.
    """
    assert np.array_equal(np.isfinite(a), np.isfinite(b))
    assert np.array_equal(a[~np.isfinite(a)], b[~np.isfinite(b)], equal_nan=True)
    live = np.isfinite(a)
    if live.any():
        scale = max(np.abs(a[live]).max(), np.abs(b[live]).max(), 1.0)
        assert np.abs(a[live] - b[live]).max() <= rtol * scale


@settings(deadline=None, max_examples=60)
@given(curves(), MODES, vehicles(), ANGLE,
       arrays(float, 2, elements=st.floats(-100.0, 100.0)))
def test_rigid_motion_leaves_speed_limits_and_ratios_unchanged(
        curve, mode, vehicle, phi, shift):
    segment = PathSegment(curve, mode, 1.5)
    before = profile_segment(segment, vehicle, 33)
    after = profile_segment(moved(segment, phi, shift), vehicle, 33)
    assert_same_track(before.v_max, after.v_max)
    for wid, track in before.wheel_tracks.items():
        assert_same_track(track.r_v, after.wheel_tracks[wid].r_v)
        assert_same_track(track.r_omega, after.wheel_tracks[wid].r_omega)


def test_rotated_straight_path_keeps_a_finite_limit_at_a_flat_end():
    # Found by the property above. Rotated, a straight path has |zeta'| of
    # about 1e-17 instead of 0 at the flat end of a delayed law with n < 2,
    # where g'' diverges; theta'' came out infinite and the limit collapsed to 0.
    segment = PathSegment(BezierCurve([[0.5, 0.0], [3.0, 0.0], [6.0, 0.0]]),
                          ExponentialDelayed(0.0, 1.5), 1.5)
    vehicle = VehicleModel((Wheel("w0", (0.0, 1.0), 1.0, 1.0),))
    before = profile_segment(segment, vehicle, 33)
    after = profile_segment(moved(segment, 1.0, np.zeros(2)), vehicle, 33)
    assert before.v_max[0] == after.v_max[0] == 1.0
    assert math.isfinite(after.wheel_tracks["w0"].r_omega[0])


RESIDUALS = ("curve_g1", "curve_g2", "curve_g3", "mode_g1", "mode_g2")
# Elevation rounds each control point by about eps * size, and a condition of
# order up to 3 scales the right side by up to beta1**3; 4000 random examples
# drifted by at most 411 such units.
ELEVATION_ULPS = 1e4


@settings(deadline=None, max_examples=60)
@given(curves(), st.one_of(st.builds(Tangential, ANGLE), st.builds(Crab, ANGLE)),
       st.floats(0.05, 0.95), ANGLE, arrays(float, 2, elements=st.floats(-100.0, 100.0)))
def test_split_is_smooth_and_rigid_motion_keeps_junction_residuals(
        curve, mode, s, phi, shift):
    halves = tuple(PathSegment(c, mode, 1.5) for c in curve.split(s))
    vehicle = VehicleModel((Wheel("w0", (0.5, 0.5), 1.0, 1.0),))
    tol = Tolerances()
    d1 = halves[0].curve.jet(1.0).d1
    # The second motion puts the junction tangent on the branch cut at +-pi,
    # where the principal heading wraps.
    motions = ((phi, shift), (math.pi - math.atan2(d1[1], d1[0]), shift))
    before = analyze_junction(JunctionContext(*halves, vehicle), tol)
    for angle, offset in motions:
        pieces = tuple(moved(seg, angle, offset) for seg in halves)
        after = analyze_junction(JunctionContext(*pieces, vehicle), tol)
        for report in (before, after):
            assert report.verdict == "smooth"
            assert math.isclose(report.beta.beta1, s / (1.0 - s), rel_tol=1e-9)
            assert report.g0_orientation <= tol.angle
        # Equal up to rounding. Moving a control point rounds it by about
        # eps * size, its coordinate magnitude; a junction condition of order
        # up to 3 multiplies the right piece's derivatives by up to beta1**3,
        # so a split near the right end (s = 0.95, beta1 = 19) magnifies that
        # rounding some 7000-fold. Random splits drift to at most about
        # 800 * eps * size * beta1**3.
        size = max(np.abs(seg.curve.control_points).max() for seg in halves + pieces)
        bound = 1e4 * np.finfo(float).eps * size * max(1.0, s / (1.0 - s))**3
        drift = [abs(getattr(before, r) - getattr(after, r)) for r in RESIDUALS]
        assert max(drift) <= bound


@st.composite
def junctions(draw):
    """The two pieces of a split curve under one mode, the right piece's
    control point 1, 2 or 3 perhaps moved by 1e-2 to 1 m. A move breaks the
    junction far above the 1e-6 tolerances, so no verdict rests on rounding."""
    curve = draw(curves())
    left, right = curve.split(draw(st.floats(0.2, 0.8)))
    k = draw(st.integers(1, min(3, right.degree - 1)))
    points = right.control_points.copy()
    shift, phi = draw(st.one_of(st.just(0.0), st.floats(1e-2, 1.0))), draw(ANGLE)
    points[k] += shift * np.array([math.cos(phi), math.sin(phi)])
    return left, BezierCurve(points), draw(MODES)


@settings(deadline=None, max_examples=60)
@given(junctions(), st.sampled_from(["left", "right", "both"]), st.integers(1, 2))
def test_degree_elevation_keeps_the_verdict_and_the_residuals(junction, side, times):
    # Elevation changes neither curve nor its parameterization, so the
    # conditions are unchanged; only the elevated control points round.
    left, right, mode = junction
    vehicle = VehicleModel((Wheel("w0", (0.5, 0.5), 1.0, 1.0),))

    def report(a, b):
        return analyze_junction(JunctionContext(PathSegment(a, mode, 1.5),
                                                PathSegment(b, mode, 1.5), vehicle),
                                Tolerances())

    before = report(left, right)
    for _ in range(times):
        left = left.elevated() if side != "right" else left
        right = right.elevated() if side != "left" else right
    after = report(left, right)
    assert after.verdict == before.verdict
    # Elevation copies the end points, so the junction point stays put.
    assert after.g0_position == before.g0_position
    assert (after.beta is None) == (before.beta is None)
    beta1 = 1.0 if before.beta is None else abs(before.beta.beta1)
    size = max(np.abs(c.control_points).max() for c in (left, right))
    bound = ELEVATION_ULPS * np.finfo(float).eps * size * max(1.0, beta1)**3
    for name in RESIDUALS + ("g0_orientation",):
        a, b = getattr(before, name), getattr(after, name)
        if math.isfinite(a):
            assert abs(a - b) <= bound, name
        else:
            assert a == b, name


def reversed_right(junction):
    """``junction`` with its right piece run backwards from the junction
    point, so the tangent mostly, though not always, reverses there."""
    left, right, mode = junction
    points = right.control_points[::-1]
    return left, BezierCurve(points + (left.control_points[-1] - points[0])), mode


@settings(deadline=None, max_examples=60)
@given(st.one_of(junctions(), junctions().map(reversed_right)), vehicles())
def test_extracted_shape_parameters_are_the_report_beta(junction, vehicle):
    left, right, mode = junction
    ctx = JunctionContext(PathSegment(left, mode, 1.5), PathSegment(right, mode, 1.5),
                          vehicle)
    beta = analyze_junction(ctx, Tolerances()).beta
    if beta is None:
        with pytest.raises(DegenerateGeometryError):
            extract_shape_parameters(ctx)
        with pytest.raises(DegenerateGeometryError):
            audit_wheel_continuity(ctx)
        return
    params = extract_shape_parameters(ctx)
    assert params == beta
    # An exponential mode with n < 2 has an infinite theta'' at its junction
    # end, where the wheel audit has no finite residuals to compare.
    if all(math.isfinite(jet.ddtheta) for jet in (ctx.left_mode_jet, ctx.right_mode_jet)):
        assert audit_wheel_continuity(ctx) == audit_wheel_continuity(ctx, params)


def turns_off(a, b) -> np.ndarray:
    """Distance of a - b from the nearest whole number of turns, in radians."""
    return np.abs(np.remainder(np.asarray(a) - b + math.pi, math.tau) - math.pi)


@settings(deadline=None, max_examples=60)
@given(curves(), MODES, vehicles(), ANGLE)
def test_profile_angles_are_their_principal_values_up_to_whole_turns(
        curve, mode, vehicle, phi):
    # Turning the path but not a crab's orientation carries the headings, and
    # the steering angles of a crab, across the branch cut at +-pi.
    c, s = math.cos(phi), math.sin(phi)
    segment = PathSegment(BezierCurve(curve.control_points @ np.array([[c, s], [-s, c]])),
                          mode, 1.5)
    prof = profile_segment(segment, vehicle, 33)
    principal = orientation_many(segment.mode, segment.curve, prof.u,
                                 unwrap=False, order=1)[0]
    assert turns_off(prof.theta, principal).max() <= 1e-9
    # One branch rule: the unwrapped law is the profile's theta, bit for bit.
    assert (orientation_many(segment.mode, segment.curve, prof.u)[0].tobytes()
            == prof.theta.tobytes())
    for w in vehicle.sorted_wheels():
        delta = prof.wheel_tracks[w.id].delta_w
        zeta = _wheel_track_arrays(segment, w, prof.u)["zeta_w"]
        d1 = np.array([wheel_curve_jet(segment, w, u, order=1).d1 for u in prof.u])
        # The heading of a wheel that stops for an instant is not defined there.
        live = np.hypot(d1[:, 0], d1[:, 1]) > 1e-6
        assert turns_off(zeta[live], np.arctan2(d1[live, 1], d1[live, 0])).max(
            initial=0.0) <= 1e-9
        assert turns_off(delta, zeta - prof.theta).max() <= 1e-9
        assert -math.pi <= delta[0] <= math.pi


def test_steering_anchor_on_the_branch_cut_stays_principal():
    # Found by the property above: the heading of this curve starts just
    # below pi, and with a wheel at the origin the anchor of the steering
    # angle was rounded to an ulp above pi.
    segment = PathSegment(BezierCurve(np.array([(0.0, 0.125), (3.0, 0.0), (6.0, 0.0)])),
                          Tangential(math.pi), 1.5)
    vehicle = VehicleModel((Wheel("w0", (0.0, 0.0), 1.5, 1.0),))
    delta = profile_segment(segment, vehicle, 33).wheel_tracks["w0"].delta_w
    assert -math.pi <= delta[0] <= math.pi


# The planner's slack, as in `bench/oracle.py`: values derived with one sqrt or
# one division agree to a few ulps relative, never near the 1e-6 tolerances.
REL_SLACK = 1e-9
ABS_SLACK = 1e-12


@st.composite
def chains(draw):
    """One curve cut into one to three pieces, and which junctions must be rests.

    The pieces of a curve meet smoothly. A crab chain may also turn back at
    a junction: everything after it is reflected through the junction point,
    so the tangent reverses there, and a crab cusp is smooth only at rest.
    """
    curve = draw(curves())
    cuts = sorted(draw(st.lists(st.floats(0.15, 0.85), max_size=2)))
    assume(all(b - a > 0.05 for a, b in zip(cuts, cuts[1:])))
    pieces, done = [], 0.0
    for cut in cuts:
        left, curve = curve.split((cut - done) / (1.0 - done))
        pieces.append(left.control_points)
        done = cut
    pieces.append(curve.control_points)
    mode = draw(st.one_of(st.builds(Tangential, ANGLE), st.builds(Crab, ANGLE)))
    cusps = [isinstance(mode, Crab) and draw(st.booleans()) for _ in cuts]
    for j, cusp in enumerate(cusps):
        if cusp:
            pivot = pieces[j][-1]
            for k in range(j + 1, len(pieces)):
                pieces[k] = 2.0 * pivot - pieces[k]
    segments = tuple(PathSegment(BezierCurve(p), mode, draw(st.floats(0.5, 2.0)))
                     for p in pieces)
    return Path(segments), cusps


@settings(deadline=None, max_examples=60)
@given(chains(), vehicles(), st.floats(0.2, 2.0), st.integers(8, 40))
def test_planned_speeds_keep_the_planner_invariants(chain, vehicle, a_max, resolution):
    path, cusps = chain
    prof = plan_velocity(path, vehicle, a_max, resolution=resolution)
    v, ds = prof.v, np.diff(prof.s)
    assert np.all(v >= 0.0)
    assert np.all(v <= prof.v_limit * (1.0 + REL_SLACK) + ABS_SLACK)
    assert np.all(np.abs(np.diff(v**2)) <= 2.0 * a_max * ds * (1.0 + REL_SLACK) + ABS_SLACK)
    assert v[0] == 0.0 and v[-1] == 0.0
    assert prof.rest_indices == tuple(
        i for i, cusp in zip(prof.junction_indices, cusps) if cusp)
    assert all(v[i] == 0.0 for i in prof.rest_indices)
    assert np.all(ds >= 0.0) and np.all(np.diff(prof.t) >= 0.0)


def per_wheel_plan(path, vehicle, resolution, v):
    """Path arrays and the six wheel dicts, assembled one wheel at a time.

    A reference for `plan_velocity`: each wheel's steering track is re-based
    with scalar `round`/`math.trunc`, every field is concatenated per wheel,
    and speeds and rates are formed from the planned speed ``v``.
    """
    wheel_ids = [w.id for w in vehicle.sorted_wheels()]
    s_parts, u_parts, seg_parts, v_parts, binding, junctions = [], [], [], [], [], []
    tracks = {wid: {"delta": [], "r_v": [], "r_omega": [], "kappa": []} for wid in wheel_ids}
    offset = 0.0
    for k, segment in enumerate(path.segments):
        prof = profile_segment(segment, vehicle, resolution)
        start = 0
        if k > 0:
            junctions.append(len(binding) - 1)
            if prof.v_max[0] < v_parts[-1][-1]:
                binding[-1] = prof.binding[0]
                v_parts[-1][-1] = prof.v_max[0]
            start = 1
        s_parts.append(prof.s[start:] + offset)
        u_parts.append(prof.u[start:])
        seg_parts.append(np.full(prof.u.size - start, k))
        v_parts.append(prof.v_max[start:])
        binding.extend(prof.binding[start:])
        for wid in wheel_ids:
            track = prof.wheel_tracks[wid]
            delta = track.delta_w.copy()
            if k > 0:
                turns = (tracks[wid]["delta"][-1][-1] - delta[0]) / (2.0 * math.pi)
                tie = abs(abs(turns) % 1.0 - 0.5) <= 1e-9
                delta += 2.0 * math.pi * (math.trunc(turns) if tie else round(turns))
            tracks[wid]["delta"].append(delta[start:])
            tracks[wid]["r_v"].append(track.r_v[start:])
            tracks[wid]["r_omega"].append(track.r_omega[start:])
            tracks[wid]["kappa"].append(track.kappa_w[start:])
        offset += float(prof.s[-1])
    wheels = {wid: {key: np.concatenate(parts) for key, parts in fields.items()}
              for wid, fields in tracks.items()}
    rates = {}
    for wid, fields in wheels.items():
        with np.errstate(invalid="ignore"):
            rates[wid] = v * fields["r_omega"]
        rates[wid][v == 0.0] = 0.0
    return {
        "s": np.concatenate(s_parts), "u": np.concatenate(u_parts),
        "segment_index": np.concatenate(seg_parts), "v_limit": np.concatenate(v_parts),
        "binding": tuple(binding), "junction_indices": tuple(junctions),
        "wheel_speeds": {wid: v * fields["r_v"] for wid, fields in wheels.items()},
        "wheel_steering_rates": rates,
        "wheel_deltas": {wid: fields["delta"] for wid, fields in wheels.items()},
        "wheel_r_v": {wid: fields["r_v"] for wid, fields in wheels.items()},
        "wheel_r_omega": {wid: fields["r_omega"] for wid, fields in wheels.items()},
        "wheel_kappa": {wid: fields["kappa"] for wid, fields in wheels.items()},
    }


def assert_planned_like_per_wheel(path, vehicle, a_max, resolution):
    prof = plan_velocity(path, vehicle, a_max, resolution=resolution)

    def same_bits(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    for name, expected in per_wheel_plan(path, vehicle, resolution, prof.v).items():
        got = getattr(prof, name)
        if isinstance(expected, dict):
            assert list(got) == list(expected), name
            assert all(same_bits(got[wid], expected[wid]) for wid in expected), name
        elif isinstance(expected, tuple):
            assert got == expected, name
        else:
            assert same_bits(got, expected), name
    return prof


@settings(deadline=None, max_examples=60)
@given(chains(), vehicles(), st.floats(0.2, 2.0), st.integers(8, 40))
def test_stacked_wheel_tracks_equal_a_per_wheel_assembly(chain, vehicle, a_max, resolution):
    assert_planned_like_per_wheel(chain[0], vehicle, a_max, resolution)


def test_crab_cusp_wheel_tracks_equal_a_per_wheel_assembly():
    vehicle = VehicleModel((
        Wheel("w1", (1.0407600430154627, 0.5242419606534718), 1.4, 0.9),
        Wheel("w2", (1.1447461974453423, -0.4560250960477397), 1.7, 0.8),
        Wheel("w3", (-1.0843022984022759, 0.4487352260876353), 1.8, 0.7)))
    mode = Crab(math.radians(-20.731))
    path = Path(tuple(PathSegment(BezierCurve(p), mode, 1.436) for p in CUSP_CHAIN))
    assert_planned_like_per_wheel(path, vehicle, 0.377, 150)


def test_whole_turn_rebase_equals_a_per_wheel_assembly():
    # A crab's steering angle is the heading minus alpha: it passes pi inside
    # the first piece, and the second piece starts on the principal branch,
    # a whole turn below the first piece's end.
    left, right = BezierCurve([(0.0, 0.0), (2.0, 0.0), (4.0, 1.4)]).split(0.5)
    vehicle = VehicleModel((Wheel("a", (0.0, 0.0), 1.5, 1.0),
                            Wheel("b", (0.8, -0.4), 1.5, 1.0)))
    path = Path(tuple(PathSegment(c, Crab(-3.0), 1.0) for c in (left, right)))
    assert profile_segment(path.segments[1], vehicle, 12).wheel_tracks["a"].delta_w[0] < 0.0
    prof = assert_planned_like_per_wheel(path, vehicle, 0.5, 12)
    assert all(np.all(delta > 2.9) for delta in prof.wheel_deltas.values())
