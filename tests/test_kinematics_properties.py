"""Property test of the wheel axis: one batched pass equals the per-wheel formulas.

`kinematics` computes every wheel's derivatives, ratios and quotas as one
array over a wheel axis. The reference below writes the same formulas out
once per wheel, with the strict-improvement loop for the binding
constraint, and every public result must equal it bit for bit: the same
floats and the same non-finite entries. Flat exponential ends with
1 < n < 2 (infinite theta''), a wheel at the origin and two identical
wheels (exact ties) are always in play. Likewise, one pass over a stack of
curves must equal one pass per curve, and the whole turns of theta and the
wheel headings, whichever rule picks them, must equal the reference's for
any sample set: the grid unwrap, refined between nodes where an angle swings
by more than a quarter turn inside one grid step and the program claims the
continuous angle (theta on a certified hodograph, every tangential steering
angle, and crab ones on a certified hodograph).
"""

import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from agv_path_kit import (BezierCurve, Crab, ExponentialAnticipated, ExponentialDelayed,
                          PathSegment, Tangential, VehicleModel, Wheel, differential_alpha,
                          profile_segment, speed_limit, wheel_speed_limit, wheel_state)
from agv_path_kit.curve import _BezierStack, _hodograph_certifies, sampled_irregular_parameter
from agv_path_kit.kinematics import (_WHEEL_SINGULAR, _Jets, _ratios_from_derivatives,
                                     _steering_tracks, _wheel_derivative_arrays,
                                     limit_profile_fast)
from agv_path_kit.motion import (_UNWRAP_U, _angle, _branch_nodes, _branch_turns, _orientation,
                                 _turns, orientation_many, wrap_angle)
from agv_path_kit.vehicle import _WheelArrays

from test_layout_properties import ANGLE, MOUNT, curves

EXPONENT = st.one_of(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
                     st.floats(2.0, 4.0))
MODES = st.one_of(
    st.builds(Tangential, ANGLE),
    st.builds(Crab, ANGLE),
    st.builds(ExponentialDelayed, ANGLE, EXPONENT),
    st.builds(ExponentialAnticipated, ANGLE, EXPONENT),
)


@st.composite
def vehicles(draw):
    """One to six wheels under shuffled ids: the first at the origin and,
    from three wheels on, the next two twins (same mount, same limits).
    Returns the vehicle and the higher id of the twins (None without them)."""
    count = draw(st.integers(1, 6))
    ids = draw(st.permutations([f"w{k}" for k in range(count)]))
    specs = [((0.0, 0.0), draw(st.floats(0.5, 3.0)), draw(st.floats(0.2, 2.0)))]
    for _ in range(count - 1):
        specs.append(((draw(MOUNT), draw(MOUNT)), draw(st.floats(0.5, 3.0)),
                      draw(st.floats(0.2, 2.0))))
    twin = None
    if count >= 3:
        specs[2] = specs[1]
        twin = max(ids[1], ids[2])
    wheels = [Wheel(wid, *spec) for wid, spec in zip(ids, specs)]
    return VehicleModel(tuple(draw(st.permutations(wheels)))), twin


# ---------------------------------------------------------------------------
# The per-wheel formulas, one wheel at a time.

def ref_derivatives(jets, wheel):
    c, r = jets.c, wheel.r_vec
    if not np.any(r):
        return c[:3]
    rr = np.stack((jets.cos * r[0] - jets.sin * r[1],
                   jets.sin * r[0] + jets.cos * r[1]), axis=1)
    jr = np.stack((-rr[:, 1], rr[:, 0]), axis=1)
    th1, th2 = jets.theta[1][:, None], jets.theta[2][:, None]
    with np.errstate(invalid="ignore"):
        return [c[0] + rr, c[1] + th1 * jr, c[2] - th1**2 * rr + th2 * jr]


def ref_track(jets, wheel):
    _, d1, d2 = ref_derivatives(jets, wheel)
    wheel_speed = np.hypot(d1[:, 0], d1[:, 1])
    singular = ~(wheel_speed > _WHEEL_SINGULAR)
    unbounded = ~np.isfinite(d2).all(axis=1)
    safe = np.where(singular, 1.0, wheel_speed)
    with np.errstate(invalid="ignore", over="ignore"):
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        kappa = np.where(singular | unbounded, np.nan, det / safe**3)
        r_v = wheel_speed / jets.speed
        r_omega = np.where(singular, np.nan,
                           (det / safe**2 - jets.theta[1]) / jets.speed)
    r_omega = np.where(unbounded & ~singular, np.inf, r_omega)
    return {"d1": d1, "r_v": r_v, "r_omega": r_omega, "kappa_w": kappa,
            "singular": singular}


def ref_limit(v_segment, vehicle, tracks, size):
    v = np.full(size, float(v_segment))
    binding = np.array(["segment"] * size, dtype=object)
    flagged = np.zeros(size, dtype=bool)
    for kind, ratio, limit in (("traction", "r_v", "v_max"),
                               ("steering", "r_omega", "omega_max")):
        for w in vehicle.sorted_wheels():
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                mag = np.abs(tracks[w.id][ratio])
                quota = np.where(mag > 0.0, getattr(w, limit) / mag, np.inf)
            quota = np.where(np.isnan(quota), np.inf, quota)
            better = quota < v
            v = np.where(better, quota, v)
            binding[better] = f"{kind}({w.id})"
    for w in vehicle.sorted_wheels():
        flagged |= tracks[w.id]["singular"] | ~np.isfinite(tracks[w.id]["r_omega"])
    return v, [str(b) for b in binding], flagged


def step_turns(angles):
    """Whole turns that continue each angle of ``angles`` from the one before,
    and whether that step swings by more than a quarter turn."""
    diff = np.diff(angles)
    turns = np.rint(diff / -math.tau)
    return turns, np.abs(diff + math.tau * turns) > math.pi / 2


def swing_turns(angle_at, a, b, depth=6, stopped=None):
    """Whole turns across [a, b] from 64 steps, each step that swings by more
    than a quarter turn split again, ``depth`` levels at most; None if a
    swing remains there (the angle jumps), or if ``stopped`` marks a node
    there: the angle of a velocity within rounding of zero is noise."""
    nodes = np.linspace(a, b, 65)
    if stopped is not None and stopped(nodes).any():
        return None
    turns, swings = step_turns(angle_at(nodes))
    for i in np.flatnonzero(swings):
        inner = (None if depth == 0 else
                 swing_turns(angle_at, nodes[i], nodes[i + 1], depth - 1, stopped))
        if inner is None:
            return None
        turns[i] = inner
    return float(np.sum(turns))


def refined_turns(us, angle_at, principal, refine, normal=None, stopped=None):
    """Whole turns of the ``principal`` angles at ``us`` from ``angle_at``'s
    angles on the unwrap grid, unwrapped and read at ``us``. With ``refine``,
    a grid step whose angles differ by more than a quarter turn takes its
    turns from finer steps (`swing_turns`): a wheel velocity that passes near
    the origin swings its angle by up to a half turn inside one grid step,
    and unwrapping that step alone may take the wrong way round. Where the
    angle jumps, as at a cusp, or where ``stopped`` marks a stop within
    rounding, the grid step's own turns stand; with a ``normal``, the step
    instead ends on the branch nearest normal + 2 pi k, the k nearest the angle
    where the step starts: a steering angle that flips at a wheel stop stays
    within a quarter turn of its velocity line's normal."""
    angles = angle_at(_UNWRAP_U)
    turns, swings = step_turns(angles)
    for i in np.flatnonzero(swings & refine):
        finer = swing_turns(angle_at, _UNWRAP_U[i], _UNWRAP_U[i + 1], stopped=stopped)
        if finer is None and normal is not None:
            before = float(np.sum(turns[:i]))
            centre = normal + math.tau * round((angles[i] + math.tau * before - normal) / math.tau)
            finer = round((centre - angles[i + 1]) / math.tau) - before
        if finer is not None:
            turns[i] = finer
    unwrapped = np.concatenate((angles[:1], angles[1:] + math.tau * np.cumsum(turns)))
    return _turns(np.interp(us, _UNWRAP_U, unwrapped), principal)


def stopped_within_rounding(jets, wheel) -> np.ndarray:
    """Nodes where the wheel's |C_w'| is within 64 eps of the size of its terms,
    |C'| + |theta'| |r_w|: there the computed velocity, and so its angle, is
    rounding (a wheel whose line passes within rounding of the origin)."""
    d1 = ref_derivatives(jets, wheel)[1]
    scale = jets.speed + np.abs(jets.theta[1]) * math.hypot(*wheel.r_w)
    return np.hypot(d1[:, 0], d1[:, 1]) <= 64.0 * np.finfo(float).eps * scale


def velocity_line_normal(mode, wheel) -> float:
    """Angle of s r_w, the normal through the origin of a tangential wheel's
    body-frame velocity line (cos alpha, -sin alpha) + k J r_w; s is the sign
    of r_x cos alpha - r_y sin alpha, and +1 where that is 0."""
    x, y = wheel.r_w
    side = -1.0 if x * math.cos(mode.alpha) - y * math.sin(mode.alpha) < 0.0 else 1.0
    return math.atan2(side * y, side * x)


def ref_branches(segment, wheels, us):
    """The jets at ``us``, unwrapped theta there, and each wheel's unwrapped
    heading and steering angle.

    Unwrapped angles are principal values plus whole turns, picked by
    `refined_turns` one angle at a time. On a certified hodograph theta's
    turns are those of the continuous angle, grid steps refined; elsewhere
    the grid unwrap itself is the rule, and so the reference. Every
    tangential steering angle, and a crab one on a certified hodograph,
    takes the turns of the continuous steering angle zeta_w - theta, grid
    steps refined, and a tangential one flips at a wheel stop, also one within
    rounding (`stopped_within_rounding`), within a quarter turn of
    `velocity_line_normal`; its heading adds theta's turns. The other
    headings (an exponential law, crab on an uncertified hodograph) take the
    grid unwrap's turns. A steering angle adds the turns `wrap_angle` takes off
    its grid value at u = 0.
    """
    def jets_at(nodes):
        return grid if nodes is _UNWRAP_U else _Jets(segment.curve, segment.mode, nodes)

    grid = _Jets(segment.curve, segment.mode, _UNWRAP_U)
    jets = jets_at(us)
    mode = segment.mode
    certified = _hodograph_certifies(segment.curve.control_points.tolist())
    theta_turns = refined_turns(us, lambda nodes: jets_at(nodes).theta[0], jets.theta[0],
                                certified)
    theta = jets.theta[0] + math.tau * theta_turns
    angles = []
    for w in wheels:
        def zeta_at(nodes, w=w):
            return _angle(ref_derivatives(jets_at(nodes), w)[1])

        zeta = zeta_at(us)
        start = zeta_at(_UNWRAP_U)[0] - grid.theta[0][0]
        anchor = round((wrap_angle(start) - start) / math.tau)
        if isinstance(mode, Tangential) or certified and isinstance(mode, Crab):
            tangential = isinstance(mode, Tangential)
            turns = theta_turns + refined_turns(
                us, lambda nodes: zeta_at(nodes) - jets_at(nodes).theta[0],
                zeta - jets.theta[0], True, velocity_line_normal(mode, w) if tangential else None,
                (lambda nodes, w=w: stopped_within_rounding(jets_at(nodes), w)) if tangential
                else None)
        else:
            turns = refined_turns(us, zeta_at, zeta, False)
        angles.append((zeta + math.tau * turns,
                       (zeta - jets.theta[0]) + math.tau * (turns - theta_turns + anchor)))
    return jets, theta, angles


def ref_profile(segment, vehicle, samples):
    us = np.linspace(0.0, 1.0, samples)
    jets, theta, angles = ref_branches(segment, vehicle.sorted_wheels(), us)
    tracks = {}
    for w, (_, delta) in zip(vehicle.sorted_wheels(), angles):
        track = ref_track(jets, w)
        track["delta_w"] = delta
        tracks[w.id] = track
    v, binding, flagged = ref_limit(segment.v_max, vehicle, tracks, samples)
    cusp = np.zeros(samples, dtype=bool)
    for t in tracks.values():
        cusp |= t["singular"]
    if cusp.any() and (~cusp).any():
        idx = np.arange(samples)
        clean = idx[~cusp]
        for i in idx[cusp]:
            v[i] = min(v[i], v[clean[np.argmin(np.abs(clean - i))]])
    return v, binding, flagged, theta, jets.theta[1], tracks


def same(a, b) -> bool:
    """Bit for bit, as far as floats go: equal values and equal non-finite entries."""
    return np.array_equal(a, b, equal_nan=True)


@settings(deadline=None, max_examples=60)
@given(curves().filter(lambda c: c.degree >= 3), MODES, vehicles(),
       st.sampled_from([0.0, 1.0, 0.37]))
def test_batched_wheel_pass_equals_the_per_wheel_formulas(curve, mode, fleet, u):
    vehicle, twin = fleet
    segment = PathSegment(curve, mode, 1.5)
    # Both ends are nodes, so the flat end of an exponential law is sampled.
    us = np.linspace(0.0, 1.0, 17)
    jets = _Jets(curve, mode, us)
    tracks = {w.id: ref_track(jets, w) for w in vehicle.sorted_wheels()}
    v, speed = limit_profile_fast(curve, mode, 1.5, vehicle, us)
    assert same(v, ref_limit(1.5, vehicle, tracks, us.size)[0])
    assert same(speed, jets.speed)

    point = _Jets(curve, mode, np.array([u]))
    point_tracks = {w.id: ref_track(point, w) for w in vehicle.sorted_wheels()}
    ref_v, ref_binding, ref_flagged = ref_limit(1.5, vehicle, point_tracks, 1)
    sample = speed_limit(segment, vehicle, u, 0.0)
    assert same(sample.v_max, ref_v[0])
    assert (sample.binding, sample.flagged) == (ref_binding[0], ref_flagged[0])
    for w in vehicle.wheels:
        assert same(wheel_speed_limit(segment, vehicle, w, u),
                    float(ref_v[0]) * float(point_tracks[w.id]["r_v"][0]))

    prof = profile_segment(segment, vehicle, 17)
    ref_v, ref_binding, ref_flagged, theta, dtheta, ref_tracks = ref_profile(
        segment, vehicle, 17)
    assert same(prof.v_max, ref_v) and same(prof.flagged, ref_flagged)
    assert list(prof.binding) == ref_binding
    assert same(prof.theta, theta) and same(prof.dtheta, dtheta)
    for wid, track in prof.wheel_tracks.items():
        for key in ("delta_w", "r_v", "r_omega", "kappa_w", "singular"):
            assert same(getattr(track, key), ref_tracks[wid][key])
    # Twins tie exactly on every quota; the lower id binds.
    if twin is not None:
        assert all(f"({twin})" not in b for b in (*prof.binding, sample.binding))


def test_wheel_at_the_origin_keeps_a_finite_steering_ratio_at_a_flat_end():
    # At u=0 of a delayed law with n < 2 on a turning path theta'' is
    # infinite. A mounted wheel's steering ratio is unbounded there, but the
    # origin wheel follows the path itself: broadcasting its zero mount would
    # give 0 * inf = NaN and make its ratio unbounded too.
    segment = PathSegment(BezierCurve([[0.0, 0.0], [1.0, 1.0], [2.0, 1.0], [3.0, 0.0]]),
                          ExponentialDelayed(0.0, 1.5), 1.5)
    vehicle = VehicleModel((Wheel("w0", (0.0, 0.0), 1.0, 1.0),
                            Wheel("w1", (0.5, 0.5), 1.0, 1.0)))
    tracks = profile_segment(segment, vehicle, 9).wheel_tracks
    assert tracks["w0"].r_v[0] == 1.0 and math.isfinite(tracks["w0"].r_omega[0])
    assert tracks["w1"].r_omega[0] == math.inf


def test_steering_angle_one_ulp_above_minus_pi_stays_principal():
    # With alpha one ulp below pi the origin wheel's steering angle is -alpha,
    # inside (-pi, pi]; pi - (-alpha) rounds to 2 pi, so a floor of it took a turn.
    alpha = math.nextafter(math.pi, 0.0)
    segment = PathSegment(BezierCurve([[0.0, 0.0], [1.0, 0.3], [2.0, -0.2], [3.0, 0.1]]),
                          Tangential(alpha), 1.5)
    vehicle = VehicleModel((Wheel("w0", (0.0, 0.0), 1.0, 1.0),))
    delta = profile_segment(segment, vehicle, 9).wheel_tracks["w0"].delta_w
    assert (np.abs(delta + alpha) <= 1e-12).all()


def nudged(x: float, ulps: int) -> float:
    """``x`` moved by ``ulps`` units in the last place."""
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.copysign(math.inf, ulps))
    return x


# Offsets anywhere, and within a few ulps or a micro-radian of +-pi.
BRANCH_ANGLE = st.one_of(
    ANGLE,
    st.builds(nudged, st.sampled_from([math.pi, -math.pi]), st.integers(-4, 4)),
    st.floats(math.pi - 1e-6, math.pi), st.floats(-math.pi, -math.pi + 1e-6))


@st.composite
def branch_curves(draw):
    """A regular curve of degree 1 to 9, turned so that its tangent at u = 0
    points anywhere or near the principal cut at +-pi, where wheel headings
    straddle it, and whether it winds past a half turn: one in four has its
    control points on a circular arc of 1.5 to 1.9 pi."""
    winds = draw(st.integers(0, 3)) == 0
    if winds:
        degree = draw(st.integers(6, 9))
        phi = np.linspace(0.0, draw(st.floats(1.5 * math.pi, 1.9 * math.pi)), degree + 1)
        points = draw(st.floats(0.5, 3.0)) * np.column_stack((np.cos(phi), np.sin(phi)))
    else:
        degree = draw(st.integers(1, 9))
        points = np.column_stack([
            np.linspace(0.0, 6.0, degree + 1)
            + draw(arrays(float, degree + 1, elements=st.floats(-0.5, 0.5))),
            draw(arrays(float, degree + 1, elements=st.floats(-1.5, 1.5)))])
    turn = draw(BRANCH_ANGLE) - math.atan2(points[1, 1] - points[0, 1], points[1, 0] - points[0, 0])
    c, s = math.cos(turn), math.sin(turn)
    curve = BezierCurve(points @ np.array([[c, s], [-s, c]]))
    assume(sampled_irregular_parameter(curve) is None)
    return curve, winds


@st.composite
def branch_wheels(draw, alpha: float):
    """One to four wheels: anywhere, or where a tangential law with offset
    ``alpha`` has its body-frame velocity line through the origin,
    t (sin alpha, cos alpha), moved off it by a few ulps per coordinate or by
    a gap of 1e-7 to 1e-3 times |t| along (cos alpha, -sin alpha), where the
    steering angle swings by nearly a half turn within a short stretch of u."""
    wheels = []
    for k in range(draw(st.integers(1, 4))):
        kind = draw(st.sampled_from(["free", "free", "ulps", "gap"]))
        if kind == "free":
            mount = (draw(MOUNT), draw(MOUNT))
        else:
            t = draw(st.floats(0.05, 2.0)) * draw(st.sampled_from([-1.0, 1.0]))
            x, y = t * math.sin(alpha), t * math.cos(alpha)
            if kind == "ulps":
                mount = (nudged(x, draw(st.integers(-3, 3))), nudged(y, draw(st.integers(-3, 3))))
            else:
                gap = abs(t) * draw(st.sampled_from([1e-7, 9.9e-7, 1.01e-6, 1e-5, 1e-3]))
                gap *= draw(st.sampled_from([-1.0, 1.0]))
                mount = (x + gap * math.cos(alpha), y - gap * math.sin(alpha))
        wheels.append(Wheel(f"w{k}", mount, 1.0, 1.0))
    return wheels


# Sample sets in any order, with or without the ends.
SAMPLE_SETS = st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 1.0])),
                       min_size=1, max_size=12)


def assert_reference_branches(segment, wheels, us) -> np.ndarray:
    """Theta from `_steering_tracks` and `orientation_many`, and the headings and
    steering angles, equal `ref_branches` bit for bit; returns the headings."""
    _, theta, tracks = _steering_tracks(segment, _WheelArrays(wheels), us)
    _, ref_theta, angles = ref_branches(segment, wheels, us)
    assert same(theta, ref_theta)
    assert same(orientation_many(segment.mode, segment.curve, us)[0], ref_theta)
    for k, (zeta, delta) in enumerate(angles):
        assert same(tracks["zeta_w"][k], zeta) and same(tracks["delta_w"][k], delta)
    return tracks["zeta_w"]


# Every law: n in (1, 2), where theta'' is infinite at the flat end, n = 2 and n > 2.
BRANCH_EXPONENT = st.one_of(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
                            st.just(2.0), st.floats(2.0, 6.0, exclude_min=True))
BRANCH_MODES = st.one_of(
    st.builds(Tangential, BRANCH_ANGLE),
    st.builds(Crab, BRANCH_ANGLE),
    st.builds(ExponentialDelayed, BRANCH_ANGLE, BRANCH_EXPONENT),
    st.builds(ExponentialAnticipated, BRANCH_ANGLE, BRANCH_EXPONENT),
)


@st.composite
def branch_steering(draw):
    """A law from BRANCH_MODES and `branch_wheels` for its offset."""
    mode = draw(BRANCH_MODES)
    return mode, draw(branch_wheels(mode.alpha))


@settings(deadline=None, max_examples=400)
@given(branch_curves(), branch_steering(), SAMPLE_SETS)
# A wheel 1.01e-6 |t| off its velocity line: as kappa passes -0.5 its angle
# swings by nearly a half turn inside one grid step, which the grid alone
# unwraps the wrong way round.
@example((BezierCurve([[0, 0], [0.75, 0], [1.5, 0], [2.25, 0], [3, 0], [3.75, 0], [4.5, 0],
                       [5.25, 1], [6, -0.5]]), False),
         (Tangential(0.0), [Wheel("w0", (-2.02e-6, -2.0), 1.0, 1.0)]), [1.0])
# Wheels within rounding of their velocity line's origin, which stop twice: the
# computed velocity at a stop is rounding, whose angle once took the reference
# round the -r_w side where the rule flips through +r_w both times.
@example((BezierCurve([[0.07883059059881717, 0.23724615483889655],
                       [0.2364917717964515, 0.7117384645166897],
                       [-1.0293239760392936, 1.659214317787386],
                       [0.7094753153893545, 2.135215393550069],
                       [0.945967087185806, 2.8469538580667586],
                       [0.23347423962667135, 3.8740146849787167],
                       [1.418950630778709, 4.270430787100138],
                       [1.6554424025751606, 4.982169251616828],
                       [1.891934174371612, 5.693907716133517]]), False),
         (Tangential(math.pi), [Wheel("w0", (-1.8369701987210297e-16, 1.5), 1.0, 1.0)]), [1.0])
@example((BezierCurve([[-0.10595065697864799, 0.1778662327772064],
                       [-1.4574264422266379, 0.37051443401290257],
                       [-0.983256366516132, 1.650656171029438],
                       [-1.8437052323652208, 1.996002969099516],
                       [-1.8605620760536161, 3.12344610928167],
                       [-2.2992149308223584, 3.859841078407786],
                       [-2.180081505088615, 5.019431266232045],
                       [-3.1765206403598425, 5.3326310166600175]]), False),
         (Tangential(0.0), [Wheel("w0", (0.0, 1.0), 1.0, 1.0)]), [1.0])
@example((BezierCurve([[0.0, 0.0], [1.701527405462968, 4.376996545943173e-17],
                       [0.8635698434150317, -1.4808857605326005],
                       [1.2953547651225477, -2.221328640798901],
                       [0.6512095657638537, -3.589193859058712],
                       [3.454699649003605, -2.9465907883433484],
                       [2.5907095302450953, -4.442657281597802],
                       [3.0224944519526113, -5.183100161864102]]), False),
         (Tangential(math.pi), [Wheel("w0", (-9.950255243072244e-17, 0.8125000000000001),
                                      1.0, 1.0)]), [1.0])
def test_half_plane_turns_equal_the_grid_turns(case, steering, us):
    # On a certified hodograph theta takes its whole turns from its u = 0
    # value under every law, and so does each steering angle of a crab law; a
    # tangential steering angle takes the branch nearest its velocity line's
    # normal however near the origin the line passes; a curve that winds past a
    # half turn never certifies. Every path must pick the reference's turns, so
    # theta, the headings and the steering angles are equal bit for bit.
    curve, winds = case
    mode, wheels = steering
    us = np.array(us)
    assert not (winds and _hodograph_certifies(curve.control_points.tolist()))
    assert_reference_branches(PathSegment(curve, mode, 1.5), wheels, us)


@pytest.mark.parametrize("mode", [Tangential(0.0), Crab(math.pi), ExponentialDelayed(0.0, 1.5),
                                  ExponentialDelayed(0.0, 2.0), ExponentialAnticipated(0.0, 3.0)])
def test_theta_start_keeps_the_sign_of_a_zero_tangent_component(mode):
    # The end row gives C'(0) = (-2, -0.0) and the kernel (-2, +0.0): atan2 reads
    # -pi against pi, so a start read off the end row would move theta by a turn.
    curve = BezierCurve([(0.0, 0.0), (-1.0, -0.0), (-2.0, 1.0)])
    assert _hodograph_certifies(curve.control_points.tolist())
    wheels = [Wheel("w0", (0.0, 0.0), 1.0, 1.0), Wheel("w1", (0.4, -0.3), 1.0, 1.0)]
    assert_reference_branches(PathSegment(curve, mode, 1.5), wheels,
                              np.array([0.0, 0.3, 1.0]))


def test_headings_that_straddle_the_cut_keep_their_own_start():
    # The path starts heading along -x and turns left, so the front wheel's
    # heading starts below pi and the rear wheel's above -pi: their steering
    # angles at u = 0 differ by nearly 2 pi before `wrap_angle`.
    curve = BezierCurve([[0.0, 0.0], [-1.0, 0.0], [-2.0, 0.5], [-3.0, 1.5]])
    segment = PathSegment(curve, Tangential(0.0), 1.5)
    wheels = [Wheel("front", (1.0, 0.5), 1.0, 1.0), Wheel("rear", (-1.0, -0.5), 1.0, 1.0)]
    us = np.linspace(0.0, 1.0, 5)
    assert _branch_nodes(curve).size == 1
    zeta = assert_reference_branches(segment, wheels, us)
    assert zeta[0, 0] > 2.5 and zeta[1, 0] < -2.5


def two_pass_tracks(segment, wheels, us, lowest):
    """`_steering_tracks` with its u = 0 state from a pass of its own, under the rule
    that took theta's turns from the wheels' nodes: theta and the wheel headings on
    `_UNWRAP_U` for an exponential law or an uncertified hodograph, else at u = 0 alone
    (the u = 0 node alone in tangential mode)."""
    mode, curve = segment.mode, segment.curve
    jets = _Jets(curve, mode, us, lowest=lowest)
    exponential = isinstance(mode, (ExponentialDelayed, ExponentialAnticipated))
    certified = _hodograph_certifies(curve.control_points.tolist())
    nodes = _UNWRAP_U[:1] if certified and not exponential else _UNWRAP_U
    tangential = isinstance(mode, Tangential)
    start = _Jets(curve, mode, nodes[:1] if tangential else nodes, 1, lowest=1)
    grid = (_orientation(mode, curve, nodes, 0, None, mode.alpha, None)[0]
            if tangential and nodes.size > 1 else start.theta[0])
    pos, d1, r_v, r_omega, singular, (det, safe, unbounded) = _ratios_from_derivatives(jets, wheels)
    with np.errstate(invalid="ignore", over="ignore"):
        kappa = np.where(singular | unbounded, np.nan, det / safe**3)
    d1_start = _wheel_derivative_arrays(start, wheels, 1)[1]
    headings = np.arctan2(d1_start[1], d1_start[0])
    principal = np.vstack((jets.theta[0], np.arctan2(d1[1], d1[0])))
    delta0 = headings[:, :1] - start.theta[0][0]
    if headings.shape[1] > 1:
        turns = _branch_turns(us, np.vstack((grid, headings)), principal)
    else:
        x, y = wheels.mounts.T
        side = np.where(x * math.cos(mode.alpha) - y * math.sin(mode.alpha) < 0.0, -1.0, 1.0)
        reference = np.arctan2(side * y, side * x)[:, None] if tangential else delta0
        body = _branch_turns(us, grid, principal[0])
        turns = np.vstack((body, body + _turns(reference, principal[1:] - principal[0])
                           - _turns(reference, delta0)))
    unwrapped = principal + math.tau * turns
    anchor = np.rint([(wrap_angle(s) - s) / math.tau for s in delta0[:, 0].tolist()])[:, None]
    delta = (principal[1:] - principal[0]) + math.tau * ((turns[1:] - turns[0]) + anchor)
    return jets.theta[1], unwrapped[0], {
        "position": None if pos is None else np.stack(pos, axis=-1), "zeta_w": unwrapped[1:],
        "delta_w": delta, "r_v": r_v, "r_omega": r_omega, "kappa_w": kappa,
        "singular": singular}


@settings(deadline=None, max_examples=150)
@given(branch_curves(), BRANCH_MODES, st.lists(st.tuples(MOUNT, MOUNT), min_size=1, max_size=4),
       st.sampled_from([0.0, -0.0, 0.4, None]), SAMPLE_SETS, st.sampled_from([0, 1]))
def test_start_state_from_the_main_pass_equals_its_own_pass(case, mode, mounts, first, us,
                                                            lowest):
    # Where the wheels start from u = 0 alone, theta and the headings there are
    # column 0 of the pass at us when us starts at +0.0, and of a pass with +0.0
    # put first otherwise (as at -0.0): each node's values are its own, so every
    # track equals the one with a pass at u = 0 of its own, bit for bit.
    curve, _ = case
    segment = PathSegment(curve, mode, 1.5)
    wheels = _WheelArrays([Wheel(f"w{k}", mount, 1.0, 1.0) for k, mount in enumerate(mounts)])
    us = np.array(us if first is None else [first, *us])
    dtheta, theta, tracks = _steering_tracks(segment, wheels, us, lowest)
    ref_dtheta, ref_theta, ref_tracks = two_pass_tracks(segment, wheels, us, lowest)
    assert same(dtheta, ref_dtheta) and same(theta, ref_theta)
    assert tracks.keys() == ref_tracks.keys()
    for key, rows in tracks.items():
        assert (rows is None) == (ref_tracks[key] is None) == (key == "position" and lowest == 1)
        assert rows is None or same(rows, ref_tracks[key])


@st.composite
def curve_stacks(draw):
    """One to four forward-moving curves of one degree from 3 to 7."""
    degree = draw(st.integers(3, 7))
    stack = []
    for _ in range(draw(st.integers(1, 4))):
        x = np.linspace(0.0, 6.0, degree + 1) + draw(
            arrays(float, degree + 1, elements=st.floats(-0.5, 0.5)))
        y = draw(arrays(float, degree + 1, elements=st.floats(-1.5, 1.5)))
        stack.append(BezierCurve(np.column_stack([x, y])))
    return stack


# Exponential laws with infinite theta'' at the flat end (1 < n < 2) and n = 2.
STACK_EXPONENT = st.one_of(st.floats(1.0, 2.0, exclude_min=True, exclude_max=True),
                           st.just(2.0))
STACK_MODES = st.one_of(
    st.builds(Tangential, ANGLE),
    st.builds(Crab, ANGLE),
    st.builds(ExponentialDelayed, ANGLE, STACK_EXPONENT),
    st.builds(ExponentialAnticipated, ANGLE, STACK_EXPONENT),
)


@settings(deadline=None, max_examples=60)
@given(curve_stacks(), STACK_MODES, vehicles())
def test_one_pass_over_a_stack_equals_one_pass_per_curve(stack, mode, fleet):
    vehicle = fleet[0]
    # Both ends are nodes, so the flat end of an exponential law is sampled.
    us = np.linspace(0.0, 1.0, 17)
    with np.errstate(all="ignore"):
        nets = [c.control_points for c in stack]
        v, speed = limit_profile_fast(_BezierStack(nets), mode, 1.5, vehicle,
                                      np.tile(us, len(stack)))
        for k, curve in enumerate(stack):
            v_one, speed_one = limit_profile_fast(curve, mode, 1.5, vehicle, us)
            block = slice(k * us.size, (k + 1) * us.size)
            assert same(v[block], v_one) and same(speed[block], speed_one)


def test_a_swing_inside_one_grid_step_keeps_its_way_round():
    # A wheel 1e-7 |t| off its body-frame velocity line: its steering angle
    # swings by nearly a half turn inside one step of the 4097-node grid, which,
    # unwrapped alone, took that step the wrong way round and put the heading a
    # turn too high from there on (7.68885, 10.36412, 6.47064).
    curve = BezierCurve([[1.4921438059183292, -0.518785806317149],
                         [0.6882811102448075, 0.8930061243367731],
                         [2.435327446919328, 0.7684109827792878],
                         [1.0798965138226877, 3.3725049121888313],
                         [1.5386764955259529, 4.453491411603607],
                         [3.5543676959387134, 4.835825484058697]])
    segment = PathSegment(curve, Tangential(-0.21107936148564033), 1.5)
    wheels = [Wheel("w0", (0.3674618465587424, -1.7149397382793405), 1.0, 1.0)]
    zeta = assert_reference_branches(segment, wheels, np.array([0.0, 0.6137, 0.78233, 1.0]))
    assert np.allclose(zeta[0], [2.08841, 1.40566, 4.08093, 0.18745], rtol=0.0, atol=1e-5)


# An S-bend whose curvature runs from -3.73 to 3.73: its hodograph does not certify.
S_BEND = [[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]]


def kappa_at(curve, us):
    d = curve.derivatives_many(us, 2, lowest=1)
    return (d[1][:, 0] * d[2][:, 1] - d[1][:, 1] * d[2][:, 0]) / np.hypot(*d[1].T)**3


@pytest.mark.parametrize("turn", [0.0, 0.7, -2.9, math.pi])
def test_differential_axle_flips_within_a_quarter_turn_of_plus_r_w(turn):
    # On a `differential_alpha` axle each wheel sits at r_w = t (sin alpha,
    # cos alpha), so its body-frame velocity |C'| (1 - kappa t) (cos alpha,
    # -sin alpha) lies on a line through the origin: the steering angle is
    # -alpha, and pi - alpha after a stop reverses the wheel. Here
    # r_x cos alpha - r_y sin alpha is exactly 0, so each wheel's reference is
    # angle(+r_w), a quarter turn from both values, and the flip goes through
    # it: to pi - alpha for t = 1, to -pi - alpha for t = -1. That choice, not
    # the rounding of a grid step, fixes the track, so turning the path
    # changes nothing.
    vehicle = VehicleModel((Wheel("w0", (0.6, 0.8), 1.0, 1.0),
                            Wheel("w1", (-0.6, -0.8), 1.0, 1.0)))
    alpha = differential_alpha(vehicle)
    c, s = math.cos(turn), math.sin(turn)
    curve = BezierCurve(np.array(S_BEND) @ np.array([[c, s], [-s, c]]))
    segment = PathSegment(curve, Tangential(alpha), 1.5)
    us = np.linspace(0.0, 1.0, 41)
    kappa = kappa_at(curve, us)
    tracks = profile_segment(segment, vehicle, us.size).wheel_tracks
    for w, t, reversed_delta in zip(vehicle.wheels, (1.0, -1.0),
                                    (math.pi - alpha, -math.pi - alpha)):
        x, y = w.r_w
        assert x * math.cos(alpha) - y * math.sin(alpha) == 0.0
        rolling = 1.0 - kappa * t
        assert (np.abs(rolling) > 1e-3).all() and (rolling < 0.0).any() and (rolling > 0.0).any()
        delta = tracks[w.id].delta_w
        normal = math.atan2(y, x)
        assert (np.abs(delta - normal) <= math.pi / 2 + 1e-12).all()
        assert np.allclose(delta, np.where(rolling > 0.0, -alpha, reversed_delta),
                           rtol=0.0, atol=1e-12)
    assert_reference_branches(segment, vehicle.sorted_wheels(), us)


@settings(deadline=None, max_examples=40)
@given(BRANCH_ANGLE, st.floats(0.5, 2.0), st.sampled_from([-1.0, 1.0]),
       st.integers(-3, 3), st.integers(-3, 3))
def test_a_wheel_whose_side_rounding_decides_stops_within_rounding(alpha, size, sign, ux, uy):
    # Computed r_x cos alpha - r_y sin alpha is off by at most about
    # 3 eps (|r_x| + |r_y|), so its sign, the side of the reference, can be
    # wrong only for a line within 3 sqrt(2) eps |C'| of the origin. A wheel a
    # few ulps off such a line, as here, then slows to that size where
    # 1 - kappa t = 0: its velocity is at the rounding of C_w' itself, a stop
    # within rounding, and |C_w'| <= 1e-12 flags it singular there.
    t = size * sign
    wheel = Wheel("w", (nudged(t * math.sin(alpha), ux), nudged(t * math.cos(alpha), uy)), 1.0, 1.0)
    x, y = wheel.r_w
    eps = np.finfo(float).eps
    assert abs(x * math.cos(alpha) - y * math.sin(alpha)) <= 3.0 * eps * (abs(x) + abs(y))
    segment = PathSegment(BezierCurve(S_BEND), Tangential(alpha), 1.5)
    rolling = 1.0 - kappa_at(segment.curve, _UNWRAP_U) * t
    i = int(np.flatnonzero(rolling[:-1] * rolling[1:] < 0.0)[0])
    lo, hi = float(_UNWRAP_U[i]), float(_UNWRAP_U[i + 1])
    while lo < (mid := (lo + hi) / 2) < hi:
        lo, hi = (mid, hi) if (1.0 - kappa_at(segment.curve, np.array([mid]))[0] * t > 0.0
                               ) == (rolling[i] > 0.0) else (lo, mid)
    assert any(wheel_state(segment, wheel, u).singular for u in (lo, hi))
