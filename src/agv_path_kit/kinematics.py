"""Wheel-level kinematics along a path segment.

Given a segment (curve + motion mode) and a wheel mounted at r_w, the wheel
path is C_w(u) = C(u) + R(theta(u)) r_w. From its exact derivatives follow
the wheel heading, steering angle, curvature, the velocity ratio
R_v = |C_w'|/|C'|, the steering ratio R_omega = (kappa_w |C_w'| - theta')/|C'|,
and the pointwise vehicle speed limit

    v_max(u) = min(v_segment, min_w v_w_max / R_v,  min_w omega_w_max / |R_omega|).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import BezierCurve, CurveJet, arc_length
from .motion import (_UNWRAP_U, Tangential, _angle, _nearest_branch, orientation_many,
                     wrap_angle)
from .vehicle import PathSegment, VehicleModel, Wheel

__all__ = [
    "WheelState",
    "SpeedLimitSample",
    "SegmentProfile",
    "WheelTrack",
    "wheel_curve_jet",
    "wheel_end_jet",
    "wheel_state",
    "speed_limit",
    "wheel_speed_limit",
    "profile_segment",
    "fold_steering_angles",
]

_WHEEL_SINGULAR = 1e-12


@dataclass(frozen=True)
class WheelState:
    """Kinematic state of one wheel at a path parameter.

    ``delta_w`` (steering angle, wheel heading minus body orientation) is
    unwrapped along u within the segment. ``singular`` marks isolated points
    where the wheel path momentarily stops (|C_w'| = 0) and curvature-based
    quantities are undefined.
    """

    position: np.ndarray
    zeta_w: float
    delta_w: float
    r_v: float
    r_omega: float
    kappa_w: float
    singular: bool = False


@dataclass(frozen=True)
class SpeedLimitSample:
    """Pointwise speed limit with the constraint that attains it.

    ``binding`` is "segment", "traction(<wheel>)" or "steering(<wheel>)";
    ties resolve in that order, then by lowest wheel id. ``flagged`` marks
    samples where a wheel was singular or a steering ratio unbounded.
    """

    u: float
    s: float
    v_max: float
    binding: str
    flagged: bool = False


class _Jets:
    """Curve derivatives, |C'|, orientation jets and cos/sin of theta at ``us``.

    One curve evaluation at ``us``, up to ``order`` (2 or 3), is shared by
    every wheel, and by the orientation law too in tangential mode. Theta is
    on the principal branch; `_steering_tracks` unwraps the angles it reports.
    """

    def __init__(self, curve: BezierCurve, mode, us: np.ndarray, order: int = 2):
        us = np.asarray(us, dtype=float)
        shared = isinstance(mode, Tangential)
        self.c = curve.derivatives_many(us, order + 1 if shared else order)
        self.speed = np.hypot(self.c[1][:, 0], self.c[1][:, 1])
        self.theta = orientation_many(mode, curve, us, False, order,
                                      self.c if shared else None)
        self.cos, self.sin = np.cos(self.theta[0]), np.sin(self.theta[0])


def _wheel_derivative_arrays(jets: _Jets, wheel: Wheel, order: int = 2):
    """Position and derivatives up to ``order`` of the wheel curve at each u.

    C_w = C + R r_w; every derivative of R r_w combines R r_w and J R r_w,
    with J the rotation by +90 degrees.
    """
    c = jets.c
    r = wheel.r_vec
    if not np.any(r):
        return c[:order + 1]
    rr = np.stack((jets.cos * r[0] - jets.sin * r[1],
                   jets.sin * r[0] + jets.cos * r[1]), axis=1)
    jr = np.stack((-rr[:, 1], rr[:, 0]), axis=1)
    th1, th2 = jets.theta[1][:, None], jets.theta[2][:, None]
    out = [c[0] + rr, c[1] + th1 * jr]
    with np.errstate(invalid="ignore"):
        out.append(c[2] - th1**2 * rr + th2 * jr)
        if order >= 3:
            out.append(c[3] - 3.0 * th1 * th2 * rr
                       + (jets.theta[3][:, None] - th1**3) * jr)
    return out


def wheel_curve_jet(segment: PathSegment, wheel: Wheel, u: float,
                    order: int = 2) -> CurveJet:
    """Exact jet of the wheel path at ``u`` up to ``order`` (max 3).

    Order 3 uses the analytic third derivative of the orientation law, which
    exists for every shipped mode at interior parameters.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"order must be in 0..3, got {order}")
    k = max(order, 2)
    jets = _Jets(segment.curve, segment.mode, np.array([float(u)]), order=k)
    d = [a[0] for a in _wheel_derivative_arrays(jets, wheel, k)]
    zero = np.zeros(2)
    return CurveJet(d[0], d[1], d[2] if order >= 2 else zero,
                    d[3] if order >= 3 else zero)


def wheel_end_jet(segment: PathSegment, wheel: Wheel, end: str) -> CurveJet:
    """One-sided wheel jet up to order 2 at a segment end ("start" or "end")."""
    if end not in ("start", "end"):
        raise ValueError(f"end must be 'start' or 'end', got {end!r}")
    return wheel_curve_jet(segment, wheel, 0.0 if end == "start" else 1.0)


def _ratios_from_derivatives(d1, d2, dtheta, vehicle_speed):
    """r_v, r_omega, kappa, singular from wheel derivatives (no unwrapping).

    Rows where the second derivative is not finite (the flat end of an
    exponential reparameterization with 1 < n < 2) have a genuinely
    unbounded steering ratio: r_omega is +inf there, never NaN, so the
    steering constraint collapses the speed limit instead of dropping out.
    """
    wheel_speed = np.hypot(d1[:, 0], d1[:, 1])
    singular = ~(wheel_speed > _WHEEL_SINGULAR)
    unbounded = ~np.isfinite(d2).all(axis=1)
    safe = np.where(singular, 1.0, wheel_speed)
    with np.errstate(invalid="ignore", over="ignore"):
        det = d1[:, 0] * d2[:, 1] - d1[:, 1] * d2[:, 0]
        kappa = np.where(singular | unbounded, np.nan, det / safe**3)
        zeta_rate = det / safe**2  # = kappa_w |C_w'|
        r_v = wheel_speed / vehicle_speed
        r_omega = np.where(singular, np.nan, (zeta_rate - dtheta) / vehicle_speed)
    r_omega = np.where(unbounded & ~singular, np.inf, r_omega)
    return r_v, r_omega, kappa, singular


def _wheel_tracks(jets: _Jets, wheel: Wheel) -> tuple[np.ndarray, dict]:
    """First derivative of the wheel path, plus its position and ratio tracks."""
    pos, d1, d2 = _wheel_derivative_arrays(jets, wheel)
    r_v, r_omega, kappa, singular = _ratios_from_derivatives(
        d1, d2, jets.theta[1], jets.speed)
    return d1, {"position": pos, "r_v": r_v, "r_omega": r_omega,
                "kappa_w": kappa, "singular": singular}


def _ratio_tracks(jets: _Jets, vehicle: VehicleModel) -> dict[str, dict]:
    """Speed/steering ratios for every wheel of ``vehicle``."""
    return {w.id: _wheel_tracks(jets, w)[1] for w in vehicle.sorted_wheels()}


def _steering_tracks(segment: PathSegment, wheels, us: np.ndarray
                     ) -> tuple[_Jets, np.ndarray, dict[str, dict]]:
    """Jets at ``us``, unwrapped theta there and, per wheel, ratio tracks plus
    heading and steering angle.

    Theta and each wheel heading are unwrapped on one evaluation of the
    unwrap grid, shared by all wheels; each sample takes the nearest branch
    of its grid angles.
    """
    jets = _Jets(segment.curve, segment.mode, us)
    grid = _Jets(segment.curve, segment.mode, _UNWRAP_U)
    theta_grid = np.unwrap(grid.theta[0])
    theta = _nearest_branch(us, theta_grid, jets.theta[0])
    tracks = {}
    for w in wheels:
        d1, track = _wheel_tracks(jets, w)
        zeta_grid = np.unwrap(_angle(_wheel_derivative_arrays(grid, w)[1]))
        zeta = _nearest_branch(us, zeta_grid, _angle(d1))
        # Steering angle continuous along u, anchored at its principal value at u=0.
        track["zeta_w"] = zeta
        track["delta_w"] = (wrap_angle(zeta_grid[0] - theta_grid[0])
                            + (zeta - zeta_grid[0]) - (theta - theta_grid[0]))
        tracks[w.id] = track
    return jets, theta, tracks


def _wheel_track_arrays(segment: PathSegment, wheel: Wheel, us: np.ndarray):
    """Vectorized wheel-state quantities across many parameters."""
    return _steering_tracks(segment, [wheel], np.asarray(us, dtype=float))[2][wheel.id]


def fold_steering_angles(deltas: np.ndarray, limit: float = math.pi) -> np.ndarray:
    """Re-express a steering-angle track with half-turn flips at a range limit.

    Speeds are reported positive throughout the toolkit, so a wheel rolling
    backwards appears as a steering angle past +-90 deg rather than a
    negative speed. Vehicles whose steering actuators cannot reach such
    angles flip the wheel by half a turn instead (reversing the rolling
    direction). This helper applies that convention to an unwrapped track:
    whenever the angle leaves [-limit, +limit], half-turn multiples are
    added to bring it back. Production tracks are reported unflipped; this
    post-processing is opt-in for vehicles with restricted steering ranges.
    """
    out = np.asarray(deltas, dtype=float).copy()
    if not 0.0 < limit <= math.pi:
        raise ValueError(f"steering limit must lie in (0, pi], got {limit}")
    offset = 0.0
    for i in range(out.size):
        value = out[i] + offset
        while value > limit:
            offset -= math.pi
            value -= math.pi
        while value < -limit:
            offset += math.pi
            value += math.pi
        out[i] = value
    return out


def wheel_state(segment: PathSegment, wheel: Wheel, u: float) -> WheelState:
    """Full kinematic state of ``wheel`` at parameter ``u``."""
    t = _wheel_track_arrays(segment, wheel, np.array([float(u)]))
    return WheelState(
        position=t["position"][0],
        zeta_w=float(t["zeta_w"][0]),
        delta_w=float(t["delta_w"][0]),
        r_v=float(t["r_v"][0]),
        r_omega=float(t["r_omega"][0]),
        kappa_w=float(t["kappa_w"][0]),
        singular=bool(t["singular"][0]),
    )


def _limit_from_tracks(v_segment: float, vehicle: VehicleModel,
                       tracks: dict[str, dict], size: int):
    """Vectorized speed limit with binding bookkeeping.

    Binding priority on exact ties: segment, then traction, then steering,
    then lowest wheel id, implemented by strict-improvement updates in
    that visit order.
    """
    v = np.full(size, float(v_segment))
    binding = np.array(["segment"] * size, dtype=object)
    flagged = np.zeros(size, dtype=bool)
    for kind, ratio, limit in (("traction", "r_v", "v_max"),
                               ("steering", "r_omega", "omega_max")):
        for w in vehicle.sorted_wheels():
            # A quota past the float range (a ratio within rounding of 0) is +inf.
            with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                mag = np.abs(tracks[w.id][ratio])
                quota = np.where(mag > 0.0, getattr(w, limit) / mag, np.inf)
            quota = np.where(np.isnan(quota), np.inf, quota)
            better = quota < v
            v = np.where(better, quota, v)
            binding[better] = f"{kind}({w.id})"
    for w in vehicle.sorted_wheels():
        flagged |= tracks[w.id]["singular"] | ~np.isfinite(tracks[w.id]["r_omega"])
    return v, binding, flagged


def limit_profile_fast(curve: BezierCurve, mode, v_segment: float,
                       vehicle: VehicleModel,
                       us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Speed-limit values and |C'| at ``us``, on principal-branch orientation jets.

    Candidate evaluation during repair calls this in a tight loop.
    """
    us = np.asarray(us, dtype=float)
    jets = _Jets(curve, mode, us)
    v = _limit_from_tracks(v_segment, vehicle, _ratio_tracks(jets, vehicle), us.size)[0]
    return v, jets.speed


def speed_limit(segment: PathSegment, vehicle: VehicleModel, u: float,
                s: float | None = None) -> SpeedLimitSample:
    """Pointwise vehicle speed limit at ``u`` with its binding constraint."""
    jets = _Jets(segment.curve, segment.mode, np.array([float(u)]))
    v, binding, flagged = _limit_from_tracks(
        segment.v_max, vehicle, _ratio_tracks(jets, vehicle), 1)
    if s is None:
        s = arc_length(segment.curve, 0.0, float(u))
    return SpeedLimitSample(float(u), float(s), float(v[0]), str(binding[0]),
                            bool(flagged[0]))


def wheel_speed_limit(segment: PathSegment, vehicle: VehicleModel,
                      wheel: Wheel, u: float) -> float:
    """Traction-speed limit of one wheel: vehicle limit scaled by its R_v."""
    jets = _Jets(segment.curve, segment.mode, np.array([float(u)]))
    v = _limit_from_tracks(segment.v_max, vehicle, _ratio_tracks(jets, vehicle), 1)[0]
    return float(v[0]) * float(_wheel_tracks(jets, wheel)[1]["r_v"][0])


@dataclass(frozen=True)
class WheelTrack:
    """Per-wheel sampled tracks along a segment."""

    delta_w: np.ndarray
    r_v: np.ndarray
    r_omega: np.ndarray
    kappa_w: np.ndarray
    singular: np.ndarray


@dataclass(frozen=True)
class SegmentProfile:
    """Densely sampled limit profile and wheel tracks over one segment."""

    u: np.ndarray
    s: np.ndarray
    v_max: np.ndarray
    binding: tuple[str, ...]
    flagged: np.ndarray
    theta: np.ndarray
    dtheta: np.ndarray
    wheel_tracks: dict[str, WheelTrack]


def profile_segment(segment: PathSegment, vehicle: VehicleModel,
                    samples: int) -> SegmentProfile:
    """Uniform-u sampling of the limit profile and all wheel tracks.

    Arc length from u=0 comes from one batched `arc_length` call over all
    samples: the adaptive rule runs for every sample at once, and each value
    equals a per-sample call bit for bit, so evaluation order cannot change
    the result. Samples flagged as singular take the speed limit of their
    nearest unflagged neighbor rather than a silently interpolated value.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    us = np.linspace(0.0, 1.0, samples)
    s = arc_length(segment.curve, 0.0, us)
    jets, theta, tracks = _steering_tracks(segment, vehicle.sorted_wheels(), us)
    v, binding, flagged = _limit_from_tracks(segment.v_max, vehicle, tracks, samples)
    # At an isolated wheel-cusp sample the cusp wheel imposes no constraint
    # of its own; borrow the nearest clean sample's limit instead of leaving
    # the optimistic value.
    cusp = np.zeros(samples, dtype=bool)
    for t in tracks.values():
        cusp |= t["singular"]
    if cusp.any() and (~cusp).any():
        idx = np.arange(samples)
        clean = idx[~cusp]
        for i in idx[cusp]:
            near = clean[np.argmin(np.abs(clean - i))]
            v[i] = min(v[i], v[near])
    wheel_tracks = {
        wid: WheelTrack(t["delta_w"], t["r_v"], t["r_omega"], t["kappa_w"],
                        t["singular"])
        for wid, t in tracks.items()
    }
    return SegmentProfile(us, s, v, tuple(str(b) for b in binding), flagged,
                          theta, jets.theta[1], wheel_tracks)
