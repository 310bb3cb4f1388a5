"""Wheel-level kinematics along a path segment.

Given a segment (curve + motion mode) and a wheel mounted at r_w, the wheel
path is C_w(u) = C(u) + R(theta(u)) r_w. From its exact derivatives follow
the wheel heading, steering angle, curvature, the velocity ratio
R_v = |C_w'|/|C'|, the steering ratio R_omega = (kappa_w |C_w'| - theta')/|C'|,
and the pointwise vehicle speed limit

    v_max(u) = min(v_segment, min_w v_w_max / R_v,  min_w omega_w_max / |R_omega|).

The formulas differ between wheels only in r_w, so they run for all wheels
at once: the mounts of `sorted_wheels()` form one (W, 2) array, and wheel
derivatives, ratios and quotas are (W, N) arrays over the wheel axis and N nodes.
A vehicle builds its wheel arrays once (`VehicleModel._arrays`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .curve import BezierCurve, CurveJet, _cross, _parameter, arc_length
from .motion import (_UNWRAP_U, Crab, Tangential, _branch_nodes, _branch_turns, _end_parameter,
                     _orientation, _turns, wrap_angle)
from .vehicle import PathSegment, VehicleModel, Wheel, _WheelArrays

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

    The orientation law runs to ``order`` (1 to 3). One curve evaluation at
    ``us`` runs from ``lowest`` (0, or 1 where no position is read) up to
    ``order``, or ``order + 1`` in tangential mode, where the law reads it
    too. The evaluation is shared by every wheel. Its arrays run over the N
    nodes; `_wheel_derivative_arrays` broadcasts them against the (W, 2)
    mounts to add the wheel axis. Theta is principal: `_steering_tracks` adds turns.
    """

    def __init__(self, curve: BezierCurve, mode, us: np.ndarray, order: int = 2, *,
                 lowest: int = 0):
        us = np.asarray(us, dtype=float)
        tangential = isinstance(mode, Tangential)
        self.c = curve.derivatives_many(us, order + 1 if tangential else order,
                                        lowest=lowest)
        self.speed = np.hypot(self.c[1][:, 0], self.c[1][:, 1])
        self.theta = _orientation(mode, curve, us, order, self.c if tangential else None,
                                  mode.alpha, getattr(mode, "n", None))
        self.cos, self.sin = np.cos(self.theta[0]), np.sin(self.theta[0])


def _wheel_derivative_arrays(jets: _Jets, wheels: _WheelArrays, order: int = 2):
    """Position and derivatives up to ``order`` (1 to 3) of every wheel curve at each u.

    Entry k is the (x, y) pair of (W, N) components of the k-th derivative,
    row w for the wheel mounted at ``wheels.mounts[w]``; the position is None
    when ``jets`` holds no curve position. C_w = C + R r_w; every derivative
    of R r_w combines R r_w and J R r_w, with J the rotation by +90 degrees.
    A wheel at the origin keeps the curve's own rows: where theta'' is
    infinite, J R r_w = 0 would turn them into NaN.
    """
    c = [None if d is None else (d[:, 0], d[:, 1]) for d in jets.c[:order + 1]]
    mx, my = wheels.mounts[:, :1], wheels.mounts[:, 1:]
    rx = jets.cos * mx - jets.sin * my
    ry = jets.sin * mx + jets.cos * my
    th1 = jets.theta[1]
    out = [None if c[0] is None else (c[0][0] + rx, c[0][1] + ry),
           (c[1][0] - th1 * ry, c[1][1] + th1 * rx)]
    if order >= 2:
        th2 = jets.theta[2]
        with np.errstate(invalid="ignore"):
            sq = th1**2
            out.append((c[2][0] - sq * rx - th2 * ry, c[2][1] - sq * ry + th2 * rx))
            if order >= 3:
                a, b = 3.0 * th1 * th2, jets.theta[3] - th1**3
                out.append((c[3][0] - a * rx - b * ry, c[3][1] - a * ry + b * rx))
    if wheels.at_origin is not None:
        for ck, dk in zip(c, out):
            for cx, dx in zip(ck or (), dk or ()):
                dx[wheels.at_origin] = cx
    return out


def wheel_curve_jet(segment: PathSegment, wheel: Wheel, u: float,
                    order: int = 2) -> CurveJet:
    """Exact jet of the wheel path at ``u`` up to ``order`` (max 3).

    Order 3 uses the analytic third derivative of the orientation law, which
    exists for every shipped mode at interior parameters.
    """
    if not 0 <= order <= 3:
        raise ValueError(f"order must be in 0..3, got {order}")
    k = max(order, 1)
    jets = _Jets(segment.curve, segment.mode, np.array([_parameter(u)]), order=k)
    d = [np.stack(a, axis=-1)[0, 0] for a in
         _wheel_derivative_arrays(jets, _WheelArrays([wheel]), k)]
    zero = np.zeros(2)
    return CurveJet(d[0], d[1], d[2] if order >= 2 else zero,
                    d[3] if order >= 3 else zero)


def wheel_end_jet(segment: PathSegment, wheel: Wheel, end: str) -> CurveJet:
    """One-sided wheel jet up to order 2 at a segment end ("start" or "end")."""
    return wheel_curve_jet(segment, wheel, _end_parameter(end))


def _ratios_from_derivatives(jets: _Jets, wheels: _WheelArrays):
    """Position (None when ``jets`` holds no curve position), d1, then r_v,
    r_omega and singular of every wheel of ``wheels``, and the det(d1, d2),
    |d1| (1 where singular) and non-finite-d2 arrays kappa_w is formed from.

    Entries where the second derivative is not finite (the flat end of an
    exponential reparameterization with 1 < n < 2) have a genuinely
    unbounded steering ratio: r_omega is +inf there, never NaN, so the
    steering constraint collapses the speed limit instead of dropping out.
    Either mask is written only when it is not empty, which it rarely is.
    """
    pos, (x1, y1), (x2, y2) = _wheel_derivative_arrays(jets, wheels)
    wheel_speed = np.hypot(x1, y1)
    singular = ~(wheel_speed > _WHEEL_SINGULAR)
    unbounded = ~(np.isfinite(x2) & np.isfinite(y2))
    any_singular = singular.any()
    safe = np.where(singular, 1.0, wheel_speed) if any_singular else wheel_speed
    with np.errstate(invalid="ignore", over="ignore"):
        det = _cross((x1, y1), (x2, y2))
        zeta_rate = det / safe**2  # = kappa_w |C_w'|
        r_v = wheel_speed / jets.speed
        r_omega = (zeta_rate - jets.theta[1]) / jets.speed
    if any_singular:
        r_omega[singular] = np.nan
    if unbounded.any():
        r_omega[unbounded & ~singular] = np.inf
    return pos, (x1, y1), r_v, r_omega, singular, (det, safe, unbounded)


def _steering_tracks(segment: PathSegment, wheels: _WheelArrays, us: np.ndarray,
                     lowest: int = 0) -> tuple[np.ndarray, np.ndarray, dict[str, np.ndarray]]:
    """Theta' and unwrapped theta at ``us``, and the (W, N) wheel tracks; with ``lowest``
    1 the curve is evaluated from C' up and the position track is None.

    Angles are principal values plus whole turns. Theta's come from `motion._branch_turns`
    at the `_branch_nodes` nodes, which depend on the curve alone, as in `orientation`.
    Exponential wheels, and crab ones on an uncertified hodograph, unwrap on `_UNWRAP_U`
    (order 1 jets from C' up, wheel rows only; theta's grid row is read off that pass
    when it needs one). Any other steering angle zeta_w - theta takes the branch nearest
    its value at u = 0 (crab) or angle(s r_w), s = sign(r_x cos alpha - r_y sin alpha)
    or +1 at 0 (tangential; see README, "Conventions worth knowing"), and zeta_w theta's
    turns plus its own. A steering angle also takes the turns that put its u = 0 value
    in (-pi, pi]. Theta and the headings at u = 0 are column 0 of the pass at ``us``,
    with u = +0.0 put first when ``us`` does not start there: each node's values depend
    on that node alone.
    """
    mode, curve = segment.mode, segment.curve
    nodes = _branch_nodes(curve)
    tangential = isinstance(mode, Tangential)
    wheel_grid = not tangential and (nodes.size > 1 or not isinstance(mode, Crab))
    lead = int(us[:1].tobytes() != bytes(8))  # +0.0 is eight zero bytes
    jets = _Jets(curve, mode, np.concatenate((nodes[:1], us)) if lead else us, lowest=lowest)
    pos, d1, r_v, r_omega, singular, (det, safe, unbounded) = _ratios_from_derivatives(jets, wheels)
    with np.errstate(invalid="ignore", over="ignore"):
        kappa = np.where(singular | unbounded, np.nan, det / safe**3)
    del det, safe, unbounded  # held through the grid pass, they cost 8 % more page faults
    principal = np.vstack((jets.theta[0], np.arctan2(d1[1], d1[0])))
    delta0 = principal[1:, :1] - principal[0, 0]
    principal = principal[:, lead:]
    if wheel_grid:
        start = _Jets(curve, mode, _UNWRAP_U, 1, lowest=1)
        d1_grid = _wheel_derivative_arrays(start, wheels, 1)[1]
        wheel_turns = _branch_turns(us, np.arctan2(d1_grid[1], d1_grid[0]), principal[1:])
    grid = (jets.theta[0][:1] if nodes.size == 1 else start.theta[0] if wheel_grid
            else _orientation(mode, curve, nodes, 0, None, mode.alpha, None)[0])
    body = _branch_turns(us, grid, principal[0])
    if not wheel_grid:
        x, y = wheels.mounts.T
        side = np.where(x * math.cos(mode.alpha) - y * math.sin(mode.alpha) < 0.0, -1.0, 1.0)
        reference = np.arctan2(side * y, side * x)[:, None] if tangential else delta0
        wheel_turns = (body + _turns(reference, principal[1:] - principal[0])
                       - _turns(reference, delta0))
    turns = np.vstack((body, wheel_turns))
    unwrapped = principal + math.tau * turns
    anchor = np.rint([(wrap_angle(s) - s) / math.tau for s in delta0[:, 0].tolist()])[:, None]
    delta = (principal[1:] - principal[0]) + math.tau * ((turns[1:] - turns[0]) + anchor)
    return jets.theta[1][lead:], unwrapped[0], {
        "position": None if pos is None else np.stack(pos, axis=-1)[:, lead:],
        "zeta_w": unwrapped[1:], "delta_w": delta, "r_v": r_v[:, lead:],
        "r_omega": r_omega[:, lead:], "kappa_w": kappa[:, lead:],
        "singular": singular[:, lead:]}


def _wheel_track_arrays(segment: PathSegment, wheel: Wheel, us: np.ndarray):
    """Vectorized wheel-state quantities across many parameters."""
    tracks = _steering_tracks(segment, _WheelArrays([wheel]), np.asarray(us, dtype=float))[2]
    return {key: rows[0] for key, rows in tracks.items()}


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
    Angles of 2^53 half turns or more, whose count no float holds, are refused.
    """
    out = np.asarray(deltas, dtype=float).copy()
    if not 0.0 < limit <= math.pi:
        raise ValueError(f"steering limit must lie in (0, pi], got {limit}")
    halves = out / math.pi
    if not (np.abs(halves) < 2.0**53).all():  # NaN fails too
        raise ValueError("steering angles must be finite and below 2^53 half turns")
    bound = limit / math.pi
    turns = 0  # half turns taken off so far
    for i, h in enumerate(halves.tolist()):
        if h - turns > bound:
            turns += math.ceil(h - turns - bound)
        if h - turns < -bound:
            turns += math.floor(h - turns + bound)
        out[i] -= turns * math.pi
    return out


def wheel_state(segment: PathSegment, wheel: Wheel, u: float) -> WheelState:
    """Full kinematic state of ``wheel`` at parameter ``u``."""
    t = _wheel_track_arrays(segment, wheel, np.array([_parameter(u)]))
    scalars = (float(t[key][0]) for key in ("zeta_w", "delta_w", "r_v", "r_omega", "kappa_w"))
    return WheelState(t["position"][0], *scalars, bool(t["singular"][0]))


def _limit_from_tracks(v_segment: float, wheels: _WheelArrays, r_v: np.ndarray,
                       r_omega: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Speed limit at each u and the quota rows it is the minimum of: the
    segment, then traction and then steering per wheel of ``wheels``. A quota
    past the float range (a ratio within rounding of 0), or NaN, is +inf, as
    is one over a ratio of 0 or NaN. A quota that this rewrite changes is NaN
    or -inf, and so then is the limit: quotas are rewritten only then."""
    mag = np.abs(np.concatenate((r_v, r_omega)))
    rows = np.empty((mag.shape[0] + 1, mag.shape[1]))
    rows[0], quota = float(v_segment), rows[1:]
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        np.divide(wheels.limits, mag, out=quota)
        v = rows.min(axis=0)
        if not (v > -np.inf).all():
            quota[~(mag > 0.0) | np.isnan(quota)] = np.inf
            v = rows.min(axis=0)
    return v, rows


def _binding(wheels: _WheelArrays, rows: np.ndarray) -> list[str]:
    """Label of the first quota row that attains the minimum at each u."""
    labels = ["segment"] + [f"{kind}({w.id})" for kind in ("traction", "steering")
                            for w in wheels.wheels]
    return [labels[i] for i in rows.argmin(axis=0).tolist()]


def limit_profile_fast(curve: BezierCurve, mode, v_segment: float,
                       vehicle: VehicleModel,
                       us: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Speed-limit values and |C'| at ``us``, on principal-branch orientation jets.

    Repair scores its candidates with this. ``curve`` may be a
    `curve._BezierStack` with ``us`` one block of nodes per curve: every
    step is elementwise over the nodes, so each block equals its own curve's
    pass. No position is read, so the curve is evaluated from C' up. The
    wheel arrays are the vehicle's, built on its first pass.
    """
    wheels = vehicle._arrays
    jets = _Jets(curve, mode, np.asarray(us, dtype=float), lowest=1)
    r_v, r_omega = _ratios_from_derivatives(jets, wheels)[2:4]
    return _limit_from_tracks(v_segment, wheels, r_v, r_omega)[0], jets.speed


def speed_limit(segment: PathSegment, vehicle: VehicleModel, u: float,
                s: float | None = None) -> SpeedLimitSample:
    """Pointwise vehicle speed limit at ``u`` with its binding constraint."""
    wheels = vehicle._arrays
    jets = _Jets(segment.curve, segment.mode, np.array([_parameter(u)]))
    r_v, r_omega, singular = _ratios_from_derivatives(jets, wheels)[2:5]
    v, rows = _limit_from_tracks(segment.v_max, wheels, r_v, r_omega)
    if s is None:
        s = arc_length(segment.curve, 0.0, float(u))
    return SpeedLimitSample(float(u), float(s), float(v[0]), _binding(wheels, rows)[0],
                            bool((singular | ~np.isfinite(r_omega)).any()))


def wheel_speed_limit(segment: PathSegment, vehicle: VehicleModel,
                      wheel: Wheel, u: float) -> float:
    """Traction-speed limit of one wheel: vehicle limit scaled by its R_v.

    ``wheel`` rides along in the vehicle's pass as one more row, which limits nothing.
    """
    wheels = vehicle._arrays
    jets = _Jets(segment.curve, segment.mode, np.array([_parameter(u)]))
    r_v, r_omega = _ratios_from_derivatives(jets, _WheelArrays([*wheels.wheels, wheel]))[2:4]
    v = _limit_from_tracks(segment.v_max, wheels, r_v[:-1], r_omega[:-1])[0]
    return float(v[0]) * float(r_v[-1, 0])


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

    Arc length from u=0 comes from one `arc_length` call over all samples,
    one antiderivative for the segment, each value a per-sample call's bit
    for bit. Samples flagged as singular take the speed limit of their
    nearest unflagged neighbor rather than a silently interpolated value.
    """
    if samples < 2:
        raise ValueError(f"need at least 2 samples, got {samples}")
    us = np.linspace(0.0, 1.0, samples)
    s = arc_length(segment.curve, 0.0, us)
    wheels = vehicle._arrays
    dtheta, theta, tracks = _steering_tracks(segment, wheels, us, lowest=1)
    v, rows = _limit_from_tracks(segment.v_max, wheels, tracks["r_v"], tracks["r_omega"])
    # At an isolated wheel-cusp sample the cusp wheel imposes no constraint
    # of its own; borrow the nearest clean sample's limit instead of leaving
    # the optimistic value.
    cusp = tracks["singular"].any(axis=0)
    if cusp.any() and (~cusp).any():
        clean = np.flatnonzero(~cusp)
        near = clean[np.abs(clean - np.flatnonzero(cusp)[:, None]).argmin(axis=1)]
        v[cusp] = np.minimum(v[cusp], v[near])
    flagged = (tracks["singular"] | ~np.isfinite(tracks["r_omega"])).any(axis=0)
    fields = [tracks[key] for key in ("delta_w", "r_v", "r_omega", "kappa_w", "singular")]
    wheel_tracks = {w.id: WheelTrack(*track) for w, *track in zip(wheels.wheels, *fields)}
    return SegmentProfile(us, s, v, tuple(_binding(wheels, rows)), flagged,
                          theta, dtheta, wheel_tracks)
