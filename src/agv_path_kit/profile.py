"""Velocity planning over a multi-segment path.

The pointwise speed-limit curve is sampled densely along the path; a
forward pass enforces the acceleration bound, a backward pass the
deceleration bound, and the planned profile is their pointwise minimum.
Junctions that are continuous only to first order are planned as rest
points (speed forced to zero); junctions that are outright discontinuous
make planning refuse unless a diagnostic profile is explicitly requested.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .continuity import DISCONTINUOUS, SMOOTH_AT_REST_ONLY, Tolerances, check_path
from .errors import DiscontinuousPathError
from .kinematics import profile_segment
from .vehicle import Path, VehicleModel

__all__ = ["VelocityProfile", "plan_velocity", "time_along"]


@dataclass(frozen=True)
class VelocityProfile:
    """Time-parameterized speed profile along a path.

    ``s`` is arc length from the path start; ``v`` never exceeds the limit
    curve ``v_limit``; ``t`` is strictly increasing. Per-wheel arrays carry
    the realized traction speeds (v * R_v) and steering rates
    (v * R_omega, rad/s) plus the sampled steering angles.
    """

    s: np.ndarray
    v: np.ndarray
    t: np.ndarray
    v_limit: np.ndarray
    binding: tuple[str, ...]
    u: np.ndarray
    segment_index: np.ndarray
    a_max: float
    boundary: tuple[float, float]
    junction_indices: tuple[int, ...]
    rest_indices: tuple[int, ...]
    wheel_speeds: dict[str, np.ndarray]
    wheel_steering_rates: dict[str, np.ndarray]
    wheel_deltas: dict[str, np.ndarray]
    wheel_r_v: dict[str, np.ndarray]
    wheel_r_omega: dict[str, np.ndarray]
    wheel_kappa: dict[str, np.ndarray]

    @property
    def total_time(self) -> float:
        return float(self.t[-1])

    @property
    def total_length(self) -> float:
        return float(self.s[-1])


def _assemble_limit(path: Path, vehicle: VehicleModel, resolution: int):
    """Concatenate per-segment profiles into path-level arrays.

    The wheel tracks come as one (4, W, N) array: delta, R_v, R_omega and
    kappa of each wheel in `sorted_wheels()` order. The duplicated junction
    sample is merged into one row carrying the minimum of the two one-sided
    limits; steering angles are re-based to the branch nearest the previous
    segment's end, all wheels in one step, so genuine sub-turn jumps survive
    while branch artifacts do not. A jump of half a turn, to within 1e-9
    turns, keeps the segment's own branch.
    """
    wheel_ids = [w.id for w in vehicle.sorted_wheels()]
    s_parts, u_parts, seg_parts, v_parts, track_parts, binding = [], [], [], [], [], []
    junction_indices = []
    offset = 0.0
    for k, segment in enumerate(path.segments):
        prof = profile_segment(segment, vehicle, resolution)
        tracks = np.array([[getattr(prof.wheel_tracks[wid], key) for wid in wheel_ids]
                           for key in ("delta_w", "r_v", "r_omega", "kappa_w")])
        start = 0
        if k > 0:
            junction_indices.append(len(binding) - 1)
            if prof.v_max[0] < v_parts[-1][-1]:
                binding[-1] = prof.binding[0]
                v_parts[-1][-1] = prof.v_max[0]
            turns = (track_parts[-1][0, :, -1] - tracks[0, :, 0]) / (2.0 * math.pi)
            # A jump within rounding of half a turn (a crab cusp) keeps the
            # segment's own branch: the whole-turn shift nearer zero.
            tie = np.abs(np.abs(turns) % 1.0 - 0.5) <= 1e-9
            tracks[0] += 2.0 * math.pi * np.where(tie, np.trunc(turns),
                                                  np.round(turns))[:, None]
            start = 1
        s_parts.append(prof.s[start:] + offset)
        u_parts.append(prof.u[start:])
        seg_parts.append(np.full(prof.u.size - start, k))
        v_parts.append(prof.v_max[start:])
        binding.extend(prof.binding[start:])
        track_parts.append(tracks[:, :, start:])
        offset += float(prof.s[-1])
    return (np.concatenate(s_parts), np.concatenate(u_parts), np.concatenate(seg_parts),
            np.concatenate(v_parts), tuple(binding), tuple(junction_indices),
            np.concatenate(track_parts, axis=2))


def plan_velocity(path: Path, vehicle: VehicleModel, a_max: float = 0.5,
                  boundary: tuple[float, float] = (0.0, 0.0),
                  resolution: int = 1000, diagnostic: bool = False,
                  tol: Tolerances | None = None) -> VelocityProfile:
    """Plan a speed profile along ``path`` under the acceleration bound.

    Raises DiscontinuousPathError when any junction verdict is
    discontinuous, unless ``diagnostic`` is set (useful for visualizing what
    a broken layout would demand of the actuators). Junctions continuous
    only to first order are planned as rest points.
    """
    if not a_max > 0.0:
        raise ValueError(f"acceleration bound must be positive, got {a_max}")
    if resolution < 2:
        raise ValueError(f"resolution must be at least 2, got {resolution}")
    reports = check_path(path, vehicle, tol)
    bad = [r for r in reports if r.verdict == DISCONTINUOUS]
    if bad and not diagnostic:
        raise DiscontinuousPathError(
            f"{len(bad)} junction(s) are discontinuous; repair the layout or "
            "request a diagnostic profile")
    s, u, segment_index, v_limit, binding, junctions, tracks = _assemble_limit(
        path, vehicle, resolution)
    n = s.size
    rest = tuple(idx for idx, rep in zip(junctions, reports)
                 if rep.verdict == SMOOTH_AT_REST_ONLY)

    v = v_limit.copy()
    v[list(rest)] = 0.0
    v[0] = min(v[0], float(boundary[0]))
    ds = np.diff(s)
    for i in range(1, n):
        reachable = math.sqrt(v[i - 1]**2 + 2.0 * a_max * ds[i - 1])
        if reachable < v[i]:
            v[i] = reachable
    v[-1] = min(v[-1], float(boundary[1]))
    for i in range(n - 2, -1, -1):
        reachable = math.sqrt(v[i + 1]**2 + 2.0 * a_max * ds[i])
        if reachable < v[i]:
            v[i] = reachable

    pair, moving = v[:-1] + v[1:], ds != 0.0
    if np.any(moving & (pair <= 0.0)):
        raise DiscontinuousPathError(
            "speed limit collapses to zero over an interval of positive length")
    dt = np.divide(2.0 * ds, pair, out=np.zeros_like(ds), where=moving)
    t = np.concatenate(([0.0], np.cumsum(dt)))

    delta, r_v, r_omega, kappa = tracks
    with np.errstate(invalid="ignore"):
        rates = v * r_omega
    rates[:, v == 0.0] = 0.0
    ids = [w.id for w in vehicle.sorted_wheels()]
    return VelocityProfile(
        s=s, v=v, t=t, v_limit=v_limit, binding=binding, u=u,
        segment_index=segment_index, a_max=a_max,
        boundary=(float(boundary[0]), float(boundary[1])),
        junction_indices=junctions, rest_indices=rest,
        wheel_speeds=dict(zip(ids, v * r_v)), wheel_steering_rates=dict(zip(ids, rates)),
        wheel_deltas=dict(zip(ids, delta)), wheel_r_v=dict(zip(ids, r_v)),
        wheel_r_omega=dict(zip(ids, r_omega)), wheel_kappa=dict(zip(ids, kappa)))


def time_along(profile: VelocityProfile, s: float) -> float:
    """Time at which the profile reaches arc length ``s``."""
    if not 0.0 <= s <= profile.total_length + 1e-12:
        raise ValueError(
            f"s = {s} outside the path (total length {profile.total_length:.6f} m)")
    return float(np.interp(s, profile.s, profile.t))
