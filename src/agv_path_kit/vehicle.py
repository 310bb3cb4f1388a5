"""Vehicle and path data model.

A vehicle is a set of independently steered and driven wheels, each mounted
at a fixed position in the vehicle frame and carrying its own traction-speed
and steering-velocity limits. Paths are ordered sequences of segments, where
a segment pairs a parametric curve with a motion mode and a segment speed
limit.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .curve import BezierCurve, _dot, sampled_irregular_parameter
from .errors import DegenerateGeometryError
from .motion import MotionMode

__all__ = [
    "Wheel",
    "VehicleModel",
    "PathSegment",
    "Path",
    "Violation",
    "validate_vehicle",
    "differential_alpha",
]

# m; the end-point gap up to which a junction is G0-continuous, for `Path`
# and for `continuity.Tolerances.position` alike.
_G0_TOL = 1e-6


@dataclass(frozen=True)
class Wheel:
    """A steer-and-drive wheel: mount point plus actuator limits.

    ``r_w`` is the mount position in the vehicle frame (meters); the steering
    axis passes through the contact point, so no steering offset is modeled.
    """

    id: str
    r_w: tuple[float, float]
    v_max: float
    omega_max: float

    def __post_init__(self):
        object.__setattr__(self, "r_w", (float(self.r_w[0]), float(self.r_w[1])))

    @property
    def r_vec(self) -> np.ndarray:
        return np.array(self.r_w, dtype=float)


class _WheelArrays:
    """Wheels in a fixed order with the read-only arrays a kinematic pass reads:
    the (W, 2) ``mounts``, row w that of ``wheels[w]``; the rows of wheels at
    the origin, ``at_origin`` (None when there are none); and ``limits``, the
    (2W, 1) column of traction limits, then steering limits."""

    def __init__(self, wheels):
        self.wheels = tuple(wheels)
        self.mounts = np.array([w.r_w for w in self.wheels], dtype=float)
        at_origin = ~self.mounts.any(axis=1)
        self.at_origin = at_origin if at_origin.any() else None
        self.limits = np.array([[w.v_max for w in self.wheels]
                                + [w.omega_max for w in self.wheels]]).T
        for a in (self.mounts, self.limits, at_origin):
            a.setflags(write=False)


@dataclass(frozen=True)
class VehicleModel:
    """A vehicle as a non-empty collection of wheels, tracked at the frame origin."""

    wheels: tuple[Wheel, ...]

    def __post_init__(self):
        object.__setattr__(self, "wheels", tuple(self.wheels))
        if not self.wheels:
            raise ValueError("a vehicle needs at least one wheel")

    def sorted_wheels(self) -> list[Wheel]:
        return sorted(self.wheels, key=lambda w: w.id)

    @cached_property
    def _arrays(self) -> _WheelArrays:
        """`sorted_wheels()` as `_WheelArrays`, built once per vehicle."""
        return _WheelArrays(self.sorted_wheels())


@dataclass(frozen=True)
class Violation:
    """One failed vehicle invariant, attributed to a wheel and field."""

    wheel_id: str
    field: str
    message: str


def validate_vehicle(model: VehicleModel) -> list[Violation]:
    """Report-style check of all wheel invariants; empty list means valid."""
    violations = []
    seen: set[str] = set()
    for w in model.wheels:
        if w.id in seen:
            violations.append(Violation(w.id, "id", f"duplicate wheel id {w.id!r}"))
        seen.add(w.id)
        if not w.v_max > 0.0:
            violations.append(Violation(w.id, "v_max", f"v_max must be > 0, got {w.v_max}"))
        if not w.omega_max > 0.0:
            violations.append(Violation(
                w.id, "omega_max", f"omega_max must be > 0, got {w.omega_max}"))
        if not all(math.isfinite(c) for c in w.r_w):
            violations.append(Violation(w.id, "r_w", f"mount position must be finite, got {w.r_w}"))
    return violations


def differential_alpha(model: VehicleModel) -> float:
    """Tangential-mode offset that keeps two-wheel steering angles fixed.

    The offset orients the body so its velocity stays perpendicular to the
    line connecting the two wheels; computed with a two-argument arctangent
    so vertical and horizontal wheel lines are covered, then folded into
    (-pi/2, pi/2] since alpha and alpha + 180 deg describe the same axle
    geometry with reversed travel.

    The steering angles are constant along arbitrary paths only when the
    tracking point lies on the wheel-connecting line.
    """
    if len(model.wheels) != 2:
        raise DegenerateGeometryError(
            f"differential offset is defined for exactly two wheels, got {len(model.wheels)}")
    w1, w2 = model.wheels
    dx = w1.r_w[0] - w2.r_w[0]
    dy = w1.r_w[1] - w2.r_w[1]
    if math.hypot(dx, dy) < 1e-12:
        raise DegenerateGeometryError("wheel positions coincide; no axle direction")
    alpha = math.atan2(dx, dy)
    if alpha > math.pi / 2.0:
        alpha -= math.pi
    elif alpha <= -math.pi / 2.0:
        alpha += math.pi
    return alpha


@dataclass(frozen=True, eq=False)
class PathSegment:
    """One path segment: curve, orientation law, and segment speed limit.

    The curve must be regularly parameterized on [0, 1]; construction checks
    this with `curve.sampled_irregular_parameter`: the 1025 nodes and the
    verdict of `curve.irregular_parameter`, which repair candidates pass,
    without its hodograph certificate. Instances compare and hash by identity.
    """

    curve: BezierCurve
    mode: MotionMode
    v_max: float

    def __post_init__(self):
        if not self.v_max > 0.0:
            raise ValueError(f"segment speed limit must be > 0, got {self.v_max}")
        bad = sampled_irregular_parameter(self.curve)
        if bad is not None:
            raise ValueError(
                f"curve is not regularly parameterized (|C'| ~ 0 near u={bad:.4f})")


def _check_connected(segments, names, g0_tol: float):
    """Raise ValueError naming (by ``names``) the first pair of segments that do not meet."""
    for k in range(len(segments) - 1):
        step = [a - b for a, b in zip(segments[k].curve.control_points[-1].tolist(),
                                      segments[k + 1].curve.control_points[0].tolist())]
        gap = math.sqrt(_dot(step, step))
        if gap > g0_tol:
            raise ValueError(
                f"segments {names[k]} and {names[k + 1]} are not position-connected "
                f"(gap {gap:.3e} m exceeds {g0_tol:.1e} m)")


@dataclass(frozen=True, eq=False)
class Path:
    """Ordered, non-empty sequence of segments, position-connected at junctions."""

    segments: tuple[PathSegment, ...]
    g0_tol: float = _G0_TOL

    def __post_init__(self):
        object.__setattr__(self, "segments", tuple(self.segments))
        if not self.segments:
            raise ValueError("a path needs at least one segment")
        _check_connected(self.segments, range(len(self.segments)), self.g0_tol)

    def junctions(self) -> list[tuple[PathSegment, PathSegment]]:
        return [(self.segments[k], self.segments[k + 1])
                for k in range(len(self.segments) - 1)]
