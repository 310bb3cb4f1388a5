"""Motion modes: orientation laws theta(u) with exact parameter derivatives.

A motion mode assigns the vehicle body orientation along a path segment.
Four laws ship: tangential (orientation follows the path tangent plus a
constant offset), crab (constant orientation), and two exponential variants
that delay or anticipate the turning maneuver by reparameterizing the
tangent angle with u^n or 1-(1-u)^n. Anything that produces an
OrientationJet can serve as a mode; these four are what the toolkit
constructs from layout files.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Union

import numpy as np

from .curve import BezierCurve

__all__ = [
    "OrientationJet",
    "Tangential",
    "Crab",
    "ExponentialDelayed",
    "ExponentialAnticipated",
    "MotionMode",
    "wrap_angle",
    "heading",
    "unwrapped_heading",
    "heading_rates",
    "orientation",
    "orientation_many",
    "orientation_at_end",
    "orientation_third_derivative",
]

# Read-only parameter grid shared by the body- and wheel-heading branch caches.
_UNWRAP_U = np.linspace(0.0, 1.0, 4097)
_UNWRAP_U.setflags(write=False)


def wrap_angle(a: float) -> float:
    """Fold an angle into (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return w if w != -math.pi else math.pi


@dataclass(frozen=True)
class OrientationJet:
    """Orientation theta and its first/second u-derivatives.

    ``theta`` is reported unwrapped: continuous along u within a segment,
    not folded back into a principal branch. The derivative entries may be
    infinite at the singular endpoint of an exponential reparameterization
    with 1 < n < 2; interior evaluations are always finite.
    """

    theta: float
    dtheta: float
    ddtheta: float


@dataclass(frozen=True)
class Tangential:
    """Orientation = path tangent angle + constant offset alpha."""

    alpha: float = 0.0


@dataclass(frozen=True)
class Crab:
    """Constant orientation alpha regardless of the path."""

    alpha: float = 0.0


def _require_n(n: float):
    if not n > 1.0:
        raise ValueError(f"exponential modes require n > 1, got {n}")


@dataclass(frozen=True)
class ExponentialDelayed:
    """Tangent-following with the turn delayed: theta(u) = zeta(u^n) + alpha."""

    alpha: float
    n: float

    def __post_init__(self):
        _require_n(self.n)


@dataclass(frozen=True)
class ExponentialAnticipated:
    """Tangent-following with the turn anticipated: theta(u) = zeta(1-(1-u)^n) + alpha."""

    alpha: float
    n: float

    def __post_init__(self):
        _require_n(self.n)


MotionMode = Union[Tangential, Crab, ExponentialDelayed, ExponentialAnticipated]


# --------------------------------------------------------------------------
# Heading (tangent angle) of a curve and its analytic u-derivatives.

def _angle(d1: np.ndarray) -> np.ndarray:
    return np.arctan2(d1[:, 1], d1[:, 0])


def _heading_principal(curve: BezierCurve, us: np.ndarray) -> np.ndarray:
    return _angle(curve.derivatives_many(us, 1)[1])


def _nearest_branch(us: np.ndarray, grid_angles: np.ndarray,
                    principal: np.ndarray) -> np.ndarray:
    """Principal angles at ``us`` moved onto the branch of the unwrapped grid samples."""
    reference = np.interp(us, _UNWRAP_U, grid_angles)
    return reference + np.mod(principal - reference + np.pi, 2.0 * np.pi) - np.pi


@lru_cache(maxsize=256)
def _heading_grid(curve: BezierCurve) -> np.ndarray:
    """Dense unwrapped tangent-angle samples used for branch selection."""
    unwrapped = np.unwrap(_heading_principal(curve, _UNWRAP_U))
    unwrapped.setflags(write=False)
    return unwrapped


def unwrapped_heading_many(curve: BezierCurve, us: np.ndarray) -> np.ndarray:
    """Tangent angle continuous along u, anchored at the principal value of u=0."""
    us = np.asarray(us, dtype=float)
    return _nearest_branch(us, _heading_grid(curve), _heading_principal(curve, us))


def unwrapped_heading(curve: BezierCurve, u: float) -> float:
    return float(unwrapped_heading_many(curve, np.array([float(u)]))[0])


def heading(curve: BezierCurve, u: float) -> float:
    """Principal tangent angle at u, in (-pi, pi]."""
    return float(_heading_principal(curve, np.array([float(u)]))[0])


def heading_rates(curve: BezierCurve, us: np.ndarray,
                  order: int = 2) -> tuple[np.ndarray, ...]:
    """Analytic derivatives (zeta', zeta'', zeta''') of the tangent angle.

    zeta' = det(C', C'')/|C'|^2; higher orders follow from the quotient rule.
    Requested entries beyond ``order`` are omitted.
    """
    us = np.asarray(us, dtype=float)
    d = curve.derivatives_many(us, min(order + 1, 4))
    while len(d) < 5:
        d.append(np.zeros_like(d[0]))
    d1, d2, d3, d4 = d[1], d[2], d[3], d[4]

    def cross(a, b):
        return a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]

    def dot(a, b):
        return a[:, 0] * b[:, 0] + a[:, 1] * b[:, 1]

    q = dot(d1, d1)
    det12 = cross(d1, d2)
    out = [det12 / q]
    if order >= 2:
        det13 = cross(d1, d3)
        qp = 2.0 * dot(d1, d2)
        out.append(det13 / q - det12 * qp / q**2)
    if order >= 3:
        detpp = cross(d2, d3) + cross(d1, d4)
        qpp = 2.0 * (dot(d2, d2) + dot(d1, d3))
        out.append(detpp / q - 2.0 * det13 * qp / q**2
                   - det12 * qpp / q**2 + 2.0 * det12 * qp**2 / q**3)
    return tuple(out)


# --------------------------------------------------------------------------
# Exponential reparameterizations g(u) and their derivatives.

def _reparam(mode, us: np.ndarray, order: int = 2) -> tuple[np.ndarray, ...]:
    """g, g', g'' (and g''' if order=3) with endpoint limits handled explicitly.

    Delayed: g = u^n. Anticipated: g = 1 - (1-u)^n, whose inner derivative
    flips the sign of every odd application of the chain rule, leaving
    g' = n(1-u)^(n-1), g'' = -n(n-1)(1-u)^(n-2), g''' = +n(n-1)(n-2)(1-u)^(n-3).
    """
    n = mode.n
    anticipated = isinstance(mode, ExponentialAnticipated)
    x = 1.0 - us if anticipated else us

    def power(expo: float) -> np.ndarray:
        # x**expo with the x == 0 limit made explicit (0, finite, or +inf).
        out = np.empty_like(x)
        zero = x == 0.0
        out[~zero] = x[~zero]**expo
        if expo > 0.0:
            out[zero] = 0.0
        elif expo == 0.0:
            out[zero] = 1.0
        else:
            out[zero] = np.inf
        return out

    g = 1.0 - power(n) if anticipated else power(n)
    g1 = n * power(n - 1.0)
    g2 = (-1.0 if anticipated else 1.0) * n * (n - 1.0) * power(n - 2.0)
    if order < 3:
        return g, g1, g2
    g3 = n * (n - 1.0) * (n - 2.0) * power(n - 3.0)
    return g, g1, g2, g3


# --------------------------------------------------------------------------
# Orientation jets.

def _guarded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with the 0 * inf endpoint limits resolved to 0.

    At a reparameterization endpoint where g'' diverges, the accompanying
    zeta' factor vanishing means the true one-sided limit of the product
    is zero (next-order expansion); keep that instead of NaN.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    out = np.zeros(a.shape)
    live = (a != 0.0) & (b != 0.0)
    np.multiply(a, b, out=out, where=live)
    return out


def orientation_many(mode: MotionMode, curve: BezierCurve, us: np.ndarray,
                     unwrap: bool = True
                     ) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Arrays (theta, dtheta, ddtheta) for all parameters in ``us``.

    ``unwrap=False`` reports theta on the principal branch, which is cheaper
    and sufficient wherever theta only feeds a rotation matrix.
    """
    us = np.asarray(us, dtype=float)
    if us.size and (us.min() < 0.0 or us.max() > 1.0):
        raise ValueError("curve parameter must lie in [0, 1]")
    if isinstance(mode, Crab):
        z = np.zeros_like(us)
        return np.full_like(us, mode.alpha), z, z
    angle_of = unwrapped_heading_many if unwrap else _heading_principal
    if isinstance(mode, Tangential):
        theta = angle_of(curve, us) + mode.alpha
        z1, z2 = heading_rates(curve, us, order=2)
        return theta, z1, z2
    g, g1, g2 = _reparam(mode, us, order=2)
    theta = angle_of(curve, g) + mode.alpha
    z1, z2 = heading_rates(curve, g, order=2)
    dtheta = z1 * g1
    ddtheta = z2 * g1**2 + _guarded_product(z1, g2)
    return theta, dtheta, ddtheta


def orientation(mode: MotionMode, curve: BezierCurve, u: float) -> OrientationJet:
    """Orientation jet of ``mode`` over ``curve`` at parameter ``u``."""
    theta, dtheta, ddtheta = orientation_many(mode, curve, np.array([float(u)]))
    return OrientationJet(float(theta[0]), float(dtheta[0]), float(ddtheta[0]))


def orientation_at_end(mode: MotionMode, curve: BezierCurve, end: str) -> OrientationJet:
    """One-sided orientation jet at a segment end ("start" or "end").

    The exponential reparameterizations have vanishing first derivative at
    their flat end (u=0 delayed, u=1 anticipated), so dtheta is exactly zero
    there; ddtheta is the analytic one-sided limit, which is infinite for
    1 < n < 2 unless the tangent-angle rate vanishes at that end.
    """
    if end not in ("start", "end"):
        raise ValueError(f"end must be 'start' or 'end', got {end!r}")
    u = 0.0 if end == "start" else 1.0
    flat = (isinstance(mode, ExponentialDelayed) and end == "start") or \
           (isinstance(mode, ExponentialAnticipated) and end == "end")
    if not flat:
        return orientation(mode, curve, u)
    n = mode.n
    theta = unwrapped_heading(curve, u) + mode.alpha
    (z1,) = heading_rates(curve, np.array([u]), order=1)
    z1 = float(z1[0])
    if n > 2.0 or abs(z1) <= 1e-12:
        dd = 0.0
    elif n == 2.0:
        dd = 2.0 * z1 if end == "start" else -2.0 * z1
    else:
        dd = math.inf * z1 if end == "start" else -math.inf * z1
    return OrientationJet(theta, 0.0, dd)


def orientation_third_derivative(mode: MotionMode, curve: BezierCurve, u: float) -> float:
    """Exact theta''' at an interior parameter, for third-order wheel jets."""
    if isinstance(mode, Crab):
        return 0.0
    if isinstance(mode, Tangential):
        _, _, z3 = heading_rates(curve, np.array([float(u)]), order=3)
        return float(z3[0])
    g, g1, g2, g3 = _reparam(mode, np.array([float(u)]), order=3)
    z1, z2, z3 = heading_rates(curve, g, order=3)
    val = (z3 * g1**3 + 3.0 * _guarded_product(z2 * g1, g2)
           + _guarded_product(z1, g3))
    return float(val[0])
