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
from typing import Union

import numpy as np

from .curve import BezierCurve, _cross, _dot, _hodograph_certifies, _parameter

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
]

# At or below this |zeta'| a diverging g'' meets a path that does not turn.
_FLAT_RATE = 1e-12

# Read-only grid on which `_branch_turns` unwraps angles whose branch u = 0 cannot fix.
_UNWRAP_U = np.linspace(0.0, 1.0, 4097)
_UNWRAP_U.setflags(write=False)


def wrap_angle(a: float) -> float:
    """Fold an angle into (-pi, pi]."""
    w = math.remainder(a, math.tau)
    return w if w != -math.pi else math.pi


@dataclass(frozen=True)
class OrientationJet:
    """Orientation theta and its first/second u-derivatives.

    `orientation` reports ``theta`` unwrapped, continuous along u within a
    segment; `JunctionContext` keeps it principal. The derivative entries may be
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


def _turns(reference, angle):
    """Whole turns k that move ``angle`` nearest ``reference``: angle + 2 pi k.
    Within 1e-9 turns of a half turn (a tie, as at a crab cusp), the k nearer zero."""
    q = (reference - angle) / math.tau
    return np.where(np.abs(np.abs(q - np.rint(q)) - 0.5) <= 1e-9, np.trunc(q), np.rint(q))


def _branch_nodes(curve: BezierCurve) -> np.ndarray:
    """The nodes whose theta fixes theta's whole turns under every law: `_UNWRAP_U`'s
    first node (u = 0) alone on a certified hodograph, all of `_UNWRAP_U` otherwise."""
    return _UNWRAP_U[:1] if _hodograph_certifies(curve.control_points.tolist()) else _UNWRAP_U


def _branch_turns(us, grid: np.ndarray, principal: np.ndarray) -> np.ndarray:
    """Whole turns of the ``principal`` angles at ``us`` (a row each, or theta alone,
    1-D) from the same angles at u = 0 alone (theta, within a half turn of its value
    there) or on `_UNWRAP_U` (each row unwrapped along it and read at ``us``)."""
    if grid.shape[-1] > 1:
        steps = math.tau * np.cumsum(np.rint(np.diff(grid) / -math.tau), axis=-1)
        grid = np.concatenate((grid[..., :1], grid[..., 1:] + steps), axis=-1)
        reference = np.apply_along_axis(lambda row: np.interp(us, _UNWRAP_U, row), -1, grid)
        return _turns(reference, principal)
    return _turns(grid[0], principal)


def unwrapped_heading(curve: BezierCurve, u: float) -> float:
    """Tangent angle at u, continuous along u and anchored at the principal value of u=0."""
    return float(orientation_many(Tangential(), curve, [float(u)], order=1)[0][0])


def heading(curve: BezierCurve, u: float) -> float:
    """Principal tangent angle at u, in (-pi, pi]."""
    return float(orientation_many(Tangential(), curve, [float(u)], False, 1)[0][0])


def _checked(us) -> np.ndarray:
    """``us`` as floats, refused as `evaluate` refuses a u outside [0, 1] or NaN,
    and as `BezierCurve.derivatives_many` refuses more than one dimension."""
    us = np.asarray(us, dtype=float)
    if us.ndim > 1:
        raise ValueError(f"parameters must be a scalar or 1-D, got shape {us.shape}")
    if us.size and not (us.min() >= 0.0 and us.max() <= 1.0):  # NaN fails both
        _parameter(us[~((0.0 <= us) & (us <= 1.0))].flat[0])  # raises as `evaluate` does
    return us


def _rates(d: list[np.ndarray], order: int) -> list[np.ndarray]:
    """zeta', ..., zeta^(order) of the tangent angle from curve derivatives ``d``.

    ``d`` holds C', C'', ... from entry 1 at least up to order + 1; entry 0,
    the position, is not read. zeta' = det(C', C'')/|C'|^2; higher orders
    follow from the quotient rule. The products take the (x, y) column views.
    """
    d1, d2, d3, d4 = (d[k].T if k < len(d) else None for k in range(1, 5))
    q = _dot(d1, d1)
    det12 = _cross(d1, d2)
    out = [det12 / q]
    if order >= 2:
        det13 = _cross(d1, d3)
        qp = 2.0 * _dot(d1, d2)
        out.append(det13 / q - det12 * qp / q**2)
    if order >= 3:
        detpp = _cross(d2, d3) + _cross(d1, d4)
        qpp = 2.0 * (_dot(d2, d2) + _dot(d1, d3))
        out.append(detpp / q - 2.0 * det13 * qp / q**2
                   - det12 * qpp / q**2 + 2.0 * det12 * qp**2 / q**3)
    return out


def heading_rates(curve: BezierCurve, us: np.ndarray,
                  order: int = 2) -> tuple[np.ndarray, ...]:
    """Analytic derivatives zeta', ... up to ``order`` (1..3) of the tangent angle."""
    return orientation_many(Tangential(), curve, us, False, order)[1:]


# --------------------------------------------------------------------------
# Exponential reparameterizations g(u) and their derivatives.

def _reparam(anticipated: bool, n, us: np.ndarray, order: int) -> list[np.ndarray]:
    """g, g', ... up to the ``order``-th derivative, endpoint limits handled explicitly.

    Delayed: g = u^n. Anticipated: g = 1 - (1-u)^n, whose inner derivative
    flips the sign of every odd application of the chain rule, leaving
    g' = n(1-u)^(n-1), g'' = -n(n-1)(1-u)^(n-2), g''' = +n(n-1)(n-2)(1-u)^(n-3).
    An array ``n`` gives one n per node. A scalar n keeps numpy's fast paths
    (square, sqrt), which agree with the general power at x = 0 and 1 only.
    """
    x = 1.0 - us if anticipated else us
    zero = x == 0.0
    ends = zero.any()
    base = np.where(zero, 1.0, x) if ends else x

    def power(expo) -> np.ndarray:
        # x**expo with the x == 0 limit made explicit (0, finite, or +inf) where some
        # node has x == 0; overflow is +inf.
        with np.errstate(over="ignore"):
            value = base**expo
        return value if not ends else np.where(
            zero, np.where(expo > 0.0, 0.0, np.where(expo == 0.0, 1.0, np.inf)), value)

    g = [1.0 - power(n) if anticipated else power(n)]
    if order >= 1:
        g.append(n * power(n - 1.0))
    if order >= 2:
        g.append((-1.0 if anticipated else 1.0) * n * (n - 1.0) * power(n - 2.0))
    if order >= 3:
        # For n = 2, g''' is identically 0; the product would give 0 * inf at x = 0.
        c3 = n * (n - 1.0) * (n - 2.0)
        g.append(np.multiply(c3, power(n - 3.0), out=np.zeros_like(x), where=c3 != 0.0))
    return g


# --------------------------------------------------------------------------
# Orientation jets.

def _guarded_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """a * b with the 0 * inf endpoint limits resolved to 0.

    At a reparameterization endpoint where g'' diverges, the accompanying
    zeta' factor vanishing means the true one-sided limit of the product
    is zero (next-order expansion); keep that instead of NaN. Against an
    infinite b, |a| <= _FLAT_RATE counts as zero: a rate within rounding of
    zero, as on a rotated straight path, must not make the limit infinite.
    """
    a, b = np.broadcast_arrays(np.asarray(a, float), np.asarray(b, float))
    out = np.zeros(a.shape)
    live = (a != 0.0) & (b != 0.0) & ~(np.isinf(b) & (np.abs(a) <= _FLAT_RATE))
    np.multiply(a, b, out=out, where=live)
    return out


def orientation_many(mode: MotionMode, curve: BezierCurve, us: np.ndarray,
                     unwrap: bool = True, order: int = 2) -> tuple[np.ndarray, ...]:
    """Arrays (theta, theta', ...) up to the ``order``-th derivative (1..3).

    Each law evaluates the curve once, at its own nodes: ``us`` for
    tangential, g(us) for the exponential modes. That one evaluation, from
    C' up, gives the heading and its rates. Theta is principal plus whole
    turns, as in `profile_segment`. Every law reads the tangent at u or at g(u),
    with g(0) = 0 and g([0, 1]) = [0, 1], so on a certified hodograph (C' in an
    open half-plane) theta takes the turns that put it within a half turn of
    its u = 0 value, elsewhere those `_branch_turns` picks on the unwrap grid.
    ``unwrap=False`` keeps it principal, enough where theta only feeds a rotation.
    """
    if not 1 <= order <= 3:
        raise ValueError(f"order must be in 1..3, got {order}")
    us, n = _checked(us), getattr(mode, "n", None)
    law = _orientation(mode, curve, us, order, None, mode.alpha, n)
    if unwrap:
        nodes = _branch_nodes(curve)
        grid = _orientation(mode, curve, nodes, 0, None, mode.alpha, n)[0]
        law = (law[0] + math.tau * _branch_turns(us, grid, law[0]), *law[1:])
    return law


def _orientation(mode, curve, us, order, curve_jets, alpha, n):
    """Principal theta and its derivatives to ``order`` at checked ``us`` under the mode
    class of ``mode``: the one copy of every law. ``alpha`` and ``n`` may be arrays, one
    value per node. Order 0 gives theta alone, from the curve read to order 1. Given
    ``curve_jets`` (C' up to ``order + 1``), the law uses them as is, so they must hold
    the curve at its own nodes: ``us`` in tangential mode (from `kinematics._Jets`), or
    junction ends, where g(u) = u bit for bit (from `continuity._end_states`, with
    ``curve`` None). Without them the law evaluates ``curve`` at its nodes."""
    if isinstance(mode, Crab):
        return (np.full_like(us, alpha),) + (np.zeros_like(us),) * order
    tangential, anticipated = isinstance(mode, Tangential), isinstance(mode, ExponentialAnticipated)
    g = None if tangential else _reparam(anticipated, n, us, order)
    if curve_jets is None:
        curve_jets = curve.derivatives_many(us if tangential else g[0], order + 1, lowest=1)
    theta = _angle(curve_jets[1]) + alpha
    if not order:
        return (theta,)
    z = _rates(curve_jets, order)
    if tangential:
        return (theta, *z)
    # Chain rule through g: theta' = zeta' g', theta'' = zeta'' g'^2 + zeta' g'', ...
    out = [theta, z[0] * g[1]]
    if order >= 2:
        out.append(z[1] * g[1]**2 + _guarded_product(z[0], g[2]))
    if order >= 3:
        out.append(z[2] * g[1]**3 + 3.0 * _guarded_product(z[1] * g[1], g[2])
                   + _guarded_product(z[0], g[3]))
    return tuple(out)


def orientation(mode: MotionMode, curve: BezierCurve, u: float) -> OrientationJet:
    """Orientation jet of ``mode`` over ``curve`` at parameter ``u``."""
    theta, dtheta, ddtheta = orientation_many(mode, curve, np.array([float(u)]))
    return OrientationJet(float(theta[0]), float(dtheta[0]), float(ddtheta[0]))


def orientation_at_end(mode: MotionMode, curve: BezierCurve, end: str) -> OrientationJet:
    """One-sided orientation jet at a segment end ("start" or "end").

    The exponential reparameterizations have vanishing first derivative at
    their flat end (u=0 delayed, u=1 anticipated), so dtheta is exactly zero
    there; ddtheta is the analytic one-sided limit, which is infinite for
    1 < n < 2 unless the tangent-angle rate vanishes (|zeta'| <= _FLAT_RATE)
    at that end. `_reparam` and `_guarded_product` give these limits.
    """
    return orientation(mode, curve, _end_parameter(end))


def _end_parameter(end: str) -> float:
    """u at a segment end: 0.0 at "start", 1.0 at "end"; any other name is refused."""
    if end not in ("start", "end"):
        raise ValueError(f"end must be 'start' or 'end', got {end!r}")
    return 0.0 if end == "start" else 1.0
