"""Junction analysis: shared shape parameters, smoothness verdicts, audits.

A junction between consecutive segments supports smooth motion at nonzero
speed exactly when the curve and the motion mode are both second-order
geometrically continuous with one shared set of shape parameters
{beta1, beta2}. A junction that only reaches first-order continuity (of both
curve and mode) still supports motion that comes to rest at the junction and
resumes, which is the ``smooth_at_rest_only`` verdict. Heading reversals are
a special case of that verdict: the tangent flips, so no positive beta1
exists, yet a vehicle stopping at the reversal point can continue smoothly.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

from .curve import (CurveJet, ShapeParameters, curvature,
                    curvature_arc_derivative, _continuity_defects)
from .errors import DegenerateGeometryError
from .kinematics import _Jets, _mounts, _wheel_derivative_arrays
from .motion import ExponentialAnticipated, OrientationJet, Tangential, wrap_angle
from .vehicle import Path, PathSegment, VehicleModel

__all__ = [
    "Tolerances",
    "JunctionContext",
    "ContinuityReport",
    "WheelContinuityAudit",
    "TangentialJunctionChecks",
    "ExponentialJunctionChecks",
    "extract_shape_parameters",
    "analyze_junction",
    "audit_wheel_continuity",
    "check_tangential_junction",
    "check_exponential_junction",
    "check_junctions",
    "check_path",
]

SMOOTH = "smooth"
SMOOTH_AT_REST_ONLY = "smooth_at_rest_only"
DISCONTINUOUS = "discontinuous"

_MODE_RATE_EPS = 1e-12


@dataclass(frozen=True)
class Tolerances:
    """Per-condition thresholds for junction verdicts.

    Derivative conditions compare residual / max(1, |rhs|) against
    ``relative``. The environment variable AGV_PATH_KIT_TOL, when set,
    overrides ``relative`` for `default()`. Fields must be finite and >= 0.
    """

    position: float = 1e-6
    angle: float = 1e-8
    relative: float = 1e-6

    def __post_init__(self):
        for name, value in vars(self).items():
            if not (math.isfinite(value) and value >= 0.0):
                raise ValueError(
                    f"tolerance {name!r} must be a finite number >= 0, got {value!r}")

    @staticmethod
    def default() -> "Tolerances":
        env = os.environ.get("AGV_PATH_KIT_TOL")
        if env:
            try:
                return Tolerances(relative=float(env))
            except ValueError:
                raise ValueError("AGV_PATH_KIT_TOL must be a finite number >= 0, "
                                 f"got {env!r}") from None
        return Tolerances()


class JunctionContext:
    """One-sided curve and orientation jets at the junction of two segments.

    Each side is one `_Jets` evaluation to order 3 at its end (u=1 left, u=0
    right), read by the curve, mode and wheel end jets alike. The mode jets'
    theta is principal-branch: only its wrapped difference enters a verdict.
    Construction is refused when the segment endpoints are not even roughly
    coincident (gap above ``refuse_tol``), since every downstream condition
    presumes a shared junction point.
    """

    def __init__(self, left: PathSegment, right: PathSegment,
                 vehicle: VehicleModel, left_id: str = "left",
                 right_id: str = "right", refuse_tol: float = 1e-3):
        self.left = left
        self.right = right
        self.vehicle = vehicle
        self.left_id = left_id
        self.right_id = right_id
        self._sides = tuple(_Jets(seg.curve, seg.mode, np.array([u]), order=3)
                            for seg, u in ((left, 1.0), (right, 0.0)))
        self.left_jet, self.right_jet = (
            CurveJet(*(d[0] for d in jets.c[:4])) for jets in self._sides)
        self.left_mode_jet, self.right_mode_jet = (
            OrientationJet(*(float(t[0]) for t in jets.theta[:3])) for jets in self._sides)
        self.position_gap = float(np.linalg.norm(
            self.left_jet.position - self.right_jet.position))
        if self.position_gap > refuse_tol:
            raise DegenerateGeometryError(
                f"segments {left_id!r} and {right_id!r} do not share a junction "
                f"point (gap {self.position_gap:.3e} m)")


class _BetaExtraction(NamedTuple):
    beta1: float                 # signed: negative when the tangent reverses
    beta2: float
    beta3: float


def _extract_curve_route(left: CurveJet, right: CurveJet) -> _BetaExtraction:
    """The one shape-parameter rule: beta1 = |C'(1-)| / |C'(0+)|, negated
    when the tangent reverses; beta2/beta3 by least squares on the
    second/third order conditions. Both norms exceed REGULAR_SPEED:
    `PathSegment` samples |C'| at u = 0 and 1, where `JunctionContext` reads
    its end jets, through the same kernel."""
    t_minus, t_plus = left.d1, right.d1
    beta1 = np.linalg.norm(t_minus) / np.linalg.norm(t_plus)
    if float(t_minus @ t_plus) < 0.0:
        beta1 = -beta1
    q = float(t_plus @ t_plus)
    beta2 = float((left.d2 - beta1**2 * right.d2) @ t_plus) / q
    r3 = left.d3 - beta1**3 * right.d3 - 3.0 * beta1 * beta2 * right.d2
    beta3 = float(r3 @ t_plus) / q
    return _BetaExtraction(beta1, beta2, beta3)


def _mode_beta1(left: OrientationJet, right: OrientationJet) -> float | None:
    """theta'(u-)/theta'(u+), or None when the rates are degenerate; only
    `analyze_junction`'s disagreement note reads it."""
    if not (math.isfinite(right.dtheta) and math.isfinite(left.dtheta)):
        return None
    if abs(right.dtheta) <= _MODE_RATE_EPS:
        return None
    return left.dtheta / right.dtheta


def extract_shape_parameters(ctx: JunctionContext) -> ShapeParameters:
    """Shape parameters shared by curve and mode at a junction.

    These are the betas of `analyze_junction`'s report: beta1 from the
    first-derivative norms, beta2/beta3 by least squares on the curve's
    second/third order conditions. Raises when the tangent reverses across
    the junction (no positive beta1 exists; the report's beta is None).
    """
    beta = _extract_curve_route(ctx.left_jet, ctx.right_jet)
    if beta.beta1 < 0.0:
        raise DegenerateGeometryError(
            f"tangent direction reverses across the junction (beta1 = {beta.beta1:.3g})")
    return ShapeParameters(*beta)


@dataclass
class ContinuityReport:
    """Per-junction verdict with the residual of every applicable condition.

    Residuals for derivative conditions are relative: defect norm divided by
    max(1, |rhs|). ``beta`` is None when no positive beta1 exists at the
    junction: a heading reversal, or a junction `check_junctions` refused.
    """

    left_id: str
    right_id: str
    g0_position: float
    g0_orientation: float
    beta: ShapeParameters | None
    curve_g1: float
    curve_g2: float
    curve_g3: float
    mode_g1: float
    mode_g2: float
    verdict: str
    notes: list[str] = field(default_factory=list)

    def to_dict(self) -> dict:
        return {
            "junction": f"{self.left_id}:{self.right_id}",
            "g0_position_m": self.g0_position,
            "g0_orientation_rad": self.g0_orientation,
            "beta": None if self.beta is None else {
                "beta1": self.beta.beta1, "beta2": self.beta.beta2,
                "beta3": self.beta.beta3},
            "residuals": {
                "curve_g1": self.curve_g1, "curve_g2": self.curve_g2,
                "curve_g3": self.curve_g3, "mode_g1": self.mode_g1,
                "mode_g2": self.mode_g2},
            "verdict": self.verdict,
            "notes": list(self.notes),
        }


def _relative(residual: float, scale: float) -> float:
    return residual / max(1.0, scale)


def _mode_residuals(left: OrientationJet, right: OrientationJet,
                    beta1: float, beta2: float) -> tuple[float, float]:
    rhs1 = beta1 * right.dtheta
    g1 = _relative(abs(left.dtheta - rhs1), abs(rhs1))
    rhs2 = beta1**2 * right.ddtheta + beta2 * right.dtheta
    if math.isfinite(left.ddtheta) and math.isfinite(rhs2):
        g2 = _relative(abs(left.ddtheta - rhs2), abs(rhs2))
    else:
        g2 = math.inf  # even same-signed infinities have no finite shared beta2
    return g1, g2


def analyze_junction(ctx: JunctionContext,
                     tol: Tolerances | None = None) -> ContinuityReport:
    """Verdict and residuals for one junction under one shared beta set.

    The beta set is taken from the curve route (first-derivative ratio plus
    least-squares beta2/beta3), which exists whenever the curves are
    regular; the orientation-rate route is cross-checked against it and any
    disagreement is recorded as a note. All six conditions (position and
    orientation match, curve orders 1-2, mode orders 1-2) are then evaluated
    with that single set, so the shared-parameter requirement is what is
    actually tested.
    """
    tol = tol or Tolerances.default()
    notes: list[str] = []
    g0_position = ctx.position_gap
    g0_orientation = abs(wrap_angle(ctx.left_mode_jet.theta - ctx.right_mode_jet.theta))

    beta1, beta2, beta3 = _extract_curve_route(ctx.left_jet, ctx.right_jet)
    mode_beta1 = _mode_beta1(ctx.left_mode_jet, ctx.right_mode_jet)
    if mode_beta1 is not None:
        mismatch = abs(mode_beta1 - beta1) / max(1.0, abs(beta1))
        if mismatch > tol.relative:
            notes.append(
                f"orientation-rate beta1 ({mode_beta1:.6g}) disagrees with "
                f"curve beta1 ({beta1:.6g}); shared shape parameters are impossible")

    residuals, scales = _continuity_defects(ctx.left_jet, ctx.right_jet,
                                            beta1, beta2, beta3, order=3)
    curve_g1 = _relative(residuals[1], scales[1])
    curve_g2 = _relative(residuals[2], scales[2])
    curve_g3 = _relative(residuals[3], scales[3])
    mode_g1, mode_g2 = _mode_residuals(ctx.left_mode_jet, ctx.right_mode_jet,
                                       beta1, beta2)

    g0_ok = g0_position <= tol.position and g0_orientation <= tol.angle
    g1_ok = curve_g1 <= tol.relative and mode_g1 <= tol.relative
    g2_ok = curve_g2 <= tol.relative and mode_g2 <= tol.relative

    if beta1 < 0.0:
        notes.append(
            f"heading reversal at junction (signed beta1 = {beta1:.6g}); "
            "smooth passage is impossible, resuming from rest is")
        verdict = SMOOTH_AT_REST_ONLY if (g0_ok and g1_ok) else DISCONTINUOUS
        beta_out = None
    else:
        if g0_ok and g1_ok and g2_ok:
            verdict = SMOOTH
        elif g0_ok and g1_ok:
            verdict = SMOOTH_AT_REST_ONLY
            notes.append("first-order continuity only: plan zero speed at this junction")
        else:
            verdict = DISCONTINUOUS
        beta_out = ShapeParameters(beta1, beta2, beta3)
    return ContinuityReport(ctx.left_id, ctx.right_id, g0_position,
                            g0_orientation, beta_out, curve_g1, curve_g2,
                            curve_g3, mode_g1, mode_g2, verdict, notes)


@dataclass(frozen=True)
class WheelContinuityAudit:
    """Continuity of one wheel's path across a junction.

    ``beta_w1``/``beta_w2`` are extracted from the wheel curve alone; at a
    smooth junction they coincide with the vehicle-level shape parameters,
    and the wheel path satisfies its own second-order conditions with them.
    """

    wheel_id: str
    beta_w1: float
    beta_w2: float
    g1_residual: float
    g2_residual: float


def audit_wheel_continuity(ctx: JunctionContext,
                           params: ShapeParameters | None = None
                           ) -> list[WheelContinuityAudit]:
    """Check every wheel curve's continuity against the shared beta set."""
    params = params or extract_shape_parameters(ctx)
    wheels = ctx.vehicle.sorted_wheels()
    # (W, 2) first and second derivatives of every wheel curve, left then right.
    (l1, l2), (r1, r2) = ([np.stack(d, axis=-1)[:, 0] for d in
                           _wheel_derivative_arrays(jets, _mounts(wheels))[1:]]
                          for jets in ctx._sides)
    q = np.sum(r1 * r1, axis=1)
    beta_w1 = np.sum(l1 * r1, axis=1) / q
    beta_w2 = np.sum((l2 - beta_w1[:, None]**2 * r2) * r1, axis=1) / q
    g1, g2 = (np.linalg.norm(left - rhs, axis=1)
              / np.fmax(1.0, np.linalg.norm(rhs, axis=1)) for left, rhs in ((l1, params.beta1 * r1),
                                (l2, params.beta1**2 * r2 + params.beta2 * r1)))
    return [WheelContinuityAudit(w.id, *map(float, row))
            for w, *row in zip(wheels, beta_w1, beta_w2, g1, g2)]


@dataclass(frozen=True)
class TangentialJunctionChecks:
    """Equivalent invariant form of the conditions for tangential-tangential junctions.

    For tangent-following orientation laws, first-order mode continuity is
    curvature equality of the curves, and second-order mode continuity is
    equality of the curvature's arc-length derivative.
    """

    alpha_gap: float
    kappa_left: float
    kappa_right: float
    kappa_residual: float
    dkappa_ds_residual: float
    verdict: str
    agrees_with_general_check: bool


def check_tangential_junction(ctx: JunctionContext,
                              tol: Tolerances | None = None
                              ) -> TangentialJunctionChecks:
    """Curvature-based form of the junction conditions (both modes tangential)."""
    if not (isinstance(ctx.left.mode, Tangential) and
            isinstance(ctx.right.mode, Tangential)):
        raise ValueError("tangential junction check requires tangential modes on both sides")
    tol = tol or Tolerances.default()
    alpha_gap = abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha))
    k_left = curvature(ctx.left_jet)
    k_right = curvature(ctx.right_jet)
    kappa_residual = _relative(abs(k_left - k_right), abs(k_right))
    dk_left = curvature_arc_derivative(ctx.left_jet)
    dk_right = curvature_arc_derivative(ctx.right_jet)
    dk_residual = _relative(abs(dk_left - dk_right), abs(dk_right))
    report = analyze_junction(ctx, tol)
    g0_ok = (ctx.position_gap <= tol.position and alpha_gap <= tol.angle
             and report.g0_orientation <= tol.angle)
    g1_ok = report.curve_g1 <= tol.relative
    if g0_ok and g1_ok and kappa_residual <= tol.relative and \
            dk_residual <= tol.relative:
        verdict = SMOOTH
    elif g0_ok and g1_ok and kappa_residual <= tol.relative:
        # Curvature equality is first-order mode continuity here, so only
        # the second-order condition has failed: resumable from rest.
        verdict = SMOOTH_AT_REST_ONLY
    else:
        verdict = DISCONTINUOUS
    return TangentialJunctionChecks(alpha_gap, k_left, k_right, kappa_residual,
                                    dk_residual, verdict,
                                    verdict == report.verdict)


@dataclass(frozen=True)
class ExponentialJunctionChecks:
    """Conditions for a tangential segment handing over to an anticipated-turn segment.

    The orientation-rate ratio picks up the reparameterization factor n > 1,
    so curvature continuity forces both endpoint curvatures to zero: first
    and second derivatives on both sides must be scalar multiples of the
    shared tangent. The remaining freedom is the third-derivative relation
    d3(left) = beta1^3 n^2 d3(right).
    """

    kappa_left: float
    kappa_right: float
    tangent_parallel_residual: float
    d2_parallel_left: float
    d2_parallel_right: float
    third_derivative_residual: float
    beta1: float
    n: float
    verdict: str


def check_exponential_junction(ctx: JunctionContext,
                               tol: Tolerances | None = None
                               ) -> ExponentialJunctionChecks:
    """Rule set for tangential -> exponential-anticipated junctions."""
    if not isinstance(ctx.right.mode, ExponentialAnticipated):
        raise ValueError("right segment must use the anticipated exponential mode")
    if not isinstance(ctx.left.mode, Tangential):
        raise ValueError("left segment must use the tangential mode")
    tol = tol or Tolerances.default()
    n = ctx.right.mode.n
    lj, rj = ctx.left_jet, ctx.right_jet
    k_left = abs(curvature(lj))
    k_right = abs(curvature(rj))
    t = lj.d1 / np.linalg.norm(lj.d1)

    def perp_fraction(v: np.ndarray) -> float:
        m = np.linalg.norm(v)
        if m <= 1e-12:
            return 0.0
        return abs(float(v[0] * t[1] - v[1] * t[0])) / m

    tangent_parallel = perp_fraction(rj.d1)
    d2_left = perp_fraction(lj.d2)
    d2_right = perp_fraction(rj.d2)
    beta1 = float(np.linalg.norm(lj.d1)) / float(np.linalg.norm(rj.d1))
    rhs = beta1**3 * n**2 * rj.d3
    third = _relative(float(np.linalg.norm(lj.d3 - rhs)),
                      float(np.linalg.norm(rhs)))
    alpha_gap = abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha))
    ok = (ctx.position_gap <= tol.position and alpha_gap <= tol.angle
          and k_left <= tol.relative and k_right <= tol.relative
          and tangent_parallel <= tol.relative and d2_left <= tol.relative
          and d2_right <= tol.relative and third <= tol.relative
          and float(lj.d1 @ rj.d1) > 0.0)
    verdict = SMOOTH if ok else DISCONTINUOUS
    return ExponentialJunctionChecks(k_left, k_right, tangent_parallel,
                                     d2_left, d2_right, third, beta1, n, verdict)


def check_junctions(junctions, vehicle: VehicleModel,
                    tol: Tolerances | None = None) -> list[ContinuityReport]:
    """One report per labelled junction ``(left_id, left, right_id, right)``.

    Junctions that `JunctionContext` refuses (no shared end point) are
    reported discontinuous, with infinite residuals and the refusal as note."""
    reports = []
    for left_id, left, right_id, right in junctions:
        try:
            ctx = JunctionContext(left, right, vehicle, left_id, right_id)
        except DegenerateGeometryError as exc:
            reports.append(ContinuityReport(
                left_id, right_id, math.inf, math.inf, None, math.inf, math.inf,
                math.inf, math.inf, math.inf, DISCONTINUOUS, [str(exc)]))
            continue
        reports.append(analyze_junction(ctx, tol))
    return reports


def check_path(path: Path, vehicle: VehicleModel,
               tol: Tolerances | None = None) -> list[ContinuityReport]:
    """One report per interior junction of ``path``, in travel order."""
    return check_junctions(
        ((f"segment{k}", left, f"segment{k + 1}", right)
         for k, (left, right) in enumerate(path.junctions())), vehicle, tol)
