"""Junction repair: move control points until the continuity conditions hold.

The endpoint derivatives of a degree-n Bezier curve are linear in the
control points nearest that end, so a prescribed endpoint jet maps to an
exact control-point update that leaves the rest of the curve untouched.
Repair picks the prescription's free parameters (shape parameters, or
scalar multipliers of the junction tangent for the exponential rule set) by
bounded multi-start direct search, minimizing either estimated travel time
or control-point displacement.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continuity import (SMOOTH, ContinuityReport, JunctionContext,
                         analyze_junction, _extract_curve_route)
from .curve import BezierCurve, ShapeParameters
from .errors import RepairInfeasibleError
from .kinematics import limit_profile_fast
from .motion import ExponentialAnticipated, Tangential, wrap_angle
from .vehicle import PathSegment, VehicleModel

__all__ = [
    "RepairProblem",
    "RepairResult",
    "prescribe_endpoint_jet",
    "repair_tangential",
    "repair_exponential",
    "estimate_travel_time",
]

_TIME_GL_NODES, _TIME_GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_TIME_PANELS = 16


def _endpoint_factors(degree: int) -> tuple[float, float, float]:
    return (float(degree),
            float(degree * (degree - 1)),
            float(degree * (degree - 1) * (degree - 2)))


def prescribe_endpoint_jet(curve: BezierCurve, end: str, d1=None, d2=None,
                           d3=None) -> BezierCurve:
    """Return a copy of ``curve`` whose endpoint derivatives match the targets.

    Only the k control points nearest the chosen end move, where k is the
    highest prescribed order; the endpoint itself stays fixed. Prescribing
    order k needs degree >= k.
    """
    if end not in ("start", "end"):
        raise ValueError(f"end must be 'start' or 'end', got {end!r}")
    order = 3 if d3 is not None else 2 if d2 is not None else 1 if d1 is not None else 0
    if order == 0:
        return curve
    if d3 is not None and d2 is None or d2 is not None and d1 is None:
        raise ValueError("prescribed derivatives must be contiguous from order 1")
    n = curve.degree
    if n < order:
        raise ValueError(f"degree {n} cannot carry an order-{order} endpoint jet")
    f1, f2, f3 = _endpoint_factors(n)
    pts = curve.control_points.copy()
    if end == "start":
        p0 = pts[0]
        pts[1] = p0 + np.asarray(d1, float) / f1
        if d2 is not None:
            pts[2] = np.asarray(d2, float) / f2 + 2.0 * pts[1] - p0
        if d3 is not None:
            pts[3] = np.asarray(d3, float) / f3 + 3.0 * pts[2] - 3.0 * pts[1] + p0
    else:
        pn = pts[n]
        pts[n - 1] = pn - np.asarray(d1, float) / f1
        if d2 is not None:
            pts[n - 2] = np.asarray(d2, float) / f2 + 2.0 * pts[n - 1] - pn
        if d3 is not None:
            pts[n - 3] = pn - 3.0 * pts[n - 1] + 3.0 * pts[n - 2] \
                - np.asarray(d3, float) / f3
    return BezierCurve(pts)


def _travel_time(curve: BezierCurve, mode, v_segment: float,
                 vehicle: VehicleModel) -> float:
    edges = np.linspace(0.0, 1.0, _TIME_PANELS + 1)
    half = 0.5 * (edges[1] - edges[0])
    centers = 0.5 * (edges[:-1] + edges[1:])
    us = (centers[:, None] + half * _TIME_GL_NODES[None, :]).ravel()
    v_max, speed = limit_profile_fast(curve, mode, v_segment, vehicle, us)
    if np.any(v_max <= 0.0) or not np.all(np.isfinite(v_max)):
        return math.inf
    integrand = (speed / v_max).reshape(_TIME_PANELS, -1)
    return float(half * np.sum(integrand @ _TIME_GL_WEIGHTS))


def estimate_travel_time(segment: PathSegment, vehicle: VehicleModel) -> float:
    """Lower-bound travel time: integral of |C'(u)| / v_max(u) over the segment.

    Fixed composite Gauss-Legendre quadrature; acceleration limits are
    deliberately ignored so the value responds smoothly to shape changes.
    Returns inf when the limit profile collapses to zero on the sample set.
    """
    return _travel_time(segment.curve, segment.mode, segment.v_max, vehicle)


@dataclass
class RepairProblem:
    """One junction repair request.

    ``side`` selects which segment's control points move for the tangential
    rule set ("right" edits the downstream curve, "left" the upstream one);
    the exponential rule set always edits both sides. Bounds keep the
    repaired geometry near the original.
    """

    ctx: JunctionContext
    objective: str = "min_travel_time"   # or "min_displacement"
    side: str = "right"
    beta1_bounds: tuple[float, float] = (0.1, 10.0)
    coefficient_bound: float = 10.0

    def __post_init__(self):
        if self.objective not in ("min_travel_time", "min_displacement"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")


@dataclass
class RepairResult:
    """Outcome of a successful repair."""

    new_left_curve: BezierCurve
    new_right_curve: BezierCurve
    parameters: dict
    objective_value: float
    report_after: ContinuityReport
    moved_points: list[dict] = field(default_factory=list)


def _moved_points(before: BezierCurve, after: BezierCurve, side: str) -> list[dict]:
    diffs = []
    for i, (b, a) in enumerate(zip(before.control_points, after.control_points)):
        if not np.array_equal(b, a):
            diffs.append({"side": side, "index": i,
                          "before": [float(b[0]), float(b[1])],
                          "after": [float(a[0]), float(a[1])]})
    return diffs


def _displacement(before: BezierCurve, after: BezierCurve) -> float:
    return float(np.sum((before.control_points - after.control_points)**2))


def _regular(curve: BezierCurve) -> bool:
    us = np.linspace(0.0, 1.0, 257)
    d1 = curve.derivatives_many(us, 1)[1]
    return bool(np.hypot(d1[:, 0], d1[:, 1]).min() > 1e-9)


class _LazyOptimize:
    """``scipy.optimize``, imported on first use: only the repair search needs it."""

    def __getattr__(self, attr):
        from scipy import optimize as module
        return getattr(module, attr)


optimize = _LazyOptimize()


def _multistart_minimize(objective, starts, bounds):
    """Bounded Nelder-Mead from several starts; deterministic argmin."""
    best = None
    for x0 in starts:
        x0 = np.clip(np.asarray(x0, float), [b[0] for b in bounds],
                     [b[1] for b in bounds])
        res = optimize.minimize(objective, x0, method="Nelder-Mead",
                                bounds=bounds,
                                options={"maxfev": 400, "xatol": 1e-10,
                                         "fatol": 1e-12})
        candidate = (float(res.fun), tuple(float(v) for v in res.x))
        if best is None or candidate < best:
            best = candidate
    return best


def _tangential_candidate(problem: RepairProblem, beta: np.ndarray
                          ) -> tuple[BezierCurve, BezierCurve] | None:
    """Curves with the third-order junction jet rewritten for the given beta triple."""
    b1, b2, b3 = float(beta[0]), float(beta[1]), float(beta[2])
    if b1 <= 0.0:
        return None
    ctx = problem.ctx
    if problem.side == "right":
        lj = ctx.left_jet
        d1 = lj.d1 / b1
        d2 = (lj.d2 - b2 * d1) / b1**2
        d3 = (lj.d3 - 3.0 * b1 * b2 * d2 - b3 * d1) / b1**3
        if ctx.right.curve.degree < 4:
            return None
        new_right = prescribe_endpoint_jet(ctx.right.curve, "start", d1, d2, d3)
        if not _regular(new_right):
            return None
        return ctx.left.curve, new_right
    rj = ctx.right_jet
    d1 = b1 * rj.d1
    d2 = b1**2 * rj.d2 + b2 * rj.d1
    d3 = b1**3 * rj.d3 + 3.0 * b1 * b2 * rj.d2 + b3 * rj.d1
    if ctx.left.curve.degree < 4:
        return None
    new_left = prescribe_endpoint_jet(ctx.left.curve, "end", d1, d2, d3)
    if not _regular(new_left):
        return None
    return new_left, ctx.right.curve


def _verify(problem: RepairProblem, left_curve: BezierCurve,
            right_curve: BezierCurve) -> ContinuityReport:
    left_seg = PathSegment(left_curve, problem.ctx.left.mode,
                           problem.ctx.left.v_max)
    right_seg = PathSegment(right_curve, problem.ctx.right.mode,
                            problem.ctx.right.v_max)
    ctx = JunctionContext(left_seg, right_seg, problem.ctx.vehicle,
                          problem.ctx.left_id, problem.ctx.right_id)
    return analyze_junction(ctx)


def _candidate_objective(problem: RepairProblem, left_curve, right_curve) -> float:
    if problem.objective == "min_displacement":
        return (_displacement(problem.ctx.left.curve, left_curve)
                + _displacement(problem.ctx.right.curve, right_curve))
    total = 0.0
    if right_curve is not problem.ctx.right.curve:
        total += _travel_time(right_curve, problem.ctx.right.mode,
                              problem.ctx.right.v_max, problem.ctx.vehicle)
    if left_curve is not problem.ctx.left.curve:
        total += _travel_time(left_curve, problem.ctx.left.mode,
                              problem.ctx.left.v_max, problem.ctx.vehicle)
    return total


def _search(problem: RepairProblem, candidate, starts, bounds, what: str):
    """Minimize the objective over ``candidate``'s parameters; verify the winner.

    Returns (objective value, parameters, curves, report after repair)."""
    def objective(x):
        curves = candidate(problem, x)
        if curves is None:
            return 1e9
        return _candidate_objective(problem, *curves)

    best = _multistart_minimize(objective, starts, bounds)
    if best is None or best[0] >= 1e9:
        raise RepairInfeasibleError(f"no admissible {what} found in bounds")
    value, x = best
    curves = candidate(problem, np.array(x))
    report = _verify(problem, *curves)
    if report.verdict != SMOOTH:
        raise RepairInfeasibleError(
            f"repair verification failed (verdict {report.verdict})")
    return value, x, curves, report


def repair_tangential(problem: RepairProblem) -> RepairResult:
    """Restore shared second-order continuity for tangential-mode segments.

    Rewrites the edited curve's junction jet from the fixed side's jet and a
    shape-parameter triple; the triple is chosen by bounded multi-start
    search on the objective. The repaired junction is re-verified and must
    come back smooth.
    """
    ctx = problem.ctx
    if not (isinstance(ctx.left.mode, Tangential)
            and isinstance(ctx.right.mode, Tangential)):
        raise RepairInfeasibleError("tangential repair requires tangential modes")
    if abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha)) > 1e-9:
        raise RepairInfeasibleError(
            "tangential modes must share the angle offset for a continuous junction")
    extraction = _extract_curve_route(ctx.left_jet, ctx.right_jet)
    if extraction.beta1 is None or extraction.beta1 <= 0.0:
        raise RepairInfeasibleError("junction tangents oppose; repair undefined")
    seed = np.array([extraction.beta1, extraction.beta2, extraction.beta3])
    cb = problem.coefficient_bound * max(
        1.0, float(np.linalg.norm(ctx.left_jet.d2))
        / float(np.linalg.norm(ctx.left_jet.d1)))
    bounds = [problem.beta1_bounds, (-cb, cb), (-cb * 3.0, cb * 3.0)]
    if problem.objective == "min_displacement":
        # Displacement is near-quadratic around the least-squares seed.
        starts = [seed]
    else:
        starts = [seed] + [np.array([b1 * extraction.beta1, extraction.beta2,
                                     extraction.beta3])
                           for b1 in (0.5, 1.0, 2.0)]
    value, x, curves, report = _search(problem, _tangential_candidate, starts,
                                       bounds, "shape parameters")
    beta = ShapeParameters(x[0], x[1], x[2])
    moved = (_moved_points(ctx.right.curve, curves[1], "right")
             + _moved_points(ctx.left.curve, curves[0], "left"))
    return RepairResult(curves[0], curves[1],
                        {"beta1": x[0], "beta2": x[1], "beta3": x[2],
                         "shape_parameters": beta},
                        value, report, moved)


def _exponential_candidate(problem: RepairProblem, x: np.ndarray
                           ) -> tuple[BezierCurve, BezierCurve] | None:
    """Both curves rebuilt from tangent multipliers (x_d1L, x_d2L, x_d1R, x_d2R).

    All first and second junction derivatives become scalar multiples of the
    original upstream tangent, forcing zero endpoint curvature on both sides
    while preserving the junction heading; the downstream third derivative
    follows from the orientation-rate matching relation with the
    reparameterization factor n.
    """
    x1, x2, x3, x4 = (float(v) for v in x)
    if x1 <= 0.0 or x3 <= 0.0:
        return None
    ctx = problem.ctx
    v = ctx.left_jet.d1
    n = ctx.right.mode.n
    if ctx.left.curve.degree < 3 or ctx.right.curve.degree < 4:
        return None
    new_left = prescribe_endpoint_jet(ctx.left.curve, "end", x1 * v, x2 * v)
    if not _regular(new_left):
        return None
    lj = new_left.jet(1.0, order=3)
    beta1 = x1 / x3
    d3_right = lj.d3 / (beta1**3 * n**2)
    new_right = prescribe_endpoint_jet(ctx.right.curve, "start", x3 * v,
                                       x4 * v, d3_right)
    if not _regular(new_right):
        return None
    return new_left, new_right


def repair_exponential(problem: RepairProblem) -> RepairResult:
    """Restore continuity for a tangential -> anticipated-exponential junction."""
    ctx = problem.ctx
    if not isinstance(ctx.right.mode, ExponentialAnticipated):
        raise RepairInfeasibleError(
            "exponential repair expects the anticipated exponential mode downstream")
    if not isinstance(ctx.left.mode, Tangential):
        raise RepairInfeasibleError("exponential repair expects a tangential mode upstream")
    if abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha)) > 1e-9:
        raise RepairInfeasibleError("angle offsets must match across the junction")
    v = ctx.left_jet.d1
    q = float(v @ v)
    seed = np.array([
        1.0,
        float(ctx.left_jet.d2 @ v) / q,
        float(ctx.right_jet.d1 @ v) / q,
        float(ctx.right_jet.d2 @ v) / q,
    ])
    cb = problem.coefficient_bound
    bounds = [problem.beta1_bounds, (-cb, cb), problem.beta1_bounds, (-cb, cb)]
    starts = [seed]
    if problem.objective != "min_displacement":
        for scale in (0.75, 1.25):
            s = seed.copy()
            s[0] *= scale
            s[2] /= scale
            starts.append(s)
    value, x, curves, report = _search(problem, _exponential_candidate, starts,
                                       bounds, "multipliers")
    moved = (_moved_points(ctx.left.curve, curves[0], "left")
             + _moved_points(ctx.right.curve, curves[1], "right"))
    return RepairResult(curves[0], curves[1],
                        {"x_d1_left": x[0], "x_d2_left": x[1],
                         "x_d1_right": x[2], "x_d2_right": x[3],
                         "beta1": x[0] / x[2], "n": ctx.right.mode.n},
                        value, report, moved)
