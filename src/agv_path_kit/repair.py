"""Junction repair: move control points until the continuity conditions hold.

The endpoint derivatives of a degree-n Bezier curve are linear in the
control points nearest that end, so a prescribed endpoint jet maps to an
exact control-point update that leaves the rest of the curve untouched.
Repair picks the prescription's free parameters (shape parameters, or
scalar multipliers of the junction tangent for the exponential rule set) by
bounded multi-start direct search, minimizing either estimated travel time
or control-point displacement; `repair_junction` picks the rule set from
the junction's mode pair. Under displacement, the parameters that move
control points affinely (beta3; the second-order multipliers) are solved in
closed form inside the search, so it runs over two parameters only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .continuity import (SMOOTH, ContinuityReport, JunctionContext,
                         analyze_junction, _extract_curve_route)
from . import optimize
from .curve import BezierCurve, _BezierStack, irregular_parameter
from .errors import RepairInfeasibleError
from .kinematics import limit_profile_fast
from .motion import ExponentialAnticipated, Tangential, wrap_angle
from .vehicle import PathSegment, VehicleModel

__all__ = [
    "RepairProblem",
    "RepairResult",
    "prescribe_endpoint_jet",
    "repair_junction",
    "repair_tangential",
    "repair_exponential",
    "estimate_travel_time",
]

_TIME_GL_NODES, _TIME_GL_WEIGHTS = np.polynomial.legendre.leggauss(12)
_TIME_PANELS = 16
# The 192 quadrature nodes: 12 Gauss-Legendre nodes on each of 16 equal panels.
_TIME_HALF = 0.5 / _TIME_PANELS
_TIME_US = ((np.arange(_TIME_PANELS) + 0.5)[:, None] / _TIME_PANELS
            + _TIME_HALF * _TIME_GL_NODES[None, :]).ravel()
_TIME_US.setflags(write=False)
# Search bounds keep the repair near the original: beta1 and x_d1_* lie in
# _BETA1_BOUNDS, the rest within +-_COEFFICIENT_BOUND (tangential: times
# max(1, |d2| / |d1|) of the left jet, and beta3 three times that).
_BETA1_BOUNDS = (0.1, 10.0)
_COEFFICIENT_BOUND = 10.0


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


def _travel_times(curves, count: int, mode, v_segment: float,
                  vehicle: VehicleModel) -> list[float]:
    """Travel time of each of ``count`` curves, from one speed-limit pass.

    ``curves`` is one `BezierCurve`, or a `_BezierStack` that evaluates its
    ``count`` curves at their own blocks of the nodes; a stacked curve's
    value equals its own pass's bit for bit.
    """
    v_max, speed = limit_profile_fast(curves, mode, v_segment, vehicle,
                                      np.tile(_TIME_US, count))
    times = []
    for v, c in zip(v_max.reshape(count, -1), speed.reshape(count, -1)):
        if np.any(v <= 0.0) or not np.all(np.isfinite(v)):
            times.append(math.inf)
        else:
            integrand = (c / v).reshape(_TIME_PANELS, -1)
            times.append(float(_TIME_HALF * np.sum(integrand @ _TIME_GL_WEIGHTS)))
    return times


def estimate_travel_time(segment: PathSegment, vehicle: VehicleModel) -> float:
    """Lower-bound travel time: integral of |C'(u)| / v_max(u) over the segment.

    Fixed composite Gauss-Legendre quadrature; acceleration limits are
    deliberately ignored so the value responds smoothly to shape changes.
    Returns inf when the limit profile collapses to zero on the sample set.
    """
    return _travel_times(segment.curve, 1, segment.mode, segment.v_max, vehicle)[0]


@dataclass
class RepairProblem:
    """One junction repair request.

    ``side`` selects which segment's control points move for the tangential
    rule set ("right" edits the downstream curve, "left" the upstream one);
    the exponential rule set always edits both sides.
    """

    ctx: JunctionContext
    objective: str = "min_travel_time"   # or "min_displacement"
    side: str = "right"

    def __post_init__(self):
        if self.objective not in ("min_travel_time", "min_displacement"):
            raise ValueError(f"unknown objective {self.objective!r}")
        if self.side not in ("right", "left"):
            raise ValueError(f"side must be 'right' or 'left', got {self.side!r}")


@dataclass
class RepairResult:
    """Outcome of a successful repair.

    ``evaluations`` counts objective evaluations over all search starts;
    ``converged`` says whether the winning start met the optimizer's
    tolerances rather than its evaluation budget.
    """

    new_left_curve: BezierCurve
    new_right_curve: BezierCurve
    parameters: dict
    objective_value: float
    report_after: ContinuityReport
    moved_points: list[dict] = field(default_factory=list)
    evaluations: int = 0
    converged: bool = False


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


def _box_least_squares(a: np.ndarray, b: np.ndarray, lo: float, hi: float) -> np.ndarray:
    """argmin |a z - b|^2 over lo <= z_i <= hi, for ``a`` of full column rank.

    ``a`` has one or two columns. The problem is convex: its minimum is the
    unconstrained solution when that lies in the box, and otherwise the best
    minimum over the box's faces, each a smaller problem of the same kind.
    """
    g, r = a.T @ a, a.T @ b
    if a.shape[1] == 1:
        z = r / g[0, 0]
    else:
        # Cramer's rule on the 2 x 2 normal equations.
        z = np.array([g[1, 1] * r[0] - g[0, 1] * r[1],
                      g[0, 0] * r[1] - g[1, 0] * r[0]]) / (g[0, 0] * g[1, 1] - g[0, 1]**2)
    if np.all((lo <= z) & (z <= hi)):
        return z
    best = None
    for i in range(a.shape[1]):
        rest = [j for j in range(a.shape[1]) if j != i]
        for bound in (lo, hi):
            face = np.full(a.shape[1], bound)
            if rest:
                face[rest] = _box_least_squares(a[:, rest], b - a[:, i] * bound, lo, hi)
            cost = float(np.sum((a @ face - b)**2))
            if best is None or cost < best[0]:
                best = (cost, face)
    return best[1]


def _tangential_candidate(problem: RepairProblem, beta, beta3_bounds):
    """Curves with the third-order junction jet rewritten for a beta triple.

    ``beta`` is (beta1, beta2, beta3), or (beta1, beta2) with beta3 solved:
    beta3 moves only the third control point from the junction, affinely,
    so the displacement-optimal beta3 is a 1-D least squares clipped to
    ``beta3_bounds``. Returns (beta triple, left curve, right curve) or None.
    """
    b1, b2 = float(beta[0]), float(beta[1])
    if b1 <= 0.0:
        return None
    ctx = problem.ctx
    if problem.side == "right":
        curve, end = ctx.right.curve, "start"
        lj = ctx.left_jet
        d1 = lj.d1 / b1
        d2 = (lj.d2 - b2 * d1) / b1**2
        d3_slope = -d1 / b1**3

        def d3_at(b3):
            return (lj.d3 - 3.0 * b1 * b2 * d2 - b3 * d1) / b1**3
    else:
        curve, end = ctx.left.curve, "end"
        rj = ctx.right_jet
        d1 = b1 * rj.d1
        d2 = b1**2 * rj.d2 + b2 * rj.d1
        d3_slope = rj.d1

        def d3_at(b3):
            return b1**3 * rj.d3 + 3.0 * b1 * b2 * rj.d2 + b3 * rj.d1
    if curve.degree < 4:
        return None
    if len(beta) > 2:
        b3 = float(beta[2])
    else:
        # The end jet of order 3 that keeps the third point where it was,
        # from the two points the order-2 jet sets: `prescribe_endpoint_jet`'s
        # formulas on the net read from the junction, where d1 and d3 flip sign.
        sign = 1.0 if end == "start" else -1.0
        q = curve.control_points if end == "start" else curve.control_points[::-1]
        f1, f2, f3 = _endpoint_factors(curve.degree)
        q1 = q[0] + sign * d1 / f1
        q2 = d2 / f2 + 2.0 * q1 - q[0]
        kept = sign * f3 * np.diff([q[0], q1, q2, q[3]], 3, axis=0)[0]
        b3 = float(_box_least_squares(d3_slope[:, None], kept - d3_at(0.0),
                                      *beta3_bounds)[0])
    new = prescribe_endpoint_jet(curve, end, d1, d2, d3_at(b3))
    if irregular_parameter(new) is not None:
        return None
    if problem.side == "right":
        return (b1, b2, b3), ctx.left.curve, new
    return (b1, b2, b3), new, ctx.right.curve


def _search(problem: RepairProblem, candidate, starts, bounds, names,
            what: str) -> RepairResult:
    """Minimize the objective over ``candidate``'s parameters; verify the winner.

    ``candidate(x)`` gives (full parameters, left curve, right curve) or
    None, which scores 1e9; the result's parameters are the winner's full
    ones under ``names``. The starts run in lockstep, and under
    ``min_travel_time`` the edited curves of each side, one per start, are
    timed in one pass.
    """
    ctx = problem.ctx

    def objective(xs):
        built = [candidate(x) for x in xs]
        if problem.objective == "min_displacement":
            return [1e9 if b is None else _displacement(ctx.left.curve, b[1])
                    + _displacement(ctx.right.curve, b[2]) for b in built]
        values = [1e9 if b is None else 0.0 for b in built]
        for index, segment in ((2, ctx.right), (1, ctx.left)):
            rows = [i for i, b in enumerate(built)
                    if b is not None and b[index] is not segment.curve]
            if rows:
                times = _travel_times(_BezierStack([built[i][index] for i in rows]),
                                      len(rows), segment.mode, segment.v_max,
                                      ctx.vehicle)
                for i, time in zip(rows, times):
                    values[i] += time
        return values

    result = optimize.minimize(objective, starts, bounds)
    if result.fun >= 1e9:
        raise RepairInfeasibleError(f"no admissible {what} found in bounds")
    params, left, right = candidate(result.x)
    report = analyze_junction(JunctionContext(
        PathSegment(left, ctx.left.mode, ctx.left.v_max),
        PathSegment(right, ctx.right.mode, ctx.right.v_max),
        ctx.vehicle, ctx.left_id, ctx.right_id))
    if report.verdict != SMOOTH:
        raise RepairInfeasibleError(
            f"repair verification failed (verdict {report.verdict})")
    moved = (_moved_points(ctx.left.curve, left, "left")
             + _moved_points(ctx.right.curve, right, "right"))
    return RepairResult(left, right, dict(zip(names, params)), result.fun, report,
                        moved, result.nfev, result.status == 0)


def repair_tangential(problem: RepairProblem) -> RepairResult:
    """Restore shared second-order continuity for tangential-mode segments.

    Rewrites the edited curve's junction jet from the fixed side's jet and a
    shape-parameter triple; the triple is chosen by bounded multi-start
    search on the objective. Under ``min_displacement`` the search runs
    over (beta1, beta2) only, with beta3 solved in closed form. The
    repaired junction is re-verified and must come back smooth.
    """
    ctx = problem.ctx
    if not (isinstance(ctx.left.mode, Tangential)
            and isinstance(ctx.right.mode, Tangential)):
        raise RepairInfeasibleError("tangential repair requires tangential modes")
    if abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha)) > 1e-9:
        raise RepairInfeasibleError(
            "tangential modes must share the angle offset for a continuous junction")
    seed = np.array(_extract_curve_route(ctx.left_jet, ctx.right_jet))
    if seed[0] <= 0.0:
        raise RepairInfeasibleError("junction tangents oppose; repair undefined")
    cb = _COEFFICIENT_BOUND * max(
        1.0, float(np.linalg.norm(ctx.left_jet.d2))
        / float(np.linalg.norm(ctx.left_jet.d1)))
    bounds = [_BETA1_BOUNDS, (-cb, cb), (-cb * 3.0, cb * 3.0)]
    if problem.objective == "min_displacement":
        # Displacement is near-quadratic around the least-squares seed.
        starts = [seed[:2]]
        bounds, beta3_bounds = bounds[:2], bounds[2]
    else:
        starts = [seed * (scale, 1.0, 1.0) for scale in (1.0, 0.5, 2.0)]
        beta3_bounds = None
    return _search(problem,
                   lambda beta: _tangential_candidate(problem, beta, beta3_bounds),
                   starts, bounds, ("beta1", "beta2", "beta3"), "shape parameters")


def _closest_second_multipliers(problem: RepairProblem, x1: float, x3: float,
                                bound: float) -> tuple[float, float]:
    """Displacement-optimal (x_d2L, x_d2R) in [-bound, bound] for fixed x_d1L, x_d1R.

    With the first-order multipliers fixed, the moved points that depend on
    the second-order ones are the left P(m-2), the right Q2 and the right
    Q3 (through the new left third derivative), each affine in (x_d2L,
    x_d2R) along the junction tangent v; the coefficients follow
    `prescribe_endpoint_jet`. Only the components along v depend on the
    multipliers, so the problem is a 3 x 2 box-constrained least squares.
    """
    ctx = problem.ctx
    v = ctx.left_jet.d1
    left, right = ctx.left.curve.control_points, ctx.right.curve.control_points
    m = ctx.left.curve.degree
    f1l, f2l, f3l = _endpoint_factors(m)
    f1r, f2r, f3r = _endpoint_factors(ctx.right.curve.degree)
    pn, q0 = left[m], right[0]
    l1 = pn - x1 * v / f1l                  # new P(m-1)
    r1 = q0 + x3 * v / f1r                  # new Q1
    c = x3**3 / (x1**3 * ctx.right.mode.n**2 * f3r)   # right Q3 per unit left d3
    offsets = np.array([2.0 * l1 - pn - left[m - 2],
                        2.0 * r1 - q0 - right[2],
                        c * f3l * (3.0 * l1 - 2.0 * pn - left[m - 3])
                        + 3.0 * r1 - 2.0 * q0 - right[3]])
    a = np.array([[1.0 / f2l, 0.0],
                  [0.0, 1.0 / f2r],
                  [3.0 * c * f3l / f2l, 3.0 / f2r]])
    x2, x4 = _box_least_squares(a, -(offsets @ v) / float(v @ v), -bound, bound)
    return float(x2), float(x4)


def _exponential_candidate(problem: RepairProblem, x, bound: float):
    """Both curves rebuilt from tangent multipliers (x_d1L, x_d2L, x_d1R, x_d2R).

    All first and second junction derivatives become scalar multiples of the
    original upstream tangent, forcing zero endpoint curvature on both sides
    while preserving the junction heading; the downstream third derivative
    follows from the orientation-rate matching relation with the
    reparameterization factor n. Given only (x_d1L, x_d1R), the second-order
    multipliers are solved for least displacement within ``bound``.
    Returns (multipliers, left curve, right curve) or None.
    """
    if len(x) == 2:
        x1, x3 = float(x[0]), float(x[1])
        x2 = x4 = None
    else:
        x1, x2, x3, x4 = (float(value) for value in x)
    ctx = problem.ctx
    if x1 <= 0.0 or x3 <= 0.0:
        return None
    if ctx.left.curve.degree < 3 or ctx.right.curve.degree < 4:
        return None
    if x2 is None:
        x2, x4 = _closest_second_multipliers(problem, x1, x3, bound)
    v = ctx.left_jet.d1
    n = ctx.right.mode.n
    new_left = prescribe_endpoint_jet(ctx.left.curve, "end", x1 * v, x2 * v)
    if irregular_parameter(new_left) is not None:
        return None
    # The new left end's third derivative: the last point of the third
    # derivative net, which is what evaluating the curve at u = 1 returns.
    beta1 = x1 / x3
    d3_right = new_left._derivative_net(3)[-1] / (beta1**3 * n**2)
    new_right = prescribe_endpoint_jet(ctx.right.curve, "start", x3 * v,
                                       x4 * v, d3_right)
    if irregular_parameter(new_right) is not None:
        return None
    return (x1, x2, x3, x4), new_left, new_right


def repair_exponential(problem: RepairProblem) -> RepairResult:
    """Restore continuity for a tangential -> anticipated-exponential junction.

    Under ``min_displacement`` the search runs over (x_d1L, x_d1R) only,
    with (x_d2L, x_d2R) solved in closed form.
    """
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
    cb = _COEFFICIENT_BOUND
    bounds = [_BETA1_BOUNDS, (-cb, cb), _BETA1_BOUNDS, (-cb, cb)]
    if problem.objective == "min_displacement":
        starts = [seed[[0, 2]]]
        bounds = bounds[0::2]
    else:
        starts = [np.array([seed[0] * scale, seed[1], seed[2] / scale, seed[3]])
                  for scale in (1.0, 0.75, 1.25)]
    result = _search(problem, lambda x: _exponential_candidate(problem, x, cb),
                     starts, bounds,
                     ("x_d1_left", "x_d2_left", "x_d1_right", "x_d2_right"),
                     "multipliers")
    p = result.parameters
    p["beta1"] = p["x_d1_left"] / p["x_d1_right"]
    p["n"] = ctx.right.mode.n
    return result


def repair_junction(problem: RepairProblem) -> RepairResult:
    """Repair with the rule set for the junction's mode pair.

    An anticipated exponential mode downstream takes `repair_exponential`,
    tangential modes on both sides take `repair_tangential`, and any other
    pair raises RepairInfeasibleError naming both mode types.
    """
    left, right = problem.ctx.left.mode, problem.ctx.right.mode
    if isinstance(right, ExponentialAnticipated):
        return repair_exponential(problem)
    if isinstance(left, Tangential) and isinstance(right, Tangential):
        return repair_tangential(problem)
    raise RepairInfeasibleError(f"no repair rule for mode pair "
                                f"({type(left).__name__}, {type(right).__name__})")
