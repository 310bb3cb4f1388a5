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
import operator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .continuity import (SMOOTH, ContinuityReport, JunctionContext, Tolerances,
                         analyze_junction, _extract_curve_route)
from . import optimize
from .curve import (BezierCurve, _BezierStack, _cross, _dot, _hodograph_certifies, _pow, _rhs,
                    sampled_irregular_parameter)
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


def _jet_net(points: list, end: str, jet) -> list | None:
    """The [x, y] rows ``points`` with the jet (d1, ..., dk) of (x, y) float pairs
    prescribed at ``end``: new rows for points 1..k from that end, the rest shared.

    Each coordinate is float arithmetic grouped as numpy evaluates the vector
    formulas: from the start P1 = P0 + d1/f1, P2 = (d2/f2 + 2 P1) - P0,
    P3 = ((d3/f3 + 3 P2) - 3 P1) + P0; from the end P1 = P0 - d1/f1, the same
    P2, P3 = ((P0 - 3 P1) + 3 P2) - d3/f3. None if a moved point is not finite.
    """
    f1, f2, f3 = _endpoint_factors(len(points) - 1)
    start = end == "start"
    p0 = points[0] if start else points[-1]
    rows = [p1 := [a + d / f1 if start else a - d / f1 for a, d in zip(p0, jet[0])]]
    if len(jet) > 1:
        rows.append(p2 := [d / f2 + 2.0 * b - a for a, b, d in zip(p0, p1, jet[1])])
    if len(jet) > 2:
        rows.append([d / f3 + 3.0 * c - 3.0 * b + a if start else a - 3.0 * b + 3.0 * c - d / f3
                     for a, b, c, d in zip(p0, p1, p2, jet[2])])
    if not all(math.isfinite(x) for row in rows for x in row):
        return None
    k = len(rows)
    return [p0, *rows, *points[k + 1:]] if start else [*points[:-k - 1], *rows[::-1], p0]


def prescribe_endpoint_jet(curve: BezierCurve, end: str, d1=None, d2=None,
                           d3=None) -> BezierCurve:
    """Return a copy of ``curve`` whose endpoint derivatives match the targets.

    Only the k control points nearest the chosen end move, where k is the
    highest prescribed order; the endpoint itself stays fixed. Prescribing
    order k needs degree >= k. The moved points come from `_jet_net`, the
    rule the repair candidates use too.
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
    jet = [np.broadcast_to(np.asarray(d, float), (2,)).tolist() for d in (d1, d2, d3)[:order]]
    net = _jet_net(curve.control_points.tolist(), end, jet)
    if net is None:
        raise ValueError("control points must be finite")
    return BezierCurve(net)


def _travel_times(curves, count: int, mode, v_segment: float,
                  vehicle: VehicleModel) -> list[float]:
    """Travel time of each of ``count`` curves, from one speed-limit pass.

    ``curves`` is one `BezierCurve`, or a `_BezierStack` that evaluates its
    ``count`` curves at their own blocks of the nodes, each block the same
    _TIME_US row; a stacked curve's value equals its own pass's bit for bit.
    """
    v_max, speed = limit_profile_fast(curves, mode, v_segment, vehicle,
                                      np.tile(_TIME_US, count))
    v, c = (a.reshape(count, _TIME_PANELS, -1) for a in (v_max, speed))
    collapsed = ~np.all((v > 0.0) & np.isfinite(v), axis=(1, 2))
    with np.errstate(divide="ignore", invalid="ignore"):  # only collapsed rows meet these
        times = _TIME_HALF * np.sum(np.sum(c / v * _TIME_GL_WEIGHTS, axis=-1), axis=-1)
    return np.where(collapsed, math.inf, times).tolist()


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

    @cached_property
    def _rows(self) -> tuple[list, list]:
        """The left and right control points as [x, y] float rows, converted once."""
        return tuple(s.curve.control_points.tolist() for s in (self.ctx.left, self.ctx.right))


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
    pairs = zip(before.control_points.tolist(), after.control_points.tolist())
    return [{"side": side, "index": i, "before": b, "after": a}
            for i, (b, a) in enumerate(pairs) if b != a]


def _displacement(before: list, after: list) -> float:
    """Squared control-point moves of one side's rows, in ``np.sum``'s order; 0.0 for ``before``."""
    return 0.0 if after is before else float(np.add.reduce(
        [(a - b) * (a - b) for p, q in zip(before, after) for a, b in zip(p, q)]))


def _regular(net: list) -> bool:
    """`irregular_parameter`'s verdict, building a curve only if uncertified."""
    return _hodograph_certifies(net) or sampled_irregular_parameter(BezierCurve(net)) is None


def _box_least_squares(columns, b, lo: float, hi: float) -> list[float]:
    """argmin |A z - b|^2 over lo <= z_i <= hi, for A of full column rank.

    A has one or two ``columns``, float sequences as long as ``b``; a sum of
    products over the rows is a `math.fsum`. The problem is convex: with one
    column its minimum is the unconstrained one clipped to the box (NaN to
    ``lo``); with two, the unconstrained one when that lies in the box, and
    otherwise the cheapest of the four faces' one-column minima.
    """
    def inner(u, v):
        return math.fsum(map(operator.mul, u, v))

    if len(columns) == 1:
        z = inner(columns[0], b) / inner(columns[0], columns[0])
        return [hi if z > hi else z if z >= lo else lo]
    g = [[inner(u, v) for v in columns] for u in columns]
    r = [inner(u, b) for u in columns]
    det = _cross(g[0], g[1])  # Cramer's rule on the normal equations g z = r
    z = [_cross(r, g[1]) / det, _cross(g[0], r) / det]
    if all(lo <= x <= hi for x in z):
        return z
    faces = []  # column i held at a bound, the other one solved
    for i, bound in ((0, lo), (0, hi), (1, lo), (1, hi)):
        face = [bound, bound]
        face[1 - i], = _box_least_squares(
            [columns[1 - i]], [y - x * bound for x, y in zip(columns[i], b)], lo, hi)
        faces.append(face)

    def cost(face):
        residual = [_dot(row, face) - y for row, y in zip(zip(*columns), b)]
        return inner(residual, residual)
    return min(faces, key=cost)


def _tangential_candidate(problem: RepairProblem, beta, beta3_bounds):
    """Nets with the third-order junction jet rewritten for a beta triple.

    ``beta`` is (beta1, beta2, beta3), or (beta1, beta2) with beta3 solved:
    beta3 moves only the third control point from the junction, affinely,
    so the displacement-optimal beta3 is a 1-D least squares clipped to
    ``beta3_bounds``. Returns (beta triple, left net, right net) or None.
    The jets are Python floats, each formula grouped left to right as written.
    """
    b1, b2 = float(beta[0]), float(beta[1])
    if b1 <= 0.0:
        return None
    ctx, (left, right) = problem.ctx, problem._rows
    if problem.side == "right":
        points, end = right, "start"
        _, l1, l2, l3 = ctx.left_jet._floats
        d1 = [x / b1 for x in l1]
        d2 = [(y - b2 * x) / b1**2 for x, y in zip(d1, l2)]
        d3_slope = [-x / b1**3 for x in d1]

        def d3_at(b3):
            return [(z - 3.0 * b1 * b2 * y - b3 * x) / b1**3 for x, y, z in zip(d1, d2, l3)]
    else:
        points, end = left, "end"
        _, r1, r2, r3 = ctx.right_jet._floats
        d1 = [_rhs(1, b1, b2, None, x) for x in r1]
        d2 = [_rhs(2, b1, b2, None, x, y) for x, y in zip(r1, r2)]
        d3_slope = r1

        def d3_at(b3):
            return [_rhs(3, b1, b2, b3, x, y, z) for x, y, z in zip(r1, r2, r3)]
    if len(beta) > 2:
        b3 = float(beta[2])
    else:
        # The end jet of order 3 that keeps the third point where it was:
        # sign * f3 * np.diff([q0, q1, q2, q3], 3), the net read from the
        # junction (d1 and d3 flip sign at the end), q1 and q2 set by d1, d2.
        sign = 1.0 if end == "start" else -1.0
        f3 = _endpoint_factors(len(points) - 1)[2]
        if (q := _jet_net(points, end, [d1, d2])) is None:
            return None
        q0, q1, q2, q3 = q[:4] if end == "start" else q[:-5:-1]
        kept = [sign * f3 * (((d - c) - (c - b)) - ((c - b) - (b - a)))
                for a, b, c, d in zip(q0, q1, q2, q3)]
        b3, = _box_least_squares([d3_slope], [k - z for k, z in zip(kept, d3_at(0.0))],
                                 *beta3_bounds)
    net = _jet_net(points, end, [d1, d2, d3_at(b3)])
    if net is None or not _regular(net):
        return None
    if problem.side == "right":
        return (b1, b2, b3), left, net
    return (b1, b2, b3), net, right


def _require_matching_offsets(ctx: JunctionContext):
    """Refuse a junction whose angle offsets differ by more than `check` accepts."""
    if abs(wrap_angle(ctx.left.mode.alpha - ctx.right.mode.alpha)) > Tolerances.default().angle:
        raise RepairInfeasibleError("angle offsets must match across the junction")


def _require_degree(ctx: JunctionContext, side: str, lowest: int, rule: str):
    """Refuse an edited curve too short for ``rule`` to keep its far end."""
    segment, name = (ctx.left, ctx.left_id) if side == "left" else (ctx.right, ctx.right_id)
    if segment.curve.degree < lowest:
        raise RepairInfeasibleError(f"{rule} repair needs degree >= {lowest} on segment "
                                    f"{name!r}, which has degree {segment.curve.degree}")


def _search(problem: RepairProblem, candidate, starts, bounds, names,
            what: str) -> RepairResult:
    """Minimize the objective over ``candidate``'s parameters; verify the winner.

    ``candidate(x)`` gives (full parameters, left net, right net), a side
    left alone being its own rows in ``problem._rows``, or None, which scores
    1e9. The objective scores nets: displacement over the edited sides, or
    under ``min_travel_time`` one stacked pass per side over the edited nets
    of all lockstep starts. Only the winner becomes `BezierCurve`s; its full
    parameters are the result's under ``names``.
    """
    ctx = problem.ctx
    fixed = (None, *problem._rows)

    def objective(xs):
        built = [candidate(x) for x in xs]
        if problem.objective == "min_displacement":
            return [1e9 if b is None else _displacement(fixed[1], b[1])
                    + _displacement(fixed[2], b[2]) for b in built]
        values = [1e9 if b is None else 0.0 for b in built]
        for index, segment in ((2, ctx.right), (1, ctx.left)):
            rows = [i for i, b in enumerate(built)
                    if b is not None and b[index] is not fixed[index]]
            if rows:
                stack = _BezierStack([built[i][index] for i in rows])
                times = _travel_times(stack, len(rows), segment.mode, segment.v_max,
                                      ctx.vehicle)
                for i, time in zip(rows, times):
                    values[i] += time
        return values

    result = optimize.minimize(objective, starts, bounds)
    if result.fun >= 1e9:
        raise RepairInfeasibleError(f"no admissible {what} found in bounds")
    params, *nets = candidate(result.x)
    left, right = (segment.curve if net is points else BezierCurve(net)
                   for segment, net, points in zip((ctx.left, ctx.right), nets, fixed[1:]))
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
    _require_matching_offsets(ctx)
    _require_degree(ctx, problem.side, 4, "tangential")
    seed = np.array(_extract_curve_route(ctx.left_jet, ctx.right_jet))
    if seed[0] <= 0.0:
        raise RepairInfeasibleError("junction tangents oppose; repair undefined")
    _, d1, d2, _ = ctx.left_jet._floats
    cb = _COEFFICIENT_BOUND * max(1.0, math.sqrt(_dot(d2, d2)) / math.sqrt(_dot(d1, d1)))
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
    The offsets are floats grouped as the vector formulas in the comments.
    """
    ctx = problem.ctx
    v = ctx.left_jet._floats[1]
    left, right = problem._rows
    f1l, f2l, f3l = _endpoint_factors(len(left) - 1)
    f1r, f2r, f3r = _endpoint_factors(len(right) - 1)
    (p3, p2, _, pn), (q0, _, q2, q3) = left[-4:], right[:4]
    l1 = [a - x1 * w / f1l for a, w in zip(pn, v)]   # new P(m-1) = pn - x1 v / f1l
    r1 = [a + x3 * w / f1r for a, w in zip(q0, v)]   # new Q1 = q0 + x3 v / f1r
    c = x3**3 / (x1**3 * ctx.right.mode.n**2 * f3r)   # right Q3 per unit left d3
    offsets = [   # 2 l1 - pn - P(m-2); 2 r1 - q0 - Q2;
        [2.0 * a - b - d for a, b, d in zip(l1, pn, p2)],
        [2.0 * a - b - d for a, b, d in zip(r1, q0, q2)],
        # c f3l (3 l1 - 2 pn - P(m-3)) + 3 r1 - 2 q0 - Q3
        [c * f3l * (3.0 * a - 2.0 * b - d) + 3.0 * e - 2.0 * g - h
         for a, b, d, e, g, h in zip(l1, pn, p3, r1, q0, q3)]]
    q = _dot(v, v)
    columns = [[1.0 / f2l, 0.0, 3.0 * c * f3l / f2l], [0.0, 1.0 / f2r, 3.0 / f2r]]
    x2, x4 = _box_least_squares(columns, [-_dot(row, v) / q for row in offsets], -bound, bound)
    return x2, x4


def _exponential_candidate(problem: RepairProblem, x, bound: float):
    """Both curves rebuilt from tangent multipliers (x_d1L, x_d2L, x_d1R, x_d2R).

    All first and second junction derivatives become scalar multiples of the
    original upstream tangent, forcing zero endpoint curvature on both sides
    while preserving the junction heading; the downstream third derivative
    follows from the orientation-rate matching relation with the
    reparameterization factor n. Given only (x_d1L, x_d1R), the second-order
    multipliers are solved for least displacement within ``bound``.
    Returns (multipliers, left net, right net) or None.
    """
    if len(x) == 2:
        x1, x3 = float(x[0]), float(x[1])
        x2 = x4 = None
    else:
        x1, x2, x3, x4 = (float(value) for value in x)
    ctx = problem.ctx
    if not (x1 > 0.0 and x3 > 0.0):
        return None
    # The right C'''(0) is the new left C'''(1) over scale; none fits if it is inf.
    if not (scale := _pow(x1 / x3, 3) * _pow(ctx.right.mode.n, 2)) < math.inf:
        return None
    if x2 is None:
        x2, x4 = _closest_second_multipliers(problem, x1, x3, bound)
    v = ctx.left_jet._floats[1]
    left = _jet_net(problem._rows[0], "end", [[x1 * c for c in v], [x2 * c for c in v]])
    if left is None or not _regular(left):
        return None
    # C'''(1) of the new left net, differenced from its last 4 points as `_derivative_net` does.
    m = len(left) - 1
    d3_right = [(m - 2) * ((m - 1) * (m * (d - c) - m * (c - b))
                           - (m - 1) * (m * (c - b) - m * (b - a))) / scale
                for a, b, c, d in zip(*left[-4:])]
    right = _jet_net(problem._rows[1], "start",
                     [[x3 * c for c in v], [x4 * c for c in v], d3_right])
    if right is None or not _regular(right):
        return None
    return (x1, x2, x3, x4), left, right


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
    _require_matching_offsets(ctx)
    _require_degree(ctx, "left", 3, "exponential")
    _require_degree(ctx, "right", 4, "exponential")
    v = ctx.left_jet._floats[1]
    q = _dot(v, v)
    seed = np.array([1.0] + [_dot(d, v) / q for d in (ctx.left_jet._floats[2],
                                                      *ctx.right_jet._floats[1:3])])
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
